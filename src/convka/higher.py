"""Two- and n-dimensional catoids and their convolution algebras.

An n-catoid stacks n catoid structures on one element set, with commuting
face maps, lax functoriality inclusions, interchange, absorption of lower
faces by higher ones, and the two closure equations on higher faces of
lower products.

The valency-based operators D-_i / D+_i per dimension require complete
models, as in ``modal``.
"""

from __future__ import annotations

import itertools

from .catoid import Catoid, check_catoid_axioms, is_functional, is_local, memo_compose
from .convolution import (
    WeightFunction,
    conv_add,
    convolve,
    from_pairs,
    function_leq,
    functions_equal,
    random_function,
    star_recursive,
    zero_function,
)
from .modal import valency_certificate
from .report import FAIL, INFO, PASS, Report
from .values import CapabilityError, NValueAlgebra


class NCatoid:
    """A shared element universe with one catoid structure per dimension."""

    def __init__(self, name: str, dims):
        self.name = name
        self.dims = tuple(dims)
        if len(self.dims) < 2:
            raise ValueError("need at least two dimensions")
        base = self.dims[0].elements()
        for d in self.dims[1:]:
            if d.elements() != base:
                raise ValueError("dimensions must share one element universe")

    @property
    def n(self) -> int:
        return len(self.dims)

    def dim(self, i: int) -> Catoid:
        return self.dims[i]

    def elements(self) -> list:
        return self.dims[0].elements()

    def identities(self, i: int) -> list:
        return self.dims[i].identities()

    def __repr__(self):
        return f"<NCatoid {self.name}: n={self.n}, {len(self.elements())} elements>"


class TwoCatoid(NCatoid):
    def __init__(self, name, dim0, dim1):
        super().__init__(name, (dim0, dim1))


def _set_map(fn, xs) -> frozenset:
    return frozenset(fn(x) for x in xs)


def check_n_catoid(nc: NCatoid, universe=None) -> Report:
    """Full n-catoid axiom list with witnesses, plus strictness classification.

    Locality/functionality per dimension are reported as info lines: they
    classify strict n-categories but are not n-catoid axioms.

    Each dimension's products go through one ``memo_compose`` for the whole
    call.  Interchange walks pairs of j-composable pairs, so a quadruple with
    w .j x or y .j z empty (empty left side) is decided without composing;
    associativity does the same for triples with both inner products empty.
    ``checked=`` still counts all |U|^4 (and |U|^3) instances.
    """
    U = list(universe) if universe is not None else nc.elements()
    rep = Report(model=nc.name)
    composes = [memo_compose(d) for d in nc.dims]

    for i, d in enumerate(nc.dims):
        sub = check_catoid_axioms(d, U)
        for e in sub.entries:
            rep.add(f"dim{i}.{e.law}", e.status, e.witnesses, e.checked, note=e.note)

    for i, j in itertools.permutations(range(nc.n), 2):
        si, ti = nc.dims[i].source, nc.dims[i].target
        sj, tj = nc.dims[j].source, nc.dims[j].target
        bad = [x for x in U
               if si(sj(x)) != sj(si(x)) or si(tj(x)) != tj(si(x))
               or ti(sj(x)) != sj(ti(x)) or ti(tj(x)) != tj(ti(x))]
        rep.add(f"ncat.face-commute[{i},{j}]", FAIL if bad else PASS, bad, checked=len(U))

        cj = composes[j]
        bad = []
        for x, y in itertools.product(U, repeat=2):
            prod = cj(x, y)
            if not _set_map(si, prod) <= cj(si(x), si(y)):
                bad.append((x, y, "s"))
            if not _set_map(ti, prod) <= cj(ti(x), ti(y)):
                bad.append((x, y, "t"))
        rep.add(f"ncat.lax-functorial[{i},{j}]", FAIL if bad else PASS, bad,
                checked=len(U) ** 2)

    for i, j in itertools.combinations(range(nc.n), 2):
        ci, cj = composes[i], composes[j]
        si, ti = nc.dims[i].source, nc.dims[i].target
        sj, tj = nc.dims[j].source, nc.dims[j].target

        # (w, x) with w .j x nonempty, in product order, so that walking
        # pairs of them visits quadruples in the order of U^4
        pairs = [(w, x, cj(w, x)) for w, x in itertools.product(U, repeat=2) if cj(w, x)]
        bad = []
        for w, x, wx in pairs:
            for y, z, yz in pairs:
                lhs = set()
                for a in wx:
                    for b in yz:
                        lhs |= ci(a, b)
                if not lhs:
                    continue
                rhs = set()
                for a in ci(w, y):
                    for b in ci(x, z):
                        rhs |= cj(a, b)
                if not lhs <= rhs:
                    bad.append((w, x, y, z))
        rep.add(f"ncat.interchange[{i}<{j}]", FAIL if bad else PASS, bad,
                checked=len(U) ** 4)

        bad = [x for x in U
               if sj(si(x)) != si(x) or sj(ti(x)) != ti(x)
               or tj(si(x)) != si(x) or tj(ti(x)) != ti(x)]
        rep.add(f"ncat.face-absorb[{i}<{j}]", FAIL if bad else PASS, bad, checked=len(U))

        bad = []
        for x, y in itertools.product(U, repeat=2):
            prod = ci(sj(x), sj(y))
            if _set_map(sj, prod) != prod:
                bad.append((x, y, "s"))
            prod = ci(tj(x), tj(y))
            if _set_map(tj, prod) != prod:
                bad.append((x, y, "t"))
        rep.add(f"ncat.closure[{i}<{j}]", FAIL if bad else PASS, bad, checked=len(U) ** 2)

    filt_ok = True
    for i in range(nc.n - 1):
        lower = set(nc.identities(i))
        upper = set(nc.identities(i + 1))
        if not lower <= upper:
            filt_ok = False
    rep.add("ncat.identity-filtration", PASS if filt_ok else FAIL, checked=nc.n - 1)

    for i, d in enumerate(nc.dims):
        loc = is_local(d, U).clean
        fun = is_functional(d, U).clean
        rep.add(f"classify.dim{i}", INFO, checked=len(U) ** 2,
                note=f"local={loc} functional={fun}")
    return rep


check_2catoid = check_n_catoid


# ---------------------------------------------------------------------------
# interchange convolution


class InterchangeConvolution:
    """Two convolution structures over one function space, one per dimension."""

    def __init__(self, tc: NCatoid, alg: NValueAlgebra):
        if tc.n != 2 or alg.n != 2:
            raise CapabilityError("interchange structures are two-dimensional")
        if not alg.leq(alg.dims[0].one, alg.dims[1].one):
            raise CapabilityError("value algebra violates one0 <= one1")
        for i in range(2):
            tc.dim(i).require_moebius()
        self.tc = tc
        self.alg = alg
        self.views = (alg.view(0), alg.view(1))

    def id_(self, i: int) -> WeightFunction:
        C, v = self.tc.dim(i), self.views[i]
        return WeightFunction(C, v,
                              lambda x: v.one if C.is_identity(x) else v.zero,
                              name=f"id{i}")

    def add(self, f, g):
        return conv_add(f, g, catoid=self.tc.dim(0), algebra=self.views[0])

    def mul(self, i, f, g):
        return convolve(f, g, catoid=self.tc.dim(i), algebra=self.views[i])

    def star(self, i, f):
        rebound = WeightFunction(self.tc.dim(i), self.views[i], f, name=f.name)
        return star_recursive(rebound)

    def random_function(self, rng):
        return random_function(self.tc.dim(0), self.views[0], rng)


def check_interchange(ic: InterchangeConvolution, rng, samples=100) -> Report:
    """Interchange inequality on function quadruples, plus id0 <= id1."""
    tc, alg = ic.tc, ic.alg
    rep = Report(model=tc.name, algebra=alg.name)
    U = tc.elements()

    ok = function_leq(ic.id_(0), ic.id_(1), U)
    rep.add("ic.unit-leq", PASS if ok else FAIL, [] if ok else [("id0 !<= id1",)],
            checked=len(U))

    bad = []
    for k in range(samples):
        f, g, h, kk = (ic.random_function(rng) for _ in range(4))
        lhs = ic.mul(0, ic.mul(1, f, g), ic.mul(1, h, kk))
        rhs = ic.mul(1, ic.mul(0, f, h), ic.mul(0, g, kk))
        if not function_leq(lhs, rhs, U):
            for x in U:
                if not alg.leq(lhs(x), rhs(x)):
                    bad.append((k, tc.dim(0).format_element(x), lhs(x), rhs(x)))
                    break
    rep.add("ic.interchange", FAIL if bad else PASS, bad, checked=samples * len(U))
    return rep


# ---------------------------------------------------------------------------
# n-fold convolution with per-dimension modal structure


class NConvolution:
    """Per-dimension convolution, units, valency-based modal operators and stars."""

    def __init__(self, nc: NCatoid, alg: NValueAlgebra):
        if nc.n != alg.n:
            raise CapabilityError(f"dimension mismatch: catoid n={nc.n}, algebra n={alg.n}")
        self.nc = nc
        self.alg = alg
        self.views = tuple(alg.view(i) for i in range(alg.n))
        self.certificates = []
        for i in range(nc.n):
            d = nc.dim(i)
            if not is_local(d).clean:
                raise CapabilityError(f"dimension {i}: model is not local")
            d.require_moebius()
            try:
                self.certificates.append(valency_certificate(d))
            except CapabilityError as exc:
                raise CapabilityError(f"dimension {i}: {exc}") from exc
            if self.views[i].dom is None or self.views[i].cod is None:
                raise CapabilityError(f"dimension {i}: value algebra lacks modal maps")

    def id_(self, i):
        C, v = self.nc.dim(i), self.views[i]
        return WeightFunction(C, v,
                              lambda x: v.one if C.is_identity(x) else v.zero,
                              name=f"id{i}")

    def add(self, f, g):
        return conv_add(f, g, catoid=self.nc.dim(0), algebra=self.views[0])

    def mul(self, i, f, g):
        return convolve(f, g, catoid=self.nc.dim(i), algebra=self.views[i])

    def star(self, i, f):
        rebound = WeightFunction(self.nc.dim(i), self.views[i], f, name=f.name)
        return star_recursive(rebound)

    def dom_(self, i, f):
        C, v = self.nc.dim(i), self.views[i]
        table = {}
        for e in C.identities():
            acc = v.zero
            for y in C.elements():
                if C.source(y) == e:
                    acc = v.add(acc, v.dom(f(y)))
            table[e] = acc
        return from_pairs(C, v, table, name=f"D-{i}({f.name})")

    def cod_(self, i, f):
        C, v = self.nc.dim(i), self.views[i]
        table = {}
        for e in C.identities():
            acc = v.zero
            for y in C.elements():
                if C.target(y) == e:
                    acc = v.add(acc, v.cod(f(y)))
            table[e] = acc
        return from_pairs(C, v, table, name=f"D+{i}({f.name})")

    def zero(self):
        return zero_function(self.nc.dim(0), self.views[0])

    def random_function(self, rng):
        return random_function(self.nc.dim(0), self.views[0], rng)


def build_interchange_convolution(tc, alg) -> InterchangeConvolution:
    return InterchangeConvolution(tc, alg)


def build_n_convolution(nc, alg) -> NConvolution:
    return NConvolution(nc, alg)


def check_n_axioms(bundle: NConvolution, rng, samples=25) -> Report:
    """Per-dimension modal axioms plus all cross-dimension laws, pointwise.

    Covers lax functoriality of D-/D+, interchange, face absorption, the two
    closure laws, the product-with-domain identity, the idempotence
    inequality, and (when every dimension has a star) the star-domain laws.
    """
    nc, alg = bundle.nc, bundle.alg
    rep = Report(model=nc.name, algebra=alg.name)
    U = nc.elements()
    leq = alg.leq

    fs = [bundle.zero()] + [bundle.random_function(rng) for _ in range(samples)]
    pairs = [(f, g) for f in fs[: max(2, samples // 3)] for g in fs[: max(2, samples // 3)]]

    for i in range(nc.n):
        unit = bundle.id_(i)
        bad = {k: [] for k in ("expand", "local", "subid", "strict", "additive",
                               "compat")}
        for k, f in enumerate(fs):
            df, cf = bundle.dom_(i, f), bundle.cod_(i, f)
            if not function_leq(f, bundle.mul(i, df, f), U):
                bad["expand"].append((k, "dom"))
            if not function_leq(f, bundle.mul(i, f, cf), U):
                bad["expand"].append((k, "cod"))
            if not function_leq(df, unit, U) or not function_leq(cf, unit, U):
                bad["subid"].append((k,))
            if not functions_equal(bundle.cod_(i, df), df, U) or \
               not functions_equal(bundle.dom_(i, cf), cf, U):
                bad["compat"].append((k,))
        for k, (f, g) in enumerate(pairs):
            if not functions_equal(bundle.dom_(i, bundle.mul(i, f, bundle.dom_(i, g))),
                                   bundle.dom_(i, bundle.mul(i, f, g)), U):
                bad["local"].append((k, "dom"))
            if not functions_equal(bundle.cod_(i, bundle.mul(i, bundle.cod_(i, f), g)),
                                   bundle.cod_(i, bundle.mul(i, f, g)), U):
                bad["local"].append((k, "cod"))
            if not functions_equal(bundle.dom_(i, bundle.add(f, g)),
                                   bundle.add(bundle.dom_(i, f), bundle.dom_(i, g)), U):
                bad["additive"].append((k, "dom"))
            if not functions_equal(bundle.cod_(i, bundle.add(f, g)),
                                   bundle.add(bundle.cod_(i, f), bundle.cod_(i, g)), U):
                bad["additive"].append((k, "cod"))
        z = bundle.zero()
        if not functions_equal(bundle.dom_(i, z), z, U) or \
           not functions_equal(bundle.cod_(i, z), z, U):
            bad["strict"].append(("D(0) != 0",))
        for key, witnesses in sorted(bad.items()):
            rep.add(f"nconv.modal-{key}[{i}]", FAIL if witnesses else PASS, witnesses,
                    checked=len(fs))

    for i, j in itertools.permutations(range(nc.n), 2):
        bad = []
        for k, (f, g) in enumerate(pairs):
            lhs = bundle.dom_(i, bundle.mul(j, f, g))
            rhs = bundle.mul(j, bundle.dom_(i, f), bundle.dom_(i, g))
            if not function_leq(lhs, rhs, U):
                bad.append((k, "dom"))
            lhs = bundle.cod_(i, bundle.mul(j, f, g))
            rhs = bundle.mul(j, bundle.cod_(i, f), bundle.cod_(i, g))
            if not function_leq(lhs, rhs, U):
                bad.append((k, "cod"))
        rep.add(f"nconv.d-lax[{i},{j}]", FAIL if bad else PASS, bad, checked=len(pairs))

    for i, j in itertools.combinations(range(nc.n), 2):
        bad = []
        for k in range(max(4, samples // 2)):
            f, g, h, kk = (bundle.random_function(rng) for _ in range(4))
            lhs = bundle.mul(i, bundle.mul(j, f, g), bundle.mul(j, h, kk))
            rhs = bundle.mul(j, bundle.mul(i, f, h), bundle.mul(i, g, kk))
            if not function_leq(lhs, rhs, U):
                bad.append((k,))
        rep.add(f"nconv.interchange[{i}<{j}]", FAIL if bad else PASS, bad,
                checked=max(4, samples // 2))

        bad = []
        for k, f in enumerate(fs):
            if not functions_equal(bundle.dom_(j, bundle.dom_(i, f)), bundle.dom_(i, f), U):
                bad.append((k,))
        rep.add(f"nconv.dom-absorb[{i}<{j}]", FAIL if bad else PASS, bad, checked=len(fs))

        bad = []
        for k, (f, g) in enumerate(pairs):
            dj_f, dj_g = bundle.dom_(j, f), bundle.dom_(j, g)
            prod = bundle.mul(i, dj_f, dj_g)
            if not functions_equal(bundle.dom_(j, prod), prod, U):
                bad.append((k, "dom"))
            cj_f, cj_g = bundle.cod_(j, f), bundle.cod_(j, g)
            prod = bundle.mul(i, cj_f, cj_g)
            if not functions_equal(bundle.cod_(j, prod), prod, U):
                bad.append((k, "cod"))
        rep.add(f"nconv.closure[{i}<{j}]", FAIL if bad else PASS, bad, checked=len(pairs))

        bad = []
        vj = bundle.views[j]
        for k, f in enumerate(fs):
            df = bundle.dom_(i, f)
            for x in U:
                if not leq(df(x), vj.mul(df(x), df(x))):
                    bad.append((k, nc.dim(0).format_element(x)))
                    break
        rep.add(f"nconv.dom-idem-leq[{i}<{j}]", FAIL if bad else PASS, bad,
                checked=len(fs) * len(U), note="D-_i(f)(x) <= D-_i(f)(x) .j D-_i(f)(x)")

    for i in range(nc.n):
        bad = []
        Ci = nc.dim(i)
        vi = bundle.views[i]
        for k, (f, g) in enumerate(pairs):
            df = bundle.dom_(i, f)
            lhs = bundle.mul(i, df, g)
            for x in U:
                if lhs(x) != vi.mul(df(Ci.source(x)), g(x)):
                    bad.append((k, Ci.format_element(x)))
                    break
        rep.add(f"nconv.dom-product[{i}]", FAIL if bad else PASS, bad, checked=len(pairs),
                note="(D-(f)*g)(x) = D-(f)(s(x)).g(x)")

    if all(v.has_star for v in bundle.views):
        for i, j in itertools.combinations(range(nc.n), 2):
            bad = []
            for k, (f, g) in enumerate(pairs):
                df = bundle.dom_(i, f)
                lhs = bundle.mul(i, df, bundle.star(j, g))
                rhs = bundle.star(j, bundle.mul(i, df, g))
                if not function_leq(lhs, rhs, U):
                    bad.append((k, "dom"))
                cf = bundle.cod_(i, f)
                lhs = bundle.mul(i, bundle.star(j, g), cf)
                rhs = bundle.star(j, bundle.mul(i, g, cf))
                if not function_leq(lhs, rhs, U):
                    bad.append((k, "cod"))
            rep.add(f"nconv.star-domain[{i}<{j}]", FAIL if bad else PASS, bad,
                    checked=len(pairs))
    return rep
