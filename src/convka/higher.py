"""Two- and n-dimensional catoids and their convolution algebras.

An n-catoid stacks n catoid structures on one element set, with commuting
face maps, lax functoriality inclusions, interchange, absorption of lower
faces by higher ones, and the two closure equations on higher faces of
lower products.

The valency-based operators D-_i / D+_i are ``modal``'s hat lifting applied
per dimension; they need local, complete models.
"""

from __future__ import annotations

import itertools

from .catoid import check_catoid_axioms, is_functional, is_local, memo_compose
from .convolution import (
    conv_add,
    convolve,
    function_leq,
    functions_equal,
    id0,
    random_function,
    star_recursive,
    zero_function,
)
from .modal import cod_hat, dom_hat
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

    def elements(self) -> list:
        return self.dims[0].elements()

    def __repr__(self):
        return f"<NCatoid {self.name}: n={self.n}, {len(self.elements())} elements>"


def _set_map(fn, xs) -> frozenset:
    return frozenset(fn(x) for x in xs)


def check_n_catoid(nc: NCatoid) -> Report:
    """Full n-catoid axiom list with witnesses, plus strictness classification.

    Locality/functionality per dimension are reported as info lines: they
    classify strict n-categories but are not n-catoid axioms.

    Each dimension's products go through one ``memo_compose`` for the whole
    call.  Interchange walks pairs of j-composable pairs, so a quadruple with
    w .j x or y .j z empty (empty left side) is decided without composing;
    associativity does the same for triples with both inner products empty.
    ``checked=`` still counts all |U|^4 (and |U|^3) instances.
    """
    U = nc.elements()
    rep = Report(model=nc.name)
    composes = [memo_compose(d) for d in nc.dims]

    for i, d in enumerate(nc.dims):
        sub = check_catoid_axioms(d)
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
        lower = set(nc.dims[i].identities())
        upper = set(nc.dims[i + 1].identities())
        if not lower <= upper:
            filt_ok = False
    rep.add("ncat.identity-filtration", PASS if filt_ok else FAIL, checked=nc.n - 1)

    for i, d in enumerate(nc.dims):
        loc = is_local(d).clean
        fun = is_functional(d).clean
        rep.add(f"classify.dim{i}", INFO, checked=len(U) ** 2,
                note=f"local={loc} functional={fun}")
    return rep


# ---------------------------------------------------------------------------
# n-fold convolution: interchange (n = 2) and per-dimension modal structure


class NConvolution:
    """Per-dimension convolution, units, stars and valency-based modal operators.

    One bundle serves interchange (n = 2) and higher convolution algebras.
    Each operation reads its arguments over its dimension through
    ``WeightFunction.over``.  A dimension's locality is checked on its first
    ``dom_``/``cod_`` call and the hat checks completeness and modal maps, so
    a truncated model still gets convolution, units and stars.
    """

    def __init__(self, nc: NCatoid, alg: NValueAlgebra):
        if nc.n != alg.n:
            raise CapabilityError(f"dimension mismatch: catoid n={nc.n}, algebra n={alg.n}")
        for i, j in itertools.combinations(range(alg.n), 2):
            if not alg.leq(alg.dims[i].one, alg.dims[j].one):
                raise CapabilityError(f"value algebra violates one{i} <= one{j}")
        for d in nc.dims:
            d.require_moebius()
        self.nc = nc
        self.alg = alg
        self.views = tuple(alg.view(i) for i in range(alg.n))
        self._local_dims = set()

    def _over(self, i, f):
        return f.over(self.nc.dims[i], self.views[i])

    def _lift(self, hat, i, f):
        """hat of f over dimension i; the dimension's locality is checked on
        its first lift, and the hat checks completeness and modal maps."""
        if i not in self._local_dims:
            if not is_local(self.nc.dims[i]).clean:
                raise CapabilityError(f"dimension {i}: model is not local")
            self._local_dims.add(i)
        try:
            return hat(self._over(i, f))
        except CapabilityError as exc:
            raise CapabilityError(f"dimension {i}: {exc}") from None

    def id_(self, i):
        return id0(self.nc.dims[i], self.views[i])

    def add(self, f, g):
        return conv_add(self._over(0, f), self._over(0, g))

    def mul(self, i, f, g):
        return convolve(self._over(i, f), self._over(i, g))

    def star(self, i, f):
        return star_recursive(self._over(i, f))

    def dom_(self, i, f):
        return self._lift(dom_hat, i, f)

    def cod_(self, i, f):
        return self._lift(cod_hat, i, f)

    def zero(self):
        return zero_function(self.nc.dims[0], self.views[0])

    def random_function(self, rng):
        return random_function(self.nc.dims[0], self.views[0], rng)


def check_interchange(bundle: NConvolution, rng, samples=100) -> Report:
    """Interchange inequality of dimensions 0 and 1 on function quadruples, plus id0 <= id1."""
    nc, alg = bundle.nc, bundle.alg
    rep = Report(model=nc.name, algebra=alg.name)
    U = nc.elements()

    ok = function_leq(bundle.id_(0), bundle.id_(1), U)
    rep.add("ic.unit-leq", PASS if ok else FAIL, [] if ok else [("id0 !<= id1",)],
            checked=len(U))

    bad = []
    for k in range(samples):
        f, g, h, kk = (bundle.random_function(rng) for _ in range(4))
        lhs = bundle.mul(0, bundle.mul(1, f, g), bundle.mul(1, h, kk))
        rhs = bundle.mul(1, bundle.mul(0, f, h), bundle.mul(0, g, kk))
        if not function_leq(lhs, rhs, U):
            for x in U:
                if not alg.leq(lhs(x), rhs(x)):
                    bad.append((k, nc.dims[0].format_element(x), lhs(x), rhs(x)))
                    break
    rep.add("ic.interchange", FAIL if bad else PASS, bad, checked=samples * len(U))
    return rep


def check_n_axioms(bundle: NConvolution, rng, samples=25) -> Report:
    """Per-dimension modal axioms plus all cross-dimension laws, pointwise.

    Covers lax functoriality of D-/D+, interchange, face absorption, the two
    closure laws, the product-with-domain identity, the idempotence
    inequality, and (when every dimension has a star) the star-domain laws.
    Each sample's D-_i and D+_i are lifted once per dimension; the laws read
    them by sample index, and ``pairs`` holds pairs of indices.
    """
    nc, alg = bundle.nc, bundle.alg
    rep = Report(model=nc.name, algebra=alg.name)
    U = nc.elements()
    leq = alg.leq

    fs = [bundle.zero()] + [bundle.random_function(rng) for _ in range(samples)]
    pairs = list(itertools.product(range(min(len(fs), max(2, samples // 3))), repeat=2))
    dom = [[bundle.dom_(i, f) for f in fs] for i in range(nc.n)]
    cod = [[bundle.cod_(i, f) for f in fs] for i in range(nc.n)]

    for i in range(nc.n):
        unit = bundle.id_(i)
        di, ci = dom[i], cod[i]
        bad = {k: [] for k in ("expand", "local", "subid", "strict", "additive",
                               "compat")}
        for k, f in enumerate(fs):
            if not function_leq(f, bundle.mul(i, di[k], f), U):
                bad["expand"].append((k, "dom"))
            if not function_leq(f, bundle.mul(i, f, ci[k]), U):
                bad["expand"].append((k, "cod"))
            if not function_leq(di[k], unit, U) or not function_leq(ci[k], unit, U):
                bad["subid"].append((k,))
            if not functions_equal(bundle.cod_(i, di[k]), di[k], U) or \
               not functions_equal(bundle.dom_(i, ci[k]), ci[k], U):
                bad["compat"].append((k,))
        for k, (a, b) in enumerate(pairs):
            f, g = fs[a], fs[b]
            fg, f_plus_g = bundle.mul(i, f, g), bundle.add(f, g)
            if not functions_equal(bundle.dom_(i, bundle.mul(i, f, di[b])),
                                   bundle.dom_(i, fg), U):
                bad["local"].append((k, "dom"))
            if not functions_equal(bundle.cod_(i, bundle.mul(i, ci[a], g)),
                                   bundle.cod_(i, fg), U):
                bad["local"].append((k, "cod"))
            if not functions_equal(bundle.dom_(i, f_plus_g), bundle.add(di[a], di[b]), U):
                bad["additive"].append((k, "dom"))
            if not functions_equal(bundle.cod_(i, f_plus_g), bundle.add(ci[a], ci[b]), U):
                bad["additive"].append((k, "cod"))
        if not functions_equal(di[0], fs[0], U) or not functions_equal(ci[0], fs[0], U):
            bad["strict"].append(("D(0) != 0",))
        for key, witnesses in sorted(bad.items()):
            rep.add(f"nconv.modal-{key}[{i}]", FAIL if witnesses else PASS, witnesses,
                    checked=len(fs))

    for i, j in itertools.permutations(range(nc.n), 2):
        bad = []
        for k, (a, b) in enumerate(pairs):
            fg = bundle.mul(j, fs[a], fs[b])
            if not function_leq(bundle.dom_(i, fg), bundle.mul(j, dom[i][a], dom[i][b]), U):
                bad.append((k, "dom"))
            if not function_leq(bundle.cod_(i, fg), bundle.mul(j, cod[i][a], cod[i][b]), U):
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

        bad = [(k,) for k, df in enumerate(dom[i])
               if not functions_equal(bundle.dom_(j, df), df, U)]
        rep.add(f"nconv.dom-absorb[{i}<{j}]", FAIL if bad else PASS, bad, checked=len(fs))

        bad = []
        for k, (a, b) in enumerate(pairs):
            prod = bundle.mul(i, dom[j][a], dom[j][b])
            if not functions_equal(bundle.dom_(j, prod), prod, U):
                bad.append((k, "dom"))
            prod = bundle.mul(i, cod[j][a], cod[j][b])
            if not functions_equal(bundle.cod_(j, prod), prod, U):
                bad.append((k, "cod"))
        rep.add(f"nconv.closure[{i}<{j}]", FAIL if bad else PASS, bad, checked=len(pairs))

        bad = []
        vj = bundle.views[j]
        for k, df in enumerate(dom[i]):
            for x in U:
                if not leq(df(x), vj.mul(df(x), df(x))):
                    bad.append((k, nc.dims[0].format_element(x)))
                    break
        rep.add(f"nconv.dom-idem-leq[{i}<{j}]", FAIL if bad else PASS, bad,
                checked=len(fs) * len(U), note="D-_i(f)(x) <= D-_i(f)(x) .j D-_i(f)(x)")

    for i in range(nc.n):
        bad = []
        Ci = nc.dims[i]
        vi = bundle.views[i]
        for k, (a, b) in enumerate(pairs):
            df, g = dom[i][a], fs[b]
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
            for k, (a, b) in enumerate(pairs):
                df, cf, g = dom[i][a], cod[i][a], fs[b]
                lhs = bundle.mul(i, df, bundle.star(j, g))
                rhs = bundle.star(j, bundle.mul(i, df, g))
                if not function_leq(lhs, rhs, U):
                    bad.append((k, "dom"))
                lhs = bundle.mul(i, bundle.star(j, g), cf)
                rhs = bundle.star(j, bundle.mul(i, g, cf))
                if not function_leq(lhs, rhs, U):
                    bad.append((k, "cod"))
            rep.add(f"nconv.star-domain[{i}<{j}]", FAIL if bad else PASS, bad,
                    checked=len(pairs))
    return rep
