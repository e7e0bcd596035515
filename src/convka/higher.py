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
from functools import partial

from .catoid import check_catoid_axioms, is_functional, is_local
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
from .modal import cod_hat, dom_hat, modal_laws
from .report import INFO, Report
from .values import SIDES, CapabilityError, NValueAlgebra


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


def check_n_catoid(nc: NCatoid) -> Report:
    """Full n-catoid axiom list with witnesses, plus strictness classification.

    Locality/functionality per dimension are reported as info lines: they
    classify strict n-categories but are not n-catoid axioms.

    Runs on each dimension's kernel, the one its ``check_catoid_axioms``,
    ``is_local`` and ``is_functional`` share; the dimensions share one
    universe, so their ids agree.  Interchange walks pairs of j-composable
    pairs and skips a quadruple whose left side is empty by one mask test,
    the right-defined ids of w .j x against y .j z.  ``checked=`` still
    counts all |U|^4 (and |U|^3) instances.
    """
    U = nc.elements()
    n = len(U)
    rep = Report(model=nc.name)
    kernels = [d.kernel() for d in nc.dims]
    faces = [(d.source, d.target) for d in nc.dims]

    for i, d in enumerate(nc.dims):
        sub = check_catoid_axioms(d)
        for e in sub.entries:
            rep.add(f"dim{i}.{e.law}", e.witnesses, e.checked)

    for i, j in itertools.permutations(range(nc.n), 2):
        bad = [x for x in U if any(a(b(x)) != b(a(x)) for a in faces[i] for b in faces[j])]
        rep.add(f"ncat.face-commute[{i},{j}]", bad, checked=len(U))

        ki, Pj = kernels[i], kernels[j].table
        ids = [(face, at, ki.image(at)) for face, at in (("s", ki.src), ("t", ki.tgt))]
        bad = []
        for x, row in enumerate(Pj):
            for y, m in enumerate(row):
                for face, at, img in ids:  # s_i(x .j y) <= s_i(x) .j s_i(y), and for t_i
                    if img[m] & ~Pj[at[x]][at[y]]:
                        bad.append((U[x], U[y], face))
        rep.add(f"ncat.lax-functorial[{i},{j}]", bad, checked=len(U) ** 2)

    for i, j in itertools.combinations(range(nc.n), 2):
        ki, kj = kernels[i], kernels[j]

        # (w, x) with w .j x nonempty, in product order, so that walking
        # pairs of them visits quadruples in the order of U^4
        right_defined = ki.union(ki.right_defined)
        pairs = [(w, x, m) for w, row in enumerate(kj.table) for x, m in enumerate(row) if m]
        bad = []
        for w, x, wx in pairs:
            rd, Pw, Px = right_defined[wx], ki.table[w], ki.table[x]
            for y, z, yz in pairs:
                if rd & yz:
                    lhs = ki.compose_masks(wx, yz)
                    if lhs and lhs & ~kj.compose_masks(Pw[y], Px[z]):
                        bad.append((U[w], U[x], U[y], U[z]))
        rep.add(f"ncat.interchange[{i}<{j}]", bad, checked=len(U) ** 4)

        bad = [x for x in U if any(b(a(x)) != a(x) for a in faces[i] for b in faces[j])]
        rep.add(f"ncat.face-absorb[{i}<{j}]", bad, checked=len(U))

        Pi = ki.table
        ids = [(face, at, kj.image(at)) for face, at in (("s", kj.src), ("t", kj.tgt))]
        bad = []
        for x in range(n):
            for y in range(n):
                for face, at, img in ids:  # s_j(s_j(x) .i s_j(y)) = s_j(x) .i s_j(y), and t_j
                    m = Pi[at[x]][at[y]]
                    if img[m] != m:
                        bad.append((U[x], U[y], face))
        rep.add(f"ncat.closure[{i}<{j}]", bad, checked=len(U) ** 2)

    # each identity of dimension i must be one of dimension i+1
    bad = [(i, e) for i in range(nc.n - 1) for e in nc.dims[i].identities()
           if not nc.dims[i + 1].is_identity(e)]
    rep.add("ncat.identity-filtration", bad, checked=nc.n - 1)

    for i, d in enumerate(nc.dims):
        loc = is_local(d).clean
        fun = is_functional(d).clean
        rep.add(f"classify.dim{i}", checked=len(U) ** 2, note=f"local={loc} functional={fun}",
                status=INFO)
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


def _interchange_failure(bundle, i, j, rng):
    """Interchange of dimensions i < j on four fresh random functions,
    (f .j g) .i (h .j k) <= (f .i h) .j (g .i k): the first element where it
    fails with both sides there, or None."""
    f, g, h, k = (bundle.random_function(rng) for _ in range(4))
    lhs = bundle.mul(i, bundle.mul(j, f, g), bundle.mul(j, h, k))
    rhs = bundle.mul(j, bundle.mul(i, f, h), bundle.mul(i, g, k))
    return next(((x, lhs(x), rhs(x)) for x in bundle.nc.elements()
                 if not lhs.algebra.leq(lhs(x), rhs(x))), None)


def check_interchange(bundle: NConvolution, rng, samples=100) -> Report:
    """Interchange inequality of dimensions 0 and 1 on function quadruples, plus id0 <= id1."""
    nc, alg = bundle.nc, bundle.alg
    rep = Report(model=nc.name, algebra=alg.name)
    U = nc.elements()

    bad = [] if function_leq(bundle.id_(0), bundle.id_(1)) else [("id0 !<= id1",)]
    rep.add("ic.unit-leq", bad, checked=len(U))

    bad = []
    for k in range(samples):
        if (d := _interchange_failure(bundle, 0, 1, rng)) is not None:
            bad.append((k, nc.dims[0].format_element(d[0]), d[1], d[2]))
    rep.add("ic.interchange", bad, checked=samples * len(U))
    return rep


def check_n_axioms(bundle: NConvolution, rng, samples=25) -> Report:
    """Per-dimension modal axioms plus all cross-dimension laws, pointwise.

    Covers lax functoriality of D-/D+, interchange, face absorption, the two
    closure laws, the product-with-domain identity, the idempotence
    inequality, and (when every dimension has a star) the star-domain laws.
    Each dimension's modal laws are ``modal.modal_laws`` over that dimension's
    product, sum and lifts, with the dom and cod witness lists of a law merged
    into one line.  Each sample's D-_i and D+_i are lifted once; the laws read
    them by sample index, and ``pairs`` holds pairs of indices.  A dom/cod
    pair of laws is one statement, the cod half in the opposite product.
    """
    nc, alg = bundle.nc, bundle.alg
    rep = Report(model=nc.name, algebra=alg.name)
    U = nc.elements()
    leq = alg.leq

    fs = [bundle.zero()] + [bundle.random_function(rng) for _ in range(samples)]
    pairs = list(itertools.product(range(min(len(fs), max(2, samples // 3))), repeat=2))
    faces = {"dom": bundle.dom_, "cod": bundle.cod_}
    lifts = []  # lifts[i][face][k]: D-_i or D+_i of sample k
    for i in range(nc.n):
        lift, laws = modal_laws(fs, pairs, partial(bundle.mul, i), bundle.add,
                                partial(bundle.dom_, i), partial(bundle.cod_, i),
                                bundle.id_(i))
        lifts.append(lift)
        bad = {}
        for law, witnesses in laws.items():  # dom-expand and cod-expand into expand
            key = "-".join(w for w in law.split("-") if w not in ("dom", "cod"))
            bad.setdefault(key, []).extend(witnesses)
        for key, witnesses in sorted(bad.items()):
            rep.add(f"nconv.modal-{key}[{i}]", witnesses, checked=len(fs))

    for i, j in itertools.permutations(range(nc.n), 2):
        bad = []
        for k, (a, b) in enumerate(pairs):
            fg = bundle.mul(j, fs[a], fs[b])
            for face, lift in lifts[i].items():
                if not function_leq(faces[face](i, fg), bundle.mul(j, lift[a], lift[b])):
                    bad.append((k, face))
        rep.add(f"nconv.d-lax[{i},{j}]", bad, checked=len(pairs))

    for i, j in itertools.combinations(range(nc.n), 2):
        bad = [(k,) for k in range(max(4, samples // 2))
               if _interchange_failure(bundle, i, j, rng) is not None]
        rep.add(f"nconv.interchange[{i}<{j}]", bad, checked=max(4, samples // 2))

        bad = [(k,) for k, df in enumerate(lifts[i]["dom"])
               if not functions_equal(bundle.dom_(j, df), df)]
        rep.add(f"nconv.dom-absorb[{i}<{j}]", bad, checked=len(fs))

        bad = []
        for k, (a, b) in enumerate(pairs):
            for face, lift in lifts[j].items():
                prod = bundle.mul(i, lift[a], lift[b])
                if not functions_equal(faces[face](j, prod), prod):
                    bad.append((k, face))
        rep.add(f"nconv.closure[{i}<{j}]", bad, checked=len(pairs))

        bad = []
        vj = bundle.views[j]
        for k, df in enumerate(lifts[i]["dom"]):
            for x in U:
                if not leq(df(x), vj.mul(df(x), df(x))):
                    bad.append((k, nc.dims[0].format_element(x)))
                    break
        rep.add(f"nconv.dom-idem-leq[{i}<{j}]", bad,
                checked=len(fs) * len(U), note="D-_i(f)(x) <= D-_i(f)(x) .j D-_i(f)(x)")

    for i in range(nc.n):
        bad = []
        Ci = nc.dims[i]
        vi = bundle.views[i]
        for k, (a, b) in enumerate(pairs):
            df, g = lifts[i]["dom"][a], fs[b]
            lhs = bundle.mul(i, df, g)
            for x in U:
                if lhs(x) != vi.mul(df(Ci.source(x)), g(x)):
                    bad.append((k, Ci.format_element(x)))
                    break
        rep.add(f"nconv.dom-product[{i}]", bad, checked=len(pairs),
                note="(D-(f)*g)(x) = D-(f)(s(x)).g(x)")

    if all(v.has_star for v in bundle.views):
        for i, j in itertools.combinations(range(nc.n), 2):
            bad = []
            for k, (a, b) in enumerate(pairs):
                g, g_star = fs[b], bundle.star(j, fs[b])
                for _, face, mirror in SIDES:  # D-(f) .i g* <= (D-(f) .i g)*
                    df = lifts[i][face][a]
                    rhs = bundle.star(j, bundle.mul(i, *mirror(df, g)))
                    if not function_leq(bundle.mul(i, *mirror(df, g_star)), rhs):
                        bad.append((k, face))
            rep.add(f"nconv.star-domain[{i}<{j}]", bad, checked=len(pairs))
    return rep
