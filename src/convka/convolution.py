"""Convolution algebras on weight functions C -> K.

One engine computes the recursive star in three forms:

  star_recursive   f*(e) = f(e)*;  f*(x) = f(s(x))* . sum f(y).f*(z)
                   over the 2-decompositions of x with y != s(x)
  star_dual        the mirrored sum of f*(y).f(z), z != t(x), ending in f(t(x))*
  star_path        the specialisation to K[C] (identities mapped to 1)

It evaluates on demand from an explicit stack, so element length is not bounded
by Python's recursion limit.  Terms with f-factor 0 are skipped only when the
algebra's zero is absorbing (0.a = a.0 = 0, a + 0 = a); convolve skips them
under the same condition.  Dually, a sum that reaches the algebra's additive
top (``ValueAlgebra.add_top``) stops there, since no further term can change
it; the engine then never opens the star frames of the remaining terms.  A
cycle in the decomposition structure (non-Moebius model) raises
MoebiusViolation.
star_unfolded, the direct sum over all n-fold non-identity decompositions,
stays separate as the trusted oracle and sums every term.

Weight functions memoise their values; the caches are idempotent tables for
pure rules, safe to share between readers.  The engine and convolve read a
factor's ``_memo`` directly on a hit and call the function only on a miss.
"""

from __future__ import annotations

import itertools

from .catoid import Catoid, MoebiusViolation
from .report import FAIL, PASS, Report
from .values import SIDES, CapabilityError, ValueAlgebra


class WeightFunction:
    """A total, memoised map from catoid elements to weights."""

    __slots__ = ("catoid", "algebra", "name", "_rule", "_memo")

    def __init__(self, catoid: Catoid, algebra: ValueAlgebra, rule, name="f"):
        self.catoid = catoid
        self.algebra = algebra
        self.name = name
        self._rule = rule
        self._memo = {}

    def __call__(self, x):
        memo = self._memo
        if x in memo:
            return memo[x]
        v = self._rule(x)
        memo[x] = v
        return v

    def over(self, catoid: Catoid, algebra: ValueAlgebra) -> "WeightFunction":
        """The same map read over another catoid and algebra on the same
        elements and weights, such as one dimension of an n-catoid; the view
        shares this function's rule and memo."""
        view = WeightFunction(catoid, algebra, self._rule, self.name)
        view._memo = self._memo
        return view

    def support(self) -> list:
        return [x for x in self.catoid.elements() if self(x) != self.algebra.zero]

    def __repr__(self):
        return f"<WeightFunction {self.name}>"


def zero_function(C, K) -> WeightFunction:
    return WeightFunction(C, K, lambda x: K.zero, name="0")


def id0(C, K) -> WeightFunction:
    """Unit of convolution: the indicator of the identity set."""
    return WeightFunction(C, K, lambda x: K.one if C.is_identity(x) else K.zero, name="id0")


def indicator(C, K, members) -> WeightFunction:
    s = frozenset(members)
    return WeightFunction(C, K, lambda x: K.one if x in s else K.zero, name="chi")


def from_pairs(C, K, pairs, name="f") -> WeightFunction:
    """The weights in ``pairs``, zero elsewhere."""
    table, zero = dict(pairs), K.zero
    return WeightFunction(C, K, lambda x: table.get(x, zero), name=name)


def _check_same(f, g):
    if f.catoid is not g.catoid:
        raise CapabilityError("weight functions live over different catoids")
    if f.algebra is not g.algebra:
        raise CapabilityError(
            f"algebra mismatch: {f.algebra.name} vs {g.algebra.name}")


def conv_add(f, g) -> WeightFunction:
    """Pointwise sum."""
    _check_same(f, g)
    C, K = f.catoid, f.algebra
    add, f_memo, g_memo = K.add, f._memo, g._memo

    def rule(x):
        return add(f_memo[x] if x in f_memo else f(x), g_memo[x] if x in g_memo else g(x))

    return WeightFunction(C, K, rule, name=f"({f.name}+{g.name})")


def convolve(f, g) -> WeightFunction:
    """(f*g)(x) = sum of f(y).g(z) over the 2-decompositions of x.

    When the algebra's zero is absorbing, a term with f(y) = 0 is skipped
    without evaluating g(z); the sum stops once it reaches the additive top.
    """
    _check_same(f, g)
    C, K = f.catoid, f.algebra
    add, mul, zero, top, decompose2 = K.add, K.mul, K.zero, K.add_top, C.decompose2
    skip_zero, f_memo, g_memo = K.zero_absorbs, f._memo, g._memo

    def rule(x):
        acc = zero
        for y, z in decompose2(x):
            u = f_memo[y] if y in f_memo else f(y)
            if skip_zero and u == zero:  # a skipped term would add 0
                continue
            acc = add(acc, mul(u, g_memo[z] if z in g_memo else g(z)))
            if acc == top:  # the remaining terms would add nothing
                break
        return acc

    return WeightFunction(C, K, rule, name=f"({f.name}*{g.name})")


def _star_engine(f, side: str) -> WeightFunction:
    """f* by the left ("left"), dual ("right") or K[C] ("path") recursion.

    Demand-driven and iterative: a stack holds a frame per element reached
    without a value, with the nonzero terms of one decompose2 scan as (star
    element needed, f-factor) pairs in order, a resume index and the sum.
    A frame whose sum reaches the additive top is finished at once.
    """
    C, K = f.catoid, f.algebra
    if side == "path":
        if not is_in_bracket(f):
            raise CapabilityError("star_path needs a weight function in K[C]")
    elif not K.has_star:
        raise CapabilityError(f"{K.name}: no star operation")
    C.require_moebius()
    add, mul, zero, top, is_identity = K.add, K.mul, K.zero, K.add_top, C.is_identity
    left, keep_zero, f_memo = side != "right", not K.zero_absorbs, f._memo

    at_identity = (lambda e: K.one) if side == "path" else (lambda e: K.star(f(e)))

    def open_frame(x):
        # a term whose f-factor is 0 is dropped where zero absorbs: it would add 0
        if left:
            b = C.source(x)
            terms = [(z, w) for y, z in C.decompose2(x)
                     if y != b and ((w := f_memo[y] if y in f_memo else f(y)) != zero
                                    or keep_zero)]
        else:
            b = C.target(x)
            terms = [(y, w) for y, z in C.decompose2(x)
                     if z != b and ((w := f_memo[z] if z in f_memo else f(z)) != zero
                                    or keep_zero)]
        return [x, terms, 0, zero]

    def rule(x):
        if is_identity(x):
            return at_identity(x)
        stack, on_stack = [open_frame(x)], {x}
        while True:
            frame = stack[-1]
            x, terms, i, acc = frame
            while i < len(terms) and acc != top:
                need, w = terms[i]
                if need in memo:
                    v = memo[need]
                elif is_identity(need):
                    v = memo[need] = at_identity(need)
                else:
                    break
                acc = add(acc, mul(w, v) if left else mul(v, w))
                i += 1
            else:
                stack.pop()
                on_stack.discard(x)
                if side != "path":
                    e = K.star(f(C.source(x) if left else C.target(x)))
                    acc = mul(e, acc) if left else mul(acc, e)
                if not stack:
                    return acc
                memo[x] = acc
                continue
            if need in on_stack:
                raise MoebiusViolation(
                    f"{C.name}: star recursion cycles at {C.format_element(need)}")
            frame[2:] = i, acc
            stack.append(open_frame(need))
            on_stack.add(need)

    prefix = {"left": "star", "right": "star'", "path": "star#"}[side]
    wf = WeightFunction(C, K, rule, name=f"{prefix}({f.name})")
    memo = wf._memo
    return wf


def star_recursive(f) -> WeightFunction:
    """The recursive star (left form): f*(x) = f(s(x))* . sum f(y).f*(z), y != s(x)."""
    return _star_engine(f, "left")


def star_dual(f) -> WeightFunction:
    """The recursive star written with the dual (right-ending) sum."""
    return _star_engine(f, "right")


def star_unfolded(f) -> WeightFunction:
    """Oracle star: sum over every i-fold non-identity decomposition.

    Each decomposition x in x1...xi contributes
    f(s(x1))* . f(x1) . f(t(x1))* . f(x2) . ... . f(xi) . f(t(xi))*,
    using that consecutive factors chain targets to sources.
    """
    C, K = f.catoid, f.algebra
    if not K.has_star:
        raise CapabilityError(f"{K.name}: no star operation")
    C.require_moebius()

    def rule(x):
        if C.is_identity(x):
            return K.star(f(x))
        acc = K.zero
        for i in range(1, C.length(x) + 1):
            for parts in C.decompose_n(x, i):
                term = K.star(f(C.source(parts[0])))
                for p in parts:
                    term = K.mul(term, f(p))
                    term = K.mul(term, K.star(f(C.target(p))))
                acc = K.add(acc, term)
        return acc

    return WeightFunction(C, K, rule, name=f"star~({f.name})")


def is_in_bracket(f) -> bool:
    """Membership in K[C]: the zero map, or every identity mapped to 1."""
    ids = f.catoid.identities()
    if all(f(e) == f.algebra.one for e in ids):
        return True
    return all(f(x) == f.algebra.zero for x in f.catoid.elements())


def star_path(f) -> WeightFunction:
    """Star specialised to K[C]: identities go to 1, no boundary star factors."""
    return _star_engine(f, "path")


def functions_equal(f, g, universe=None) -> bool:
    U = universe if universe is not None else f.catoid.elements()
    return all(f(x) == g(x) for x in U)

def function_leq(f, g, universe=None) -> bool:
    U = universe if universe is not None else f.catoid.elements()
    K = f.algebra
    return all(K.leq(f(x), g(x)) for x in U)


def first_difference(f, g, universe=None):
    U = universe if universe is not None else f.catoid.elements()
    for x in U:
        if f(x) != g(x):
            return (x, f(x), g(x))
    return None


# ---------------------------------------------------------------------------
# tests (subidentity indicators) and the KAT structure


def is_test(p) -> bool:
    """p is chi_P for some subset P of the identities."""
    C, K = p.catoid, p.algebra
    for x in C.elements():
        v = p(x)
        if C.is_identity(x):
            if v not in (K.zero, K.one):
                return False
        elif v != K.zero:
            return False
    return True


def test_complement(p) -> WeightFunction:
    """Boolean complement within the test algebra: chi_P -> chi_(C0 - P)."""
    C, K = p.catoid, p.algebra
    if not is_test(p):
        raise CapabilityError("not a test: expected a 0/1 subidentity function")
    members = frozenset(e for e in C.identities() if p(e) == K.zero)
    return indicator(C, K, members)


def powerset_star(C: Catoid, members) -> frozenset:
    """Set star in the powerset algebra: identities plus all products of members.

    Independent of the convolution star; computed by closure iteration.
    """
    A = frozenset(members) & frozenset(C.elements())
    out = set(C.identities()) | set(A)
    while True:
        grow = set()
        for a, b in itertools.product(A, out):
            for w in C.compose(a, b):
                if w not in out:
                    grow.add(w)
        if not grow:
            return frozenset(out)
        out |= grow


def set_compose(C: Catoid, A, B) -> frozenset:
    out = set()
    for a, b in itertools.product(A, B):
        out |= C.compose(a, b)
    return frozenset(out)


def check_kat(C: Catoid, K: ValueAlgebra, rng, samples=25) -> Report:
    """Kleene-algebra-with-tests structure of the subidentity indicators.

    Exhaustive over the 2^|C0| tests: boolean-algebra laws, closure of the
    test set under +, * and complement, the embedding of meet/join as
    convolution/sum, star of a test collapsing to id0, and closure of general
    indicator functions under the star (against the powerset oracle).
    """
    rep = Report(model=C.name, algebra=K.name)
    ids = C.identities()
    subsets = [frozenset(c) for r in range(len(ids) + 1)
               for c in itertools.combinations(ids, r)]
    tests = {P: indicator(C, K, P) for P in subsets}
    one = id0(C, K)
    zero = zero_function(C, K)
    rep.add("kat.test-count", PASS, checked=len(subsets),
            note=f"2^{len(ids)}={len(subsets)} tests")

    bad = []
    for P, p in tests.items():
        if not is_test(p):
            bad.append((sorted(P),))
    rep.add("kat.tests-are-tests", FAIL if bad else PASS, bad, checked=len(subsets))

    bad = []
    for P, Q in itertools.product(subsets, repeat=2):
        if not functions_equal(conv_add(tests[P], tests[Q]), tests[P | Q]):
            bad.append((sorted(P), sorted(Q), "join"))
        if not functions_equal(convolve(tests[P], tests[Q]), tests[P & Q]):
            bad.append((sorted(P), sorted(Q), "meet"))
    rep.add("kat.embed-join-meet", FAIL if bad else PASS, bad, checked=2 * len(subsets) ** 2)

    bad = []
    for P, p in tests.items():
        q = test_complement(p)
        if not functions_equal(conv_add(p, q), one) or not functions_equal(convolve(p, q), zero):
            bad.append((sorted(P),))
        if not is_test(q):
            bad.append((sorted(P), "complement-not-test"))
    rep.add("kat.complementation", FAIL if bad else PASS, bad, checked=len(subsets))

    # tests vanish off the identities and are closed under the operations
    # (checked above), so the lattice laws are decided on the identity set
    bad = []
    for P, Q in itertools.product(subsets, repeat=2):
        p, q = tests[P], tests[Q]
        if not functions_equal(conv_add(p, q), conv_add(q, p), ids):
            bad.append((sorted(P), sorted(Q), "add-comm"))
        if not functions_equal(convolve(p, q), convolve(q, p), ids):
            bad.append((sorted(P), sorted(Q), "mul-comm"))
        if not functions_equal(conv_add(p, convolve(p, q)), p, ids):
            bad.append((sorted(P), sorted(Q), "absorb-join"))
        if not functions_equal(convolve(p, conv_add(p, q)), p, ids):
            bad.append((sorted(P), sorted(Q), "absorb-meet"))
        if not functions_equal(conv_add(p, zero), p, ids) or \
           not functions_equal(convolve(p, one), p, ids) or \
           not functions_equal(conv_add(p, one), one, ids) or \
           not functions_equal(convolve(p, zero), zero, ids):
            bad.append((sorted(P), "bounds"))
    rep.add("kat.lattice-laws", FAIL if bad else PASS, bad, checked=5 * len(subsets) ** 2)

    bad = []
    for P, Q, R in itertools.product(subsets, repeat=3):
        lhs = convolve(tests[P], conv_add(tests[Q], tests[R]))
        rhs = conv_add(convolve(tests[P], tests[Q]), convolve(tests[P], tests[R]))
        if not functions_equal(lhs, rhs, ids):
            bad.append((sorted(P), sorted(Q), sorted(R), "meet-over-join"))
        lhs = conv_add(tests[P], convolve(tests[Q], tests[R]))
        rhs = convolve(conv_add(tests[P], tests[Q]), conv_add(tests[P], tests[R]))
        if not functions_equal(lhs, rhs, ids):
            bad.append((sorted(P), sorted(Q), sorted(R), "join-over-meet"))
    rep.add("kat.distributivity", FAIL if bad else PASS, bad, checked=2 * len(subsets) ** 3)

    bad = []
    for P, p in tests.items():
        st = star_recursive(p)
        if not functions_equal(st, one):
            bad.append((sorted(P),))
    rep.add("kat.test-star-is-one", FAIL if bad else PASS, bad, checked=len(subsets))

    bad = []
    elements = C.elements()
    for _ in range(samples):
        A = frozenset(x for x in elements if rng.random() < 0.3)
        st = star_recursive(indicator(C, K, A))
        target = indicator(C, K, powerset_star(C, A))
        if not functions_equal(st, target):
            bad.append((sorted(C.format_element(a) for a in A),))
    rep.add("kat.indicator-star-closure", FAIL if bad else PASS, bad, checked=samples)

    in_bracket = [P for P in subsets if is_in_bracket(tests[P])]
    expected = [frozenset(), frozenset(ids)]
    ok = sorted(in_bracket, key=sorted) == sorted(expected, key=sorted)
    rep.add("kat.bracket-tests-trivial", PASS if ok else FAIL,
            [] if ok else [tuple(sorted(map(str, P)) for P in in_bracket)],
            checked=len(subsets), note="K[C] tests = {0, id0}")
    return rep


def check_conway(C: Catoid, S: ValueAlgebra, rng, samples=100) -> Report:
    """The four Conway identities, pointwise over sampled function pairs."""
    rep = Report(model=C.name, algebra=S.name)
    unit = id0(C, S)
    bad_ss, bad_ps, bad_unfold = [], [], {side: [] for side, _, _ in SIDES}
    for k in range(samples):
        f, g = random_function(C, S, rng), random_function(C, S, rng)
        fs = star_recursive(f)
        for side, _, mirror in SIDES:  # the right law is the left in the opposite product
            d = first_difference(conv_add(unit, convolve(*mirror(f, fs))), fs)
            if d:
                bad_unfold[side].append((k, C.format_element(d[0])))
        lhs = star_recursive(conv_add(f, g))
        rhs = convolve(star_recursive(convolve(fs, g)), fs)
        d = first_difference(lhs, rhs)
        if d:
            bad_ss.append((k, C.format_element(d[0]), d[1], d[2]))
        lhs = convolve(f, star_recursive(convolve(g, f)))
        rhs = convolve(star_recursive(convolve(f, g)), f)
        d = first_difference(lhs, rhs)
        if d:
            bad_ps.append((k, C.format_element(d[0]), d[1], d[2]))
    n = samples * len(C.elements())
    for side, bad in bad_unfold.items():
        rep.add(f"conway.unfold-{side}", FAIL if bad else PASS, bad, checked=n)
    rep.add("conway.sum-star", FAIL if bad_ss else PASS, bad_ss, checked=n)
    rep.add("conway.prod-star-swap", FAIL if bad_ps else PASS, bad_ps, checked=n)
    return rep


def random_function(C, K, rng, bracket=False) -> WeightFunction:
    """Seeded random weight function; identities are forced to 1 in bracket mode."""
    pool = K.pool()
    table = {}
    for x in C.elements():
        if bracket and C.is_identity(x):
            table[x] = K.one
        else:
            table[x] = rng.choice(pool)
    return from_pairs(C, K, table)
