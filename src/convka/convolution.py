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

Weight functions memoise their values in lists indexed by element id, safe
to share between readers since the rules are pure.  Convolve, the engine and
the comparisons run on ids and ``Catoid.rows``, reading a factor's list
directly and calling ``at`` only on a miss; ``f(x)`` looks x's id up.
"""

from __future__ import annotations

import itertools

from .catoid import Catoid, MoebiusViolation
from .report import Report
from .values import SIDES, CapabilityError, ValueAlgebra


class WeightFunction:
    """A total, memoised map from catoid elements to weights.

    The value at id i is ``rule(i)``, or ``vals[i]`` where ``vals`` is given;
    ``vals`` is kept, not copied.  Values are kept by element id, where None
    marks one not yet computed; ``at(i)`` reads and fills the value at id i.
    """

    __slots__ = ("catoid", "algebra", "name", "_rule", "_vals", "_index")

    def __init__(self, catoid: Catoid, algebra: ValueAlgebra, name, rule=None, vals=None):
        if rule is None and vals is None:
            raise TypeError("WeightFunction needs a rule on ids or a values list")
        self.catoid, self.algebra, self.name, self._rule = catoid, algebra, name, rule
        self._index = catoid.index()
        self._vals = [None] * len(self._index) if vals is None else vals

    def at(self, i):
        v = self._vals[i]
        if v is None:
            v = self._vals[i] = self._rule(i)
        return v

    def __call__(self, x):
        return self.at(self._index[x])

    def over(self, catoid: Catoid, algebra: ValueAlgebra) -> "WeightFunction":
        """The same map read over another catoid and algebra on the same
        elements, in the same order, and weights, such as one dimension of an
        n-catoid; the view shares this function's rule and values."""
        return WeightFunction(catoid, algebra, self.name, self._rule, self._vals)

    def support(self) -> list:
        at, zero = self.at, self.algebra.zero
        return [x for i, x in enumerate(self.catoid.elements()) if at(i) != zero]

    def __repr__(self):
        return f"<WeightFunction {self.name}>"


def zero_function(C, K) -> WeightFunction:
    return WeightFunction(C, K, "0", vals=[K.zero] * len(C.elements()))


def id0(C, K) -> WeightFunction:
    """Unit of convolution: the indicator of the identity set."""
    return WeightFunction(C, K, "id0", vals=[K.one if e else K.zero for e in C.faces()[2]])


def indicator(C, K, members) -> WeightFunction:
    return from_pairs(C, K, ((x, K.one) for x in members), name="chi")


def from_pairs(C, K, pairs, name="f") -> WeightFunction:
    """The weights in ``pairs``, zero elsewhere; an element off the universe
    raises the catoid's ValueError for it."""
    vals, index = [K.zero] * len(C.elements()), C.index()
    for x, w in dict(pairs).items():
        vals[index[x]] = w
    return WeightFunction(C, K, name, vals=vals)


def _check_same(f, g):
    if f.catoid is not g.catoid:
        raise CapabilityError("weight functions live over different catoids")
    if f.algebra is not g.algebra:
        raise CapabilityError(
            f"algebra mismatch: {f.algebra.name} vs {g.algebra.name}")


def conv_add(f, g) -> WeightFunction:
    """Pointwise sum."""
    _check_same(f, g)
    add, f_at, g_at = f.algebra.add, f.at, g.at
    return WeightFunction(f.catoid, f.algebra, f"({f.name}+{g.name})",
                          lambda i: add(f_at(i), g_at(i)))


def convolve(f, g) -> WeightFunction:
    """(f*g)(x) = sum of f(y).g(z) over the 2-decompositions of x.

    When the algebra's zero is absorbing, a term with f(y) = 0 is skipped
    without evaluating g(z); the sum stops once it reaches the additive top.
    """
    _check_same(f, g)
    C, K = f.catoid, f.algebra
    add, mul, zero, top, rows = K.add, K.mul, K.zero, K.add_top, C.rows
    skip_zero, fv, f_at, gv, g_at = K.zero_absorbs, f._vals, f.at, g._vals, g.at

    def rule(x):
        acc = zero
        for y, z in zip(*rows(x)):
            u = fv[y]
            if u is None:
                u = f_at(y)
            if skip_zero and u == zero:  # a skipped term would add 0
                continue
            v = gv[z]
            acc = add(acc, mul(u, g_at(z) if v is None else v))
            if acc == top:  # the remaining terms would add nothing
                break
        return acc

    return WeightFunction(C, K, f"({f.name}*{g.name})", rule)


def _star_engine(f, side: str) -> WeightFunction:
    """f* by the left ("left"), dual ("right") or K[C] ("path") recursion.

    Demand-driven and iterative on ids: a stack holds a frame per element
    reached without a value, with the nonzero terms of its row as (star
    element needed, f-factor) pairs in order, a resume index and the sum.
    The dual recursion reads each row with its two sides exchanged.  A frame
    whose sum reaches the additive top is finished at once.
    """
    C, K = f.catoid, f.algebra
    if side == "path":
        if not is_in_bracket(f):
            raise CapabilityError("star_path needs a weight function in K[C]")
    elif not K.has_star:
        raise CapabilityError(f"{K.name}: no star operation")
    C.require_moebius()
    add, mul, zero, top, rows = K.add, K.mul, K.zero, K.add_top, C.rows
    src, tgt, is_identity = C.faces()
    left, keep_zero, fv, f_at = side != "right", not K.zero_absorbs, f._vals, f.at
    base = src if left else tgt

    at_identity = (lambda e: K.one) if side == "path" else (lambda e: K.star(f_at(e)))

    def open_frame(x):
        # a term whose f-factor is 0 is dropped where zero absorbs: it would add 0
        b, (ys, zs) = base[x], rows(x)
        factors, needs = (ys, zs) if left else (zs, ys)
        terms = [(n, w) for y, n in zip(factors, needs)
                 if y != b and ((w := f_at(y) if fv[y] is None else fv[y]) != zero
                                or keep_zero)]
        return [x, terms, 0, zero]

    def rule(x):
        if is_identity[x]:
            return at_identity(x)
        stack, on_stack = [open_frame(x)], {x}
        while True:
            frame = stack[-1]
            x, terms, i, acc = frame
            while i < len(terms) and acc != top:
                need, w = terms[i]
                v = vals[need]
                if v is None:
                    if not is_identity[need]:
                        break
                    v = vals[need] = at_identity(need)
                acc = add(acc, mul(w, v) if left else mul(v, w))
                i += 1
            else:
                stack.pop()
                on_stack.discard(x)
                if side != "path":
                    e = K.star(f_at(base[x]))
                    acc = mul(e, acc) if left else mul(acc, e)
                if not stack:
                    return acc
                vals[x] = acc
                continue
            if need in on_stack:
                raise MoebiusViolation(f"{C.name}: star recursion cycles at "
                                       f"{C.format_element(C.elements()[need])}")
            frame[2:] = i, acc
            stack.append(open_frame(need))
            on_stack.add(need)

    prefix = {"left": "star", "right": "star'", "path": "star#"}[side]
    wf = WeightFunction(C, K, f"{prefix}({f.name})", rule)
    vals = wf._vals
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
    using that consecutive factors chain targets to sources.  The sum runs
    i = 1, 2, ... up to the first i without one: in a Moebius catoid they
    exist exactly for 1 <= i <= length(x), since merging two adjacent
    non-identity factors gives a non-identity.  So the oracle reads
    ``decompose_n`` only, never ``Catoid.rows``, the star engine's input.
    """
    C, K = f.catoid, f.algebra
    if not K.has_star:
        raise CapabilityError(f"{K.name}: no star operation")
    C.require_moebius()
    E = C.elements()

    def rule(i):
        x = E[i]
        if C.is_identity(x):
            return K.star(f(x))
        acc = K.zero
        for n in itertools.count(1):
            chains = C.decompose_n(x, n)
            if not chains:
                return acc
            for parts in chains:
                term = K.star(f(C.source(parts[0])))
                for p in parts:
                    term = K.mul(term, f(p))
                    term = K.mul(term, K.star(f(C.target(p))))
                acc = K.add(acc, term)

    return WeightFunction(C, K, f"star~({f.name})", rule)


def is_in_bracket(f) -> bool:
    """Membership in K[C]: the zero map, or every identity mapped to 1."""
    at, K, is_identity = f.at, f.algebra, f.catoid.faces()[2]
    ids = range(len(is_identity))
    if all(at(i) == K.one for i in itertools.compress(ids, is_identity)):
        return True
    return all(at(i) == K.zero for i in ids)


def star_path(f) -> WeightFunction:
    """Star specialised to K[C]: identities go to 1, no boundary star factors."""
    return _star_engine(f, "path")


def _ids(f, universe):
    """The ids of ``universe``, by default all of f's catoid."""
    return range(len(f._vals)) if universe is None else map(f._index.__getitem__, universe)


def functions_equal(f, g, universe=None) -> bool:
    return first_difference(f, g, universe) is None


def function_leq(f, g) -> bool:
    f_at, g_at, leq = f.at, g.at, f.algebra.leq
    return all(leq(f_at(i), g_at(i)) for i in range(len(f._vals)))


def first_difference(f, g, universe=None):
    f_at, g_at = f.at, g.at
    for i in _ids(f, universe):
        if f_at(i) != g_at(i):
            return (f.catoid.elements()[i], f_at(i), g_at(i))
    return None


# ---------------------------------------------------------------------------
# tests (subidentity indicators) and the KAT structure


def is_test(p) -> bool:
    """p is chi_P for some subset P of the identities."""
    at, K = p.at, p.algebra
    return all(at(i) in (K.zero, K.one) if e else at(i) == K.zero
               for i, e in enumerate(p.catoid.faces()[2]))


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
    rep.add("kat.test-count", checked=len(subsets), note=f"2^{len(ids)}={len(subsets)} tests")

    bad = []
    for P, p in tests.items():
        if not is_test(p):
            bad.append((sorted(P),))
    rep.add("kat.tests-are-tests", bad, checked=len(subsets))

    bad = []
    for P, Q in itertools.product(subsets, repeat=2):
        if not functions_equal(conv_add(tests[P], tests[Q]), tests[P | Q]):
            bad.append((sorted(P), sorted(Q), "join"))
        if not functions_equal(convolve(tests[P], tests[Q]), tests[P & Q]):
            bad.append((sorted(P), sorted(Q), "meet"))
    rep.add("kat.embed-join-meet", bad, checked=2 * len(subsets) ** 2)

    bad = []
    for P, p in tests.items():
        q = test_complement(p)
        if not functions_equal(conv_add(p, q), one) or not functions_equal(convolve(p, q), zero):
            bad.append((sorted(P),))
        if not is_test(q):
            bad.append((sorted(P), "complement-not-test"))
    rep.add("kat.complementation", bad, checked=len(subsets))

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
    rep.add("kat.lattice-laws", bad, checked=5 * len(subsets) ** 2)

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
    rep.add("kat.distributivity", bad, checked=2 * len(subsets) ** 3)

    bad = []
    for P, p in tests.items():
        st = star_recursive(p)
        if not functions_equal(st, one):
            bad.append((sorted(P),))
    rep.add("kat.test-star-is-one", bad, checked=len(subsets))

    bad = []
    elements = C.elements()
    for _ in range(samples):
        A = frozenset(x for x in elements if rng.random() < 0.3)
        st = star_recursive(indicator(C, K, A))
        target = indicator(C, K, powerset_star(C, A))
        if not functions_equal(st, target):
            bad.append((sorted(C.format_element(a) for a in A),))
    rep.add("kat.indicator-star-closure", bad, checked=samples)

    in_bracket = [P for P in subsets if is_in_bracket(tests[P])]
    expected = [frozenset(), frozenset(ids)]
    ok = sorted(in_bracket, key=sorted) == sorted(expected, key=sorted)
    bad = [] if ok else [tuple(sorted(map(str, P)) for P in in_bracket)]
    rep.add("kat.bracket-tests-trivial", bad, checked=len(subsets), note="K[C] tests = {0, id0}")
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
        rep.add(f"conway.unfold-{side}", bad, checked=n)
    rep.add("conway.sum-star", bad_ss, checked=n)
    rep.add("conway.prod-star-swap", bad_ps, checked=n)
    return rep


def random_function(C, K, rng, bracket=False) -> WeightFunction:
    """Seeded random weight function; identities are forced to 1 in bracket mode."""
    pool = K.pool()
    vals = [K.one if bracket and e else rng.choice(pool) for e in C.faces()[2]]
    return WeightFunction(C, K, "f", vals=vals)
