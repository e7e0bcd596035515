"""Convolution algebras on weight functions C -> K.

One engine computes the recursive star in three forms:

  star_recursive   f*(e) = f(e)*;  f*(x) = f(s(x))* . sum f(y).f*(z)
                   over the 2-decompositions of x with y != s(x)
  star_dual        the mirrored sum of f*(y).f(z), z != t(x), ending in f(t(x))*
  star_path        the specialisation to K[C] (identities mapped to 1)

It evaluates on demand: each element reached gets a generator frame, which
yields the ids of the star values it lacks, and ``catoid.settle`` advances
the top frame of a stack, so frames never nest and element length is not
bounded by Python's recursion limit.  Terms with f-factor 0 are skipped only
when the algebra's zero is absorbing (0.a = a.0 = 0, a + 0 = a); convolve
skips them under the same condition.  When in addition f is given by its values, with
no rule, as every function built from weights is, the engine finds f's last
nonzero id once per star and reads only the factors below it: the prefix of
``Catoid.rows`` in the left and path forms, whose left ids never decrease,
and in the dual form the suffix of the row where the model's rows run by
right id (``Catoid.rows_by_right``, read off the rows once per model), else
the row's pairs with right id below it.
The terms past it have f-factor 0, so the cut is exact.  Dually, a sum that
reaches the algebra's additive top (``ValueAlgebra.add_top``) stops there,
since no further term can change it; the engine then never opens the star
frames of the remaining terms.  A cycle in the decomposition structure
(non-Moebius model) raises MoebiusViolation.
star_unfolded, the direct sum over all n-fold non-identity decompositions,
stays separate as the trusted oracle and sums every term.

Weight functions memoise their values in lists indexed by element id, safe
to share between readers since the rules are pure.  Convolve, the engine and
the comparisons run on ids and ``Catoid.rows``, reading a factor's list
directly and calling ``at`` only on a miss; ``f(x)`` looks x's id up.
"""

from __future__ import annotations

import functools
import itertools
import operator
from bisect import bisect_left, bisect_right

from .catoid import Catoid, settle
from .report import Report
from .values import SIDES, CapabilityError, ValueAlgebra, _law_runner, power_join


class WeightFunction:
    """A total, memoised map from catoid elements to weights.

    The value at id i is ``rule(i)``, or ``vals[i]`` where ``vals`` is given;
    ``vals`` is kept, not copied.  Values are kept by element id, where None
    marks one not yet computed; ``at(i)`` reads and fills the value at id i.
    """

    __slots__ = ("catoid", "algebra", "_rule", "_vals", "_index")

    def __init__(self, catoid: Catoid, algebra: ValueAlgebra, *, rule=None, vals=None):
        if rule is None and vals is None:
            raise TypeError("WeightFunction needs a rule on ids or a values list")
        self.catoid, self.algebra, self._rule = catoid, algebra, rule
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
        return WeightFunction(catoid, algebra, rule=self._rule, vals=self._vals)

    def support(self) -> list:
        at, zero = self.at, self.algebra.zero
        return [x for i, x in enumerate(self.catoid.elements()) if at(i) != zero]

    def __repr__(self):
        return f"<WeightFunction {self.catoid.name} -> {self.algebra.name}>"


def zero_function(C, K) -> WeightFunction:
    return WeightFunction(C, K, vals=[K.zero] * len(C.elements()))


def id0(C, K) -> WeightFunction:
    """Unit of convolution: the indicator of the identity set."""
    return WeightFunction(C, K, vals=[K.one if e else K.zero for e in C.faces()[2]])


def indicator(C, K, members) -> WeightFunction:
    return from_pairs(C, K, ((x, K.one) for x in members))


def from_pairs(C, K, pairs) -> WeightFunction:
    """The weights in ``pairs``, zero elsewhere; an element off the universe
    raises the catoid's ValueError for it."""
    vals, index = [K.zero] * len(C.elements()), C.index()
    for x, w in dict(pairs).items():
        vals[index[x]] = w
    return WeightFunction(C, K, vals=vals)


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
    return WeightFunction(f.catoid, f.algebra, rule=lambda i: add(f_at(i), g_at(i)))


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

    return WeightFunction(C, K, rule=rule)


def _star_engine(f, side: str) -> WeightFunction:
    """f* by the left ("left"), dual ("right") or K[C] ("path") recursion.

    Demand-driven and iterative on ids: each element reached without a value
    gets a generator frame, which walks its row in order, yields the id of
    any non-identity star value it still lacks and stores its value once the
    sum is done; the generator's own state is its place in the row, so no
    term list or resume index is kept.  ``rule`` hands the frames to
    ``catoid.settle``, so frames never nest.  The boundary star f(s(x))* or
    f(t(x))* is read from the star's own value at that identity.  The dual
    recursion reads each row with its two sides exchanged.  Where zero
    absorbs and f has no rule, a frame reads only the factors below ``cut``,
    one past f's last nonzero id: one bisection finds them, but for a filter
    in the dual form where rows do not run by right id, which the dual star
    reads once from ``C.rows_by_right``.  A frame whose sum reaches the
    additive top is finished at once.
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
    by_right = not left and C.rows_by_right
    base = src if left else tgt
    cut = len(fv)  # one past f's last nonzero id: every f-factor from cut on is 0
    if not keep_zero and f._rule is None:  # without a rule every value is given
        cut -= len(list(itertools.takewhile(functools.partial(operator.eq, zero),
                                            reversed(fv))))

    def at(i):  # the star's value at id i; a frame fills it for a non-identity
        if vals[i] is None:
            vals[i] = K.one if side == "path" else K.star(f_at(i))
        return vals[i]

    def frame(x):
        b = base[x]
        lefts, rights = rows(x)
        if left:  # left ids never decrease: the factors below cut are a prefix
            terms = zip(lefts[:bisect_left(lefts, cut)], rights)
        elif by_right:  # right ids fall: the factors below cut are a suffix
            k = bisect_right(rights, -cut, key=operator.neg)
            terms = zip(rights[k:], lefts[k:])
        else:
            terms = ((y, z) for y, z in zip(rights, lefts) if y < cut)
        acc = zero
        for y, need in terms:
            if y == b:
                continue
            w = f_at(y) if fv[y] is None else fv[y]
            if w == zero and not keep_zero:  # where zero absorbs, the term would add 0
                continue
            v = vals[need]
            if v is None:
                if not is_identity[need]:
                    yield need  # rule fills vals[need] before it resumes this frame
                v = at(need)
            acc = add(acc, mul(w, v) if left else mul(v, w))
            if acc == top:  # the remaining terms would add nothing
                break
        if side != "path":  # the boundary star f(s(x))* or f(t(x))*
            acc = mul(at(b), acc) if left else mul(acc, at(b))
        vals[x] = acc

    cycle = functools.partial(C.violation, "star recursion cycles")

    def rule(x):
        if is_identity[x]:
            return at(x)
        settle(frame, x, cycle)
        return vals[x]

    wf = WeightFunction(C, K, rule=rule)
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
    using that consecutive factors chain targets to sources, and is counted
    once per chain of intermediate products x in x1.z1, z1 in x2.z2, ...
    In a Moebius catoid such chains exist exactly for 1 <= i <= length(x),
    since merging two adjacent non-identity factors gives a non-identity.
    The chains are walked depth-first on an explicit stack of (rest of the
    chain, term so far, factors so far) over ``Catoid.splits``, so the
    oracle never reads ``Catoid.rows``, the star engine's input; a finished
    chain adds its term and nothing else is kept.  Each term is multiplied
    left to right as written above; only the order of the sum follows the
    walk, and addition commutes in every semiring.  A chain of more than
    |U| factors repeats a rest, which only a model that absorbs on the left
    allows: it raises.
    """
    C, K = f.catoid, f.algebra
    if not K.has_star:
        raise CapabilityError(f"{K.name}: no star operation")
    C.require_moebius()
    add, mul, star, at, splits = K.add, K.mul, K.star, f.at, C.splits
    longest = len(splits)

    def rule(i):
        s, _, _ = splits[i]
        if s == i:  # an identity
            return star(at(i))
        acc, stack = K.zero, [(i, star(at(s)), 1)]
        while stack:
            x, term, n = stack.pop()
            if n > longest:
                raise C.violation("unbounded decomposition chains", i)
            _, t, steps = splits[x]
            acc = add(acc, mul(mul(term, at(x)), star(at(t))))  # the chain ends at x
            for y, z in steps:  # or goes on through x in y.z
                stack.append((z, mul(mul(term, at(y)), star(at(splits[y][1]))), n + 1))
        return acc

    return WeightFunction(C, K, rule=rule)


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
    """Set star in the powerset algebra: the join of the powers of members.

    Independent of the convolution star; growing subsets of U stop growing
    within |U| steps.
    """
    A = frozenset(members) & frozenset(C.elements())
    return power_join(frozenset(C.identities()), functools.partial(set_compose, C, A),
                      operator.or_, operator.eq, len(C.elements()) + 1)


def set_compose(C: Catoid, A, B) -> frozenset:
    out = set()
    for a, b in itertools.product(A, B):
        out |= C.compose(a, b)
    return frozenset(out)


def check_kat(C: Catoid, K: ValueAlgebra, rng, samples=25) -> Report:
    """Kleene-algebra-with-tests structure of the subidentity indicators.

    The tests form a Boolean algebra (Kozen, "Kleene algebra with tests", 1997),
    whose laws run on the law runner of ``values`` over the 2^|C0| subsets P of
    the identities, comparing indicators chi_P by ``conv_add``, ``convolve`` and
    ``star_recursive``.  Then the star of sampled indicators meets the powerset
    oracle, and K[C] holds no test but 0 and id0.  No algebra fails the note
    kat.test-count, nor kat.tests-are-tests or a complement's closure, since
    ``indicator`` and ``test_complement`` build only tests.
    """
    rep = Report(model=C.name, algebra=K.name)
    ids = C.identities()
    subsets = [frozenset(c) for r in range(len(ids) + 1) for c in itertools.combinations(ids, r)]
    chi = {P: indicator(C, K, P) for P in subsets}
    one, zero, plus, times = id0(C, K), zero_function(C, K), conv_add, convolve
    rep.add("kat.test-count", checked=len(subsets), note=f"2^{len(ids)}={len(subsets)} tests")

    def same(tag, f, g, *universe):  # None, or the law's tag where its two sides differ
        return None if functions_equal(f, g, *universe) else tag

    def complement(P):  # its first failing part
        p, q = chi[P], test_complement(chi[P])
        return (same("complement-join", plus(p, q), one)
                or same("complement-meet", times(p, q), zero)
                or (None if is_test(q) else "complement-not-test"))

    def bounds(P, Q):  # of P alone, but one instance per pair like the other lattice laws
        p = chi[P]
        return (same("add-zero", plus(p, zero), p, ids) or same("mul-one", times(p, one), p, ids)
                or same("add-one", plus(p, one), one, ids)
                or same("mul-zero", times(p, zero), zero, ids))

    # tests vanish off the identities (checked first), so lattice laws are decided there
    law = _law_runner(rep, subsets, None, 0)
    law("kat.tests-are-tests", 1, lambda P: None if is_test(chi[P]) else "not-a-test")
    law("kat.embed-join-meet", 2, lambda P, Q: same("join", plus(chi[P], chi[Q]), chi[P | Q]),
        lambda P, Q: same("meet", times(chi[P], chi[Q]), chi[P & Q]))
    law("kat.complementation", 1, complement)
    law("kat.lattice-laws", 2,
        lambda P, Q: same("add-comm", plus(chi[P], chi[Q]), plus(chi[Q], chi[P]), ids),
        lambda P, Q: same("mul-comm", times(chi[P], chi[Q]), times(chi[Q], chi[P]), ids),
        lambda P, Q: same("absorb-join", plus(chi[P], times(chi[P], chi[Q])), chi[P], ids),
        lambda P, Q: same("absorb-meet", times(chi[P], plus(chi[P], chi[Q])), chi[P], ids),
        bounds)
    law("kat.distributivity", 3,
        lambda P, Q, R: same("meet-over-join", times(chi[P], plus(chi[Q], chi[R])),
                             plus(times(chi[P], chi[Q]), times(chi[P], chi[R])), ids),
        lambda P, Q, R: same("join-over-meet", plus(chi[P], times(chi[Q], chi[R])),
                             times(plus(chi[P], chi[Q]), plus(chi[P], chi[R])), ids))
    law("kat.test-star-is-one", 1, lambda P: same("star", star_recursive(chi[P]), one))

    draws = (frozenset(x for x in C.elements() if rng.random() < 0.3) for _ in range(samples))
    bad = [(sorted(map(C.format_element, A)),) for A in draws if not functions_equal(
        star_recursive(indicator(C, K, A)), indicator(C, K, powerset_star(C, A)))]
    rep.add("kat.indicator-star-closure", bad, checked=samples)

    in_bracket = [P for P in subsets if is_in_bracket(chi[P])]  # in the order of subsets
    trivial = in_bracket == [frozenset(), frozenset(ids)]
    bad = [] if trivial else [tuple(sorted(map(str, P)) for P in in_bracket)]
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
    return WeightFunction(C, K, vals=vals)
