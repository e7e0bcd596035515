"""Convolution algebras on weight functions C -> K.

One engine computes the recursive star in three forms:

  star_recursive   f*(e) = f(e)*;  f*(x) = f(s(x))* . sum f(y).f*(z)
                   over the 2-decompositions of x with y != s(x)
  star_dual        the mirrored sum of f*(y).f(z), z != t(x), ending in f(t(x))*
  star_path        the specialisation to K[C] (identities mapped to 1)

It reads f whole by ``values()`` and sets the star at each identity, f(e)* or
1 in K[C], when the star is built, so a star of a convolution fills the
convolution even for one point query.  It evaluates the rest on demand: each
element reached gets a generator frame, which yields the ids of the star
values it lacks, and ``catoid.settle`` advances the top frame of a stack, so
frames never nest and element length is not bounded by Python's recursion
limit.  Every form runs one frame loop over a row whose f-factor ids never
decrease: ``Catoid.rows`` in the left and K[C] forms, its mirror
``Catoid.dual_rows`` in the dual.  Terms with f-factor 0 are skipped only
when the algebra's zero is absorbing (0.a = a.0 = 0, a + 0 = a), as in
convolve; the engine then finds f's last nonzero id once per star, and each
frame stops at the first f-factor id past it: every term from there on has
f-factor 0.  A sum that reaches the additive top (``ValueAlgebra.add_top``)
stops too, and opens no star frame for the terms left, which cannot change
it.  A cycle in the decomposition structure (non-Moebius model) raises
MoebiusViolation.  star_unfolded, the direct sum over all n-fold
non-identity decompositions, stays separate as the trusted oracle and sums
every term.

Weight functions memoise their values in lists indexed by element id, safe to
share between readers since the rules are pure.  ``f(x)`` looks x's id up.
Every function built from others, a sum, a convolution, a star or a view,
reads them whole by ``values()`` when it is built; a sum is then a filled
list.  ``values()`` fills the rest in one pass over ids by the point rule's
steps: a convolution sums every row of ``Catoid.row_pairs`` by the one sum
body its point rule runs on one row, a star runs its rule in id order.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .catoid import Catoid, settle
from .report import Report
from .values import SIDES, CapabilityError, ValueAlgebra, _law_runner, power_join


class WeightFunction:
    """A total, memoised map from catoid elements to weights.

    The value at id i is ``rule(i)``, or ``vals[i]`` where ``vals``, one entry
    per element, is given; it is kept, not copied.  None marks a value not yet
    computed; ``at(i)`` reads and fills the value at id i.  ``values()`` reads
    them all: ``fill(vals)``, by default the rule at each missing id in id
    order, sets every value, and then the rule and fill go.  A fill gives the
    rule's values and must not hold its function, which would then wait for
    the cycle collector.  Every function built on it, a sum, a convolution, a
    star or a view, reads it whole when built, filling it.
    """

    __slots__ = ("catoid", "algebra", "_rule", "_vals", "_index", "_fill")

    def __init__(self, catoid: Catoid, algebra: ValueAlgebra, *, rule=None, vals=None,
                 fill=None):
        if rule is None and vals is None:
            raise TypeError("WeightFunction needs a rule on ids or a values list")
        self.catoid, self.algebra, self._rule, self._fill = catoid, algebra, rule, fill
        self._index = catoid.index()
        self._vals = [None] * len(self._index) if vals is None else vals
        if len(self._vals) != len(self._index):
            raise ValueError(f"{catoid.name}: {len(vals)} values for {len(self._index)} elements")

    def at(self, i):
        v = self._vals[i]
        if v is None:
            v = self._vals[i] = self._rule(i)
        return v

    def __call__(self, x):
        return self.at(self._index[x])

    def values(self) -> list:
        """Every value by id, the missing ones filled in one pass; not a copy."""
        vals = self._vals
        if self._rule is not None and self._fill is not None:
            self._fill(vals)
        elif self._rule is not None:  # at(i) runs the rule at each missing id, in id order
            vals[:] = map(self.at, range(len(vals)))
        self._rule = self._fill = None  # without a rule, every value is known
        return vals

    def over(self, catoid: Catoid, algebra: ValueAlgebra) -> "WeightFunction":
        """The same map read over another catoid and algebra on the same
        elements, in the same order, and weights, such as one dimension of an
        n-catoid; this function is filled, and the view shares its values."""
        return WeightFunction(catoid, algebra, vals=self.values())

    def support(self) -> list:
        zero = self.algebra.zero
        return [x for x, v in zip(self.catoid.elements(), self.values()) if v != zero]

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
    """Pointwise sum, read whole from both inputs when built."""
    _check_same(f, g)
    return WeightFunction(f.catoid, f.algebra,
                          vals=list(map(f.algebra.add, f.values(), g.values())))


def convolve(f, g) -> WeightFunction:
    """(f*g)(x) = sum of f(y).g(z) over the 2-decompositions of x.

    Reads f and g whole when built.  A point query sums x's row, and
    ``values()`` sums every row of ``Catoid.row_pairs``, by one sum body:
    when the algebra's zero is absorbing, a term with f(y) = 0 is skipped
    without reading g(z); the sum stops once it reaches the additive top.
    """
    _check_same(f, g)
    C, K = f.catoid, f.algebra
    add, mul, zero, top, rows = K.add, K.mul, K.zero, K.add_top, C.rows
    skip_zero, fv, gv = K.zero_absorbs, f.values(), g.values()

    def total(terms):  # the sum over (y, z) id pairs in row order
        acc = zero
        for y, z in terms:
            u = fv[y]
            if skip_zero and u == zero:  # a skipped term would add 0
                continue
            acc = add(acc, mul(u, gv[z]))
            if acc == top:  # the remaining terms would add nothing
                break
        return acc

    def fill(vals):
        vals[:] = map(total, C.row_pairs)

    return WeightFunction(C, K, rule=lambda x: total(zip(*rows(x))), fill=fill)


def _star_engine(f, side: str) -> WeightFunction:
    """f* by the left ("left"), dual ("right") or K[C] ("path") recursion.

    Reads f once by ``values()``, which fills a convolution even for one point
    query, and sets the star's identity values, f(e)* or 1, first.
    Each other element reached without a value gets a generator frame, which
    walks its row, yields the id of any star value it still lacks and
    stores its value once the sum is done; the generator's own state is its
    place in the row, so no term list or resume index is kept.  ``rule`` hands
    the frames to ``catoid.settle``, so frames never nest.  Every form runs
    one frame loop over (f-factor id, star-factor id) pairs whose f-factor
    ids never decrease: the left and path forms read ``C.rows``, the dual its
    mirror ``C.dual_rows``.  Only the product order and the boundary face
    differ by side.  Where zero absorbs, a frame stops at the first f-factor
    id at or past ``cut``, one past f's last nonzero id, with no search or
    slice; it also stops at the additive top.
    """
    C, K = f.catoid, f.algebra
    if side == "path":
        if not is_in_bracket(f):
            raise CapabilityError("star_path needs a weight function in K[C]")
    elif not K.has_star:
        raise CapabilityError(f"{K.name}: no star operation")
    C.require_moebius()
    add, mul, zero, top = K.add, K.mul, K.zero, K.add_top
    left, skip_zero, fv = side != "right", K.zero_absorbs, f.values()
    rows, base = (C.rows, C.faces()[0]) if left else (C.dual_rows, C.faces()[1])
    cut, tail = len(fv), fv.copy()  # cut: one past f's last nonzero id; f's list is read by id
    for w in (64, 8, 1) if skip_zero else ():  # drop trailing zeros by blocks, widest first
        while tail[cut - w:cut].count(zero) == w:  # a block reaching past id 0 is short
            cut -= w
    vals = [None] * len(fv)
    for e in C.identity_ids:
        vals[e] = K.one if side == "path" else K.star(fv[e])

    def frame(x):
        b, acc = base[x], zero
        for y, need in zip(*rows(x)):  # f-factor ids never decrease
            if y >= cut:  # every term from here on adds 0
                break
            w = fv[y]
            if y == b or skip_zero and w == zero:  # the boundary term, or one adding 0
                continue
            if vals[need] is None:
                yield need  # rule fills vals[need] before it resumes this frame
            v = vals[need]
            acc = add(acc, mul(w, v) if left else mul(v, w))
            if acc == top:  # the remaining terms would add nothing
                break
        if side != "path":  # the boundary star f(s(x))* or f(t(x))*
            acc = mul(vals[b], acc) if left else mul(acc, vals[b])
        vals[x] = acc

    cycle = functools.partial(C.violation, "star recursion cycles")

    def rule(x):
        settle(frame, x, cycle)
        return vals[x]

    return WeightFunction(C, K, rule=rule, vals=vals)


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
    add, mul, star, at, splits = K.add, K.mul, K.star, f.values().__getitem__, C.splits
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
    vals, K = f.values(), f.algebra
    if all(vals[e] == K.one for e in f.catoid.identity_ids):
        return True
    return all(v == K.zero for v in vals)


def star_path(f) -> WeightFunction:
    """Star specialised to K[C]: identities go to 1, no boundary star factors."""
    return _star_engine(f, "path")


def _check_elements(f, g):
    if f.catoid is not g.catoid and f.catoid.elements() != g.catoid.elements():
        raise CapabilityError(f"element mismatch: {f.catoid.name} vs {g.catoid.name}")


def functions_equal(f, g, universe=None) -> bool:
    """f = g at every element, read whole, or at those of ``universe``, read point by point."""
    return first_difference(f, g, universe) is None


def function_leq(f, g) -> bool:
    """f <= g at every element, both read whole."""
    _check_elements(f, g)
    return all(map(f.algebra.leq, f.values(), g.values()))


def first_difference(f, g, universe=None):
    """The first (x, f(x), g(x)) with f(x) != g(x), or None: over every
    element, read whole, or over the elements of ``universe`` in its order,
    read point by point.  f and g live over one list of elements, such as
    two dimensions of an n-catoid."""
    _check_elements(f, g)
    if universe is None and f.values() == g.values():  # the whole lists, compared at once
        return None
    index, f_at, g_at = f.catoid.index(), f.at, g.at
    pairs = index.items() if universe is None else ((x, index[x]) for x in universe)
    return next(((x, f_at(i), g_at(i)) for x, i in pairs if f_at(i) != g_at(i)), None)


# ---------------------------------------------------------------------------
# tests (subidentity indicators) and the KAT structure


def is_test(p) -> bool:
    """p is chi_P for some subset P of the identities."""
    K = p.algebra
    return all(v in (K.zero, K.one) if e else v == K.zero
               for v, e in zip(p.values(), p.catoid.faces()[2]))


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


def check_kat(C: Catoid, K: ValueAlgebra, rng, samples) -> Report:
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
    law = _law_runner(rep, subsets)
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
    bad = [] if trivial else [tuple(sorted(map(C.format_element, P)) for P in in_bracket)]
    rep.add("kat.bracket-tests-trivial", bad, checked=len(subsets), note="K[C] tests = {0, id0}")
    return rep


def check_conway(C: Catoid, S: ValueAlgebra, rng, samples) -> Report:
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
