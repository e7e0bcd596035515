import itertools
import random
import signal
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from convka import models
from convka.catoid import MoebiusViolation, TableCatoid
from convka.cli import main
from convka.convolution import (
    WeightFunction,
    check_conway,
    check_kat,
    conv_add,
    convolve,
    first_difference,
    from_pairs,
    function_leq,
    functions_equal,
    id0,
    indicator,
    is_in_bracket,
    is_test,
    powerset_star,
    random_function,
    set_compose,
    star_dual,
    star_path,
    star_recursive,
    star_unfolded,
    zero_function,
)
from convka.convolution import test_complement as complement_of
from convka.higher import NConvolution
from convka.values import (
    CapabilityError,
    INF,
    ValueAlgebra,
    make_boolean,
    make_boolean_nd,
    make_max_plus,
    make_min_plus,
    make_nat_inf_conway,
)
from relations import make_relations
from chains import chain_sum, chains


def brute_convolution(C, K, f, g, x):
    """Oracle: scan all element pairs instead of using decompose2."""
    acc = K.zero
    for y, z in itertools.product(C.elements(), repeat=2):
        if x in C.compose(y, z):
            acc = K.add(acc, K.mul(f(y), g(z)))
    return acc


def test_conv_add(words3, boolean, minplus, rng):
    f = random_function(words3, minplus, rng)
    z = zero_function(words3, minplus)
    assert functions_equal(conv_add(f, z), f)
    g = random_function(words3, minplus, rng)
    for x in words3.elements():
        assert conv_add(f, g)(x) == minplus.add(f(x), g(x))

    A = frozenset(["a", "ab"])
    B = frozenset(["b", "ab", "ba"])
    lhs = conv_add(indicator(words3, boolean, A), indicator(words3, boolean, B))
    assert functions_equal(lhs, indicator(words3, boolean, A | B))


def test_convolve_single_letter_square(natinf):
    C = models.free_monoid("a", 2)
    f = from_pairs(C, natinf, {"": 0, "a": 3, "aa": 0})
    prod = convolve(f, f)
    # brute force over the splits (eps,aa), (a,a), (aa,eps)
    assert prod("aa") == brute_convolution(C, natinf, f, f, "aa") == 9


def test_convolution_unit_law(words3, minplus, rng):
    f = random_function(words3, minplus, rng)
    unit = id0(words3, minplus)
    assert functions_equal(convolve(unit, f), f)
    assert functions_equal(convolve(f, unit), f)


def test_convolve_matches_brute_force(words3, minplus, rng):
    for _ in range(5):
        f = random_function(words3, minplus, rng)
        g = random_function(words3, minplus, rng)
        prod = convolve(f, g)
        for x in words3.elements():
            assert prod(x) == brute_convolution(words3, minplus, f, g, x)


def test_indicator_convolution_is_set_composition(words3, boolean, rng):
    for _ in range(5):
        y = rng.choice(words3.elements())
        z = rng.choice(words3.elements())
        prod = convolve(indicator(words3, boolean, [y]), indicator(words3, boolean, [z]))
        for x in words3.elements():
            assert prod(x) == (1 if x in words3.compose(y, z) else 0)


def assert_refused_unread(f, g, message):
    # each operation refuses before it reads an input: a star keeps its rule
    for op in (conv_add, convolve):
        with pytest.raises(CapabilityError) as err:
            op(f, g)
        assert str(err.value) == message, op.__name__
        assert f._rule is not None and g._rule is not None, op.__name__


def test_algebra_mismatch_rejected(words3, boolean, minplus):
    assert_refused_unread(star_recursive(zero_function(words3, boolean)),
                          star_recursive(zero_function(words3, minplus)),
                          "algebra mismatch: boolean vs minplus")


def test_convolution_refuses_functions_over_two_catoids(boolean):
    # two models with the same elements are still two catoids
    f, g = (star_recursive(zero_function(models.free_monoid("ab", 2), boolean))
            for _ in range(2))
    assert_refused_unread(f, g, "weight functions live over different catoids")


def test_comparisons_refuse_functions_over_other_elements(boolean):
    # zip stopped at the shorter list, so a zero map over the words of length
    # at most 3 compared equal to one over length 4 that weighs abab
    f = zero_function(models.free_monoid("ab", 3), boolean)
    g = from_pairs(models.free_monoid("ab", 4), boolean, {"abab": 1})
    for compare, args, names in ((functions_equal, (f, g), "words(ab,3) vs words(ab,4)"),
                                 (functions_equal, (f, g, ["a"]), "words(ab,3) vs words(ab,4)"),
                                 (first_difference, (f, g), "words(ab,3) vs words(ab,4)"),
                                 (function_leq, (g, f), "words(ab,4) vs words(ab,3)")):
        with pytest.raises(CapabilityError) as err:
            compare(*args)
        assert str(err.value) == f"element mismatch: {names}", compare.__name__
    # two models on one list of elements compare, as two dimensions of an n-catoid do
    h = from_pairs(models.free_monoid("ab", 3), boolean, {"abb": 1})
    assert first_difference(f, h) == ("abb", 0, 1) and function_leq(f, h)
    nc = models.pasting_square_2category()
    units = [id0(d, boolean) for d in nc.dims]
    assert units[0].catoid is not units[1].catoid
    assert function_leq(units[0], units[0].over(nc.dims[1], boolean))


def test_unfolded_star_refuses_an_algebra_without_star(words3):
    K = ValueAlgebra(name="bare", add=max, mul=max, zero=0, one=1)
    with pytest.raises(CapabilityError) as err:
        star_unfolded(zero_function(words3, K))
    assert str(err.value) == "bare: no star operation"


def test_weight_function_needs_a_rule_on_ids_or_values(words3, boolean):
    # a rule and values are keywords: a positional rule, or a name before one,
    # fails at once, not at the first read
    for args in ((lambda x: 1,), ("f", lambda i: 1)):
        with pytest.raises(TypeError, match="positional argument"):
            WeightFunction(words3, boolean, *args)
    with pytest.raises(TypeError, match="needs a rule on ids or a values list"):
        WeightFunction(words3, boolean)
    # two values over the seven words of length at most 2 would compare equal to
    # any other such list and read ab as missing, so the list's length is checked
    for vals in ([0, 1], [0] * 8):
        message = rf"^words\(ab,2\): {len(vals)} values for 7 elements$"
        with pytest.raises(ValueError, match=message):
            WeightFunction(models.free_monoid("ab", 2), boolean, vals=vals)


def test_from_pairs_refuses_elements_outside_the_universe(natinf):
    with pytest.raises(ValueError, match=r"words\(ab,2\): abc is not in elements\(\)"):
        from_pairs(models.free_monoid("ab", 2), natinf, {"abc": 1, "a": 2})


def test_semiring_laws_pointwise(words3, minplus, rng):
    fs = [random_function(words3, minplus, rng) for _ in range(3)]
    f, g, h = fs
    assert functions_equal(convolve(convolve(f, g), h), convolve(f, convolve(g, h)))
    assert functions_equal(convolve(f, conv_add(g, h)),
                           conv_add(convolve(f, g), convolve(f, h)))
    assert functions_equal(convolve(conv_add(f, g), h),
                           conv_add(convolve(f, h), convolve(g, h)))
    z = zero_function(words3, minplus)
    assert functions_equal(convolve(f, z), z)
    assert functions_equal(convolve(z, f), z)


# ---------------------------------------------------------------------------
# stars


def test_star_on_identities(words3, minplus, rng):
    f = random_function(words3, minplus, rng)
    assert star_recursive(f)("") == minplus.star(f(""))
    assert star_dual(f)("") == minplus.star(f(""))
    assert star_unfolded(f)("") == minplus.star(f(""))
    # each engine star sets its identity values, f(e)* or 1 in K[C], when it
    # is built, and leaves every other value to the first query that needs it
    C = models.path_catoid(models.diamond_dag(), 3)
    g, b = random_function(C, minplus, rng), random_function(C, minplus, rng, bracket=True)
    for star, h, at_identity in ((star_recursive, g, minplus.star), (star_dual, g, minplus.star),
                                 (star_path, b, lambda w: minplus.one)):
        expected = [at_identity(w) if e else None for w, e in zip(h.values(), C.faces()[2])]
        assert star(h)._vals == expected and None in expected, star.__name__


def test_a_star_of_a_derived_function_fills_it_when_built(words3, minplus, rng):
    # the engine reads its input whole, so a product or a sum is filled, and
    # keeps neither rule nor fill, before the star answers any query
    f, g = random_function(words3, minplus, rng), random_function(words3, minplus, rng)
    b = random_function(words3, minplus, rng, bracket=True)
    for star, build in ((star_recursive, lambda: convolve(f, g)),
                        (star_dual, lambda: conv_add(f, g)), (star_path, lambda: convolve(b, b)),
                        (star_unfolded, lambda: convolve(f, g))):
        h, fresh = build(), build()
        star(h)
        assert h._rule is None and h._fill is None, star.__name__
        assert h._vals == [fresh.at(i) for i in range(len(words3.elements()))], star.__name__


def test_sums_and_products_of_a_star_fill_it_when_built(words3, minplus, rng):
    # convolve and conv_add read both inputs whole, so a star on either side
    # is filled, and keeps neither rule nor fill, before any query; a sum is
    # a filled list with no rule
    f, g = random_function(words3, minplus, rng), random_function(words3, minplus, rng)
    expected = star_recursive(f).values()
    for op, star_first in itertools.product((convolve, conv_add), (True, False)):
        s = star_recursive(f)
        h = op(s, g) if star_first else op(g, s)
        assert s._rule is None and s._fill is None and s._vals == expected, op.__name__
        assert (h._rule is None) == (op is conv_add), op.__name__
    total = conv_add(f, g)
    assert total._rule is None and total._fill is None
    assert total._vals == list(map(minplus.add, f.values(), g.values()))


def test_star_two_edge_path(minplus):
    C = models.path_catoid(models.two_edge_path_graph(), 4)
    table = {e: 0 for e in C.identities()}
    table[("a", ("x",))] = 2
    table[("b", ("y",))] = 3
    f = from_pairs(C, minplus, table)
    for star in (star_recursive, star_dual, star_unfolded, star_path):
        assert star(f)(("a", ("x", "y"))) == 5


def test_star_zero_is_id0(words3, minplus):
    z = zero_function(words3, minplus)
    assert functions_equal(star_recursive(z), id0(words3, minplus))
    assert functions_equal(star_dual(z), id0(words3, minplus))
    assert functions_equal(star_path(z), id0(words3, minplus))


def test_star_length_one_element(words3, minplus, rng):
    f = random_function(words3, minplus, rng)
    fs = star_unfolded(f)
    e = minplus.star(f(""))
    assert fs("a") == minplus.mul(minplus.mul(e, f("a")), e)


def test_triple_star_agreement(rng):
    K = make_min_plus()
    for C in (models.free_monoid("ab", 4), models.shuffle_catoid("ab", 3),
              models.interval_catoid(models.example_poset()),
              models.guarded_string_catoid(["t0", "t1"], ["p"], 3)):
        for _ in range(10):
            f = random_function(C, K, rng)
            a = star_recursive(f)
            assert functions_equal(a, star_dual(f)), C.name
            assert functions_equal(a, star_unfolded(f)), C.name


def test_unfolded_star_counts_every_chain_on_shuffle(natinf, rng):
    # shuffle is multi-valued, so an n-fold decomposition can arise through
    # several intermediate products; natinf counts each one
    C = models.shuffle_catoid("ab", 3)
    for _ in range(10):
        f = from_pairs(C, natinf, {x: rng.randrange(4) for x in C.elements()
                                   if not C.is_identity(x)})
        oracle = star_unfolded(f)
        assert functions_equal(star_recursive(f), oracle)
        assert functions_equal(star_dual(f), oracle)


def test_star_unfold_law(words4, minplus, rng):
    unit = id0(words4, minplus)
    for _ in range(10):
        f = random_function(words4, minplus, rng)
        fs = star_recursive(f)
        assert functions_equal(conv_add(unit, convolve(f, fs)), fs)
        assert functions_equal(conv_add(unit, convolve(fs, f)), fs)


def test_star_induction_simplified(words4, minplus, rng):
    for _ in range(10):
        f = random_function(words4, minplus, rng)
        h = random_function(words4, minplus, rng)
        fs = star_recursive(f)
        g = convolve(fs, h)
        assert function_leq(convolve(f, g), g)      # antecedent by construction
        assert function_leq(convolve(fs, g), g)
        g2 = convolve(h, fs)
        assert function_leq(convolve(g2, f), g2)
        assert function_leq(convolve(g2, fs), g2)


def test_indicator_star_is_powerset_star(words4, boolean, rng):
    for _ in range(10):
        A = frozenset(x for x in words4.elements() if rng.random() < 0.3)
        st = star_recursive(indicator(words4, boolean, A))
        assert functions_equal(st, indicator(words4, boolean, powerset_star(words4, A)))


def test_powerset_isomorphism(words3, boolean, rng):
    # support() carries +, *, star, id0, zero to union, set composition,
    # set star, the identity set and the empty set
    for _ in range(5):
        A = frozenset(x for x in words3.elements() if rng.random() < 0.4)
        B = frozenset(x for x in words3.elements() if rng.random() < 0.4)
        fa, fb = indicator(words3, boolean, A), indicator(words3, boolean, B)
        assert set(conv_add(fa, fb).support()) == A | B
        assert set(convolve(fa, fb).support()) == set(set_compose(words3, A, B))
        assert set(star_recursive(fa).support()) == set(powerset_star(words3, A))
    assert set(id0(words3, boolean).support()) == set(words3.identities())
    assert zero_function(words3, boolean).support() == []


# Small catalogue models for the differential tests; star_unfolded is
# exponential in element length, so the universes stay small.
SMALL_MODELS = (
    models.free_monoid("ab", 3),
    models.guarded_string_catoid(["t0", "t1"], ["p"], 2),
    models.path_catoid(models.diamond_dag(), 4),
    models.interval_catoid(models.example_poset()),
)
STOCK_ALGEBRAS = (make_boolean(), make_min_plus(), make_max_plus(), make_nat_inf_conway())
# the one non-commutative semiring: it tells the two sides of a star apart
RELATIONS = make_relations()


def drawn_function(data, C, K, bracket=False):
    """A weight table drawn by hypothesis, zero-heavy so the skipped terms matter."""
    weight = st.one_of(st.just(K.zero), st.sampled_from(K.pool()))
    table = {x: K.one if bracket and C.is_identity(x) else data.draw(weight)
             for x in C.elements()}
    return from_pairs(C, K, table)


@st.composite
def random_catoids(draw):
    """A small free monoid, guarded-string, shuffle or random-DAG path catoid."""
    kind = draw(st.sampled_from(("words", "guarded", "shuffle", "paths")))
    if kind == "words":
        return models.free_monoid(draw(st.sampled_from(("a", "ab", "abc"))),
                                  draw(st.integers(1, 3)))
    if kind == "guarded":
        return models.guarded_string_catoid(draw(st.sampled_from((["t0"], ["t0", "t1"]))),
                                            draw(st.sampled_from((["p"], ["p", "q"]))),
                                            draw(st.integers(1, 2)))
    if kind == "shuffle":
        return models.shuffle_catoid(draw(st.sampled_from(("a", "ab"))), draw(st.integers(1, 3)))
    graph = models.random_dag(draw(st.integers(2, 5)), draw(st.sampled_from((0.3, 0.6, 0.9))),
                              draw(st.integers(0, 10 ** 6)))
    return models.path_catoid(graph, draw(st.integers(1, 4)))


# The sums of the star forms and of convolve stop at the additive top, which
# the drawn weights reach; the unfolded star and the plain sums do not stop.
@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(SMALL_MODELS), random_catoids()),
       st.sampled_from(STOCK_ALGEBRAS + (RELATIONS,)), st.data())
def test_star_sides_agree_with_oracle(C, K, data):
    assert K.zero_absorbs
    f = drawn_function(data, C, K)
    left, right, oracle = star_recursive(f), star_dual(f), star_unfolded(f)
    for x in C.elements():
        assert left(x) == right(x) == oracle(x), (C.name, K.name, C.format_element(x))
    g = drawn_function(data, C, K, bracket=True)
    path, plain = star_path(g), unskipped_star(g, "path")
    # K[C] drops the boundary stars: the unfolded star with every star 1
    oracle = star_unfolded(g.over(C, replace(K, star=lambda a: K.one)))
    for x in C.elements():
        assert path(x) == plain(x) == oracle(x), (C.name, K.name, C.format_element(x))


def skewed_algebra():
    """Three weights under max whose zero is not absorbing (0.1 = 1) and whose
    product does not commute (0.1 = 1, 1.0 = 2)."""
    return ValueAlgebra(name="skew3", add=max, mul=lambda a, b: (2 * a + b) % 3,
                        zero=0, one=1, star={0: 1, 1: 2, 2: 2}.__getitem__,
                        carrier=(0, 1, 2))


def logged_algebra(K, log):
    """K whose add, mul and star append (name, arguments) to ``log`` before
    they run; the log starts after the algebra's own decisions over its pool."""

    def logged(name, op):
        def run(*args):
            log.append((name, *args))
            return op(*args)
        return run

    L = replace(K, **{name: logged(name, getattr(K, name)) for name in ("add", "mul", "star")})
    L.zero_absorbs, L.add_top, L.idempotent_add
    log.clear()
    return L


# each whole function read from drawn weights f, g and a K[C] function b;
# conv_add and view compute when built, so they compare values only
FILLED = {
    "convolve": lambda f, g, b: convolve(f, g),
    "conv_add": lambda f, g, b: conv_add(f, g),
    "star_recursive": lambda f, g, b: star_recursive(f),
    "star_dual": lambda f, g, b: star_dual(f),
    "star_path": lambda f, g, b: star_path(b),
    "star_unfolded": lambda f, g, b: star_unfolded(f),
    "view": lambda f, g, b: convolve(g, f).over(f.catoid, f.algebra),
}


def reference_difference(f, g):
    return next(((x, f(x), g(x)) for x in f.catoid.elements() if f(x) != g(x)), None)


# a fill must run the point rule's operations in the same order: the same
# pairs in row order, zero skip, additive-top stop and product order
@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(SMALL_MODELS), random_catoids()),
       st.sampled_from(STOCK_ALGEBRAS + (RELATIONS, skewed_algebra())), st.data())
def test_values_fill_as_the_point_rules_do(C, K, data):
    log = []
    L = logged_algebra(K, log)
    f, g, b = drawn_function(data, C, L), drawn_function(data, C, L), \
        drawn_function(data, C, L, bracket=True)
    n = len(C.elements())
    for name, build in FILLED.items():
        point, whole = build(f, g, b), build(f, g, b)
        log.clear()
        expected = [point.at(i) for i in range(n)]
        point_ops = log[:]
        log.clear()
        assert whole.values() == expected, (name, C.name, K.name)
        assert log == point_ops, (name, C.name, K.name)
        assert whole.values() is whole._vals and None not in whole._vals
        part = build(f, g, b)  # a fill keeps the values point queries left
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=4)):
            part.at(i)
        assert part.values() == expected, (name, C.name, K.name)

    def compared():  # fresh pairs, so that the references read their own copies
        return [(convolve(f, g), convolve(g, f)), (star_recursive(f), star_dual(f)),
                (conv_add(f, g), conv_add(g, f)), (f, g), (convolve(f, f), f),
                (FILLED["view"](f, g, b), convolve(f, g))]

    for (u, v), (u2, v2) in zip(compared(), compared()):
        assert first_difference(u, v) == reference_difference(u2, v2)
        assert functions_equal(u, v) == (reference_difference(u2, v2) is None)
        if K.idempotent_add:
            assert function_leq(u, v) == all(L.leq(u2(x), v2(x)) for x in C.elements())


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("shuffle-concat", "square")), st.integers(0, 10 ** 6))
def test_values_of_an_n_convolution_view(kind, seed):
    nc = (models.shuffle_concat_2catoid("ab", 3) if kind == "shuffle-concat"
          else models.pasting_square_2category())
    bundle = NConvolution(nc, make_boolean_nd(2))
    rng = random.Random(seed)
    f, g = bundle.random_function(rng), bundle.random_function(rng)
    n = len(nc.elements())
    for i, j in itertools.product(range(2), repeat=2):
        for build in (lambda: bundle.mul(i, f, g), lambda: bundle.add(f, g),
                      lambda: bundle.star(i, f)):
            h, fresh = build(), build()
            view = bundle._over(j, h)  # fills h and shares only its list
            assert h._vals is view._vals and None not in h._vals
            assert view._rule is None and view._fill is None and h._rule is None
            assert view.values() == [fresh.at(k) for k in range(n)]


def unskipped_star(f, side):
    """The star recursion summing every 2-decomposition, zero factors included,
    as the recursive star did before zero terms were skipped."""
    C, K = f.catoid, f.algebra
    memo = {}

    def star(x):
        if x in memo:
            return memo[x]
        if C.is_identity(x):
            memo[x] = K.one if side == "path" else K.star(f(x))
            return memo[x]
        acc = K.zero
        for y, z in C.decompose2(x):
            if side != "right" and y != C.source(x):
                acc = K.add(acc, K.mul(f(y), star(z)))
            elif side == "right" and z != C.target(x):
                acc = K.add(acc, K.mul(star(y), f(z)))
        if side == "left":
            acc = K.mul(K.star(f(C.source(x))), acc)
        elif side == "right":
            acc = K.mul(acc, K.star(f(C.target(x))))
        memo[x] = acc
        return acc

    return star


def test_star_keeps_zero_terms_without_absorbing_zero(rng):
    K = skewed_algebra()
    assert not K.zero_absorbs
    assert make_boolean().zero_absorbs
    assert not ValueAlgebra(name="bare", add=max, mul=max, zero=0, one=1).zero_absorbs
    for C in SMALL_MODELS[:2]:
        for _ in range(10):
            f = random_function(C, K, rng)
            g = random_function(C, K, rng, bracket=True)
            for side, star, h in (("left", star_recursive, f), ("right", star_dual, f),
                                  ("path", star_path, g)):
                old, new = unskipped_star(h, side), star(h)
                for x in C.elements():
                    assert new(x) == old(x), (C.name, side, C.format_element(x))


CONVOLUTION_MODELS = (
    models.free_monoid("ab", 3),
    models.shuffle_catoid("ab", 3),
    models.guarded_string_catoid(["t0", "t1"], ["p"], 2),
    models.path_catoid(models.diamond_dag(), 4),
    models.interval_catoid(models.example_poset()),
    models.pair_groupoid(["a", "b", "c"]),
)


def decoded_rows(C):
    """``C.rows`` of every element, decoded to pairs of elements."""
    E = C.elements()
    return [[(E[y], E[z]) for y, z in zip(*C.rows(i))] for i in range(len(E))]


def test_rows_decode_to_decompose2():
    # one- and three-letter words take the closed forms, the rest Catoid.rows
    for C in CONVOLUTION_MODELS + (models.free_monoid("a", 6), models.free_monoid("abc", 3),
                                   *models.pasting_square_2category().dims):
        assert decoded_rows(C) == [list(C.decompose2(x)) for x in C.elements()], C.name


@settings(max_examples=60, deadline=None)
@given(random_catoids())
def test_rows_decode_to_decompose2_on_random_catoids(C):
    assert decoded_rows(C) == [list(C.decompose2(x)) for x in C.elements()], C.name


def test_word_rows_are_kept_per_model():
    # over two or more letters the words read Catoid.rows, which keeps each row
    C = models.free_monoid("ab", 4)
    assert C.rows(9) is C.rows(9)
    C.require_moebius()
    assert sorted(C._rows) == list(range(len(C.elements())))


ORDER_MODELS = CONVOLUTION_MODELS + (models.shuffle_catoid("ab", 4), models.free_monoid("a", 9),
                                     models.shuffle_catoid("a", 4),
                                     *models.pasting_square_2category().dims)


def assert_rows_in_order(C):
    """The orders the star's bound reads: a row's left ids never decrease,
    and its mirror ``dual_rows`` decodes to the same pairs with their sides
    exchanged, (z, y) for each (y, z) of ``decompose2``, with right ids that
    never decrease."""
    index = C.index()
    for i, x in enumerate(C.elements()):
        lefts, _ = map(list, C.rows(i))
        assert lefts == sorted(lefts), (C.name, C.format_element(x))
        mirrored = list(zip(*C.dual_rows(i)))
        assert sorted(mirrored) == sorted((index[z], index[y]) for y, z in C.decompose2(x)), \
            (C.name, C.format_element(x))
        rights = [z for z, _ in mirrored]
        assert rights == sorted(rights), (C.name, C.format_element(x))


def test_rows_keep_the_orders_the_star_bound_reads():
    for C in ORDER_MODELS:
        assert_rows_in_order(C)
    # one-letter rows and their mirrors are a closed form, kept nowhere
    assert [(C._rows, C._dual_rows) for C in ORDER_MODELS
            if getattr(C, "alphabet", ()) == ("a",)] == [({}, {}), ({}, {})]


@settings(max_examples=60, deadline=None)
@given(random_catoids())
def test_rows_keep_their_orders_on_random_catoids(C):
    assert_rows_in_order(C)


class ReadLog(list):
    """A values list that records every id read through ``__getitem__``."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


def logged(f):
    return WeightFunction(f.catoid, f.algebra, vals=ReadLog(f._vals))


def test_star_of_a_sparse_function_reads_no_weight_past_its_last_nonzero():
    # only eps, a and aaa (ids 0, 1, 3) weigh anything but 0, so every term
    # past aaa is 0 and no star form reads its weight
    C, K = models.free_monoid("a", 300), make_min_plus()
    f = from_pairs(C, K, {"a": 2, "aaa": 5})
    g = from_pairs(C, K, {"": K.one, "a": 2, "aaa": 5})
    for star, h in ((star_recursive, logged(f)), (star_dual, logged(f)), (star_path, logged(g))):
        s = star(h)
        h._vals.read.clear()
        assert s("a" * 300) == 2 * 300 - 300 // 3, star.__name__
        assert max(h._vals.read) == 3, star.__name__
    # over two shuffled letters the dual reads the tail of the sorted columns
    C = models.shuffle_catoid("ab", 4)
    f = from_pairs(C, K, {"a": 1, "b": 3})
    h = logged(f)
    s, oracle = star_dual(h), star_unfolded(f)
    h._vals.read.clear()
    for x in C.elements():
        assert s(x) == oracle(x), C.format_element(x)
    assert max(h._vals.read) == C.index()["b"]


class CountedSide:
    """One side of a row, whose iterator counts each id it draws."""

    def __init__(self, ids, key, draws):
        self.ids, self.key, self.draws = ids, key, draws

    def __iter__(self):
        for i in self.ids:
            self.draws[self.key] += 1
            yield i


def test_no_star_frame_draws_a_row_pair_past_its_cut():
    # only eps, a and aaa (ids 0, 1, 3) weigh anything but 0, so the cut is
    # id 4: the frame of a^k draws its pairs whose f-factor lies below 4 and
    # the one at 4 that stops it, never the rest of its k + 1 pairs
    C, K = models.free_monoid("a", 300), make_min_plus()
    C.require_moebius()  # read the rows before they are counted
    f = from_pairs(C, K, {"a": 2, "aaa": 5})
    g = from_pairs(C, K, {"": K.one, "a": 2, "aaa": 5})
    draws = Counter()
    # the left and path forms read rows, the dual their mirrors, which one
    # letter reads off rows: each form counts only the rows it reads itself
    for star, h, name in ((star_recursive, f, "rows"), (star_dual, f, "dual_rows"),
                          (star_path, g, "rows")):
        read = getattr(C, name)
        setattr(C, name, lambda x: tuple(CountedSide(ids, (x, side), draws)
                                         for side, ids in enumerate(read(x))))
        draws.clear()
        assert star(h)("a" * 300) == 500, star.__name__
        delattr(C, name)  # the model's own method again
        pairs = {x: max(draws[x, 0], draws[x, 1]) for x, _ in draws}
        assert pairs == {k: min(k + 1, 5) for k in range(1, 301)}, star.__name__


def prefix_function(data, C, K, bracket=False):
    """Zero-heavy weights drawn on a drawn prefix of ids and zero past it, so
    that the star's cut falls anywhere in the universe; identities weigh 1 in
    K[C]."""
    n, weight = len(C.elements()), st.one_of(st.just(K.zero), st.sampled_from(K.pool()))
    end = data.draw(st.integers(0, n))
    vals = [data.draw(weight) if i < end else K.zero for i in range(n)]
    if bracket:
        for e in C.identity_ids:
            vals[e] = K.one
    return WeightFunction(C, K, vals=vals)


# the cut falls anywhere in rows and in their mirrors, whose order the sort
# sets on intervals and two-letter shuffles and reverses on the other models
@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from(SMALL_MODELS + (models.shuffle_catoid("ab", 3),)),
                 random_catoids()),
       st.sampled_from(STOCK_ALGEBRAS + (RELATIONS,)), st.data())
def test_star_forms_agree_on_weights_with_a_zero_tail(C, K, data):
    f = prefix_function(data, C, K)
    left, right, oracle = star_recursive(f), star_dual(f), star_unfolded(f)
    for x in C.elements():
        assert left(x) == right(x) == oracle(x), (C.name, K.name, C.format_element(x))
    g = prefix_function(data, C, K, bracket=True)
    path = star_path(g)
    oracle = star_unfolded(g.over(C, replace(K, star=lambda a: K.one)))
    for x in C.elements():
        assert path(x) == oracle(x), (C.name, K.name, C.format_element(x))


def assert_unfolded_matches_chain_sum(f):
    C, star = f.catoid, star_unfolded(f)
    for x in C.elements():
        assert star(x) == chain_sum(f, x), (C.name, f.algebra.name, C.format_element(x))


def test_unfolded_star_matches_chain_sum(rng):
    # natinf counts every chain, and relations multiply in order; the pair
    # groupoid is not Moebius: its identities have chains of every length
    for C in CONVOLUTION_MODELS[:-1] + (models.free_monoid("a", 6),
                                        models.shuffle_catoid("a", 3),
                                        *models.pasting_square_2category().dims):
        assert C.moebius_report().clean, C.name
        for K in (make_nat_inf_conway(), RELATIONS):
            assert_unfolded_matches_chain_sum(random_function(C, K, rng))
    # on shuffle a tuple counts once per chain: a.a.b and a.b.a each reach
    # aba twice, through ab and through ba, and b.a.a once, through aa
    C = models.shuffle_catoid("ab", 3)
    letters = Counter(p for p in chains(C, "aba") if all(len(w) == 1 for w in p))
    assert letters == {("a", "a", "b"): 2, ("a", "b", "a"): 2, ("b", "a", "a"): 1}
    assert star_unfolded(from_pairs(C, make_nat_inf_conway(), {"a": 1, "b": 1}))("aba") == 5


@settings(max_examples=60, deadline=None)
@given(random_catoids(), st.sampled_from((make_nat_inf_conway(), RELATIONS)), st.data())
def test_unfolded_star_matches_chain_sum_on_random_catoids(C, K, data):
    assert_unfolded_matches_chain_sum(drawn_function(data, C, K))


def test_unfolded_star_refuses_a_non_moebius_model(natinf):
    # a pair groupoid's elements decompose into chains of every length, so
    # walking them would never end: the unfolded star refuses at once instead
    C = models.pair_groupoid(["a", "b", "c"])

    def stop(signum, frame):
        raise AssertionError("star_unfolded did not refuse within a second")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        with pytest.raises(MoebiusViolation,
                           match=r"^pairs\(a,b,c\): model fails Moebius condition \(2\)"):
            star_unfolded(from_pairs(C, natinf, {("a", "b"): 1}))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(CONVOLUTION_MODELS), random_catoids()),
       st.sampled_from(STOCK_ALGEBRAS + (RELATIONS, skewed_algebra())), st.data())
def test_convolution_matches_unskipped_sum(C, K, data):
    f, g = drawn_function(data, C, K), drawn_function(data, C, K)
    prod, total = convolve(f, g), conv_add(f, g)
    for x in C.elements():
        expected = K.zero
        for y, z in C.decompose2(x):
            expected = K.add(expected, K.mul(f(y), g(z)))
        assert prod(x) == expected, (C.name, K.name, C.format_element(x))
        assert total(x) == K.add(f(x), g(x))


def test_additive_tops():
    tops = {K.name: K.add_top for K in STOCK_ALGEBRAS}
    assert tops == {"boolean": 1, "minplus": 0, "maxplus": 0, "natinf": INF}
    mod3 = ValueAlgebra(name="mod3", add=lambda a, b: (a + b) % 3,
                        mul=lambda a, b: a * b % 3, zero=0, one=1, carrier=(0, 1, 2))
    assert mod3.add_top is None
    assert ValueAlgebra(name="bare", add=max, mul=max, zero=0, one=1).add_top is None


def test_sums_stop_at_the_additive_top(words3, boolean):
    log = []
    L = logged_algebra(boolean, log)
    ones = from_pairs(words3, L, {x: 1 for x in words3.elements()})
    # (eps, ab) comes first and already gives 1, so one product settles ab
    # and the sum adds it to 0 once
    assert convolve(ones, ones)("ab") == 1
    assert log == [("mul", 1, 1), ("add", 0, 1)]
    # the dual star of aba reads its mirrored row by right id: star(ab).1
    # comes first and opens the frame of ab, whose first term star(a).1 opens
    # that of a; each frame ends at its first term, which gives 1
    star = star_dual(ones)
    assert star("aba") == 1
    filled = {x for x, v in zip(words3.elements(), star._vals) if v is not None}
    assert filled == {"", "a", "ab", "aba"}


def test_star_on_long_unary_word(unary1200):
    K = make_min_plus()
    f = from_pairs(unary1200, K, {"a": 2, "aaa": 5, "a" * 5: 11})
    left, right = star_recursive(f), star_dual(f)
    assert left("a" * 1200) == right("a" * 1200) == 2000
    # the cheapest cut of a^n uses as many aaa (5) as fit, then a's (2);
    # a^5 (11) never beats aaa.a.a (9)
    for n in range(1201):
        assert left("a" * n) == right("a" * n) == 2 * n - n // 3


def test_long_stars_nest_no_python_frames(unary1200):
    # the driver advances one generator frame at a time, so a^1200 fits under
    # a recursion limit 50 frames above the caller; nested frames, by recursion
    # or by yield-from chains, would need more than 1200
    K = make_min_plus()
    f = from_pairs(unary1200, K, {"a": 2, "aaa": 5})
    g = from_pairs(unary1200, K, {"": K.one, "a": 2, "aaa": 5})
    stars = (star_recursive(f), star_dual(f), star_path(g))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        values = [star("a" * 1200) for star in stars]
    finally:
        sys.setrecursionlimit(old)
    assert values == [2000] * 3


def test_cli_star_on_long_unary_word(tmp_path, capsys):
    # the CLI evaluates rows shortest first, so every step is shallow; this pins
    # the end-to-end path, and the long-element case is the library test above
    p = tmp_path / "unary.txt"
    p.write_text("a 2\naaa 5\n")
    out = {}
    for form in ("recursive", "dual"):
        assert main(["star", "--model", "words", "--algebra", "minplus",
                     "--max-length", "500", "--star", form, "--weights", str(p)]) == 0
        out[form] = capsys.readouterr().out
    assert out["recursive"] == out["dual"]
    assert out["recursive"].splitlines()[-1] == "a" * 500 + "\t834"


def test_unary_stars_read_closed_form_rows():
    # the stars of a^800 read the words' closed-form rows: no decompose2 call
    # and nothing kept in the model's rows memo
    C = models.free_monoid("a", 1000)
    C.require_moebius()
    f = from_pairs(C, make_min_plus(), {"a": 2, "aaa": 5})

    def refuse(x):
        raise AssertionError(f"decompose2({x!r}) called")

    C.decompose2 = refuse
    assert star_recursive(f)("a" * 800) == star_dual(f)("a" * 800) == 266 * 5 + 2 * 2
    assert C._rows == {}


def test_point_queries_build_no_pair_table():
    # the point mix of the library session: its one-letter rows stay closed
    # forms, and only a whole convolution builds the model's pair table
    C = models.free_monoid("a", 1000)
    C.require_moebius()
    f = from_pairs(C, make_min_plus(), {"a": 2, "aaa": 5})
    a = "a" * 300
    assert (star_recursive(f)(a), star_dual(f)(a), convolve(f, f)(a)) == (500, 500, INF)
    assert "row_pairs" not in vars(C) and C._rows == {}
    convolve(f, f).values()
    assert len(C.row_pairs[300]) == 301


def test_a_dual_point_query_mirrors_only_the_rows_of_its_frames():
    # the dual star mirrors a row when a frame opens on it, so one point
    # query keeps the mirrors of the ids it filled, identities aside, and of
    # no other id of the model
    C, K = models.free_monoid("ab", 10), make_min_plus()
    star = star_dual(from_pairs(C, K, {"a": 2, "b": 3, "ab": 1, "ba": 4}))
    assert star("abbabaabab") == 9
    filled = {i for i, v in enumerate(star._vals) if v is not None}
    assert set(C._dual_rows) == filled - set(C.identity_ids)
    assert len(C._dual_rows) == 10 < len(C.elements())


def test_whole_reads_of_a_cycling_star_raise_at_its_cycle(boolean):
    # the left-absorbing table of test_catoid: the star's fill settles ids in
    # id order and meets the cycle at x, as a point query does
    U = ["e", "w", "x"]
    C = TableCatoid("leftabs", U, {("w", "x"): ["x"]}, dict.fromkeys(U, "e"),
                    dict.fromkeys(U, "e"))
    f = from_pairs(C, boolean, {"w": 1, "x": 1})
    for compare in (functions_equal, first_difference, function_leq):
        with pytest.raises(MoebiusViolation, match=r"^leftabs: star recursion cycles at x$"):
            compare(star_recursive(f), f)


def test_star_requires_moebius(boolean, rng):
    pg = models.pair_groupoid(["a", "b"])
    f = random_function(pg, boolean, rng)
    with pytest.raises(MoebiusViolation, match=r"condition \(2\)"):
        star_recursive(f)


def test_star_requires_star_capability(words3):
    K = make_boolean()
    object.__setattr__(K, "star", None)
    f = zero_function(words3, K)
    with pytest.raises(CapabilityError, match="star"):
        star_recursive(f)


# ---------------------------------------------------------------------------
# K[C] and tests


def test_is_in_bracket(words3, boolean):
    assert is_in_bracket(id0(words3, boolean))
    assert is_in_bracket(zero_function(words3, boolean))
    assert not is_in_bracket(indicator(words3, boolean, ["a"]))


def test_bracket_closure(words3, minplus, rng):
    for _ in range(5):
        f = random_function(words3, minplus, rng, bracket=True)
        g = random_function(words3, minplus, rng, bracket=True)
        assert is_in_bracket(conv_add(f, g))
        assert is_in_bracket(convolve(f, g))
        assert is_in_bracket(star_recursive(f))


def test_star_path_agrees_on_bracket(words4, minplus, rng):
    for _ in range(10):
        f = random_function(words4, minplus, rng, bracket=True)
        assert functions_equal(star_path(f), star_recursive(f))


def test_star_path_rejects_non_bracket(words3, minplus):
    with pytest.raises(CapabilityError, match="K\\[C\\]"):
        star_path(indicator(words3, minplus, ["a"]))


def test_test_complement(words3, boolean):
    unit = id0(words3, boolean)
    assert functions_equal(complement_of(unit), zero_function(words3, boolean))
    assert functions_equal(complement_of(zero_function(words3, boolean)), unit)

    gs = models.guarded_string_catoid(["t0", "t1", "t2"], ["p"], 2)
    p = indicator(gs, boolean, [("t1",)])
    q = complement_of(p)
    assert set(q.support()) == {("t0",), ("t2",)}  # set difference on identities
    with pytest.raises(CapabilityError, match="test"):
        complement_of(indicator(gs, boolean, [("t0", "p", "t1")]))


def test_test_idempotence(boolean):
    gs = models.guarded_string_catoid(["t0", "t1"], ["p"], 2)
    for r in range(3):
        for P in itertools.combinations(gs.identities(), r):
            p = indicator(gs, boolean, P)
            assert functions_equal(convolve(p, p), p)
            assert is_test(p)


def test_check_kat_guarded(boolean, rng):
    gs = models.guarded_string_catoid(["t0", "t1"], ["p", "q"], 2)
    rep = check_kat(gs, boolean, rng, samples=10)
    assert rep.clean, rep.failed_laws()
    assert "2^2=4" in rep.law("kat.test-count").note
    assert rep.law("kat.bracket-tests-trivial").status == "pass"


# ---------------------------------------------------------------------------
# Conway


def test_check_conway_natinf(words4, natinf, rng):
    rep = check_conway(words4, natinf, rng, samples=15)
    assert rep.clean, rep.failed_laws()


def test_conway_zero_case(words3, natinf):
    z = zero_function(words3, natinf)
    g = from_pairs(words3, natinf, {"a": 2, "": 1})
    lhs = star_recursive(conv_add(z, g))
    rhs = convolve(star_recursive(convolve(star_recursive(z), g)), star_recursive(z))
    assert functions_equal(lhs, rhs)


def test_check_conway_boolean_is_also_clean(words3, boolean, rng):
    rep = check_conway(words3, boolean, rng, samples=10)
    assert rep.clean, rep.failed_laws()
