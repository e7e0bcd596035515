import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from convka import models
from convka.catoid import MoebiusViolation
from convka.cli import main
from convka.convolution import (
    WeightFunction,
    check_conway,
    check_kat,
    conv_add,
    convolve,
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
from convka.values import (
    CapabilityError,
    INF,
    ValueAlgebra,
    make_boolean,
    make_max_plus,
    make_min_plus,
    make_nat_inf_conway,
)
from relations import make_relations


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


def test_algebra_mismatch_rejected(words3, boolean, minplus):
    with pytest.raises(CapabilityError, match="mismatch"):
        conv_add(zero_function(words3, boolean), zero_function(words3, minplus))


def test_weight_function_needs_a_rule_on_ids_or_values(words3, boolean):
    # an element rule passed where the name goes fails at once, not at the first read
    for args in ((lambda x: 1,), ("f",)):
        with pytest.raises(TypeError, match="needs a rule on ids or a values list"):
            WeightFunction(words3, boolean, *args)


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


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(CONVOLUTION_MODELS), random_catoids()),
       st.sampled_from(STOCK_ALGEBRAS + (RELATIONS, skewed_algebra())), st.data())
def test_convolution_matches_unskipped_sum(C, K, data):
    f, g = drawn_function(data, C, K), drawn_function(data, C, K)
    for x in data.draw(st.lists(st.sampled_from(C.elements()), max_size=6)):
        f(x), g(x)  # some factors are memo hits, the rest are computed on demand
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
    seen = []

    def rule(i):
        seen.append(words3.elements()[i])
        return 1

    ones = from_pairs(words3, boolean, {x: 1 for x in words3.elements()})
    g = WeightFunction(words3, boolean, "g", rule)
    # (eps, ab) comes first and already gives 1, so g is read once
    assert convolve(ones, g)("ab") == 1 and seen == ["ab"]
    # the dual star of aba sums star(eps).1, star(a).1 and star(ab).1; the
    # first term settles it, so no frame opens for a or ab
    star = star_dual(ones)
    assert star("aba") == 1
    filled = {x for x, v in zip(words3.elements(), star._vals) if v is not None}
    assert filled == {"", "aba"}


def test_star_on_long_unary_word(unary1200):
    K = make_min_plus()
    f = from_pairs(unary1200, K, {"a": 2, "aaa": 5, "a" * 5: 11})
    left, right = star_recursive(f), star_dual(f)
    assert left("a" * 1200) == right("a" * 1200) == 2000
    # the cheapest cut of a^n uses as many aaa (5) as fit, then a's (2);
    # a^5 (11) never beats aaa.a.a (9)
    for n in range(1201):
        assert left("a" * n) == right("a" * n) == 2 * n - n // 3


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
