import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from convka import models
from convka.catoid import (
    Catoid,
    MoebiusViolation,
    TableCatoid,
    check_catoid_axioms,
    check_decompose2_consistency,
    check_moebius,
    check_saturated_chain,
    is_functional,
    is_local,
    settle,
)
from convka.convolution import from_pairs, star_recursive, star_unfolded
from convka.report import fmt_value
from chains import chains, decompose_n


def word_splits(w):
    """Oracle: every way to cut a word into a prefix/suffix pair."""
    return [(w[:i], w[i:]) for i in range(len(w) + 1)]


def splits_into_parts(w, n):
    """Oracle: cuts of w into exactly n nonempty parts, in order."""
    if n == 0:
        return [()] if w == "" else []
    out = []
    for cuts in itertools.combinations(range(1, len(w)), n - 1):
        bounds = (0,) + cuts + (len(w),)
        parts = tuple(w[bounds[i]:bounds[i + 1]] for i in range(n))
        if all(parts):
            out.append(parts)
    return out if w else []


def test_decompose2_matches_split_oracle(words4):
    for w in words4.elements():
        assert list(words4.decompose2(w)) == sorted(word_splits(w))


@given(st.text(alphabet="ab", max_size=4))
def test_decompose2_words_hypothesis(w):
    C = models.free_monoid("ab", 4)
    assert set(C.decompose2(w)) == set(word_splits(w))


def test_identity_decompose2(words3):
    pairs = words3.decompose2("")
    assert ("", "") in pairs
    assert all(y == "" or z == "" for y, z in pairs)


def test_interval_decompose2_midpoints():
    chain = models.interval_catoid(
        models.PosetSpec(("a", "b", "c"), (("a", "b"), ("b", "c"))))
    assert chain.decompose2(("a", "c")) == [
        (("a", "a"), ("a", "c")), (("a", "b"), ("b", "c")), (("a", "c"), ("c", "c"))]


def test_decompose_n(words4):
    # the tests' chain enumeration from decompose2 cuts words into parts
    assert decompose_n(words4, "", 0) == [()]
    assert decompose_n(words4, "abc", 3) == [("a", "b", "c")]
    assert decompose_n(words4, "ab", 3) == []
    for w in words4.elements():
        for n in range(5):
            assert decompose_n(words4, w, n) == sorted(splits_into_parts(w, n))


def test_length(words4, example_intervals):
    assert words4.length("abab") == 4
    assert words4.length("") == 0
    assert example_intervals.length(("a", "c")) == 3
    for e in example_intervals.identities():
        assert example_intervals.length(e) == 0


def test_length_subadditive(words4, example_intervals):
    for C in (words4, example_intervals):
        for x, y in itertools.product(C.elements(), repeat=2):
            for z in C.compose(x, y):
                assert C.length(x) + C.length(y) <= C.length(z)


def test_length_cycle_raises():
    pg = models.pair_groupoid(["a", "b", "c"])
    with pytest.raises(MoebiusViolation, match="cyclic decomposition at"):
        for x in pg.elements():
            pg.length(x)


class Descending(Catoid):
    """Each n > 0 decomposes only as (n+1).(n+1), so factor chains never end
    and leave the three-element universe."""

    name = "descending"

    def source(self, x):
        return 0

    target = source

    def _build_elements(self):
        return [0, 1, 2]

    def sort_key(self, x):
        return x

    def decompose2(self, x):
        return [(x + 1, x + 1)] if x else [(0, 0)]


def test_length_depth_exceeding_universe_raises():
    # the chain 1 <- 2 <- 3 leaves the universe at 3, which rows refuses
    with pytest.raises(ValueError, match=r"descending: 3 is not in elements\(\)"):
        Descending().length(1)


def test_length_of_long_word_needs_no_recursion(unary1200):
    assert unary1200.length("a" * 1200) == 1200
    assert unary1200.length("a" * 700) == 700


def length_oracle(C, x):
    """Oracle: the most non-identity factors in a chain decomposition of x."""
    return max(map(len, chains(C, x)), default=0)


LENGTH_MODELS = (
    lambda: models.free_monoid("ab", 4),
    lambda: models.shuffle_catoid("ab", 3),
    lambda: models.guarded_string_catoid(["t0", "t1"], ["p", "q"], 2),
    lambda: models.path_catoid(models.diamond_dag(), 4),
    # elements() lists some intervals before their factors
    lambda: models.interval_catoid(models.example_poset()),
)


def assert_lengths_match_oracle(build):
    # once from the shortest element up and once from the longest down, on
    # fresh models, so the search meets both cached and unread factors
    up, down = build(), build()
    expected = [length_oracle(up, x) for x in up.elements()]
    assert [up.length(x) for x in up.elements()] == expected, up.name
    assert [down.length(x) for x in reversed(down.elements())] == expected[::-1], down.name


@pytest.mark.parametrize("build", LENGTH_MODELS,
                         ids=["words", "shuffle", "guarded", "paths", "intervals"])
def test_length_matches_chain_oracle(build):
    assert_lengths_match_oracle(build)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.sampled_from((0.3, 0.6, 0.9)), st.integers(0, 10 ** 6),
       st.integers(1, 4))
def test_length_matches_chain_oracle_on_random_dag_paths(n, density, seed, bound):
    graph = models.random_dag(n, density, seed)
    assert_lengths_match_oracle(lambda: models.path_catoid(graph, bound))


def test_length_reads_each_row_once_and_never_decompose2():
    # a^1200 reads the closed-form row of each non-empty word once
    C = models.free_monoid("a", 1200)
    reads, rows = Counter(), C.rows

    def counted(i):
        reads[i] += 1
        return rows(i)

    def refuse(x):
        raise AssertionError(f"decompose2({x!r}) called")

    C.rows, C.decompose2 = counted, refuse
    assert C.length("a" * 1200) == 1200
    assert max(reads.values()) == 1 and len(reads) == 1200  # eps is an identity


def test_catoid_axioms_clean(words3, example_intervals, diamond_paths):
    for C in (words3, example_intervals, diamond_paths,
              models.pair_groupoid(["a", "b"]),
              models.shuffle_catoid("ab", 3),
              models.guarded_string_catoid(["t0", "t1"], ["p"], 2)):
        rep = check_catoid_axioms(C)
        assert rep.clean, (C.name, rep.failed_laws())


def test_corrupted_model_fails_composability():
    # target table edited so composability no longer implies t = s
    C = TableCatoid(
        "broken",
        ["e", "f", "x"],
        {("x", "x"): ["x"]},
        {"e": "e", "f": "f", "x": "e"},
        {"e": "e", "f": "f", "x": "f"},
    )
    rep = check_catoid_axioms(C)
    assert "catoid.composability-st" in rep.failed_laws()
    assert ("x", "x") in rep.law("catoid.composability-st").witnesses


BASIC_LAWS = ("catoid.unit-left", "catoid.unit-right", "props.st-idem", "props.fix-agree",
              "props.id-idem")


def test_broken_table_reports_are_pinned():
    # each line of check_catoid_axioms, first witness and count included, and
    # every witness of the failing laws in order
    corrupted = TableCatoid("broken", ["e", "f", "x"], {("x", "x"): ["x"]},
                            {"e": "e", "f": "f", "x": "e"}, {"e": "e", "f": "f", "x": "f"})
    noncommuting = TableCatoid("id-noncommuting", ["e", "f", "x"], {("e", "f"): ["x"]},
                               {"e": "e", "f": "f", "x": "e"},
                               {"e": "e", "f": "f", "x": "f"})
    expected = {
        corrupted: (
            [("FAIL", "catoid.assoc", "(x,e,x,{x},{})", 27),
             ("FAIL", "catoid.composability-st", "(x,x)", 9)]
            + [("PASS", law, "-", 3) for law in BASIC_LAWS]
            + [("PASS", "props.id-commute", "-", 9), ("PASS", "props.id-absorb", "-", 9),
               ("FAIL", "props.st-sub", "(x,x)", 9), ("PASS", "props.st-of-product", "-", 9),
               ("PASS", "props.member-st", "-", 9), ("PASS", "catoid.orth-idem", "-", 4)],
            {"catoid.assoc": ["(x,e,x,{x},{})", "(x,f,x,{},{x})"],
             "catoid.composability-st": ["(x,x)"], "props.st-sub": ["(x,x)", "(x,x)"]}),
        noncommuting: (
            [("PASS", "catoid.assoc", "-", 27),
             ("FAIL", "catoid.composability-st", "(e,f)", 9)]
            + [("PASS", law, "-", 3) for law in BASIC_LAWS]
            + [("FAIL", "props.id-commute", "(e,f)", 9),
               ("FAIL", "props.id-absorb", "(e,f,{e})", 9),
               ("PASS", "props.st-sub", "-", 9), ("PASS", "props.st-of-product", "-", 9),
               ("PASS", "props.member-st", "-", 9),
               ("FAIL", "catoid.orth-idem", "(e,f,{x})", 4)],
            {"catoid.composability-st": ["(e,f)"],
             "props.id-commute": ["(e,f)", "(e,x)", "(f,e)", "(x,f)", "(x,x)"],
             "props.id-absorb": ["(e,f,{e})", "(e,f,{f})", "(e,x,{f})", "(x,f,{e})"],
             "catoid.orth-idem": ["(e,f,{x})"]}),
    }
    for C, (lines, witnesses) in expected.items():
        rep = check_catoid_axioms(C)
        assert rep.to_text() == "\n".join(
            f"{status}\t{law}\t{C.name}\t-\t{w}\t{n}" for status, law, w, n in lines)
        assert {e.law: [fmt_value(w) for w in e.witnesses]
                for e in rep.failures} == witnesses


def test_moebius_conditions(words4, example_intervals):
    assert check_moebius(words4).clean
    assert check_moebius(example_intervals).clean
    assert check_moebius(models.guarded_string_catoid(["t0", "t1"], ["p", "q"], 3)).clean

    rep = check_moebius(models.pair_groupoid(["a", "b"]))
    assert rep.failed_laws() == {"moebius.identities-indecomposable"}
    assert (("a", "a"), ("a", "b"), ("b", "a")) in \
        rep.law("moebius.identities-indecomposable").witnesses


def test_require_moebius_message():
    pg = models.pair_groupoid(["a", "b"])
    with pytest.raises(MoebiusViolation, match=r"condition \(2\)"):
        pg.require_moebius()


def test_self_absorption_fails_moebius_condition_three(boolean):
    # x . y = {x} with y != e = t(x): only condition (3) fails
    U = ["e", "x", "y"]
    C = TableCatoid("absorb", U, {("x", "y"): ["x"]}, dict.fromkeys(U, "e"),
                    dict.fromkeys(U, "e"))
    rep = check_moebius(C)
    assert rep.failed_laws() == {"moebius.no-self-absorption"}
    law = rep.law("moebius.no-self-absorption")
    assert law.witnesses == [("x", "y")] and law.checked == 9
    message = r"^absorb: model fails Moebius condition \(3\): x in x\.y with y != t\(x\)$"
    with pytest.raises(MoebiusViolation, match=message):
        C.require_moebius()
    with pytest.raises(MoebiusViolation, match=message):
        star_recursive(from_pairs(C, boolean, {"x": 1}))("x")
    with pytest.raises(MoebiusViolation, match=r"^absorb: cyclic decomposition at x$"):
        C.length("x")


def test_left_absorption_is_refused_by_every_recursion(boolean):
    # w . x = {x} with w != e = s(x) passes require_moebius, which tests only
    # absorption on the right, yet x decomposes through itself; the table is
    # not associative, (w.w).x = {} but w.(w.x) = {x}, or it would fail (3)
    U = ["e", "w", "x"]
    C = TableCatoid("leftabs", U, {("w", "x"): ["x"]}, dict.fromkeys(U, "e"),
                    dict.fromkeys(U, "e"))
    C.require_moebius()
    f = from_pairs(C, boolean, {"w": 1, "x": 1})
    with pytest.raises(MoebiusViolation, match=r"^leftabs: unbounded decomposition chains at x$"):
        star_unfolded(f)("x")
    with pytest.raises(MoebiusViolation, match=r"^leftabs: star recursion cycles at x$"):
        star_recursive(f)("x")
    with pytest.raises(MoebiusViolation, match=r"^leftabs: cyclic decomposition at x$"):
        C.length("x")


def unital_table(seed):
    """One or two identities and one to four other elements with random
    faces, units added; each composable pair of non-identities composes, half
    the time, to one or two elements with the faces a catoid's product has.
    Drawn from a seed: most tables are not associative, and the filter runs
    about ten times faster than with a hypothesis draw per choice."""
    rng = random.Random(seed)
    ids = [f"e{k}" for k in range(rng.randint(1, 2))]
    xs = [f"x{k}" for k in range(rng.randint(1, 4))]
    src, tgt = dict(zip(ids, ids)), dict(zip(ids, ids))
    for x in xs:
        src[x], tgt[x] = rng.choice(ids), rng.choice(ids)
    table = {}
    for y, z in itertools.product(xs, repeat=2):
        fit = [w for w in ids + xs if src[w] == src[y] and tgt[w] == tgt[z]]
        if tgt[y] == src[z] and fit and rng.random() < 0.5:
            table[y, z] = rng.sample(fit, min(len(fit), rng.randint(1, 2)))
    return TableCatoid("unital", ids + xs, table, src, tgt)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32).map(unital_table))
def test_associative_left_absorption_fails_moebius(C):
    # check_moebius tests absorption only on the right, which on an
    # associative catoid suffices: its docstring gives the argument
    assume(check_catoid_axioms(C).law("catoid.assoc").status == "pass")
    U = C.elements()
    if any(x in C.compose(w, x) and w != C.source(x) for w, x in itertools.product(U, repeat=2)):
        with pytest.raises(MoebiusViolation, match=r"condition \((2|3)\)"):
            C.require_moebius()


def test_settle_raises_the_cycle_exception_on_an_open_frame():
    def frame(i):
        yield i

    with pytest.raises(LookupError, match=r"^open 4$"):
        settle(frame, 4, lambda i: LookupError(f"open {i}"))


def test_long_lengths_nest_no_python_frames():
    C = models.free_monoid("a", 1200)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        n = C.length("a" * 1200)
    finally:
        sys.setrecursionlimit(old)
    assert n == 1200


def test_local_functional(diamond_paths, example_intervals):
    sh = models.shuffle_catoid("ab", 3)
    rep = is_functional(sh)
    assert not rep.clean
    assert ("a", "b", frozenset(["ab", "ba"])) in rep.law("catoid.functional").witnesses
    assert is_local(diamond_paths).clean and is_functional(diamond_paths).clean
    assert is_local(example_intervals).clean and is_functional(example_intervals).clean


def test_saturated_chain(words4, example_intervals):
    assert check_saturated_chain(words4).clean
    assert check_saturated_chain(
        models.guarded_string_catoid(["t0", "t1"], ["p", "q"], 2)).clean
    rep = check_saturated_chain(example_intervals)
    law = rep.law("moebius.saturated-chain")
    assert law.status == "fail"
    assert (("a", "b"), ("b", "c"), ("a", "c"), 2, 3) in law.witnesses


def test_closed_form_decompositions_match_generic():
    # the closed forms skip sorting, so also feed them models declared out of
    # sort order: unsorted points, reversed vertices with parallel edges, and
    # unsorted tests and actions
    reversed_graph = models.GraphSpec(
        vertices=("d", "c", "b", "a"),
        edges=(("y", "b", "d", 3), ("x2", "a", "b", 5), ("x", "a", "b", 2),
               ("w", "c", "d", 7), ("z", "a", "c", 1), ("u", "b", "c", 4)))
    for C in (models.free_monoid("ab", 3), models.shuffle_catoid("ab", 3),
              models.interval_catoid(models.example_poset()),
              models.pair_groupoid(["a", "b"]),
              models.pair_groupoid(["c", "a", "b"]),
              models.path_catoid(models.diamond_dag(), 4),
              models.path_catoid(reversed_graph, 3),
              models.guarded_string_catoid(["t0", "t1"], ["p"], 2),
              models.guarded_string_catoid(["t1", "t0", "s"], ["q", "p"], 2)):
        rep = check_decompose2_consistency(C)
        assert rep.clean, C.name
