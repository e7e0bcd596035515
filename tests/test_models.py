from math import comb

import pytest

from convka import models
from convka.catoid import check_catoid_axioms, check_moebius
from convka.higher import check_n_catoid


def shuffle_oracle(v, w):
    """The recursive shuffle definition, independent of the model's subsets."""
    if not v:
        return {w}
    if not w:
        return {v}
    return {v[0] + u for u in shuffle_oracle(v[1:], w)} | \
           {w[0] + u for u in shuffle_oracle(v, w[1:])}


def test_free_monoid_compose():
    C = models.free_monoid("abc", 3)
    assert C.compose("a", "b") == frozenset(["ab"])
    assert C.compose("ab", "ba") == frozenset()  # out of the bounded universe
    assert C.source("ab") == ""


def test_shuffle_compose_matches_recursive_definition():
    C = models.shuffle_catoid("abcd", 4)
    assert C.compose("ab", "c") == frozenset(["abc", "acb", "cab"])
    assert C.compose("", "ab") == frozenset(["ab"])
    assert len(C.compose("ab", "cd")) == comb(4, 2)
    for v, w in [("ab", "cd"), ("a", "bcd"), ("ab", "ab"), ("abc", "d")]:
        assert C.compose(v, w) == frozenset(shuffle_oracle(v, w))


def test_interval_catoid():
    chain = models.interval_catoid(
        models.PosetSpec(("a", "b", "c"), (("a", "b"), ("b", "c"))))
    assert chain.compose(("a", "b"), ("b", "c")) == frozenset([("a", "c")])
    assert chain.compose(("a", "b"), ("c", "c")) == frozenset()
    assert chain.source(("a", "b")) == ("a", "a")
    assert chain.target(("a", "b")) == ("b", "b")


def test_pair_groupoid():
    C = models.pair_groupoid(["a", "b", "c"])
    assert C.compose(("a", "b"), ("b", "c")) == frozenset([("a", "c")])
    assert C.compose(("a", "b"), ("c", "a")) == frozenset()
    two = models.pair_groupoid(["a", "b"])
    assert set(two.identities()) == {("a", "a"), ("b", "b")}
    assert not check_moebius(two).clean


def test_path_catoid(diamond_paths):
    p = ("a", ("x", "y"))
    assert diamond_paths.compose(("a", ("x",)), ("b", ("y",))) == frozenset([p])
    assert diamond_paths.source(p) == ("a", ())
    assert diamond_paths.target(p) == ("d", ())
    assert diamond_paths.length(p) == 2
    assert diamond_paths.is_complete


def test_path_catoid_cycle_not_complete():
    g = models.GraphSpec(("a", "b"), (("x", "a", "b", 1), ("y", "b", "a", 1)))
    C = models.path_catoid(g, 3)
    assert not C.is_complete
    assert not g.is_acyclic()


def test_long_chain_acyclicity_is_iterative():
    # a recursive depth-first search overflows the stack near 1,000 vertices
    n = 3000
    vs = tuple(f"v{i}" for i in range(n))
    chain = tuple((f"e{i}", vs[i], vs[i + 1], 1) for i in range(n - 1))
    g = models.GraphSpec(vs, chain)
    assert g.is_acyclic()
    assert g.longest_path_len() == n - 1
    C = models.path_catoid(g, 2)
    assert not C.is_complete

    cycle = models.GraphSpec(vs, chain + (("back", vs[-1], vs[0], 1),))
    assert not cycle.is_acyclic()
    with pytest.raises(ValueError, match="cyclic"):
        cycle.longest_path_len()
    assert not models.path_catoid(cycle, 2).is_complete


def test_guarded_strings():
    C = models.guarded_string_catoid(["t0", "t1", "t2"], ["p", "q"], 3)
    x = ("t0", "p", "t1")
    y = ("t1", "q", "t2")
    assert C.compose(x, y) == frozenset([("t0", "p", "t1", "q", "t2")])
    z = ("t2", "q", "t0")
    assert C.compose(x, z) == frozenset()  # boundary tests differ
    assert C.length(("t0", "p", "t1", "q", "t2")) == 2
    assert C.source(x) == ("t0",) and C.target(x) == ("t1",)


def test_poset_spec_validation():
    with pytest.raises(ValueError, match="cyclic"):
        models.PosetSpec(("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(ValueError, match="undeclared"):
        models.PosetSpec(("a",), (("a", "b"),))
    with pytest.raises(ValueError, match="duplicate"):
        models.PosetSpec(("a", "b"), (("a", "b"), ("a", "b")))


def test_graph_spec_validation():
    with pytest.raises(ValueError, match="endpoint"):
        models.GraphSpec(("a",), (("x", "a", "b", 1),))
    with pytest.raises(ValueError, match="duplicate"):
        models.GraphSpec(("a", "b"), (("x", "a", "b", 1), ("x", "b", "a", 1)))


def test_all_constructors_pass_catoid_axioms():
    for C in (models.free_monoid("ab", 3), models.shuffle_catoid("ab", 3),
              models.interval_catoid(models.example_poset()),
              models.pair_groupoid(["a", "b", "c"]),
              models.path_catoid(models.random_dag(6, seed=2), 6),
              models.guarded_string_catoid(["t0", "t1"], ["p", "q"], 2)):
        assert check_catoid_axioms(C).clean, C.name


def test_moebius_catalogue():
    moebius_yes = (models.free_monoid("ab", 4), models.shuffle_catoid("ab", 4),
                   models.interval_catoid(models.example_poset()),
                   models.path_catoid(models.diamond_dag(), 4),
                   models.guarded_string_catoid(["t0", "t1"], ["p", "q"], 3))
    for C in moebius_yes:
        assert check_moebius(C).clean, C.name
    assert not check_moebius(models.pair_groupoid(["a", "b"])).clean


# ---------------------------------------------------------------------------
# two-dimensional models


def test_shuffle_concat_2catoid():
    tc = models.shuffle_concat_2catoid("ab", 4)
    rep = check_n_catoid(tc)
    assert rep.clean, rep.failed_laws()
    # single shared identity in both dimensions
    assert tc.dims[0].identities() == [""] and tc.dims[1].identities() == [""]
    for i in range(2):
        assert check_moebius(tc.dims[i]).clean


def test_shuffle_concat_interchange_containment():
    tc = models.shuffle_concat_2catoid("abcd", 4)
    conc, shuf = tc.dims[0], tc.dims[1]
    quads = [("a", "b", "c", "d"), ("a", "b", "cd", ""), ("ab", "c", "d", "")]
    for w, x, y, z in quads:
        lhs = set()
        for u in shuf.compose(w, x):
            for v in shuf.compose(y, z):
                lhs |= conc.compose(u, v)
        rhs = set()
        for u in conc.compose(w, y):
            for v in conc.compose(x, z):
                rhs |= shuf.compose(u, v)
        assert lhs <= rhs


def test_pasting_square_is_strict_2category():
    sq = models.pasting_square_2category()
    assert len(sq.elements()) == 18
    rep = check_n_catoid(sq)
    assert rep.clean, rep.failed_laws()
    infos = {e.law: e.note for e in rep.entries if e.status == "info"}
    assert infos["classify.dim0"] == "local=True functional=True"
    assert infos["classify.dim1"] == "local=True functional=True"
    # identity filtration: 0-identities within 1-identities
    assert set(sq.dims[0].identities()) < set(sq.dims[1].identities())
    # the horizontal composite decomposes both ways (interchange is exercised)
    v = sq.dims[1]
    assert ("al*p2", "q1*be") in v.decompose2("al0be")
    assert ("p1*be", "al*q2") in v.decompose2("al0be")


def test_corrupted_interchange_detected():
    sq = models.pasting_square_2category()
    d1 = sq.dims[1]
    table = dict(d1._table)
    # break one vertical composite: al*p2 ; q1*be now lands on the wrong cell
    table[("al*p2", "q1*be")] = frozenset(["al*q2"])
    from convka.catoid import TableCatoid
    from convka.higher import NCatoid

    broken1 = TableCatoid("square.v-broken", sq.elements(), table,
                          d1._src, d1._tgt, add_units=False)
    broken = NCatoid("broken-square", (sq.dims[0], broken1))
    rep = check_n_catoid(broken)
    assert not rep.clean
    assert any("interchange" in law or "catoid" in law for law in rep.failed_laws())
