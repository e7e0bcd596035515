"""The law checkers on the integer kernel against plain frozenset transcriptions.

Each reference below states a law the way the paper does, composing with
``C.compose`` on elements.  The kernel checkers must give the same law
lines: status, witnesses in order, and ``checked=`` count.  Where the
reference walks a product set, its order is the set's iteration order, so
those witness lists are compared with each product's members sorted.
"""

import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from convka import models
from convka.catoid import (
    MoebiusViolation,
    TableCatoid,
    check_catoid_axioms,
    check_saturated_chain,
    is_functional,
    is_local,
)
from convka.convolution import (
    WeightFunction,
    convolve,
    from_pairs,
    functions_equal,
    star_dual,
    star_path,
    star_recursive,
)
from convka.higher import NCatoid, check_n_catoid
from convka.report import FAIL, PASS


def _line(law, bad, checked):
    return law, FAIL if bad else PASS, bad, checked


def reference_catoid_axioms(C):
    U, s, t, comp = C.elements(), C.source, C.target, C.compose
    pairs = list(itertools.product(U, repeat=2))
    lines = []
    bad = []
    for x, y, z in itertools.product(U, repeat=3):
        left = set().union(*(comp(x, v) for v in comp(y, z)))
        right = set().union(*(comp(u, z) for u in comp(x, y)))
        if left != right:
            bad.append((x, y, z, frozenset(left), frozenset(right)))
    lines.append(_line("catoid.assoc", bad, len(U) ** 3))
    bad = [(x, y) for x, y in pairs if comp(x, y) and t(x) != s(y)]
    lines.append(_line("catoid.composability-st", bad, len(U) ** 2))
    bad = [x for x in U if comp(s(x), x) != {x}]
    lines.append(_line("catoid.unit-left", bad, len(U)))
    bad = [x for x in U if comp(x, t(x)) != {x}]
    lines.append(_line("catoid.unit-right", bad, len(U)))
    bad = [x for x in U if s(s(x)) != s(x) or t(t(x)) != t(x)
           or s(t(x)) != t(x) or t(s(x)) != s(x)]
    lines.append(_line("props.st-idem", bad, len(U)))
    bad = [x for x in U if (s(x) == x) != (t(x) == x)]
    lines.append(_line("props.fix-agree", bad, len(U)))
    bad = [x for x in U if comp(s(x), s(x)) != {s(x)} or comp(t(x), t(x)) != {t(x)}]
    lines.append(_line("props.id-idem", bad, len(U)))
    bad = [(x, y) for x, y in pairs if comp(s(x), t(y)) != comp(t(y), s(x))]
    lines.append(_line("props.id-commute", bad, len(U) ** 2))
    bad = []
    for x, y in pairs:
        lhs = frozenset(s(w) for w in comp(s(x), y))
        if lhs != comp(s(x), s(y)):
            bad.append((x, y, lhs))
        lhs = frozenset(t(w) for w in comp(x, t(y)))
        if lhs != comp(t(x), t(y)):
            bad.append((x, y, lhs))
    lines.append(_line("props.id-absorb", bad, len(U) ** 2))
    bad = []
    for x, y in pairs:
        if not {s(w) for w in comp(x, y)} <= {s(w) for w in comp(x, s(y))}:
            bad.append((x, y))
        if not {t(w) for w in comp(x, y)} <= {t(w) for w in comp(t(x), y)}:
            bad.append((x, y))
    lines.append(_line("props.st-sub", bad, len(U) ** 2))
    bad = [(x, y, frozenset(comp(x, y))) for x, y in pairs if comp(x, y) and (
        {s(w) for w in comp(x, y)} != {s(x)} or {t(w) for w in comp(x, y)} != {t(y)})]
    lines.append(_line("props.st-of-product", bad, len(U) ** 2))
    bad = [(w, x, y) for x, y in pairs for w in comp(x, y) if s(w) != s(x) or t(w) != t(y)]
    lines.append(_line("props.member-st", bad, len(U) ** 2))
    ids = [e for e in U if C.is_identity(e)]
    bad = [(e, f, frozenset(comp(e, f))) for e, f in itertools.product(ids, repeat=2)
           if comp(e, f) != (frozenset([e]) if e == f else frozenset())]
    lines.append(_line("catoid.orth-idem", bad, len(ids) ** 2))
    return lines


def reference_local(C):
    U = C.elements()
    bad = [(x, y) for x, y in itertools.product(U, repeat=2)
           if C.target(x) == C.source(y) and not C.compose(x, y)]
    return [_line("catoid.local", bad, len(U) ** 2)]


def reference_functional(C):
    U = C.elements()
    bad = [(y, z, frozenset(C.compose(y, z))) for y, z in itertools.product(U, repeat=2)
           if len(C.compose(y, z)) > 1]
    return [_line("catoid.functional", bad, len(U) ** 2)]


def reference_saturated_chain(C):
    U, bad, count = C.elements(), [], 0
    for x, y in itertools.product(U, repeat=2):
        for z in C.compose(x, y):
            count += 1
            if C.length(z) != C.length(x) + C.length(y):
                bad.append((x, y, z, C.length(x) + C.length(y), C.length(z)))
    return [_line("moebius.saturated-chain", bad, count)]


# laws whose witnesses list a product's members in the product's order
MEMBER_ORDER = {"props.member-st": (1, 2, 0), "moebius.saturated-chain": (0, 1, 2)}


def _canonical(C, lines):
    pos = {e: k for k, e in enumerate(C.elements())}
    out = []
    for law, status, bad, checked in lines:
        if law in MEMBER_ORDER:
            a, b, member = MEMBER_ORDER[law]
            bad = sorted(bad, key=lambda w: (pos[w[a]], pos[w[b]], repr(w[member])))
        out.append((law, status, bad, checked))
    return out


def _lines(rep):
    return [(e.law, e.status, e.witnesses, e.checked) for e in rep.entries]


def as_table(C, name):
    U = C.elements()
    table = {(y, z): C.compose(y, z) for y in U for z in U if C.compose(y, z)}
    return TableCatoid(name, U, table, {x: C.source(x) for x in U},
                       {x: C.target(x) for x in U}, add_units=False)


VALID = {
    "words": lambda: models.free_monoid("ab", 2),
    "shuffle": lambda: models.shuffle_catoid("ab", 2),
    "intervals": lambda: models.interval_catoid(models.example_poset()),
    "pairs": lambda: models.pair_groupoid(["a", "b"]),
    "paths": lambda: models.path_catoid(models.diamond_dag(), 2),
}


@st.composite
def table_catoids(draw):
    """A catalogue model as a table, or a random small table, then 0-6
    corruptions: a product reset to 0-2 elements (non-associative,
    multi-valued), a unit entry dropped, or a source or target moved."""
    if draw(st.booleans()):
        base = as_table(VALID[draw(st.sampled_from(sorted(VALID)))](), "table")
        U = base.elements()
        table, src, tgt = dict(base._table), dict(base._src), dict(base._tgt)
    else:
        ids = [f"e{k}" for k in range(draw(st.integers(1, 2)))]
        U = ids + [f"x{k}" for k in range(draw(st.integers(0, 3)))]
        src = {e: e if e in ids else draw(st.sampled_from(ids)) for e in U}
        tgt = {e: e if e in ids else draw(st.sampled_from(ids)) for e in U}
        table = {}
        for y, z in itertools.product(U, repeat=2):
            if draw(st.integers(0, 3)) == 0:
                table[y, z] = frozenset(draw(st.lists(st.sampled_from(U), max_size=2)))
        if draw(st.booleans()):  # the units TableCatoid adds by default
            for x in U:
                table.setdefault((src[x], x), frozenset([x]))
                table.setdefault((x, tgt[x]), frozenset([x]))
    identities = sorted({src[x] for x in U} | {tgt[x] for x in U}, key=repr)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["product", "drop-unit", "face"]))
        y, z = draw(st.sampled_from(U)), draw(st.sampled_from(U))
        if kind == "product":
            table[y, z] = frozenset(draw(st.lists(st.sampled_from(U), max_size=2)))
        elif kind == "drop-unit":
            table.pop((src[y], y), None)
        else:
            faces = src if draw(st.booleans()) else tgt
            faces[y] = draw(st.sampled_from(identities))
    return TableCatoid("random", U, table, src, tgt, add_units=False)


@settings(max_examples=200, deadline=None)
@given(table_catoids())
def test_kernel_checkers_match_frozenset_references(C):
    for check, reference in ((check_catoid_axioms, reference_catoid_axioms),
                             (is_local, reference_local),
                             (is_functional, reference_functional)):
        assert _canonical(C, _lines(check(C))) == _canonical(C, reference(C)), check.__name__
    try:
        expected = reference_saturated_chain(C)
    except MoebiusViolation:  # a cyclic decomposition has no length
        with pytest.raises(MoebiusViolation):
            check_saturated_chain(C)
    else:
        assert _canonical(C, _lines(check_saturated_chain(C))) == _canonical(C, expected)


@pytest.mark.parametrize("name", sorted(VALID))
def test_kernel_checkers_match_references_on_the_catalogue(name):
    C = VALID[name]()
    for check, reference in ((check_catoid_axioms, reference_catoid_axioms),
                             (is_local, reference_local),
                             (is_functional, reference_functional),
                             (check_saturated_chain, reference_saturated_chain)):
        assert _canonical(C, _lines(check(C))) == _canonical(C, reference(C)), check.__name__


# -- what the kernel composes, and who builds it


def test_n_catoid_check_composes_each_pair_once(monkeypatch):
    # check_catoid_axioms, the n-catoid laws, is_local and is_functional of a
    # dimension share its one table: |U|^2 = 225 products each
    nc = models.shuffle_concat_2catoid("ab", 3)
    calls = Counter()
    for i, d in enumerate(nc.dims):
        def counted(y, z, i=i, compose=d.compose):
            calls[i] += 1
            return compose(y, z)
        monkeypatch.setattr(d, "compose", counted)
    check_n_catoid(nc)
    assert len(nc.elements()) ** 2 == 225
    assert dict(calls) == {0: 225, 1: 225}


def test_star_forms_and_moebius_never_build_the_kernel(monkeypatch, boolean):
    def refuse(self, C):
        raise AssertionError("kernel built")

    monkeypatch.setattr("convka.catoid.Kernel.__init__", refuse)
    C = models.free_monoid("ab", 6)
    C.require_moebius()
    f = from_pairs(C, boolean, {"": 1, "a": 1, "ab": 1, "ba": 1})
    for star in (star_recursive, star_dual, star_path):
        g = star(f)
        assert [g(x) for x in ("abab", "ababab", "bbb")] == [1, 1, 0]
    assert C._kernel is None


def test_witnesses_list_product_members_in_element_order():
    # a product's members come out in elements() order, not in the order its
    # set yields them, which for strings moves with the hash seed
    members = [f"m{k}" for k in range(6)]
    faces = {"e": "e", "f": "f", "x": "e", **{m: "f" for m in members}}
    C = TableCatoid("member-st", ["e", "f", "x"] + members, {("x", "x"): members},
                    faces, faces)
    assert [w[0] for w in check_catoid_axioms(C).law("props.member-st").witnesses] == members
    # a.a holds b (length 2) and each c, which a.b makes length 3
    cs = [f"c{k}" for k in range(6)]
    faces = {e: "e" for e in ["e", "a", "b"] + cs}
    C = TableCatoid("chain", ["e", "a", "b"] + cs, {("a", "a"): ["b"] + cs, ("a", "b"): cs},
                    faces, faces)
    assert check_saturated_chain(C).law("moebius.saturated-chain").witnesses == [
        ("a", "a", c, 2, 3) for c in cs]


@pytest.mark.parametrize("where", ["product", "source", "target"])
def test_elements_outside_the_universe_are_refused(where):
    # a model whose product or faces name an element outside elements() is
    # malformed: every law checker says which element, before checking any law
    faces = {"e": "e", "x": "e", "o": "e"}
    src, tgt, table = dict(faces), dict(faces), {("x", "x"): ["x"]}
    if where == "product":
        table["x", "x"] = ["x", "o"]
    else:
        (src if where == "source" else tgt)["x"] = "o"
    C = TableCatoid("outside", ["e", "x"], table, src, tgt)
    for check in (check_catoid_axioms, is_local, is_functional, check_saturated_chain):
        with pytest.raises(ValueError, match="outside: o is not in elements"):
            check(C)
    with pytest.raises(ValueError, match="outside: o is"):
        check_n_catoid(NCatoid("outside-2", (C, C)))


@pytest.mark.parametrize("where", ["product", "source", "target"])
def test_stars_and_convolve_refuse_elements_outside_the_universe(where, boolean):
    # x . x is empty, so the model is Moebius wherever o sits; the stars meet o
    # through the faces or the decompositions, convolve through the latter
    faces = {"e": "e", "x": "e"}
    src, tgt, table = dict(faces), dict(faces), {}
    if where == "product":
        table["x", "e"] = ["x", "o"]
    else:
        (src if where == "source" else tgt)["x"] = "o"
    C = TableCatoid("outside", ["e", "x"], table, src, tgt)
    f = from_pairs(C, boolean, {"x": 1})
    forms = (star_recursive, star_dual) + ((lambda f: convolve(f, f)),) * (where == "product")
    for form in forms:
        with pytest.raises(ValueError, match="outside: o is not in elements"):
            form(f)("x")


def test_a_models_own_key_error_is_not_blamed_on_the_universe():
    # x is in elements(); only the model's source map lacks it
    C = TableCatoid("gap", ["e", "x"], {}, {"e": "e"}, {"e": "e", "x": "e"}, add_units=False)
    with pytest.raises(KeyError, match="'x'"):
        C.kernel()


def test_weight_functions_refuse_elements_outside_the_universe(boolean):
    C = models.free_monoid("ab", 2)
    f = from_pairs(C, boolean, {"a": 1})
    with pytest.raises(ValueError, match=r"words\(ab,2\): abc is not in elements"):
        f("abc")
    with pytest.raises(ValueError, match=r"words\(ab,2\): abc is not in elements"):
        functions_equal(f, f, ["a", "abc"])


_FACES = {"e": "e", "x": "e"}


@pytest.mark.parametrize("build, twice", [
    (lambda: models.interval_catoid(models.PosetSpec(("a", "b", "a"), (("a", "b"),))),
     "intervals(a,b,a): [a,a]"),
    (lambda: models.path_catoid(models.GraphSpec(("a", "b", "a"), (("x", "a", "b", 1),)), 2),
     "paths(3v): (a)"),
    (lambda: TableCatoid("twice", ["e", "x", "x"], {}, _FACES, _FACES), "twice: x"),
], ids=["poset", "graph", "table"])
def test_a_model_listing_an_element_twice_is_refused(build, twice, boolean):
    # two ids for one element leave one of them without a value, and the star
    # would read past the end of its value list
    C = build()
    message = re.escape(f"{twice} is listed twice in elements()")
    with pytest.raises(ValueError, match=message):
        C.elements()
    with pytest.raises(ValueError, match=message):
        star_recursive(WeightFunction(C, boolean, "f", lambda i: 1))
