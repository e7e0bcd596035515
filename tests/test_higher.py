import itertools
import random
from collections import Counter

import pytest

from convka import modal, models
from convka.catoid import TableCatoid, check_catoid_axioms
from convka.convolution import functions_equal, indicator, powerset_star
from convka.higher import (
    NCatoid,
    NConvolution,
    check_interchange,
    check_n_axioms,
    check_n_catoid,
)
from convka.lab import appendix_b_model
from convka.report import fmt_value
from convka.values import CapabilityError, DimOps, NValueAlgebra, make_boolean, \
    make_boolean_nd


@pytest.fixture
def square():
    return models.pasting_square_2category()


@pytest.fixture
def bool2():
    return make_boolean_nd(2)


def test_ncatoid_requires_shared_universe():
    with pytest.raises(ValueError, match="share"):
        NCatoid("bad", (models.free_monoid("ab", 2), models.free_monoid("ab", 3)))
    with pytest.raises(ValueError, match=r"^need at least two dimensions$"):
        NCatoid("x", (models.free_monoid("ab", 2),))


def test_interchange_convolution_boolean(bool2, rng):
    tc = models.shuffle_concat_2catoid("ab", 4)
    bundle = NConvolution(tc, bool2)
    rep = check_interchange(bundle, rng, samples=25)
    assert rep.clean, rep.failed_laws()


def test_bundle_reads_the_algebras_views(bool2):
    bundle = NConvolution(models.shuffle_concat_2catoid("ab", 2), bool2)
    assert [bundle.views[i] is bool2.view(i) for i in range(2)] == [True, True]


def test_interchange_units_coincide(bool2):
    tc = models.shuffle_concat_2catoid("ab", 3)
    bundle = NConvolution(tc, bool2)
    # single shared identity: id0 = id1, so id0 <= id1 trivially
    assert functions_equal(bundle.id_(0), bundle.id_(1), tc.elements())
    assert bundle.id_(0)("") == 1


def test_unit_inequality_enforced(rng):
    # a two-dimensional algebra with one0 > one1 must be rejected
    dims = (DimOps(mul=min, one=1, star=lambda a: 1),
            DimOps(mul=min, one=0, star=lambda a: 1))
    bad = NValueAlgebra("bad2d", add=max, zero=0, dims=dims, carrier=(0, 1))
    tc = models.shuffle_concat_2catoid("ab", 3)
    with pytest.raises(CapabilityError, match="one0 <= one1"):
        NConvolution(tc, bad)


def test_unit_order_checked_for_every_dimension_pair():
    # one0 <= one1 and one0 <= one2 hold, one1 <= one2 does not
    dims = tuple(DimOps(mul=min, one=one, star=lambda a: 1) for one in (0, 1, 0))
    bad = NValueAlgebra("bad3d", add=max, zero=0, dims=dims, carrier=(0, 1))
    words = models.shuffle_concat_2catoid("ab", 3)
    nc = NCatoid("concat-shuffle-concat", (*words.dims, words.dims[0]))
    with pytest.raises(CapabilityError, match="one1 <= one2"):
        NConvolution(nc, bad)


def test_commutative_dimension_gives_commutative_convolution(bool2, rng):
    # shuffle is commutative and the boolean algebra is commutative, so the
    # dimension-1 convolution is commutative pointwise
    tc = models.shuffle_concat_2catoid("ab", 4)
    bundle = NConvolution(tc, bool2)
    for _ in range(10):
        f = bundle.random_function(rng)
        g = bundle.random_function(rng)
        assert functions_equal(bundle.mul(1, f, g), bundle.mul(1, g, f), tc.elements())


def test_concat_star_is_language_star(bool2, rng):
    # dimension 0 of the interchange structure is plain language star
    tc = models.shuffle_concat_2catoid("ab", 4)
    bundle = NConvolution(tc, bool2)
    conc = tc.dims[0]
    B = make_boolean()
    for _ in range(5):
        A = frozenset(x for x in conc.elements() if rng.random() < 0.3)
        f = indicator(conc, B, A)
        st = bundle.star(0, f)
        assert set(x for x in conc.elements() if st(x) == 1) == \
            set(powerset_star(conc, A))


def test_n_bundle_construction_and_axioms(square, bool2, rng):
    bundle = NConvolution(square, bool2)
    rep = check_n_axioms(bundle, rng, samples=12)
    assert rep.clean, rep.failed_laws()


def test_n_bundle_dom_of_zero(square, bool2):
    bundle = NConvolution(square, bool2)
    z = bundle.zero()
    for i in range(2):
        assert functions_equal(bundle.dom_(i, z), z, square.elements())
        assert functions_equal(bundle.cod_(i, z), z, square.elements())


def test_n_bundle_dom_product_identity(square, bool2, rng):
    # (D-(f) * g)(x) = D-(f)(s(x)) . g(x), per dimension
    bundle = NConvolution(square, bool2)
    for i in range(2):
        C = square.dims[i]
        v = bundle.views[i]
        for _ in range(5):
            f = bundle.random_function(rng)
            g = bundle.random_function(rng)
            lhs = bundle.mul(i, bundle.dom_(i, f), g)
            df = bundle.dom_(i, f)
            for x in square.elements():
                assert lhs(x) == v.mul(df(C.source(x)), g(x))


def test_n_bundle_rejects_truncated_models(bool2, rng):
    # convolution works on the truncated model; only the modal operators need
    # a certified valency
    tc = models.shuffle_concat_2catoid("ab", 3)
    bundle = NConvolution(tc, bool2)
    f = bundle.random_function(rng)
    with pytest.raises(CapabilityError, match="dimension 0"):
        bundle.dom_(0, f)


def test_n_bundle_refuses_lifts_as_the_hat_does(bool2, rng):
    # a truncated dimension reads the hat's truncation refusal, though the
    # words are not local either
    bundle = NConvolution(models.shuffle_concat_2catoid("ab", 3), bool2)
    with pytest.raises(CapabilityError, match=r"^dimension 0: words\(ab,3\): cannot certify "
                       r"finite valency, universe is truncated$"):
        bundle.dom_(0, bundle.random_function(rng))
    # a complete non-local dimension reads the hat's locality refusal; a
    # dimension of identities only is local
    U = ["e", "x", "y"]
    dim0 = TableCatoid("nonlocal", U, {}, dict.fromkeys(U, "e"), dict.fromkeys(U, "e"))
    dim1 = TableCatoid("points", U, {}, {u: u for u in U}, {u: u for u in U})
    bundle = NConvolution(NCatoid("nonlocal2", (dim0, dim1)), bool2)
    f = bundle.random_function(rng)
    for lift in (bundle.dom_, bundle.cod_):
        with pytest.raises(CapabilityError, match=r"^dimension 0: nonlocal: model is not local$"):
            lift(0, f)
    assert functions_equal(bundle.dom_(1, f), f, U)


def test_n_bundle_prefixes_hat_errors_with_the_dimension(square, rng):
    # the square is local in both dimensions, so the hat's own check fails
    dims = tuple(DimOps(mul=min, one=1, star=lambda a: 1) for _ in range(2))
    plain = NValueAlgebra("plain2d", add=max, zero=0, dims=dims, carrier=(0, 1))
    bundle = NConvolution(square, plain)
    f = bundle.random_function(rng)
    # convolution needs no modal maps
    assert functions_equal(bundle.mul(1, bundle.id_(1), f), f, square.elements())
    with pytest.raises(CapabilityError, match=r"^dimension 1: plain2d\[1\]: no modal structure$"):
        bundle.cod_(1, f)


def test_checkers_lift_each_function_once(monkeypatch, square, bool2, diamond_paths, rng):
    # (dimension, side, function): dimension None for check_modal's one-sorted
    # hats; holding each function keeps its id from being reused
    lifted = []

    def spy(owner, attr, side):
        real = getattr(owner, attr)
        if owner is NConvolution:
            wrapper = lambda self, i, f: lifted.append((i, side, f)) or real(self, i, f)
        else:
            wrapper = lambda f, *rest: lifted.append((None, side, f)) or real(f, *rest)
        monkeypatch.setattr(owner, attr, wrapper)

    spy(modal, "dom_hat", "dom")
    spy(modal, "cod_hat", "cod")
    spy(NConvolution, "dom_", "dom")
    spy(NConvolution, "cod_", "cod")
    assert modal.check_modal(diamond_paths, make_boolean(), "hat", rng, samples=4).clean
    assert check_n_axioms(NConvolution(square, bool2), rng, samples=6).clean
    counts = Counter((i, side, id(f)) for i, side, f in lifted)
    assert {i for i, _, _ in counts} == {None, 0, 1}
    assert [key for key, n in counts.items() if n > 1] == []


def test_n_bundle_dimension_mismatch(square):
    with pytest.raises(CapabilityError, match="mismatch"):
        NConvolution(square, make_boolean_nd(3))


def test_star_domain_laws_on_square(square, bool2, rng):
    bundle = NConvolution(square, bool2)
    rep = check_n_axioms(bundle, rng, samples=10)
    law = rep.law("nconv.star-domain[0<1]")
    assert law.status == "pass" and law.checked > 0
    assert rep.law("nconv.closure[0<1]").status == "pass"
    assert rep.law("nconv.dom-idem-leq[0<1]").status == "pass"
    assert rep.law("nconv.dom-product[0]").status == "pass"
    assert rep.law("nconv.dom-product[1]").status == "pass"


def test_n_modal_local_failure_has_the_modal_witness_shape(square):
    # the Appendix B model 1 algebra breaks codomain locality in dimension 1;
    # witnesses are (i, j, element, lhs, rhs) over sample indices, as in check_modal
    bundle = NConvolution(square, appendix_b_model(1))
    rep = check_n_axioms(bundle, random.Random(3), samples=12)
    law = rep.law("nconv.modal-local[1]")
    assert (law.status, law.checked, len(law.witnesses)) == ("fail", 13, 7)
    assert law.witnesses[:2] == [(1, 0, "p1q2", "0", "1_1"), (2, 0, "p1p2", "0", "1_1")]
    U = square.elements()
    for i, j, element, lhs, rhs in law.witnesses:
        assert 0 <= i < 13 and 0 <= j < 13 and lhs != rhs
        assert element in map(square.dims[1].format_element, U)
    assert rep.law("nconv.modal-local[0]").status == "pass"


# -- differential check of the law checkers against full-product references


def _reference_assoc(C, U):
    """Associativity over all of U^3, composing every triple."""
    bad = []
    for x, y, z in itertools.product(U, repeat=3):
        left = set()
        for v in C.compose(y, z):
            left |= C.compose(x, v)
        right = set()
        for u in C.compose(x, y):
            right |= C.compose(u, z)
        if left != right:
            bad.append((x, y, z, frozenset(left), frozenset(right)))
    return ("fail" if bad else "pass"), bad, len(U) ** 3


def _reference_interchange(nc, i, j, U):
    """(w .j x) .i (y .j z) <= (w .i y) .j (x .i z) over all of U^4."""
    ci, cj = nc.dims[i].compose, nc.dims[j].compose
    bad = []
    for w, x, y, z in itertools.product(U, repeat=4):
        lhs = set()
        for a in cj(w, x):
            for b in cj(y, z):
                lhs |= ci(a, b)
        rhs = set()
        for a in ci(w, y):
            for b in ci(x, z):
                rhs |= cj(a, b)
        if not lhs <= rhs:
            bad.append((w, x, y, z))
    return ("fail" if bad else "pass"), bad, len(U) ** 4


def _broken_square():
    """The pasting square with one vertical composite landing on the wrong cell."""
    sq = models.pasting_square_2category()
    d1 = sq.dims[1]
    table = dict(d1._table)
    table[("al*p2", "q1*be")] = frozenset(["al*q2"])
    broken1 = TableCatoid("square.v-broken", sq.elements(), table,
                          d1._src, d1._tgt, add_units=False)
    return NCatoid("broken-square", (sq.dims[0], broken1))


def test_broken_square_vertical_catoid_report_is_pinned():
    rep = check_catoid_axioms(_broken_square().dims[1])
    assert rep.to_text() == "\n".join("\t".join(line) for line in [
        ("FAIL", "catoid.assoc", "square.v-broken", "-", "(p1*be,al*p2,q1*be,{al0be},{})",
         "5832"),
        ("PASS", "catoid.composability-st", "square.v-broken", "-", "-", "324"),
        ("PASS", "catoid.unit-left", "square.v-broken", "-", "-", "18"),
        ("PASS", "catoid.unit-right", "square.v-broken", "-", "-", "18"),
        ("PASS", "props.st-idem", "square.v-broken", "-", "-", "18"),
        ("PASS", "props.fix-agree", "square.v-broken", "-", "-", "18"),
        ("PASS", "props.id-idem", "square.v-broken", "-", "-", "18"),
        ("PASS", "props.id-commute", "square.v-broken", "-", "-", "324"),
        ("PASS", "props.id-absorb", "square.v-broken", "-", "-", "324"),
        ("FAIL", "props.st-sub", "square.v-broken", "-", "(al*p2,q1*be)", "324"),
        ("FAIL", "props.st-of-product", "square.v-broken", "-", "(al*p2,q1*be,{al*q2})",
         "324"),
        ("FAIL", "props.member-st", "square.v-broken", "-", "(al*q2,al*p2,q1*be)", "324"),
        ("PASS", "catoid.orth-idem", "square.v-broken", "-", "-", "121"),
    ])
    assert [fmt_value(w) for w in rep.law("catoid.assoc").witnesses] == [
        "(p1*be,al*p2,q1*be,{al0be},{})", "(p1p2,al*p2,q1*be,{},{al*q2})",
        "(p1q2,al*p2,q1*be,{al*q2},{})"]


DIFFERENTIAL_CASES = {
    "shuffle-concat": lambda: models.shuffle_concat_2catoid("ab", 3),
    "swap": lambda: NCatoid("swap", (models.shuffle_catoid("ab", 3),
                                     models.free_monoid("ab", 3))),
    "pasting-square": models.pasting_square_2category,
    "broken-square": _broken_square,
}


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_checkers_match_full_product_references(case):
    nc = DIFFERENTIAL_CASES[case]()
    U = nc.elements()
    rep = check_n_catoid(nc)

    def entry(law):
        e = rep.law(law)
        return law, e.status, e.witnesses, e.checked

    for k in range(nc.n):
        law = f"dim{k}.catoid.assoc"
        assert entry(law) == (law, *_reference_assoc(nc.dims[k], U))
    for i, j in itertools.combinations(range(nc.n), 2):
        law = f"ncat.interchange[{i}<{j}]"
        assert entry(law) == (law, *_reference_interchange(nc, i, j, U))


def test_swapped_interchange_fails_with_known_witnesses():
    nc = DIFFERENTIAL_CASES["swap"]()
    law = check_n_catoid(nc).law("ncat.interchange[0<1]")
    assert (law.status, len(law.witnesses), law.checked) == ("fail", 44, 50625)


def test_identity_filtration_names_each_missing_identity(square):
    rev = NCatoid("rev", square.dims[::-1])
    law = check_n_catoid(rev).law("ncat.identity-filtration")
    assert (law.status, law.checked) == ("fail", 1)
    missing = ("p1", "p1p2", "p1q2", "p2", "q1", "q1p2", "q1q2", "q2")
    assert law.witnesses == [(0, e) for e in missing]
