import itertools

import pytest

from convka import models
from convka.catoid import TableCatoid
from convka.convolution import functions_equal, indicator, powerset_star
from convka.higher import (
    NCatoid,
    NConvolution,
    check_interchange,
    check_n_axioms,
    check_n_catoid,
)
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


def test_interchange_convolution_boolean(bool2, rng):
    tc = models.shuffle_concat_2catoid("ab", 4)
    bundle = NConvolution(tc, bool2)
    rep = check_interchange(bundle, rng, samples=25)
    assert rep.clean, rep.failed_laws()


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
    nc = NCatoid("concat-shuffle-concat", (*words.dims, words.dim(0)))
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
    conc = tc.dim(0)
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
        C = square.dim(i)
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
    ci, cj = nc.dim(i).compose, nc.dim(j).compose
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
    d1 = sq.dim(1)
    table = dict(d1._table)
    table[("al*p2", "q1*be")] = frozenset(["al*q2"])
    broken1 = TableCatoid("square.v-broken", sq.elements(), table,
                          d1._src, d1._tgt, add_units=False)
    return NCatoid("broken-square", (sq.dim(0), broken1))


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
        assert entry(law) == (law, *_reference_assoc(nc.dim(k), U))
    for i, j in itertools.combinations(range(nc.n), 2):
        law = f"ncat.interchange[{i}<{j}]"
        assert entry(law) == (law, *_reference_interchange(nc, i, j, U))


def test_swapped_interchange_fails_with_known_witnesses():
    nc = DIFFERENTIAL_CASES["swap"]()
    law = check_n_catoid(nc).law("ncat.interchange[0<1]")
    assert (law.status, len(law.witnesses), law.checked) == ("fail", 44, 50625)
