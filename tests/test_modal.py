import random

import pytest

from convka import models
from convka.catoid import TableCatoid, check_moebius
from convka.convolution import (
    functions_equal,
    id0,
    indicator,
    random_function,
    zero_function,
)
from convka.modal import (
    bracket,
    check_modal,
    cod_hat,
    dom_hat,
)
from convka.lab import negative_control_dioid
from convka.values import CapabilityError, make_boolean, make_min_plus
from relations import make_relations


@pytest.fixture
def non_local():
    """Complete and Moebius, but x . y is empty although t(x) = e = s(y)."""
    U = ["e", "x", "y"]
    return TableCatoid("nonlocal", U, {}, dict.fromkeys(U, "e"), dict.fromkeys(U, "e"))


@pytest.fixture
def one_edge_paths():
    g = models.GraphSpec(("a", "b"), (("x", "a", "b", 1),))
    return models.path_catoid(g, 2)


def test_finite_valency_note_counts_elements_per_identity(diamond_paths, boolean, rng):
    # oracle: for each identity, count the elements with that source and
    # with that target directly
    C = diamond_paths
    counts = [sum(1 for x in C.elements() if anchor(x) == e)
              for e in C.identities() for anchor in (C.source, C.target)]
    law = check_modal(C, boolean, "hat", rng, samples=1).law("modal.finite-valency")
    assert law.status == "pass" and law.checked == len(C.elements())
    assert law.note == f"max-valency={max(counts)}"
    assert max(counts) >= 2


def test_valency_rejected_on_truncated_models(words3, boolean):
    f = indicator(words3, boolean, ["a"])
    with pytest.raises(CapabilityError, match="truncated"):
        dom_hat(f)
    with pytest.raises(CapabilityError, match="truncated"):
        cod_hat(f)


def test_hat_refuses_non_local_models(non_local, boolean, rng):
    assert non_local.is_complete and check_moebius(non_local).clean
    f = indicator(non_local, boolean, ["x"])
    for hat in (dom_hat, cod_hat):
        with pytest.raises(CapabilityError, match=r"^nonlocal: model is not local$"):
            hat(f)
    with pytest.raises(CapabilityError, match=r"^nonlocal: model is not local$"):
        check_modal(non_local, boolean, "hat", rng, samples=2)


def test_hat_refusals_come_in_order(words3, boolean, natinf):
    # words(ab,3) is truncated and not local; natinf has no modal maps
    with pytest.raises(CapabilityError, match=r"^natinf: no modal structure$"):
        dom_hat(indicator(words3, natinf, ["a"]))
    with pytest.raises(CapabilityError, match=r"^words\(ab,3\): cannot certify finite "
                       r"valency, universe is truncated$"):
        cod_hat(indicator(words3, boolean, ["a"]))


@pytest.mark.parametrize("model, algebra, message", [
    ("words3", "boolean", r"^words\(ab,3\): cannot certify finite valency, universe is truncated$"),
    ("non_local", "boolean", r"^nonlocal: model is not local$"),
    ("diamond_paths", "natinf", r"^natinf: no modal structure$"),
])
def test_check_modal_hat_refuses_before_drawing_a_sample(model, algebra, message, request):
    C, K = request.getfixturevalue(model), request.getfixturevalue(algebra)
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(CapabilityError, match=message):
        check_modal(C, K, "hat", rng, samples=30)
    assert rng.getstate() == state


def test_dom_hat_is_source_image(one_edge_paths, boolean):
    f = indicator(one_edge_paths, boolean, [("a", ("x",))])
    df = dom_hat(f)
    assert functions_equal(df, indicator(one_edge_paths, boolean, [("a", ())]))
    cf = cod_hat(f)
    assert functions_equal(cf, indicator(one_edge_paths, boolean, [("b", ())]))


def test_dom_hat_images_oracle(diamond_paths, boolean, rng):
    # over the booleans, D- is the s-image of the support and D+ the t-image
    for _ in range(10):
        f = random_function(diamond_paths, boolean, rng)
        support = set(f.support())
        assert set(dom_hat(f).support()) == {diamond_paths.source(x) for x in support}
        assert set(cod_hat(f).support()) == {diamond_paths.target(x) for x in support}


def test_dom_hat_zero(diamond_paths, boolean):
    z = zero_function(diamond_paths, boolean)
    assert functions_equal(dom_hat(z), z)
    assert functions_equal(cod_hat(z), z)


def test_dom_hat_vanishes_off_identities(diamond_paths, boolean, rng):
    f = random_function(diamond_paths, boolean, rng)
    df = dom_hat(f)
    for x in diamond_paths.elements():
        if not diamond_paths.is_identity(x):
            assert df(x) == boolean.zero


def test_dom_bracket_closed_form(words3, minplus):
    unit = id0(words3, minplus)
    zero = zero_function(words3, minplus)
    assert functions_equal(bracket(unit), unit)
    assert functions_equal(bracket(zero), zero)
    with pytest.raises(CapabilityError, match="K\\[C\\]"):
        bracket(indicator(words3, minplus, ["a"]))


def test_bracket_agrees_with_hat_on_complete_models(diamond_paths, boolean, rng):
    for _ in range(10):
        f = random_function(diamond_paths, boolean, rng, bracket=True)
        assert functions_equal(bracket(f), dom_hat(f))
        assert functions_equal(bracket(f), cod_hat(f))


@pytest.mark.parametrize("make, samples", [(make_boolean, 10), (make_min_plus, 8),
                                           (make_relations, 8)],
                         ids=["boolean", "minplus", "relations"])
def test_check_modal_hat_clean(diamond_paths, make, samples, rng):
    # relations is not commutative and its dom and cod differ, so a hat that
    # lifts a sample's dom to its targets, or its cod to its sources, fails
    rep = check_modal(diamond_paths, make(), "hat", rng, samples=samples)
    assert rep.clean, rep.failed_laws()


def test_check_modal_bracket_clean(words3, boolean, rng):
    rep = check_modal(words3, boolean, "bracket", rng, samples=10)
    assert rep.clean, rep.failed_laws()
    law = rep.law("modal.bracket-fixpoints")
    assert law.status == "pass" and "{0, id0}" in law.note


def test_check_modal_hat_full_catalogue(example_intervals, boolean, rng):
    # every local, finite-valency model in the catalogue carries the operators
    for C in (example_intervals, models.pair_groupoid(["a", "b", "c"])):
        rep = check_modal(C, boolean, "hat", rng, samples=8)
        assert rep.clean, (C.name, rep.failed_laws())


def test_negative_control_breaks_locality(rng):
    # 0 < 1 < a with a.a = 0: the forced candidate dom cannot satisfy
    # D-(f * D-(g)) = D-(f * g) at convolution level
    C = models.path_catoid(models.two_edge_path_graph(), 4)
    K = negative_control_dioid()
    rep = check_modal(C, K, "hat", rng, samples=10)
    assert "modal.dom-local" in rep.failed_laws()


def test_check_modal_rejects_nonlocal_models(boolean, rng):
    with pytest.raises(CapabilityError):
        check_modal(models.free_monoid("ab", 3), boolean, "hat", rng, samples=2)


def test_check_modal_variant_validation(words3, boolean, rng):
    with pytest.raises(ValueError):
        check_modal(words3, boolean, "nonsense", rng, samples=2)
