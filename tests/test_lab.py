import random
from dataclasses import replace

import pytest

from convka import lab, models
from convka.convolution import functions_equal, id0, star_dual, star_recursive, zero_function
from convka.lab import (
    appendix_b_model,
    check_kleene_convolution,
    conv_powers_sum,
    negative_control_dioid,
    run_campaign,
    three_chain_quantale,
    verify_independence,
    verify_quantale_star,
)
from convka.cli import main
from convka.report import FAIL, INFO, PASS, XFAIL, Report
from convka.values import CapabilityError, check_value_axioms, load_finite_algebra, \
    make_boolean, make_min_plus


def test_verify_independence_confirms_claimed_witnesses():
    rep = verify_independence()
    assert rep.clean  # confirmations pass; deviations are reported, not failed
    m1_dom = rep.law("independence.model1.confirm-closure-dom")
    assert m1_dom.status == PASS
    assert ("1_1", "1_1", ("1_1", "a")) in m1_dom.witnesses
    m1_cod = rep.law("independence.model1.confirm-closure-cod")
    assert m1_cod.status == PASS
    m2_cod = rep.law("independence.model2.confirm-closure-cod")
    assert m2_cod.status == PASS
    assert ("1_1", "a", ("1_1", "b")) in m2_cod.witnesses


def test_verify_independence_reports_deviations_as_diffs():
    rep = verify_independence()
    diffs = {e.law for e in rep.entries if e.status == INFO and ".diff." in e.law}
    # model 1's printed tables break more than the closure axioms;
    # model 2's dom-closure also fails (its fixpoint sets coincide with cod's)
    assert "independence.model1.diff.sr.zero-annihil-right[1]" in diffs
    assert "independence.model2.diff.nsr.closure-dom[0<1]" in diffs
    for which in (1, 2):
        match = rep.law(f"independence.model{which}.pattern-match")
        assert match.status == INFO and "unexpected" in match.note


def test_verify_independence_reports_a_claimed_failure_that_passes(monkeypatch):
    # model 2 also claims a law its tables satisfy: its confirmation fails,
    # and a diff line says that the law passes
    claimed = dict(lab._CLAIMED[2], failing={"nsr.closure-cod[0<1]", "sr.add-comm[0]"})
    monkeypatch.setitem(lab._CLAIMED, 2, claimed)
    rep = verify_independence()
    diff = rep.law("independence.model2.diff.sr.add-comm[0]")
    assert (diff.status, diff.witnesses, diff.note) == \
        (INFO, [], "deviation: passes but claimed failing (table kept as printed)")
    match = rep.law("independence.model2.pattern-match")
    assert match.note == "1 unexpected failures, 1 unexpected passes"
    assert not rep.clean


def test_tables_never_repaired():
    # the suspect printed cells stay exactly as embedded
    m1 = appendix_b_model(1)
    assert m1.dims[1].mul("a", "0") == "a"
    assert m1.dims[1].mul("a", "1_0") == "0"
    m2 = appendix_b_model(2)
    assert m2.dims[0].mul("1_1", "1_1") == "b"


def test_appendix_model_as_value_algebra_reproduces_closure_failures():
    rep = check_value_axioms(appendix_b_model(1), "n_semiring")
    assert {"nsr.closure-dom[0<1]", "nsr.closure-cod[0<1]"} <= rep.failed_laws()


# ---------------------------------------------------------------------------
# quantale star


def test_power_join_equals_recursive_star_words(rng):
    rep = verify_quantale_star(models.free_monoid("ab", 4), make_boolean(),
                               rng, samples=15)
    assert rep.clean, rep.failed_laws()


def test_power_join_equals_recursive_star_intervals(rng):
    rep = verify_quantale_star(models.interval_catoid(models.example_poset()),
                               three_chain_quantale(), rng, samples=15)
    assert rep.clean, rep.failed_laws()


def test_power_join_edge_cases(words3):
    B = make_boolean()
    unit = id0(words3, B)
    assert functions_equal(conv_powers_sum(zero_function(words3, B)), unit)
    assert functions_equal(conv_powers_sum(unit), unit)
    assert functions_equal(star_recursive(zero_function(words3, B)), unit)


def test_power_join_star_is_checked_against_the_recursive_star():
    # a star that maps every weight to 0 leaves the recursive star 0 at eps,
    # where the join of the powers of f holds f^0(eps) = 1
    Q = three_chain_quantale()
    rep = verify_quantale_star(models.free_monoid("ab", 2), replace(Q, star=lambda a: Q.zero),
                               random.Random(1), samples=6)
    assert "FAIL\tquantale.power-join-eq\twords(ab,2)\ttable*\t(0,eps,1,0)\t42" in \
        rep.to_text().splitlines()


def test_power_decomposition_is_checked():
    # 1 is a unit on the right only (1.T = 1): where f(x) = T, the term
    # f^0(s(x)).f(x).f^0(t(x)) of the decomposition of f^1(x) reads 1
    Q = load_finite_algebra("carrier: 0 1 T\norder: 0 < 1 < T\n"
                            "mul:\n0 0 0\n0 1 1\n0 T T\none: 1\n").with_quantale_star()
    rep = verify_quantale_star(models.free_monoid("a", 3), Q, random.Random(1), samples=6)
    assert "FAIL\tquantale.power-decomposition\twords(a,3)\ttable*\t(1,1,a,1,T)\t36" in \
        rep.to_text().splitlines()
    assert len(rep.law("quantale.power-decomposition").witnesses) == 14


def test_power_join_needs_finite_quantale(words3):
    f = zero_function(words3, make_min_plus())
    with pytest.raises(CapabilityError, match="finite"):
        conv_powers_sum(f)


def test_negative_control_dioid_is_not_modal():
    rep = check_value_axioms(negative_control_dioid(), "modal")
    assert "modal.dom-local" in rep.failed_laws()
    # the table also fails distributivity, the known defect of this witness
    assert "sr.distrib-left" in rep.failed_laws()


# ---------------------------------------------------------------------------
# campaign


def test_campaign_determinism():
    a = run_campaign("kleene", 3, 4).to_text()
    b = run_campaign("kleene", 3, 4).to_text()
    assert a == b


def test_campaign_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_campaign("bogus", 7, 25)


def test_a_negative_control_that_stops_failing_fails_the_run(monkeypatch, capsys):
    # a functionality checker that always passes: the shuffle control, which
    # expects catoid.functional to fail, turns into a failure of the run
    def passing(C):
        rep = Report(model=C.name)
        rep.add("catoid.functional", checked=len(C.elements()) ** 2)
        return rep

    monkeypatch.setattr(lab, "is_functional", passing)
    assert main(["check", "--suite", "catoid", "--seed", "7"]) == 1
    out, err = capsys.readouterr()
    assert err == "# 119 laws, 1 failing, 5 expected failures\n"
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL\tcatoid.functional\tshuffle(ab,4)\t-\texpected failure did not occur\t961"]


def test_campaign_negative_controls_are_xfail():
    rep = run_campaign("catoid", 5, 4).merge(run_campaign("modal", 5, 4))
    assert rep.clean, rep.failed_laws()
    xfails = {(e.law, e.model) for e in rep.entries if e.status == XFAIL}
    assert ("moebius.identities-indecomposable", "pairs(a,b)") in xfails
    assert ("moebius.saturated-chain", "intervals(a,b,c,d,e)") in xfails
    assert any(law == "modal.dom-local" for law, _ in xfails)


@pytest.mark.parametrize("samples", [1, 2, 3])
def test_modal_negative_control_fails_whatever_the_sample_budget(samples):
    # the control checks a value table, so a small --samples must not let
    # its expected local failures slip through
    for seed in range(1, 9):
        rep = run_campaign("modal", seed, samples)
        assert rep.clean, (seed, rep.failed_laws())
        xfails = {e.law for e in rep.entries if e.status == XFAIL}
        assert {"modal.dom-local", "modal.cod-local"} <= xfails, seed


@pytest.mark.parametrize("samples, compared", [(1, 1), (2, 2), (3, 3), (8, 4)])
def test_star_triple_agree_counts_the_samples_it_compares(samples, compared, monkeypatch):
    # the triple comparison runs on at most max(3, samples // 2) samples, and
    # never on more samples than drawn; checked= must count only those
    stars = []
    monkeypatch.setattr(lab, "star_dual", lambda f: stars.append(f) or star_dual(f))
    rep = run_campaign("kleene", 1, samples)
    sizes = {"words(ab,4)": 31, "paths(8v)": 25, "guarded(2t,2a,3)": 170}
    counts = {e.model: e.checked for e in rep.entries if e.law == "conv.star-triple-agree"}
    assert counts == {model: n * compared for model, n in sizes.items()}
    assert len(stars) == 3 * compared


def test_unfolded_star_does_not_shrink_with_a_faulty_rows(monkeypatch):
    # a rows that keeps only the two trivial splits of words of length >= 3
    # makes the recursive stars sum only the one-factor term there; the
    # unfolded oracle, which does not read rows, must disagree with them
    rows = models.FreeMonoid.rows

    def trivial_splits(self, i):
        lefts, rights = rows(self, i)
        if len(self.elements()[i]) < 3:
            return lefts, rights
        return [lefts[0], lefts[-1]], [rights[0], rights[-1]]

    monkeypatch.setattr(models.FreeMonoid, "rows", trivial_splits)
    rep = check_kleene_convolution(models.free_monoid("ab", 4), make_min_plus(),
                                   random.Random("7:kleene:words"), 25)
    assert rep.law("conv.star-triple-agree").status == FAIL


def test_star_induction_conclusion_is_checked():
    # a min-plus copy whose star is constantly -1: for g = f* . h the
    # antecedent f . g <= g still holds, but f* . g <= g fails, on each side
    K = replace(make_min_plus(), star=lambda a: -1)
    lines = check_kleene_convolution(models.free_monoid("ab", 2), K, random.Random(1),
                                     6).to_text().splitlines()
    for side in ("left", "right"):
        assert f"FAIL\tconv.star-induct-{side}\twords(ab,2)\tminplus\t(0)\t6" in lines


def test_campaign_all_is_clean():
    rep = run_campaign("all", 11, 5)
    assert rep.clean, rep.failed_laws()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_campaign_line_fails_exactly_when_it_has_witnesses(seed):
    # expected failures keep their witnesses, INFO lines classify, and a
    # confirmed independence failure passes while showing its witness
    rep = run_campaign("all", seed, 25)
    lines = [e for e in rep.entries if e.status not in (XFAIL, INFO)
             and not (e.law.startswith("independence.") and ".confirm-closure-" in e.law)]
    assert len(lines) > 250
    assert [e.law for e in lines if (e.status == FAIL) != bool(e.witnesses)] == []


def test_report_text_format():
    rep = run_campaign("independence", 7, 25)
    with pytest.raises(KeyError, match=r"^'nope'$"):
        Report().law("nope")
    for line in rep.to_text().splitlines():
        parts = line.split("\t")
        assert len(parts) == 6
        assert parts[0] in ("PASS", "FAIL", "XFAIL", "SKIP", "INFO")
