import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from convka.values import (
    INF,
    NEG_INF,
    CapabilityError,
    TableFormatError,
    check_value_axioms,
    load_finite_algebra,
    make_boolean,
    make_boolean_nd,
    make_max_plus,
    make_min_plus,
    make_nat_inf_conway,
    quantale_star,
)
from convka.lab import appendix_b_model, negative_control_dioid, three_chain_quantale
from relations import make_relations


def test_boolean_basics(boolean):
    assert boolean.star(0) == 1
    assert boolean.add(1, 1) == 1
    assert boolean.mul(1, 0) == 0
    assert boolean.dom(1) == 1 and boolean.cod(0) == 0
    assert boolean.is_finite and boolean.idempotent_add


def test_boolean_is_kleene_algebra(boolean):
    rep = check_value_axioms(boolean, "kleene")
    assert rep.clean, rep.failed_laws()


def test_relations_are_a_kleene_algebra_with_domain():
    # the one non-commutative test algebra: a one-sided law checked on the
    # wrong side still passes on boolean, but fails here
    R = make_relations()
    assert R.mul(0b0010, 0b1000) == 0b0010 and R.mul(0b1000, 0b0010) == 0  # not commutative
    assert R.star(0b0010) == 0b1011 and R.dom(0b0010) == 0b0001 and R.cod(0b0010) == 0b1000
    assert R.zero_absorbs and R.add_top == 0b1111
    for cls in ("semiring", "dioid", "kleene", "conway", "modal"):
        rep = check_value_axioms(R, cls)
        assert rep.clean, (cls, rep.failed_laws())


def test_min_plus_basics(minplus):
    assert minplus.add(3, 5) == 3
    assert minplus.mul(3, INF) is INF
    assert minplus.star(7) == 0
    assert minplus.zero is INF and minplus.one == 0
    # the dioid order is reversed numeric order with inf at the bottom
    assert minplus.leq(INF, 3) and minplus.leq(5, 3) and not minplus.leq(3, 5)


def test_max_plus_basics():
    mp = make_max_plus()
    assert mp.add(-3, -5) == -3
    assert mp.star(-4) == 0
    assert mp.mul(-2, -3) == -5
    assert mp.zero is NEG_INF


@pytest.mark.parametrize("make", [make_min_plus, make_max_plus])
def test_tropical_kleene_laws_sampled(make, rng):
    rep = check_value_axioms(make(), "kleene", rng=rng, samples=400)
    assert rep.clean, rep.failed_laws()


def test_nat_inf_conway(natinf, rng):
    assert natinf.star(0) == 1
    assert natinf.star(2) is INF
    assert natinf.add(2, 2) == 4
    assert not natinf.idempotent_add
    rep = check_value_axioms(natinf, "conway", rng=rng, samples=400)
    assert rep.clean, rep.failed_laws()


def test_order_classes_refuse_non_idempotent_addition(natinf):
    """Classes whose laws read the order refuse before running any law; the
    classes without an order still report on natinf, dioid.add-idem failing."""
    with pytest.raises(CapabilityError, match="class 'kleene' needs idempotent_add"):
        check_value_axioms(natinf, "kleene", rng=random.Random(1))
    with pytest.raises(CapabilityError, match="class 'modal' needs has_modal"):
        check_value_axioms(natinf, "modal", rng=random.Random(1))
    counted = dataclasses.replace(make_boolean_nd(2), idempotent_add=False)
    for cls in ("interchange", "n_semiring", "n_kleene"):
        with pytest.raises(CapabilityError, match=f"class '{cls}' needs idempotent_add"):
            check_value_axioms(counted, cls)
    assert check_value_axioms(natinf, "dioid", rng=random.Random(1)).failed_laws() == {
        "dioid.add-idem"}
    for cls in ("semiring", "conway"):
        assert check_value_axioms(natinf, cls, rng=random.Random(1)).clean


def test_nat_inf_star_oracle():
    # star(2) must dominate every partial geometric sum 1 + 2 + 4 + ...
    total, power = 0, 1
    for _ in range(40):
        total += power
        power *= 2
    assert total > 10**9
    assert make_nat_inf_conway().star(2) is INF


def test_star_induction_reports_vacuous_counts(boolean):
    rep = check_value_axioms(boolean, "kleene")
    law = rep.law("ka.induct-left")
    assert law.status == "pass"
    assert law.checked == 8          # exhaustive over triples
    assert 0 < law.vacuous < law.checked


def test_boolean_is_also_conway(boolean):
    rep = check_value_axioms(boolean, "conway")
    assert rep.clean, rep.failed_laws()


@given(st.lists(st.integers(min_value=0, max_value=50) | st.just(INF),
                min_size=3, max_size=3))
def test_min_plus_semiring_laws_hypothesis(triple):
    K = make_min_plus()
    a, b, c = triple
    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
    assert K.mul(K.add(a, b), c) == K.add(K.mul(a, c), K.mul(b, c))
    assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
    assert K.add(K.one, K.mul(a, K.star(a))) == K.star(a)


# ---------------------------------------------------------------------------
# finite tables


def test_load_appendix_models_cells_as_printed():
    m1 = appendix_b_model(1)
    assert m1.n == 2
    assert m1.dims[0].mul("1_1", "1_1") == "a"
    assert m1.dims[1].dom("a") == "1_1"
    # the suspect printed cell is kept verbatim: a .1 0 = a
    assert m1.dims[1].mul("a", "0") == "a"
    assert m1.dims[1].mul("a", "1_0") == "0"

    m2 = appendix_b_model(2)
    assert m2.dims[1].cod("a") == "1_1"
    assert m2.dims[0].mul("1_1", "1_1") == "b"
    assert m2.add("a", "1_1") == "b"  # join of the incomparable pair


def test_table_format_errors():
    with pytest.raises(TableFormatError, match="carrier"):
        load_finite_algebra("mul:\n0")
    with pytest.raises(TableFormatError, match="row"):
        load_finite_algebra("carrier: x y\norder: x < y\nmul:\nx y\nx\none: x")
    with pytest.raises(TableFormatError, match="not in carrier"):
        load_finite_algebra("carrier: x y\norder: x < y\nmul:\nx y\ny z\none: x")
    with pytest.raises(TableFormatError, match="unit"):
        load_finite_algebra("carrier: x y\norder: x < y\nmul:\nx y\ny y\n")
    with pytest.raises(TableFormatError, match="add"):
        load_finite_algebra("carrier: x y\nmul:\nx y\ny y\none: x")
    tables = "mul:\nx x x\nx y z\nx z x\none: y\n"
    for chain in ("x < y < z < y", "x y z", "x < y < z <"):  # a repeat, no '<', a loose '<'
        with pytest.raises(TableFormatError, match="chain"):
            load_finite_algebra(f"carrier: x y z\norder: {chain}\n" + tables)
    with pytest.raises(TableFormatError, match="order does not cover the carrier"):
        load_finite_algebra("carrier: x y z\norder: x < y\n" + tables)
    with pytest.raises(TableFormatError, match="dom1: no multiplication table for dimension 1"):
        load_finite_algebra("carrier: x y z\norder: x < y < z\n" + tables + "dom1: x y y\n")


def test_table_blocks_take_rows_after_the_key_and_alias_dimension_zero():
    head = "carrier: 0 1\norder: 0 < 1\n"
    spread = load_finite_algebra(head + "mul: 0 0\n0 1\none:\n1\nstar:\n1\n1\n")
    aliased = load_finite_algebra(head + "mul:\n0 0\n0 1\none0: 1\nstar0: 1 1\n")
    for A in (spread, aliased):
        assert (A.name, A.zero, A.one) == ("table", "0", "1")
        assert [A.mul(a, b) for a in A.carrier for b in A.carrier] == ["0", "0", "0", "1"]
        assert [A.star(a) for a in A.carrier] == ["1", "1"] and A.dom is None
    nd = load_finite_algebra(head + "mul0:\n0 0\n0 1\none: 1\ndom: 0 1\n")
    assert nd.n == 1 and nd.dims[0].one == "1" and nd.dims[0].dom("1") == "1"
    with pytest.raises(TableFormatError, match="unknown key 'domain'"):
        load_finite_algebra(head + "mul:\n0 0\n0 1\none: 1\ndomain: 0 1\n")
    with pytest.raises(TableFormatError, match="numbered"):
        load_finite_algebra(head + "mul:\n0 0\n0 1\nmul0:\n0 0\n0 1\none: 1\n")


def test_one_dimensional_table_roundtrip():
    A = load_finite_algebra("""
carrier: 0 1
order: 0 < 1
mul:
0 0
0 1
one: 1
dom: 0 1
cod: 0 1
""")
    assert A.carrier == ("0", "1")
    assert A.mul("1", "1") == "1"
    assert A.add("0", "1") == "1"
    rep = check_value_axioms(A, "modal")
    assert rep.clean


# ---------------------------------------------------------------------------
# quantale star


def test_quantale_star_boolean(boolean):
    assert quantale_star(boolean, 1) == 1
    assert quantale_star(boolean, 0) == 1  # a^0 = 1 dominates


def test_quantale_star_three_chain():
    Q = three_chain_quantale()
    # oracle: accumulate joins of powers directly
    def join_powers(a):
        acc, power = "1", "1"
        for _ in range(5):
            power = Q.mul(power, a)
            acc = Q.add(acc, power)
        return acc

    for a in Q.carrier:
        assert Q.star(a) == join_powers(a)
    assert Q.star("T") == "T"
    assert Q.star("0") == "1"
    rep = check_value_axioms(Q, "kleene")
    assert rep.clean, rep.failed_laws()


def test_quantale_star_requires_finite_idempotent(minplus, natinf):
    with pytest.raises(CapabilityError):
        quantale_star(minplus, 3)
    with pytest.raises(CapabilityError):
        quantale_star(natinf, 2)


# ---------------------------------------------------------------------------
# axiom-class plumbing


def test_exhaustive_needs_finite_carrier(minplus):
    with pytest.raises(CapabilityError):
        check_value_axioms(minplus, "kleene")


def test_class_capability_errors(boolean):
    no_star = make_boolean()
    object.__setattr__(no_star, "star", None)
    with pytest.raises(CapabilityError):
        check_value_axioms(no_star, "kleene")
    with pytest.raises(CapabilityError):
        check_value_axioms(boolean, "n_semiring")
    with pytest.raises(ValueError):
        check_value_axioms(boolean, "nonsense")


def test_boolean_nd_is_n_kleene():
    A = make_boolean_nd(2)
    rep = check_value_axioms(A, "n_kleene")
    assert rep.clean, rep.failed_laws()
    rep = check_value_axioms(A, "interchange")
    assert rep.clean, rep.failed_laws()


def test_appendix_model1_failure_pattern_frozen():
    rep = check_value_axioms(appendix_b_model(1), "n_semiring")
    assert rep.failed_laws() == {
        "sr.mul-assoc[1]", "sr.distrib-left[1]", "sr.distrib-right[1]",
        "sr.zero-annihil-right[1]", "modal.cod-local[1]",
        "nsr.dom-lax[0,1]", "nsr.cod-lax[0,1]", "nsr.interchange[0<1]",
        "nsr.closure-dom[0<1]", "nsr.closure-cod[0<1]",
    }
    # the claimed closure failure: d_1(1_1 .0 1_1) = d_1(a) = 1_1 < a
    law = rep.law("nsr.closure-dom[0<1]")
    assert ("1_1", "1_1", ("1_1", "a")) in law.witnesses


def test_appendix_model2_failure_pattern_frozen():
    rep = check_value_axioms(appendix_b_model(2), "n_semiring")
    assert rep.failed_laws() == {"nsr.closure-dom[0<1]", "nsr.closure-cod[0<1]"}
    law = rep.law("nsr.closure-cod[0<1]")
    assert ("1_1", "a", ("1_1", "b")) in law.witnesses


def test_n_filtration():
    # per-dimension dom-fixpoint sets; a valid n-algebra has S_0 <= S_1 <= ...
    def n_filtration(A):
        return tuple(frozenset(a for a in A.carrier if d.dom(a) == a) for d in A.dims)

    assert n_filtration(make_boolean_nd(2)) == (frozenset({0, 1}), frozenset({0, 1}))
    for which in (1, 2):
        s0, s1 = n_filtration(appendix_b_model(which))
        assert s0 <= s1
    s0, s1 = n_filtration(appendix_b_model(1))
    assert s0 == frozenset({"0", "1_0"}) and s1 == frozenset({"0", "1_0", "1_1"})


# ---------------------------------------------------------------------------
# every value law's verdict, counts and witnesses, pinned

VALUE_LAW_PIN = Path(__file__).parent / "data" / "value_laws.txt"


def value_law_lines():
    """One tab-separated line per law of each pinned (algebra, class) run, both
    exhaustive and sampled from random.Random(3): the case, the mode, the law,
    its status, checked and vacuous counts and the full witness list."""
    cases = [(f"appendix{which}", appendix_b_model(which), cls)
             for which in (1, 2) for cls in ("n_semiring", "interchange")]
    cases.append(("negative-control", negative_control_dioid(), "modal"))
    cases += [(f"boolean{n}d", make_boolean_nd(n), "n_kleene") for n in (2, 3)]
    cases += [("boolean", make_boolean(), cls)
              for cls in ("semiring", "dioid", "kleene", "conway", "modal")]
    for label, A, cls in cases:
        for mode, rng in (("exhaustive", None), ("sampled", random.Random(3))):
            rep = check_value_axioms(A, cls, rng=rng, samples=25)
            for e in rep.entries:
                yield "\t".join([label, cls, mode, e.algebra, e.law, e.status, str(e.checked),
                                 str(e.vacuous), repr(e.witnesses)])


def test_value_law_witnesses_pinned():
    expected = VALUE_LAW_PIN.read_text().splitlines()
    assert list(value_law_lines()) == expected


if __name__ == "__main__":  # regenerate the pin: python tests/test_values.py
    VALUE_LAW_PIN.write_text("".join(line + "\n" for line in value_law_lines()))
