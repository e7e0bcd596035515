import dataclasses
import itertools
import operator
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from convka.values import (
    AXIOM_CLASSES,
    INF,
    NEG_INF,
    CapabilityError,
    DimOps,
    NValueAlgebra,
    TableFormatError,
    ValueAlgebra,
    check_value_axioms,
    load_finite_algebra,
    make_boolean,
    make_boolean_nd,
    make_max_plus,
    make_min_plus,
    make_nat_inf_conway,
    power_join,
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


def _tropical_reference(best, inf):
    def add(a, b):
        return b if a is inf else a if b is inf else best(a, b)

    def mul(a, b):
        return inf if a is inf or b is inf else a + b

    return add, mul


def _natinf_add(a, b):
    return INF if a is INF or b is INF else a + b


def _natinf_mul(a, b):
    return 0 if a == 0 or b == 0 else INF if a is INF or b is INF else a * b


def test_stock_operations_match_references_on_every_pair():
    # each result is the reference's int, never a bool, or its infinity itself
    cases = ((make_boolean(), max, min, 1),
             (make_min_plus(), *_tropical_reference(min, INF), 0),
             (make_max_plus(), *_tropical_reference(max, NEG_INF), 0),
             (make_nat_inf_conway(), _natinf_add, _natinf_mul, INF))
    for K, add, mul, top in cases:
        for a, b in itertools.product(K.pool(), repeat=2):
            for op, ref in ((K.add, add), (K.mul, mul)):
                got, want = op(a, b), ref(a, b)
                assert got == want and (type(got) is int or got is want), (K.name, a, b, got)
        assert K.add_top == top and type(K.add_top) is type(top), K.name
        assert K.zero_absorbs, K.name


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


def test_max_plus_is_min_plus_negated():
    """Negation, swapping inf and -inf, carries max-plus onto min-plus."""
    mn, mx = make_min_plus(), make_max_plus()

    def neg(a):
        return NEG_INF if a is INF else INF if a is NEG_INF else -a

    pool = mx.sample_pool
    assert sorted(map(neg, mn.sample_pool), key=repr) == sorted(pool, key=repr)
    for a in pool:
        assert neg(mx.star(a)) == mn.star(neg(a))
        for b in pool:
            assert neg(mx.add(a, b)) == mn.add(neg(a), neg(b))
            assert neg(mx.mul(a, b)) == mn.mul(neg(a), neg(b))
    assert neg(mx.zero) is mn.zero and neg(mx.one) == mn.one
    assert mn.dom is mn.cod and mn.dom(INF) is INF and mn.dom(7) == 0
    assert mx.dom is None and mx.cod is None and not mx.has_modal


@pytest.mark.parametrize("make", [make_min_plus, make_max_plus])
def test_tropical_kleene_laws_over_the_pool(make):
    rep = check_value_axioms(make(), "kleene")
    assert rep.clean, rep.failed_laws()


def test_nat_inf_conway(natinf):
    assert natinf.star(0) == 1
    assert natinf.star(2) is INF
    assert natinf.add(2, 2) == 4
    assert not natinf.idempotent_add
    rep = check_value_axioms(natinf, "conway")
    assert rep.clean, rep.failed_laws()


def test_order_classes_refuse_non_idempotent_addition(natinf):
    """Classes whose laws read the order refuse before running any law; the
    classes without an order still report on natinf, dioid.add-idem failing."""
    with pytest.raises(CapabilityError, match="class 'kleene' needs idempotent_add"):
        check_value_axioms(natinf, "kleene")
    with pytest.raises(CapabilityError, match="class 'modal' needs has_modal"):
        check_value_axioms(natinf, "modal")
    counted = dataclasses.replace(make_boolean_nd(2), add=lambda a, b: a ^ b)
    for cls in ("interchange", "n_semiring", "n_kleene"):
        with pytest.raises(CapabilityError, match=f"class '{cls}' needs idempotent_add"):
            check_value_axioms(counted, cls)
    assert check_value_axioms(natinf, "dioid").failed_laws() == {
        "dioid.add-idem"}
    for cls in ("semiring", "conway"):
        assert check_value_axioms(natinf, cls).clean


def test_idempotent_addition_is_decided_over_the_pool():
    # addition mod 3 on two dimensions: 1 + 1 = 2, so there is no order
    dim = DimOps(mul=lambda a, b: a * b % 3, one=1)
    mod3 = NValueAlgebra(name="mod3-2d", add=lambda a, b: (a + b) % 3, zero=0,
                         dims=(dim, dim), carrier=(0, 1, 2))
    assert not mod3.idempotent_add
    with pytest.raises(CapabilityError, match="class 'interchange' needs idempotent_add"):
        check_value_axioms(mod3, "interchange")
    # a copy with another addition decides idempotence for itself
    minplus = make_min_plus()
    summed = dataclasses.replace(minplus, add=make_nat_inf_conway().add)
    assert minplus.idempotent_add and not summed.idempotent_add
    assert not ValueAlgebra(name="bare", add=max, mul=max, zero=0, one=1).idempotent_add


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
    assert "PASS\tka.induct-left\t-\tboolean\t- vacuous=2\t8" in rep.to_text().splitlines()


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
    with pytest.raises(TableFormatError, match="add: table or an order: chain, not both"):
        load_finite_algebra("carrier: 0 1\norder: 1 0 0 zz\nadd:\n0 1\n1 1\n"
                            "mul:\n0 0\n0 1\none: 1")
    with pytest.raises(TableFormatError, match="dom1: no multiplication table for dimension 1"):
        load_finite_algebra("carrier: x y z\norder: x < y < z\n" + tables + "dom1: x y y\n")


def test_table_format_refusal_messages():
    head, tables = "carrier: x y\norder: x < y\n", "mul:\nx x\nx y\none: y\n"
    refusals = {
        "x y\n" + head + tables: "line 1: unexpected data 'x y'",
        "carrier: x y x\norder: x < y\n" + tables: "duplicate carrier element",
        head + "mul:\nx x\none: y\n": "table mul: expected 2 rows, got 1",
        "carrier: x y\nadd:\ny y\ny y\n" + tables: "add table has no additive unit",
        head + "mul1:\nx x\nx y\none1: y\n": "multiplication tables must be numbered 0..n-1",
        head + "one: y\n": "missing multiplication table",
    }
    for text, message in refusals.items():
        with pytest.raises(TableFormatError, match=f"^{re.escape(message)}$"):
            load_finite_algebra(text)


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


def test_refusals_without_a_pool_an_order_or_a_carrier(minplus, natinf):
    bare = ValueAlgebra(name="bare", add=max, mul=max, zero=0, one=1)
    with pytest.raises(CapabilityError) as err:
        bare.pool()
    assert str(err.value) == "bare: no carrier and no sample pool"
    with pytest.raises(CapabilityError) as err:
        natinf.leq(1, 2)
    assert str(err.value) == "natinf: no order, addition is not idempotent"
    with pytest.raises(CapabilityError) as err:
        minplus.with_quantale_star()
    assert str(err.value) == "minplus: quantale star needs a finite carrier"


def test_power_join_raises_one_message_past_its_cap():
    # the sums 0, 1, 3, 6 never repeat, so three steps find no fixed point
    with pytest.raises(CapabilityError, match=r"^power joins did not stabilise within 3 steps$"):
        power_join(0, lambda p: p + 1, operator.add, operator.eq, 3)


def test_quantale_star_requires_finite_idempotent(minplus, natinf):
    with pytest.raises(CapabilityError):
        quantale_star(minplus, 3)
    with pytest.raises(CapabilityError):
        quantale_star(natinf, 2)


# ---------------------------------------------------------------------------
# axiom-class plumbing


def test_law_checks_run_over_the_carrier_or_the_sample_pool(minplus):
    # an infinite algebra's laws run over every tuple of its sample pool, and
    # one with neither a carrier nor a pool meets pool()'s own refusal
    assert check_value_axioms(minplus, "kleene").entries[0].checked == len(minplus.pool()) ** 3
    bare = ValueAlgebra(name="bare", add=max, mul=max, zero=0, one=1)
    with pytest.raises(CapabilityError, match="^bare: no carrier and no sample pool$"):
        check_value_axioms(bare, "semiring")


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


def test_views_are_built_once_per_dimension():
    # one object per dimension, so its idempotent_add, zero_absorbs and
    # add_top are decided once however often the view is asked for
    A = make_boolean_nd(3)
    assert [A.view(i) is A.view(i) for i in range(A.n)] == [True] * 3
    assert len({id(A.view(i)) for i in range(A.n)}) == 3
    assert [A.view(i).name for i in range(A.n)] == ["boolean3d[0]", "boolean3d[1]",
                                                    "boolean3d[2]"]


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
    """One tab-separated line per law of each pinned (algebra, class) run over
    every tuple of the pool: the case, the mode (always exhaustive, the law
    runner's one mode), the law, its status, checked and vacuous counts and
    the full witness list.  Then one outcome line per stock algebra and class
    (and an unknown name)."""
    cases = [(f"appendix{which}", appendix_b_model(which), cls)
             for which in (1, 2) for cls in ("n_semiring", "interchange")]
    cases.append(("negative-control", negative_control_dioid(), "modal"))
    cases += [(f"boolean{n}d", make_boolean_nd(n), "n_kleene") for n in (2, 3)]
    cases += [("boolean", make_boolean(), cls)
              for cls in ("semiring", "dioid", "kleene", "conway", "modal")]
    for label, A, cls in cases:
        for e in check_value_axioms(A, cls).entries:
            yield "\t".join([label, cls, "exhaustive", e.algebra, e.law, e.status,
                             str(e.checked), str(e.vacuous), repr(e.witnesses)])
    # then one outcome line per (algebra, class): the law count and the
    # failing laws, or the refusal's exception type and message
    two = make_boolean_nd(2)
    starless = dataclasses.replace(two, dims=tuple(dataclasses.replace(d, star=None)
                                                   for d in two.dims))
    algebras = [("boolean", make_boolean()), ("minplus", make_min_plus()),
                ("maxplus", make_max_plus()), ("natinf", make_nat_inf_conway()),
                ("appendix1", appendix_b_model(1)), ("appendix2", appendix_b_model(2)),
                ("three-chain", three_chain_quantale()),
                ("negative-control", negative_control_dioid()),
                ("boolean2d", two), ("boolean3d", make_boolean_nd(3)),
                ("boolean2d-starless", starless)]
    for label, A in algebras:
        for cls in AXIOM_CLASSES + ("nonsense",):
            try:
                rep = check_value_axioms(A, cls)
            except Exception as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            else:
                outcome = f"laws={len(rep.entries)} failed={sorted(rep.failed_laws())}"
            yield "\t".join([label, cls, "exhaustive", "outcome", outcome])


def test_value_law_witnesses_pinned():
    expected = VALUE_LAW_PIN.read_text().splitlines()
    assert list(value_law_lines()) == expected


if __name__ == "__main__":  # regenerate the pin: python tests/test_values.py
    VALUE_LAW_PIN.write_text("".join(line + "\n" for line in value_law_lines()))
