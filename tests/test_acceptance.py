"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  All equalities are exact; every tolerance is zero.
"""

import random

from convka import models
from convka.catoid import check_moebius, check_saturated_chain
from convka.cli import main
from convka.convolution import (
    check_conway,
    check_kat,
    from_pairs,
    functions_equal,
    random_function,
    star_dual,
    star_recursive,
    star_unfolded,
)
from convka.higher import (
    NConvolution,
    check_interchange,
    check_n_axioms,
)
from convka.lab import (
    check_kleene_convolution,
    three_chain_quantale,
    negative_control_dioid,
    verify_independence,
    verify_quantale_star,
)
from convka.modal import check_modal
from convka.pathtool import (
    edge_weight_matrix,
    floyd_warshall,
    homset_matrix,
    matrix_star,
    warshall_closure,
)
from convka.report import FAIL, INFO, PASS
from convka.values import (
    make_boolean,
    make_boolean_nd,
    make_min_plus,
    make_nat_inf_conway,
)


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {desc}" + (f" :: {detail}" if not ok else ""))
    assert ok, f"criterion {num}: {detail}"


def test_c01_kleene_axiom_suite():
    cells = [
        (models.free_monoid("ab", 4), make_min_plus()),
        (models.path_catoid(models.random_dag(8, density=0.4, seed=7), 8),
         make_min_plus()),
        (models.guarded_string_catoid(["t0", "t1"], ["p", "q"], 3), make_boolean()),
    ]
    bad = []
    for C, K in cells:
        rep = check_kleene_convolution(C, K, random.Random(f"c1:{C.name}"), samples=100)
        for law in ("conv.star-unfold", "conv.star-induct-left",
                    "conv.star-induct-right"):
            e = rep.law(law)
            if e.status != PASS:
                bad.append((C.name, law, e.witnesses[:1]))
    _report(1, "star unfold + both induction laws on 3 model/algebra cells, "
               "100 seeded f,g each", not bad, str(bad))


def test_c02_triple_star_agreement():
    catalogue = [
        models.free_monoid("ab", 4),
        models.shuffle_catoid("ab", 4),
        models.interval_catoid(models.example_poset()),
        models.path_catoid(models.diamond_dag(), 4),
        models.guarded_string_catoid(["t0", "t1"], ["p", "q"], 3),
    ]
    K = make_min_plus()
    bad = []
    for C in catalogue:
        assert max(C.length(x) for x in C.elements()) <= 4
        rng = random.Random(f"c2:{C.name}")
        for k in range(50):
            f = random_function(C, K, rng)
            a = star_recursive(f)
            if not functions_equal(a, star_dual(f)) or \
               not functions_equal(a, star_unfolded(f)):
                bad.append((C.name, k))
    _report(2, "star_recursive = star_dual = star_unfolded on 5 Moebius models, "
               "50 random f each", not bad, str(bad))


def test_c03_moebius_classification():
    problems = []
    iv = models.interval_catoid(models.example_poset())
    if iv.length(("a", "c")) != 3:
        problems.append(f"l([a,c]) = {iv.length(('a', 'c'))} != 3")
    sat = check_saturated_chain(iv).law("moebius.saturated-chain")
    if sat.status != FAIL or not any(w[:2] == (("a", "b"), ("b", "c"))
                                     for w in sat.witnesses):
        problems.append("saturated-chain witness ([a,b],[b,c]) missing")

    pg = check_moebius(models.pair_groupoid(["a", "b"]))
    if pg.failed_laws() != {"moebius.identities-indecomposable"}:
        problems.append(f"pair groupoid pattern: {pg.failed_laws()}")

    for C in (models.free_monoid("ab", 4), models.shuffle_catoid("ab", 4),
              models.guarded_string_catoid(["t0", "t1"], ["p", "q"], 3),
              models.path_catoid(models.diamond_dag(), 4)):
        rep = check_moebius(C)
        if not rep.clean:
            problems.append(f"{C.name}: {rep.failed_laws()}")
    _report(3, "interval length/saturated-chain counterexample, pair-groupoid "
               "condition (2) failure, clean word/path/guarded models",
            not problems, "; ".join(problems))


def test_c04_kat():
    problems = []
    for tests_n, actions, max_len in ((4, ["p", "q"], 2), (2, ["p", "q"], 3)):
        C = models.guarded_string_catoid([f"t{i}" for i in range(tests_n)],
                                         actions, max_len)
        rep = check_kat(C, make_boolean(), random.Random(f"c4:{tests_n}"), samples=8)
        ids = len(C.identities())
        if f"2^{ids}={2 ** ids}" not in rep.law("kat.test-count").note:
            problems.append(f"|tests| != 2^{ids}")
        if not rep.clean:
            problems.append(f"{C.name}: {rep.failed_laws()}")
        if rep.law("kat.bracket-tests-trivial").status != PASS:
            problems.append(f"{C.name}: K[C] test algebra not trivial")
    _report(4, "guarded-string KAT: 2^|C0| tests, boolean-algebra laws, "
               "closure, trivial K[C] test algebra", not problems,
            "; ".join(problems))


def test_c05_modal_suite():
    problems = []
    hat = check_modal(models.path_catoid(models.diamond_dag(), 4), make_boolean(),
                      "hat", random.Random("c5:hat"), samples=12)
    if not hat.clean:
        problems.append(f"hat: {hat.failed_laws()}")
    bracket = check_modal(models.free_monoid("ab", 3), make_boolean(),
                          "bracket", random.Random("c5:bracket"), samples=12)
    if not bracket.clean:
        problems.append(f"bracket: {bracket.failed_laws()}")
    if bracket.law("modal.bracket-fixpoints").status != PASS:
        problems.append("K[C]_0 != {0, id0}")
    control = check_modal(models.path_catoid(models.two_edge_path_graph(), 4),
                          negative_control_dioid(), "hat",
                          random.Random("c5:neg"), samples=12)
    if "modal.dom-local" not in control.failed_laws():
        problems.append("negative control did not break dom-locality")
    _report(5, "modal axioms clean on (DAG,boolean,hat) and (words,bracket); "
               "0<1<a control breaks locality", not problems, "; ".join(problems))


def test_c06_interchange():
    tc = models.shuffle_concat_2catoid("ab", 4)
    bundle = NConvolution(tc, make_boolean_nd(2))
    rep = check_interchange(bundle, random.Random("c6"), samples=100)
    ok = rep.clean and rep.law("ic.interchange").checked >= 100 * len(tc.elements())
    _report(6, "interchange inequality + id0 <= id1 on shuffle/concat words <= 4, "
               "100 random quadruples", ok, str(rep.failed_laws()))


def test_c07_n_dimensional():
    sq = models.pasting_square_2category()
    bundle = NConvolution(sq, make_boolean_nd(2))
    rep = check_n_axioms(bundle, random.Random("c7"), samples=24)
    needed = ["nconv.closure[0<1]", "nconv.dom-idem-leq[0<1]",
              "nconv.dom-product[0]", "nconv.dom-product[1]",
              "nconv.star-domain[0<1]", "nconv.interchange[0<1]",
              "nconv.dom-absorb[0<1]"]
    problems = [law for law in needed if rep.law(law).status != PASS]
    if not rep.clean:
        problems.append(str(rep.failed_laws()))
    _report(7, "n=2 boolean bundle: all n-semiring axioms incl. closures, "
               "Dom lemmas and both star-domain laws", not problems,
            "; ".join(problems))


def test_c08_independence():
    rep = verify_independence()
    problems = []
    for law, pair, values in (
        ("independence.model1.confirm-closure-dom", ("1_1", "1_1"), ("1_1", "a")),
        ("independence.model1.confirm-closure-cod", ("1_1", "1_1"), ("1_1", "a")),
        ("independence.model2.confirm-closure-cod", ("1_1", "a"), ("1_1", "b")),
    ):
        e = rep.law(law)
        if e.status != PASS or not any(w[:2] == pair and w[-1] == values
                                       for w in e.witnesses):
            problems.append(f"{law}: witness {pair}->{values} not confirmed")
    # deviations from the claimed pattern must be reported as diffs, never
    # silently repaired: the suspect printed cells are still in force
    diffs = [e for e in rep.entries if e.status == INFO and ".diff." in e.law]
    if not any("model1.diff" in e.law for e in diffs):
        problems.append("model 1 deviations not reported")
    if not any("model2.diff.nsr.closure-dom" in e.law for e in diffs):
        problems.append("model 2 dom-closure deviation not reported")
    from convka.lab import appendix_b_model
    if appendix_b_model(1).dims[1].mul("a", "0") != "a":
        problems.append("model 1 table was repaired")
    _report(8, "Appendix-table independence fixtures: claimed witnesses "
               "confirmed exactly, deviations reported as table diffs",
            not problems, "; ".join(problems))


def test_c09_power_join_star():
    problems = []
    rep = verify_quantale_star(models.free_monoid("ab", 4), make_boolean(),
                               random.Random("c9:w"), samples=50)
    if not rep.clean:
        problems.append(f"words/boolean: {rep.failed_laws()}")
    rep = verify_quantale_star(models.interval_catoid(models.example_poset()),
                               three_chain_quantale(),
                               random.Random("c9:i"), samples=50)
    if not rep.clean:
        problems.append(f"intervals/3-chain: {rep.failed_laws()}")
    _report(9, "power-join star equals recursive star on (words,boolean) and "
               "(intervals,3-chain), 50 random f each", not problems,
            "; ".join(problems))


def test_c10_conway():
    K = make_nat_inf_conway()
    ok_nonidem = K.add(2, 2) == 4 and not K.idempotent_add
    rep = check_conway(models.free_monoid("ab", 4), K,
                       random.Random("c10"), samples=100)
    _report(10, "all four Conway identities on (words <= 4, naturals+inf), "
                "100 random pairs; addition non-idempotent (2+2=4)",
            rep.clean and ok_nonidem, str(rep.failed_laws()))


def test_c11_path_cli(tmp_path, capsys):
    problems = []
    B = make_boolean()
    rng = random.Random("c11")
    for _ in range(100):
        n = rng.randint(1, 6)
        M = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if matrix_star(B, M) != warshall_closure(M):
            problems.append("matrix star != Warshall closure")
            break

    K = make_min_plus()
    for seed in range(8):
        g = models.random_dag(6, density=0.5, seed=seed)
        _, M = edge_weight_matrix(g, K)
        S = matrix_star(K, M)
        if S != floyd_warshall(M):
            problems.append(f"seed {seed}: matrix star != Floyd-Warshall")
        C = models.path_catoid(g, max(1, g.longest_path_len()))
        table = {e: K.one for e in C.identities()}
        for name, src, dst, w in g.edges:
            table[(src, (name,))] = w
        agg = homset_matrix(C, star_recursive(from_pairs(C, K, table)), K)
        if agg != S:
            problems.append(f"seed {seed}: homset aggregation != matrix star")

    p = tmp_path / "pairs.txt"
    p.write_text("a,b 1\nb,a 1\n")
    code = main(["star", "--model", "pairs", "--algebra", "boolean",
                 "--star", "recursive", "--weights", str(p)])
    err = capsys.readouterr().err
    if code != 3 or "Moebius condition (2)" not in err:
        problems.append(f"pairs exit code {code}, message {err!r}")
    _report(11, "matrix star vs Warshall (100 random boolean) and "
                "Floyd-Warshall + homset aggregation (min-plus DAGs); "
                "pairs model exits 3", not problems, "; ".join(problems))
