"""Verification campaigns: independence fixtures, quantale-star oracle, suites.

The two embedded independence models are encoded cell-for-cell as printed in
their source tables, including the entries our own checks flag as broken.
``verify_independence`` never repairs a table: it confirms the claimed
failure witnesses and reports every deviation from the claimed pattern as an
explicit diff line.
"""

from __future__ import annotations

import random

from . import models
from .catoid import (
    Catoid,
    check_catoid_axioms,
    check_decompose2_consistency,
    check_moebius,
    check_saturated_chain,
    is_functional,
    is_local,
)
from .convolution import (
    check_conway,
    check_kat,
    conv_add,
    convolve,
    first_difference,
    function_leq,
    functions_equal,
    id0,
    random_function,
    star_dual,
    star_recursive,
    star_unfolded,
)
from .higher import (
    NConvolution,
    check_interchange,
    check_n_axioms,
    check_n_catoid,
)
from .modal import check_modal
from .report import FAIL, INFO, PASS, XFAIL, Report
from .values import (
    SIDES,
    CapabilityError,
    ValueAlgebra,
    check_value_axioms,
    load_finite_algebra,
    make_boolean,
    make_boolean_nd,
    make_min_plus,
    make_nat_inf_conway,
)

# Two 2-fold modal semirings witnessing (in)dependence of the closure axioms.
# Tables transcribed cell-for-cell from their printed source; several printed
# cells are internally inconsistent (see verify_independence), and they are
# deliberately NOT corrected here.

APPENDIX_B_MODEL_1 = """
# four-element chain 0 < 1_0 < 1_1 < a, add = join
carrier: 0 1_0 1_1 a
order: 0 < 1_0 < 1_1 < a
mul0:
0 0 0 0
0 1_0 1_1 a
0 1_1 a a
0 a a a
mul1:
0 0 0 0
0 1_0 1_0 1_0
0 1_0 1_1 a
a 0 a a
one0: 1_0
one1: 1_1
dom0: 0 1_0 1_0 1_0
cod0: 0 1_0 1_0 1_0
dom1: 0 1_0 1_1 1_1
cod1: 0 1_0 1_1 1_1
"""

APPENDIX_B_MODEL_2 = """
# five elements, 0 < 1_0 < {a, 1_1} < b with a and 1_1 incomparable
carrier: 0 1_0 a 1_1 b
add:
0 1_0 a 1_1 b
1_0 1_0 a 1_1 b
a a a b b
1_1 1_1 b 1_1 b
b b b b b
mul0:
0 0 0 0 0
0 1_0 a 1_1 b
0 a a b b
0 1_1 b b b
0 b b b b
mul1:
0 0 0 0 0
0 1_0 a 1_0 a
0 1_0 a a a
0 1_0 a 1_1 b
0 1_0 a b b
one0: 1_0
one1: 1_1
dom0: 0 1_0 1_0 1_0 1_0
cod0: 0 1_0 1_0 1_0 1_0
dom1: 0 1_0 1_0 1_1 1_1
cod1: 0 1_0 1_1 1_1 1_1
"""

THREE_CHAIN_QUANTALE = """
# 0 < 1 < T with T.T = T; the unit sits below the top
carrier: 0 1 T
order: 0 < 1 < T
mul:
0 0 0
0 1 T
0 T T
one: 1
"""

# Three-element chain 0 < 1 < a with a.a = 0 and the forced candidate
# dom(a) = 1: the standard witness that not every dioid-like table extends
# to a modal semiring.
NEGATIVE_CONTROL_DIOID = """
carrier: 0 1 a
order: 0 < 1 < a
mul:
0 0 0
0 1 a
0 a 0
one: 1
dom: 0 1 1
cod: 0 1 1
"""


def appendix_b_model(which: int):
    text = {1: APPENDIX_B_MODEL_1, 2: APPENDIX_B_MODEL_2}[which]
    alg = load_finite_algebra(text)
    return alg


def three_chain_quantale() -> ValueAlgebra:
    return load_finite_algebra(THREE_CHAIN_QUANTALE).with_quantale_star()


def negative_control_dioid() -> ValueAlgebra:
    return load_finite_algebra(NEGATIVE_CONTROL_DIOID)


# claimed failure patterns for the independence models
_CLAIMED = {
    1: {
        "failing": {"nsr.closure-dom[0<1]", "nsr.closure-cod[0<1]"},
        "witness_pair": ("1_1", "1_1"),
        "witness_values": ("1_1", "a"),  # d_1 of the product vs the product
    },
    2: {
        "failing": {"nsr.closure-cod[0<1]"},
        "witness_pair": ("1_1", "a"),
        "witness_values": ("1_1", "b"),
    },
}


def verify_independence() -> Report:
    """Exhaustive n-semiring runs over both embedded models.

    Confirms the claimed closure failures (with their exact witness values)
    and emits one diff line per law whose computed status deviates from the
    claimed pattern.  Tables are used exactly as embedded.
    """
    rep = Report(model="independence")
    for which in (1, 2):
        alg = appendix_b_model(which)
        sub = check_value_axioms(alg, "n_semiring")
        claimed = _CLAIMED[which]
        tag = f"independence.model{which}"

        for law in sorted(claimed["failing"]):
            entry = sub.law(law)
            kind = "dom" if "dom" in law else "cod"
            hit = [w for w in entry.witnesses if w[-1] == claimed["witness_values"]]
            pair_hit = [w for w in entry.witnesses if w[:2] == claimed["witness_pair"]]
            ok = entry.status == FAIL and hit and pair_hit
            # a confirmed failure passes and shows the witness that confirms it
            rep.add(f"{tag}.confirm-closure-{kind}",
                    pair_hit[:1] or hit[:1] or entry.witnesses[:1], checked=entry.checked,
                    note=f"d_1 value {claimed['witness_values'][0]} vs "
                         f"{claimed['witness_values'][1]}",
                    status=PASS if ok else FAIL)

        actual = sub.failed_laws()
        unexpected_fail = sorted(actual - claimed["failing"])
        unexpected_pass = sorted(claimed["failing"] - actual)
        for law in unexpected_fail:
            entry = sub.law(law)
            rep.add(f"{tag}.diff.{law}", entry.witnesses[:4], checked=entry.checked,
                    note="deviation: fails but claimed passing (table kept as printed)",
                    status=INFO)
        for law in unexpected_pass:
            rep.add(f"{tag}.diff.{law}",
                    note="deviation: passes but claimed failing (table kept as printed)",
                    status=INFO)
        exact = not unexpected_fail and not unexpected_pass
        rep.add(f"{tag}.pattern-match", checked=len(sub.entries),
                note="exact" if exact else (f"{len(unexpected_fail)} unexpected failures, "
                                            f"{len(unexpected_pass)} unexpected passes"),
                status=PASS if exact else INFO)
    return rep


# ---------------------------------------------------------------------------
# quantale star oracle


def conv_powers_sum(f):
    """Partial sums of convolution powers until pointwise stabilisation.

    sum(i<=n) f^i is monotone; once one step adds nothing the limit is
    reached, since every later power stays below the stable sum.
    """
    C, K = f.catoid, f.algebra
    if not K.is_finite or not K.idempotent_add:
        raise CapabilityError(f"{K.name}: power-join star needs a finite quantale")
    U = C.elements()
    acc = id0(C, K)
    power = id0(C, K)
    for _ in range(len(K.carrier) * len(U) + 1):
        power = convolve(f, power)
        nxt = conv_add(acc, power)
        if functions_equal(nxt, acc):
            return acc
        acc = nxt
    raise CapabilityError("power joins did not stabilise within the iteration cap")


def verify_quantale_star(C: Catoid, Q: ValueAlgebra, rng, samples=50) -> Report:
    """Power-join star versus the recursive star, pointwise, for sampled f.

    Also spot-checks the power decomposition: for n <= 4 and non-identities x,
    f^n(x) equals the join over 2-decompositions (y,z) of x with y != s(x) and
    i < n of f^i(s(x)) . f(y) . f^(n-1-i)(z).
    """
    rep = Report(model=C.name, algebra=Q.name)
    C.require_moebius()
    U = C.elements()

    bad = []
    for k in range(samples):
        f = random_function(C, Q, rng)
        d = first_difference(conv_powers_sum(f), star_recursive(f))
        if d:
            bad.append((k, C.format_element(d[0]), d[1], d[2]))
    rep.add("quantale.power-join-eq", bad, checked=samples * len(U))

    bad = []
    checked = 0
    for k in range(max(3, samples // 10)):
        f = random_function(C, Q, rng)
        powers = [id0(C, Q)]
        for _ in range(4):
            powers.append(convolve(f, powers[-1]))
        for n in range(1, 5):
            for x in U:
                if C.is_identity(x):
                    continue
                checked += 1
                s = C.source(x)
                acc = Q.zero
                for y, z in C.decompose2(x):
                    if y == s:
                        continue
                    for i in range(n):
                        acc = Q.add(acc, Q.mul(Q.mul(powers[i](s), f(y)),
                                               powers[n - 1 - i](z)))
                if acc != powers[n](x):
                    bad.append((k, n, C.format_element(x), acc, powers[n](x)))
    rep.add("quantale.power-decomposition", bad, checked=checked)
    return rep


# ---------------------------------------------------------------------------
# campaign driver


def _rng(seed, cell: str) -> random.Random:
    return random.Random(f"{seed}:{cell}")


def _expect_failures(rep: Report, laws, note: str) -> Report:
    """Flip known failures to xfail; an expected failure that passes is a fail."""
    for e in rep.entries:
        if e.law in laws:
            if e.status == FAIL:
                e.status = XFAIL
                e.note = (e.note + " " if e.note else "") + note
            elif e.status == PASS:
                e.status = FAIL
                e.note = "expected failure did not occur"
    return rep


def _model_catalog():
    return {
        "words": models.free_monoid("ab", 4),
        "shuffle": models.shuffle_catoid("ab", 4),
        "intervals": models.interval_catoid(models.example_poset()),
        "pairs": models.pair_groupoid(["a", "b"]),
        "paths": models.path_catoid(models.diamond_dag(), 4),
        "guarded": models.guarded_string_catoid(["t0", "t1"], ["p", "q"], 2),
    }


def _suite_catoid(seed, samples) -> Report:
    rep = Report()
    for name, C in _model_catalog().items():
        rep.merge(check_catoid_axioms(C))
        sub = check_moebius(C)
        if name == "pairs":
            _expect_failures(sub, {"moebius.identities-indecomposable"},
                             "pair groupoids are not Moebius")
        rep.merge(sub)
        sub = is_local(C)
        if not C.is_complete:
            _expect_failures(sub, {"catoid.local"}, "composition truncated at the bound")
        rep.merge(sub)
        sub = is_functional(C)
        if name == "shuffle":
            _expect_failures(sub, {"catoid.functional"}, "shuffles are multi-valued")
        rep.merge(sub)
        rep.merge(check_decompose2_consistency(C))
        if name != "pairs":
            sub = check_saturated_chain(C)
            if name == "intervals":
                _expect_failures(sub, {"moebius.saturated-chain"},
                                 "interval length is superadditive here")
            rep.merge(sub)
    return rep


def _kleene_cells(seed):
    yield "words", models.free_monoid("ab", 4), make_min_plus()
    yield "paths", models.path_catoid(models.random_dag(8, seed=seed), 8), make_min_plus()
    yield "guarded", models.guarded_string_catoid(["t0", "t1"], ["p", "q"], 3), make_boolean()


def check_kleene_convolution(C, K, rng, samples) -> Report:
    """Star unfold equality, both induction laws, and triple star agreement."""
    rep = Report(model=C.name, algebra=K.name)
    U = C.elements()
    unit = id0(C, K)
    bad_unfold, bad_triple, bad_induct = [], [], {side: [] for side, _, _ in SIDES}
    triples = min(samples, max(3, samples // 2))  # samples whose three stars are compared
    for k in range(samples):
        f = random_function(C, K, rng)
        h = random_function(C, K, rng)
        fs = star_recursive(f)
        d = first_difference(conv_add(unit, convolve(f, fs)), fs)
        if d:
            bad_unfold.append((k, C.format_element(d[0]), d[1], d[2]))
        for side, _, mirror in SIDES:  # the right law is the left in the opposite product
            g = convolve(*mirror(fs, h))  # f*g <= g by construction
            if not function_leq(convolve(*mirror(f, g)), g):
                bad_induct[side].append((k, "antecedent"))
            elif not function_leq(convolve(*mirror(fs, g)), g):
                bad_induct[side].append((k,))
        if k < triples:
            fd, fu = star_dual(f), star_unfolded(f)
            if not functions_equal(fs, fd) or not functions_equal(fs, fu):
                bad_triple.append((k,))
    rep.add("conv.star-unfold", bad_unfold, checked=samples * len(U))
    for side, bad in bad_induct.items():
        rep.add(f"conv.star-induct-{side}", bad, checked=samples)
    rep.add("conv.star-triple-agree", bad_triple, checked=triples * len(U))
    return rep


def _suite_kleene(seed, samples) -> Report:
    rep = Report()
    for cell, C, K in _kleene_cells(seed):
        rep.merge(check_kleene_convolution(C, K, _rng(seed, "kleene:" + cell), samples))
    return rep


def _suite_kat(seed, samples) -> Report:
    C = models.guarded_string_catoid(["t0", "t1"], ["p", "q"], 2)
    return check_kat(C, make_boolean(), _rng(seed, "kat"), samples=samples)


def _suite_modal(seed, samples) -> Report:
    rep = Report()
    paths = models.path_catoid(models.diamond_dag(), 4)
    rep.merge(check_modal(paths, make_boolean(), "hat", _rng(seed, "modal:hat"),
                          samples=min(12, samples)))
    words = models.free_monoid("ab", 3)
    rep.merge(check_modal(words, make_boolean(), "bracket", _rng(seed, "modal:bracket"),
                          samples=min(12, samples)))
    # the control tests a value table, not the sample budget: 12 samples
    # raise both local failures on each of seeds 1-300, fewer can miss them
    control = check_modal(models.path_catoid(models.two_edge_path_graph(), 4),
                          negative_control_dioid(), "hat",
                          _rng(seed, "modal:control"), samples=12)
    _expect_failures(control, {"modal.dom-local", "modal.cod-local"},
                     "value table cannot extend to a modal semiring")
    rep.merge(control)
    return rep


def _suite_interchange(seed, samples) -> Report:
    tc = models.shuffle_concat_2catoid("ab", 4)
    rep = check_n_catoid(tc)
    bundle = NConvolution(tc, make_boolean_nd(2))
    rep.merge(check_interchange(bundle, _rng(seed, "interchange"), samples=samples))
    return rep


def _suite_nka(seed, samples) -> Report:
    sq = models.pasting_square_2category()
    rep = check_n_catoid(sq)
    bundle = NConvolution(sq, make_boolean_nd(2))
    rep.merge(check_n_axioms(bundle, _rng(seed, "nka"), samples=samples))
    return rep


def _suite_conway(seed, samples) -> Report:
    C = models.free_monoid("ab", 4)
    return check_conway(C, make_nat_inf_conway(), _rng(seed, "conway"), samples=samples)


def _suite_quantale(seed, samples) -> Report:
    rep = Report()
    rep.merge(verify_quantale_star(models.free_monoid("ab", 4), make_boolean(),
                                   _rng(seed, "quantale:words"), samples=samples))
    rep.merge(verify_quantale_star(models.interval_catoid(models.example_poset()),
                                   three_chain_quantale(),
                                   _rng(seed, "quantale:intervals"), samples=samples))
    return rep


_SUITE_FN = {
    "catoid": _suite_catoid,
    "kleene": _suite_kleene,
    "kat": _suite_kat,
    "modal": _suite_modal,
    "interchange": _suite_interchange,
    "nka": _suite_nka,
    "conway": _suite_conway,
    "independence": lambda seed, samples: verify_independence(),
    "quantale": _suite_quantale,
}
SUITES = (*_SUITE_FN, "all")


def run_campaign(suite: str, seed: int, samples: int) -> Report:
    """Run one suite, or every suite for "all"; deterministic for fixed arguments."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    rep = Report()
    for name in _SUITE_FN if suite == "all" else [suite]:
        rep.merge(_SUITE_FN[name](seed, samples))
    return rep
