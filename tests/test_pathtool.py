import dataclasses
import functools
import io
import os
import random
import signal
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from convka import cli, models, pathtool
from convka.cli import ALGEBRAS, MODELS, STAR_MODES, main
from convka.convolution import from_pairs, star_recursive, zero_function
from convka.pathtool import (
    ParseError,
    edge_weight_matrix,
    floyd_warshall,
    homset_matrix,
    mat_power_star,
    matrix_star,
    parse_graph,
    parse_poset,
    parse_weight_token,
    parse_weights,
    validate_weight,
    warshall_closure,
)
from convka.values import (CapabilityError, INF, NEG_INF, make_boolean, make_max_plus,
                           make_min_plus, make_nat_inf_conway)
from relations import make_relations


def test_matrix_star_1x1():
    assert matrix_star(make_min_plus(), [[5]]) == [[0]]
    assert matrix_star(make_boolean(), [[0]]) == [[1]]


def test_matrix_star_three_cycle_boolean():
    M = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    B = make_boolean()
    assert matrix_star(B, M) == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
    assert warshall_closure(M) == matrix_star(B, M)


def test_matrix_star_two_edge_minplus():
    M = [[INF, 2, INF], [INF, INF, 3], [INF, INF, INF]]
    S = matrix_star(make_min_plus(), M)
    assert S[0][2] == 5
    assert S[0][0] == 0
    assert S == floyd_warshall(M)


def test_an_int_past_the_float_range_meets_a_missing_edge():
    # Python adds an int to a float by converting the int, which fails for
    # 10**400; the missing edge 1 -> 0 weighs inf and absorbs it
    big = 10**400
    M = [[INF, big], [INF, INF]]
    assert floyd_warshall(M) == matrix_star(make_min_plus(), M) == [[0, big], [INF, 0]]


def test_matrix_star_vs_warshall_random():
    rng = random.Random(42)
    B = make_boolean()
    for _ in range(60):
        n = rng.randint(1, 6)
        M = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        assert matrix_star(B, M) == warshall_closure(M)


def test_matrix_star_vs_floyd_warshall_random():
    rng = random.Random(43)
    K = make_min_plus()
    for _ in range(60):
        n = rng.randint(1, 6)
        M = [[(rng.randint(0, 9) if rng.random() < 0.5 else INF)
              for _ in range(n)] for _ in range(n)]
        S = matrix_star(K, M)
        assert S == floyd_warshall(M)
        assert S == mat_power_star(K, M)


@pytest.mark.parametrize("make", [make_relations, make_max_plus], ids=lambda m: m.__name__)
def test_matrix_star_equals_power_sum_star(make):
    # relations compose in order, so a block product taken the wrong way round shows
    K = make()
    rng = random.Random(f"power-sum:{K.name}")
    weights = [w for w in K.pool() if w != K.zero]
    for _ in range(300):
        n = rng.randint(1, 5)
        M = [[K.zero if rng.random() < 0.5 else rng.choice(weights) for _ in range(n)]
             for _ in range(n)]
        assert matrix_star(K, M) == mat_power_star(K, M), M


def test_matrix_star_needs_star():
    K = make_boolean()
    object.__setattr__(K, "star", None)
    with pytest.raises(CapabilityError):
        matrix_star(K, [[1]])
    # the power-sum oracle needs an idempotent addition, which natinf lacks
    with pytest.raises(CapabilityError, match="^power-sum star needs an idempotent algebra$"):
        mat_power_star(make_nat_inf_conway(), [[1]])


@pytest.mark.parametrize("M", [[], [[]], [[0, 1]], [[0, 1], [1]], [[0], [1]]],
                         ids=["empty", "empty-row", "wide", "ragged", "tall"])
def test_matrix_star_needs_a_square_matrix(M):
    with pytest.raises(ValueError, match="matrix must be square and at least 1x1"):
        matrix_star(make_boolean(), M)


def test_homset_aggregation_equals_matrix_star():
    g = models.random_dag(6, density=0.5, seed=9)
    K = make_min_plus()
    C = models.path_catoid(g, g.longest_path_len())
    table = {e: K.one for e in C.identities()}
    for name, src, dst, w in g.edges:
        table[(src, (name,))] = w
    f = from_pairs(C, K, table)
    agg = homset_matrix(C, star_recursive(f), K)
    _, E = edge_weight_matrix(g, K)
    assert agg == matrix_star(K, E)
    unweighted = models.GraphSpec(("a", "b"), (("x", "a", "b", 1), ("y", "a", "b", None)))
    with pytest.raises(ValueError, match=r"^edge y has no weight$"):
        edge_weight_matrix(unweighted, K)


def test_homset_aggregation_rejects_truncated():
    g = models.GraphSpec(("a", "b"), (("x", "a", "b", 1), ("y", "b", "a", 1)))
    C = models.path_catoid(g, 4)
    K = make_min_plus()
    f = from_pairs(C, K, {e: K.one for e in C.identities()})
    with pytest.raises(CapabilityError, match="complete"):
        homset_matrix(C, f, K)


# ---------------------------------------------------------------------------
# parsers


def test_parse_graph():
    g = parse_graph("a b x 2\nb c y 3\n# comment\nvertex d\n")
    assert ("x", "a", "b", 2) in g.edges
    assert "d" in g.vertices
    with pytest.raises(ParseError, match="duplicate"):
        parse_graph("a b x 2\nb c x 3\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("a b\n")
    with pytest.raises(ParseError, match=r"^line 1: vertex takes one name$"):
        parse_graph("vertex a b\n")


def test_parse_graph_reads_weight_tokens_like_the_other_parsers():
    # one token parser for every input: inf parses, a bad token is a ParseError
    assert parse_graph("a b x inf\n").edges == (("x", "a", "b", INF),)
    with pytest.raises(ParseError, match="line 1: bad weight token '1.5'"):
        parse_graph("a b x 1.5\n")
    with pytest.raises(ParseError, match=r"^line 1: bad weight token '1_0'$"):
        parse_graph("a b x 1_0\n")


@pytest.mark.parametrize("tok", ["1_0", "\u0663", "1 ", "1" * 5000, "nan", "NaN", "infinity",
                                 "Infinity", "+inf", "INF", "1e3", "1.0", "-0.0"])
def test_parse_weight_token_reads_only_ascii_integers(tok):
    # int() reads 1_0 as 10, the Arabic-Indic digit three as 3 and "1 " as 1,
    # and past 4300 digits it raises a ValueError of its own; float() reads
    # every other spelling here, but the only floats a weight may be are inf
    # and -inf, spelt so
    with pytest.raises(ParseError, match=r"^bad weight token "):
        parse_weight_token(tok)
    assert [parse_weight_token(t) for t in ("7", "+7", "-7", "007", "inf", "-inf")] == \
        [7, 7, -7, 7, INF, NEG_INF]


def test_parse_poset():
    spec, weights = parse_poset("a < b\nb < c\na c 7\n")
    assert ("a", "b") in spec.covers
    assert weights[("a", "c")] == 7
    with pytest.raises(ParseError, match="cyclic"):
        parse_poset("a < b\nb < a\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_poset("a < b\na < b\n")


def test_parse_weights():
    w = parse_weights("eps 0\nab 4\nb inf\n")
    assert w == {"eps": 0, "ab": 4, "b": INF}
    with pytest.raises(ParseError, match="duplicate"):
        parse_weights("a 1\na 2\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_weights("a\n")


@pytest.mark.parametrize("model, text", [("words", "a 1\nb 1_0\n"),
                                         ("poset", "a < b\na b 1_0\n")])
def test_cli_names_the_line_of_a_bad_weight_token(model, text, tmp_path, capsys):
    # each parser reads a weight on its own line, as parse_graph does
    p = tmp_path / "weights.txt"
    p.write_text(text)
    assert main(["star", "--model", model, "--algebra", "minplus", "--weights", str(p)]) == 2
    assert capsys.readouterr() == ("", "pathtool: line 2: bad weight token '1_0'\n")


def test_validate_weight():
    with pytest.raises(ParseError, match="carrier"):
        validate_weight(make_boolean(), 5)
    with pytest.raises(ParseError, match="carrier"):
        validate_weight(make_min_plus(), -3)
    assert validate_weight(make_min_plus(), INF) == INF


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "graph.txt"
    p.write_text("a b x 2\nb c y 3\n")
    return str(p)


def test_cli_star_graph_recursive(graph_file, capsys):
    assert main(["star", "--model", "graph", "--algebra", "minplus",
                 "--star", "recursive", "--weights", graph_file]) == 0
    out = capsys.readouterr().out
    assert "[x,y]\t5" in out.splitlines()


def test_cli_star_graph_matrix(graph_file, capsys):
    assert main(["star", "--model", "graph", "--algebra", "minplus",
                 "--star", "matrix", "--weights", graph_file]) == 0
    out = capsys.readouterr().out
    assert "a->c\t5" in out.splitlines()
    assert "b->a\tinf" in out.splitlines()


def test_cli_star_closes_the_weight_file(graph_file, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["star", "--model", "graph", "--algebra", "minplus",
                     "--weights", graph_file]) == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_cli_star_deterministic_output(graph_file, capsys):
    args = ["star", "--model", "graph", "--algebra", "minplus",
            "--star", "recursive", "--weights", graph_file]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_cli_pairs_recursive_exits_3(tmp_path, capsys):
    p = tmp_path / "pairs.txt"
    p.write_text("a,b 1\nb,a 1\n")
    code = main(["star", "--model", "pairs", "--algebra", "boolean",
                 "--star", "recursive", "--weights", str(p)])
    assert code == 3
    err = capsys.readouterr().err
    assert "Moebius condition (2)" in err and "identity decomposable" in err


def test_cli_star_without_a_star_operation_exits_3(tmp_path, capsys, monkeypatch):
    p = tmp_path / "w.txt"
    p.write_text("a 1\n")
    monkeypatch.setitem(cli.ALGEBRAS, "boolean",
                        lambda: dataclasses.replace(make_boolean(), star=None))
    assert main(["star", "--model", "words", "--algebra", "boolean",
                 "--weights", str(p)]) == 3
    assert capsys.readouterr() == ("", "pathtool: boolean: no star operation\n")


def test_cli_words_star(tmp_path, capsys):
    p = tmp_path / "w.txt"
    p.write_text("eps inf\na 2\nb 3\n")
    assert main(["star", "--model", "words", "--algebra", "minplus",
                 "--max-length", "3", "--star", "recursive",
                 "--weights", str(p), "--check-oracles"]) == 0
    out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert out["eps"] == "0"      # star of the additive zero is the unit
    assert out["ab"] == "5"
    assert out["aa"] == "4"


def test_cli_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("a b\n")
    code = main(["star", "--model", "graph", "--algebra", "minplus",
                 "--weights", str(p)])
    assert code == 2
    assert "expected" in capsys.readouterr().err


@pytest.mark.parametrize("algebra, tok", [("minplus", "-inf"), ("natinf", "-inf"),
                                          ("maxplus", "inf"), ("boolean", "inf")])
def test_cli_refuses_an_infinity_outside_the_carrier(algebra, tok, tmp_path, capsys):
    # inside the library such a weight would meet the other infinity in IEEE
    # arithmetic, where inf + -inf is nan
    p = tmp_path / "weights.txt"
    p.write_text(f"a {tok}\n")
    assert main(["star", "--model", "words", "--algebra", algebra, "--weights", str(p)]) == 2
    assert capsys.readouterr() == ("", f"pathtool: weight {tok} is outside the {algebra} carrier\n")


def test_cli_star_adds_an_int_past_the_float_range_to_inf(tmp_path, capsys):
    # f*(ba) = f(b) + f*(a) = 10**400 + inf, and every star form agrees
    big = 10**400
    p = tmp_path / "weights.txt"
    p.write_text(f"a inf\nb {big}\n")
    assert main(["star", "--model", "words", "--max-length", "2", "--algebra", "minplus",
                 "--weights", str(p), "--check-oracles"]) == 0
    assert capsys.readouterr() == (
        f"eps\t0\na\tinf\nb\t{big}\naa\tinf\nab\tinf\nba\tinf\nbb\t{2 * big}\n", "")


def test_cli_bad_weight_domain_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("a b x -4\n")
    code = main(["star", "--model", "graph", "--algebra", "minplus",
                 "--weights", str(p)])
    assert code == 2
    assert "carrier" in capsys.readouterr().err


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["star", "--model", "nonsense", "--algebra", "minplus",
              "--weights", "x"])
    assert exc.value.code == 2


def test_cli_check_oracles_on_dag(tmp_path, capsys):
    g = models.random_dag(6, density=0.5, seed=4)
    lines = [f"{src} {dst} {name} {w}" for name, src, dst, w in g.edges]
    p = tmp_path / "dag.txt"
    p.write_text("\n".join(lines) + "\n")
    assert main(["star", "--model", "graph", "--algebra", "minplus",
                 "--star", "recursive", "--weights", str(p),
                 "--check-oracles"]) == 0


def test_cli_check_oracles_on_multivalued_shuffle(tmp_path, capsys):
    # shuffle is multi-valued and natinf counts: the unfolded oracle must
    # count one term per chain of intermediate products, as the recursion does
    p = tmp_path / "w.txt"
    p.write_text("a 1\nb 2\nab 1\n")
    assert main(["star", "--model", "shuffle", "--algebra", "natinf",
                 "--max-length", "3", "--weights", str(p), "--check-oracles"]) == 0


def test_cli_star_modes_agree(graph_file, capsys):
    outs = []
    for mode in ("recursive", "dual", "unfolded"):
        assert main(["star", "--model", "graph", "--algebra", "minplus",
                     "--star", mode, "--weights", graph_file]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("star", ["recursive", "matrix"])
def test_cli_check_oracles_graph_natinf(graph_file, star, capsys):
    # the recursive star of graph weights (identities weigh 1) multiplies in
    # boundary stars 1* = inf under natinf, so it is inf everywhere while the
    # printed matrix star is not; the homset oracle compares it with the
    # matrix star of the weights' own aggregation
    assert main(["star", "--model", "graph", "--algebra", "natinf", "--star", star,
                 "--weights", graph_file, "--check-oracles"]) == 0
    assert capsys.readouterr().err == ""


EDGE_WEIGHTS = {"boolean": ("0", "1"), "minplus": ("0", "1", "2", "5", "inf"),
                "maxplus": ("0", "-1", "-3", "-inf"), "natinf": ("0", "1", "2", "3", "inf")}


def test_cli_check_oracles_fails_when_a_star_form_disagrees(graph_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "star_dual", lambda f: zero_function(f.catoid, f.algebra))
    assert main(["star", "--model", "graph", "--algebra", "minplus", "--star", "recursive",
                 "--weights", graph_file, "--check-oracles"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "pathtool: oracle disagreement: recursive vs dual\n")


def test_cli_check_oracles_fails_on_a_wrong_homset_aggregation(graph_file, monkeypatch, capsys):
    calls = []

    def perturbed(C, f, K):
        M = homset_matrix(C, f, K)
        calls.append(f)
        if len(calls) == 1:  # the star's aggregation; the second call aggregates f
            M[0][0] += 1  # the identity at a: 0 becomes 1
        return M

    monkeypatch.setattr(cli, "homset_matrix", perturbed)
    assert main(["star", "--model", "graph", "--algebra", "minplus", "--star", "recursive",
                 "--weights", graph_file, "--check-oracles"]) == 1
    out, err = capsys.readouterr()
    assert len(calls) == 2
    assert (out, err) == ("", "pathtool: oracle disagreement: homset aggregation vs matrix star\n")


@pytest.mark.parametrize("algebra", sorted(EDGE_WEIGHTS))
def test_cli_check_oracles_on_random_acyclic_graphs(algebra, tmp_path, capsys):
    rng = random.Random(f"acyclic-{algebra}")
    p = tmp_path / "dag.txt"
    for _ in range(12):
        n = rng.randint(2, 5)
        lines = [f"vertex v{i}" for i in range(n)]
        for e in range(rng.randint(1, 2 * n)):  # pairs may repeat: parallel edges
            i, j = sorted(rng.sample(range(n), 2))
            lines.append(f"v{i} v{j} e{e} {rng.choice(EDGE_WEIGHTS[algebra])}")
        p.write_text("\n".join(lines) + "\n")
        for star in ("recursive", "matrix"):
            code = main(["star", "--model", "graph", "--algebra", algebra, "--star", star,
                         "--weights", str(p), "--check-oracles"])
            assert code == 0, (star, lines, capsys.readouterr().err)
        capsys.readouterr()


def test_cli_matrix_star_builds_no_path_catoid(graph_file, monkeypatch, capsys):
    args = ["star", "--model", "graph", "--algebra", "minplus", "--star", "matrix",
            "--max-length", "7", "--weights", graph_file]
    assert main(args) == 0
    rows = capsys.readouterr().out

    def refuse(*_):
        raise AssertionError("the plain matrix star needs no path catoid")

    monkeypatch.setattr(models, "path_catoid", refuse)
    assert main(args) == 0
    assert capsys.readouterr().out == rows
    with pytest.raises(AssertionError, match="no path catoid"):
        main(args + ["--check-oracles"])


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls, inner = [], getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_cli_check_oracles_reuses_the_printed_star(graph_file, monkeypatch, capsys):
    matrix_calls = counting(monkeypatch, cli, "matrix_star")
    star_calls = counting(monkeypatch, cli, "star_recursive")
    args = ["star", "--model", "graph", "--algebra", "minplus", "--weights", graph_file,
            "--check-oracles"]
    assert main(args + ["--star", "matrix"]) == 0
    # the printed E* and the star of the aggregation I + E; E* is not recomputed
    assert len(matrix_calls) == 2 and len(star_calls) == 1
    matrix_calls.clear(), star_calls.clear()
    assert main(args + ["--star", "recursive"]) == 0
    assert len(matrix_calls) == 2 and len(star_calls) == 1
    assert capsys.readouterr().err == ""


CYCLIC_GRAPH = "a b x 1\nb c y 1\nc a z 1\n"


@pytest.mark.parametrize("algebra,oracle", [("minplus", "floyd_warshall"),
                                            ("boolean", "warshall_closure")])
@pytest.mark.parametrize("star", ["matrix", "recursive"])
def test_cli_check_oracles_compares_matrix_star_on_cyclic_graphs(
        algebra, oracle, star, tmp_path, monkeypatch, capsys):
    p = tmp_path / "cycle.txt"
    p.write_text(CYCLIC_GRAPH)
    args = ["star", "--model", "graph", "--algebra", algebra, "--star", star,
            "--weights", str(p), "--check-oracles"]
    assert main(args) == 0
    assert capsys.readouterr().err == "pathtool: note: homset comparison skipped, graph has a cycle\n"

    def wrong(M):
        rows = getattr(pathtool, oracle)(M)
        rows[0][1] = 0 if rows[0][1] else 1  # a wrong entry in either algebra
        return rows

    monkeypatch.setattr(cli, oracle, wrong)
    assert main(args) == 1
    assert "oracle disagreement: matrix star vs" in capsys.readouterr().err


def test_cli_check_oracles_catch_a_wrong_boolean_matrix_star_on_a_cyclic_graph(
        tmp_path, monkeypatch, capsys):
    # an all-ones matrix is reflexive and transitively closed, so only the
    # closure of the edges, not of the printed star, tells it is wrong
    p = tmp_path / "cycle.txt"
    p.write_text("a b x 1\nb a y 1\nc c z 0\n")
    monkeypatch.setattr(cli, "matrix_star", lambda K, E: [[K.one] * len(E) for _ in E])
    assert main(["star", "--model", "graph", "--algebra", "boolean", "--star", "matrix",
                 "--check-oracles", "--max-length", "2", "--weights", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "oracle disagreement: matrix star vs Warshall closure" in captured.err


def test_cli_graph_runs_one_kahn_pass_per_graph(graph_file, tmp_path, monkeypatch, capsys):
    # the bound, the path catoid's completeness and the homset comparison all
    # ask whether the graph is acyclic; they share one pass per GraphSpec
    passes, depths = [], models.GraphSpec._depths.func

    def counted(graph):
        passes.append(graph)
        return depths(graph)

    prop = functools.cached_property(counted)
    prop.__set_name__(models.GraphSpec, "_depths")
    monkeypatch.setattr(models.GraphSpec, "_depths", prop)
    cyclic = tmp_path / "cycle.txt"
    cyclic.write_text(CYCLIC_GRAPH)
    for weights in (graph_file, str(cyclic)):
        assert main(["star", "--model", "graph", "--algebra", "minplus", "--weights", weights,
                     "--check-oracles"]) == 0
    assert [g.is_acyclic() for g in passes] == [True, False]


def test_cli_cyclic_graph_refuses_max_length_below_one(tmp_path, capsys):
    # a universe without one-edge paths would leave every edge weight unused
    p = tmp_path / "cycle.txt"
    p.write_text(CYCLIC_GRAPH)
    for max_len in ("0", "-1"):
        assert main(["star", "--model", "graph", "--algebra", "minplus", "--max-length",
                     max_len, "--weights", str(p), "--check-oracles"]) == 2
        assert capsys.readouterr() == ("", "pathtool: need max_len >= 1\n")


@pytest.mark.parametrize("max_len", ["0", "-3"])
def test_cli_acyclic_graph_refuses_max_length_below_one(max_len, tmp_path, capsys):
    # the bound is raised to the longest path only from a valid bound
    p = tmp_path / "graph.txt"
    p.write_text("a b x 2\nb c y 3\n")
    assert main(["star", "--model", "graph", "--algebra", "minplus", "--max-length",
                 max_len, "--weights", str(p)]) == 2
    assert capsys.readouterr() == ("", "pathtool: need max_len >= 1\n")


def test_cli_prints_values_past_the_int_digit_limit(tmp_path, capsys):
    # (2**64)**300 has 5,780 digits, past Python's default limit of 4,300 on
    # int-to-str conversion; the limit is lifted for the output only
    p = tmp_path / "words.txt"
    p.write_text(f"a {2 ** 64}\n")
    limit = sys.get_int_max_str_digits()
    assert main(["star", "--model", "words", "--max-length", "300", "--algebra", "natinf",
                 "--weights", str(p)]) == 0
    assert sys.get_int_max_str_digits() == limit
    out, err = capsys.readouterr()
    assert err == ""
    label, value = out.splitlines()[-1].split("\t")
    sys.set_int_max_str_digits(0)
    try:
        assert (label, int(value)) == ("a" * 300, 2 ** 19200)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("max_len", ["0", "-1"])
def test_cli_guarded_refuses_max_length_below_one(max_len, tmp_path, capsys):
    # a universe of bare tests would leave every action out
    p = tmp_path / "guarded.txt"
    p.write_text("t0 1\n")
    assert main(["star", "--model", "guarded", "--algebra", "boolean", "--max-length",
                 max_len, "--weights", str(p)]) == 2
    assert capsys.readouterr() == ("", "pathtool: need max_len >= 1\n")


def test_cli_empty_poset_exits_2(tmp_path, capsys):
    p = tmp_path / "poset.txt"
    p.write_text("# no covers, vertices or weights\n")
    assert main(["star", "--model", "poset", "--algebra", "minplus", "--weights", str(p)]) == 2
    assert capsys.readouterr() == ("", "pathtool: empty poset\n")


def test_cli_poset_star(tmp_path, capsys):
    p = tmp_path / "poset.txt"
    p.write_text("a < b\nb < c\na b 2\nb c 3\na c 9\n")
    assert main(["star", "--model", "poset", "--algebra", "minplus",
                 "--star", "recursive", "--weights", str(p)]) == 0
    out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    # the two-step decomposition beats the direct weight: min(9, 2+3) via 0* factors
    assert out["[a,c]"] == "5"


def test_cli_poset_rejects_self_cover(tmp_path, capsys):
    p = tmp_path / "poset.txt"
    p.write_text("a < a\na < b\na b 3\n")
    assert main(["star", "--model", "poset", "--algebra", "minplus",
                 "--weights", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "self-cover a < a" in captured.err


def test_cli_matrix_requires_graph(tmp_path, capsys):
    # the usage error comes before the model: words up to length 40 over two
    # letters would be 2^41 elements
    p = tmp_path / "w.txt"
    p.write_text("a 1\nb 2\n")

    def stop(signum, frame):
        raise AssertionError("the usage error took more than a second")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        code = main(["star", "--model", "words", "--algebra", "boolean", "--star", "matrix",
                     "--max-length", "40", "--weights", str(p)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert (code, capsys.readouterr()) == (2, ("", "pathtool: --star matrix needs --model graph\n"))


@pytest.mark.parametrize("model,text,extra,message", [
    ("words", "", [], "cannot infer an alphabet from the weight file"),
    ("shuffle", "", [], "cannot infer an alphabet from the weight file"),
    ("guarded", "", [], "cannot infer tests from the weight file"),
    ("pairs", "", [], "cannot infer a point set from the weight file"),
    ("words", "abc 1\n", ["--max-length", "2"], "element 'abc' is outside the model universe"),
    ("guarded", "a.p 1\n", [], "element 'a.p' is outside the model universe"),
    ("pairs", "a,b,c 1\n", [], "element 'a,b,c': expected 'a,b'"),
    ("poset", "a < b\nb a 1\n", [], "interval b,a not in the interval set"),
    ("words", "a 1\n", ["--star", "matrix"], "--star matrix needs --model graph"),
    ("words", "a 2\n", [], "weight 2 is outside the boolean carrier"),
])
def test_cli_model_building_refusals(model, text, extra, message, tmp_path, capsys):
    p = tmp_path / "weights.txt"
    p.write_text(text)
    assert main(["star", "--model", model, "--algebra", "boolean", "--weights", str(p),
                 *extra]) == 2
    assert capsys.readouterr() == ("", f"pathtool: {message}\n")


def test_cli_check_suite(capsys):
    assert main(["check", "--suite", "independence"]) == 0
    out = capsys.readouterr().out
    assert "independence.model1.confirm-closure-dom" in out


def test_cli_check_determinism(capsys):
    main(["check", "--suite", "kleene", "--seed", "5", "--samples", "3"])
    first = capsys.readouterr().out
    main(["check", "--suite", "kleene", "--seed", "5", "--samples", "3"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("suite,samples", [("modal", "0"), ("all", "-3")])
def test_cli_check_rejects_nonpositive_samples(suite, samples, capsys):
    code = main(["check", "--suite", suite, "--samples", samples])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pathtool: samples must be at least 1")


def test_cli_closed_pipe_exits_quietly(tmp_path):
    # ~180 KB of rows, far past a 64 KiB pipe buffer, so a write after the
    # reader closes the pipe always fails
    p = tmp_path / "unary.txt"
    p.write_text("a 2\naaa 5\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "convka.cli", "star", "--model", "words",
         "--algebra", "minplus", "--max-length", "600", "--weights", str(p)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"eps\t0\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 0


def test_cli_check_all_stdout_is_byte_stable(capsys):
    # reference stdout of `pathtool check --suite all --seed 7 --samples 25`
    expected = (Path(__file__).parent / "data" / "check_all_seed7.txt").read_text()
    assert main(["check", "--suite", "all", "--seed", "7", "--samples", "25"]) == 0
    assert capsys.readouterr().out == expected


# weight-file lines over a fixed vocabulary: every model's element syntax
# (eps, dotted, comma), the graph and poset keywords, numbers no algebra
# accepts, and token soup; three lines in four have the drawn model's shape
FUZZ_ELEMENTS = ("a", "b", "ab", "eps", "t0.p.t1", "t1", "a,b", "b,a")
FUZZ_WEIGHTS = ("0", "1", "2", "-1", "inf", "-inf", "nan", "1e400", "1.5")
FUZZ_VERTICES = ("a", "b", "c")
_weight = st.sampled_from(FUZZ_WEIGHTS[:3]) | st.sampled_from(FUZZ_WEIGHTS)
_vertex = st.sampled_from(FUZZ_VERTICES)
_element_line = st.tuples(st.sampled_from(FUZZ_ELEMENTS), _weight)
_graph_line = (st.tuples(_vertex, _vertex, st.sampled_from(("x", "y")), _weight)
               | st.tuples(st.just("vertex"), _vertex))
_poset_line = (st.tuples(_vertex, st.just("<"), _vertex) | st.tuples(_vertex, _vertex, _weight)
               | st.tuples(_vertex))
_soup_line = st.lists(st.sampled_from(FUZZ_ELEMENTS + FUZZ_WEIGHTS + ("<", "vertex")),
                      min_size=1, max_size=4)


def _fuzz_text(model):
    own = {"graph": _graph_line, "poset": _poset_line}.get(model, _element_line)
    other = _element_line | _graph_line | _poset_line | _soup_line
    line = st.sampled_from((own, own, own, other)).flatmap(lambda shape: shape)
    return st.lists(line.map(" ".join), max_size=3).map("\n".join)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=st.sampled_from(MODELS).flatmap(lambda m: st.tuples(st.just(m), _fuzz_text(m))),
       algebra=st.sampled_from(sorted(ALGEBRAS)), star=st.sampled_from(STAR_MODES),
       max_length=st.integers(-2, 3), check_oracles=st.booleans())
def test_cli_star_fuzz_exits_cleanly(tmp_path_factory, case, algebra, star, max_length,
                                     check_oracles):
    # every input ends in a documented exit code, never a traceback, and the
    # oracles never disagree (exit 1)
    model, text = case
    p = tmp_path_factory.mktemp("fuzz") / "weights.txt"
    p.write_text(text)
    argv = ["star", "--model", model, "--algebra", algebra, "--star", star,
            "--max-length", str(max_length), "--weights", str(p)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--check-oracles"] * check_oracles)
    assert code in (0, 2, 3), (text, argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
