import functools
import io
import os
import random
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from convka import cli, models, pathtool
from convka.cli import ALGEBRAS, MODELS, STAR_MODES, main
from convka.convolution import from_pairs, star_recursive
from convka.pathtool import (
    Matrix,
    ParseError,
    edge_weight_matrix,
    floyd_warshall,
    homset_matrix,
    mat_power_star,
    matrix_star,
    parse_graph,
    parse_poset,
    parse_weights,
    validate_weight,
    warshall_closure,
)
from convka.values import CapabilityError, INF, make_boolean, make_min_plus


def bool_matrix(rows):
    return Matrix(make_boolean(), tuple(range(len(rows))),
                  tuple(tuple(r) for r in rows))


def minplus_matrix(rows, labels=None):
    return Matrix(make_min_plus(), tuple(labels or range(len(rows))),
                  tuple(tuple(r) for r in rows))


def test_matrix_star_1x1():
    M = minplus_matrix([[5]])
    assert matrix_star(M).rows == ((0,),)
    B = bool_matrix([[0]])
    assert matrix_star(B).rows == ((1,),)


def test_matrix_star_three_cycle_boolean():
    M = bool_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert matrix_star(M).rows == ((1, 1, 1), (1, 1, 1), (1, 1, 1))
    assert warshall_closure(M).rows == matrix_star(M).rows


def test_matrix_star_two_edge_minplus():
    M = minplus_matrix([[INF, 2, INF], [INF, INF, 3], [INF, INF, INF]],
                       labels=("a", "b", "c"))
    S = matrix_star(M)
    assert S.at(0, 2) == 5
    assert S.at(0, 0) == 0
    assert S.rows == floyd_warshall(M).rows


def test_matrix_star_vs_warshall_random():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(1, 6)
        M = bool_matrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
        assert matrix_star(M).rows == warshall_closure(M).rows


def test_matrix_star_vs_floyd_warshall_random():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[(rng.randint(0, 9) if rng.random() < 0.5 else INF)
                 for _ in range(n)] for _ in range(n)]
        M = minplus_matrix(rows)
        S = matrix_star(M)
        assert S.rows == floyd_warshall(M).rows
        assert S.rows == mat_power_star(M).rows


def test_matrix_star_needs_star():
    K = make_boolean()
    object.__setattr__(K, "star", None)
    with pytest.raises(CapabilityError):
        matrix_star(Matrix(K, (0,), ((1,),)))


def test_homset_aggregation_equals_matrix_star():
    g = models.random_dag(6, density=0.5, seed=9)
    K = make_min_plus()
    C = models.path_catoid(g, g.longest_path_len())
    table = {e: K.one for e in C.identities()}
    for name, src, dst, w in g.edges:
        table[(src, (name,))] = w
    f = from_pairs(C, K, table)
    agg = homset_matrix(C, star_recursive(f), K)
    M = matrix_star(edge_weight_matrix(g, K))
    assert agg.rows == M.rows


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


def test_parse_graph_reads_weight_tokens_like_the_other_parsers():
    # one token parser for every input: inf parses, a bad token is a ParseError
    assert parse_graph("a b x inf\n").edges == (("x", "a", "b", INF),)
    with pytest.raises(ParseError, match="line 1: bad weight token '1.5'"):
        parse_graph("a b x 1.5\n")


def test_parse_poset():
    spec, weights = parse_poset("a < b\nb < c\na c 7\n")
    assert ("a", "b") in spec.covers
    assert weights[("a", "c")] == "7"
    with pytest.raises(ParseError, match="cyclic"):
        parse_poset("a < b\nb < a\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_poset("a < b\na < b\n")


def test_parse_weights():
    w = parse_weights("eps 0\nab 4\n")
    assert w == {"eps": "0", "ab": "4"}
    with pytest.raises(ParseError, match="duplicate"):
        parse_weights("a 1\na 2\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_weights("a\n")


def test_validate_weight():
    with pytest.raises(ParseError, match="carrier"):
        validate_weight(make_boolean(), 5)
    with pytest.raises(ParseError, match="carrier"):
        validate_weight(make_min_plus(), -3)
    assert validate_weight(make_min_plus(), INF) is INF


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
        right = getattr(pathtool, oracle)(M)
        rows = [list(r) for r in right.rows]
        rows[0][1] = 0 if rows[0][1] else 1  # a wrong entry in either algebra
        return Matrix(right.algebra, right.labels, tuple(map(tuple, rows)))

    monkeypatch.setattr(cli, oracle, wrong)
    assert main(args) == 1
    assert "oracle disagreement: matrix star vs" in capsys.readouterr().err


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


def test_cli_cyclic_graph_at_max_length_zero_weights_only_the_vertices(tmp_path, capsys):
    # no one-edge path is in the universe, so none is weighted
    p = tmp_path / "cycle.txt"
    p.write_text(CYCLIC_GRAPH)
    assert main(["star", "--model", "graph", "--algebra", "minplus", "--max-length", "0",
                 "--weights", str(p), "--check-oracles"]) == 0
    assert capsys.readouterr().out == "(a)\t0\n(b)\t0\n(c)\t0\n"


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
    p = tmp_path / "w.txt"
    p.write_text("a 1\n")
    code = main(["star", "--model", "words", "--algebra", "boolean",
                 "--star", "matrix", "--weights", str(p)])
    assert code == 2
    assert "matrix" in capsys.readouterr().err


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
