"""Hand-computed cases for the benchmark's oracles and input generators."""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from oracles import INF, SEMIRINGS  # noqa: E402

MINPLUS, NATINF, BOOLEAN = SEMIRINGS["minplus"], SEMIRINGS["natinf"], SEMIRINGS["boolean"]


def test_word_star_minplus_takes_cheapest_segmentation():
    table = {"a": 2, "ab": 1, "b": 4}
    assert oracles.word_star(MINPLUS, table, "ab") == 1  # ab beats a|b = 6
    assert oracles.word_star(MINPLUS, table, "aab") == 3  # a|ab beats a|a|b = 8
    assert oracles.word_star(MINPLUS, table, "ba") == 6
    assert oracles.word_star(MINPLUS, table, "aa") == 4
    assert oracles.word_star(MINPLUS, table, "") == 0
    assert oracles.word_star(MINPLUS, {"a": 2}, "b") == INF


def test_word_star_natinf_counts_weighted_compositions():
    parts = {"a": 1, "aa": 1}
    assert oracles.word_star(NATINF, parts, "aaa") == 3  # 1+1+1, 1+2, 2+1
    assert oracles.word_star(NATINF, parts, "aaaa") == 5
    assert oracles.word_star(NATINF, {"a": 2, "aa": 1}, "aa") == 5  # 2*2 + 1
    assert oracles.word_star(NATINF, parts, "aaaa", max_seg=2) == 5


def test_word_star_natinf_identity_star_is_infinite_and_zero_annihilates():
    assert oracles.word_star(NATINF, {"": 1, "a": 1}, "a") == INF
    assert oracles.word_star(NATINF, {"": 1}, "a") == 0
    assert oracles.word_star(NATINF, {"": 1}, "") == INF


def test_word_star_boolean():
    assert oracles.word_star(BOOLEAN, {"ab": 1}, "abab") == 1
    assert oracles.word_star(BOOLEAN, {"ab": 1}, "aba") == 0


def test_word_convolve():
    f = {"": 0, "a": 2, "b": 1, "ab": 5}
    assert oracles.word_convolve(MINPLUS, f, f, "ab") == 3  # a|b
    assert oracles.word_convolve(NATINF, {"a": 2, "b": 3}, {"a": 2, "b": 3}, "ab") == 6


def test_guarded_star():
    p, q, whole = ("t0", "p", "t1"), ("t1", "q", "t0"), ("t0", "p", "t1", "q", "t0")
    assert oracles.guarded_star(BOOLEAN, {p: 1, q: 1}, whole) == 1
    assert oracles.guarded_star(BOOLEAN, {p: 1, q: 1}, ("t0", "q", "t0")) == 0
    assert oracles.guarded_star(MINPLUS, {p: 2, q: 3, whole: 4, ("t1",): 7}, whole) == 4
    # the star of the middle test's weight 1 is infinite
    assert oracles.guarded_star(NATINF, {p: 2, q: 3, whole: 4, ("t1",): 1}, whole) == INF
    assert oracles.guarded_star(NATINF, {p: 2, q: 3, whole: 4}, whole) == 10  # 4 + 2*3


def test_path_star():
    ends = {"e0": "v1", "e1": "v2"}
    weights = {("v0", ("e0",)): 2, ("v1", ("e1",)): 5}
    path = ("v0", ("e0", "e1"))
    assert oracles.path_star(MINPLUS, weights, path, ends) == 7
    assert oracles.path_star(MINPLUS, {**weights, ("v0", ("e0", "e1")): 6}, path, ends) == 6
    ids_one = {**weights, **{(v, ()): 1 for v in ("v0", "v1", "v2")}}
    assert oracles.path_star(NATINF, ids_one, path, ends) == INF
    assert oracles.path_star(NATINF, ids_one, path, ends, unit_ids=True) == 10
    assert oracles.path_star(NATINF, ids_one, ("v0", ()), ends, unit_ids=True) == 1


def test_floyd_warshall():
    d = oracles.floyd_warshall("abc", [("a", "b", 4), ("b", "c", 1), ("a", "c", 7), ("c", "a", 2)])
    assert (d["a", "c"], d["c", "b"], d["b", "a"], d["a", "a"]) == (5, 6, 3, 0)
    assert oracles.floyd_warshall("ab", [])["a", "b"] == INF


def test_warshall():
    r = oracles.warshall("abc", [("a", "b", 1), ("b", "c", 1)])
    assert (r["a", "c"], r["c", "a"], r["b", "b"]) == (1, 0, 1)


def test_dag_path_sums():
    s = oracles.dag_path_sums("abc", [("a", "b", 2), ("b", "c", 3), ("a", "c", 1)])
    assert (s["a", "c"], s["a", "a"], s["c", "a"], s["a", "b"]) == (7, 1, 0, 2)
    with pytest.raises(ValueError):
        oracles.dag_path_sums("ab", [("a", "b", 1), ("b", "a", 1)])


def test_fmt():
    assert (oracles.fmt(INF), oracles.fmt(3), oracles.fmt(0)) == ("inf", "3", "0")


def test_banded_dag_is_seeded_and_in_band():
    first = inputs.banded_dag(random.Random(4), 14, 280, 336)
    assert first == inputs.banded_dag(random.Random(4), 14, 280, 336)
    vertices, edges = first
    assert 280 <= inputs.count_paths(vertices, edges) <= 336
    assert len(inputs.all_paths(vertices, edges, 14)) == inputs.count_paths(vertices, edges)


def test_back_edges_close_cycles():
    vertices, edges = inputs.banded_dag(random.Random(2), 8, 80, 96)
    cyclic = inputs.add_back_edges(random.Random(2), vertices, edges, 2)
    assert len(cyclic) == len(edges) + 2
    with pytest.raises(ValueError):
        oracles.dag_path_sums(vertices, [(s, t, 1) for _, s, t in cyclic])
    assert len(inputs.all_paths(vertices, cyclic, 12)) > inputs.count_paths(vertices, edges)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "throughput_rps", "latency_p50_ms", "latency_p90_ms", "success_rate",
        "peak_rss_mb"}


def test_speed_factor_is_mean_of_adjacent_measurements_over_nominal():
    n = speed.NOMINAL_S
    assert speed.factors([n, 3 * n, n]) == pytest.approx([2.0, 2.0])
    assert speed.factors([n]) == []
    assert speed.measure() > 0
