"""Seeded input generators: weight tables, weight files and graphs.

Everything here is a pure function of the ``random.Random`` passed in, so a
workload seed fixes every input.  Tables are kept in the benchmark's own
encoding (words as str, guarded strings and paths as tuples) for the oracles,
and rendered to pathtool's text formats for the CLI.
"""

from __future__ import annotations

import itertools

# Weight ranges per algebra; each stays inside pathtool's carrier check.
POOLS = {
    "minplus": tuple(range(10)),
    "natinf": (0, 1, 2, 3),
    "boolean": (0, 1),
}
TESTS = ("t0", "t1")
ACTIONS = ("p", "q")


def all_words(alphabet: str, max_len: int) -> list:
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(p) for p in itertools.product(alphabet, repeat=n))
    return out


def words_table(rng, algebra: str, max_len: int) -> dict:
    """Every word of length 1-2 plus six random longer words, random weights.

    The empty word is left out, so it weighs zero and its star is one.
    """
    pool = POOLS[algebra]
    table = {w: rng.choice(pool) for w in all_words("ab", 2) if w}
    for _ in range(6):
        n = rng.randint(3, max_len)
        table["".join(rng.choice("ab") for _ in range(n))] = rng.choice(pool)
    return table


def words_text(table: dict) -> str:
    return "".join(f"{w} {v}\n" for w, v in table.items())


def all_guarded(max_len: int) -> list:
    out = [(t,) for t in TESTS]
    frontier = list(out)
    for _ in range(max_len):
        frontier = [g + (a, t) for g in frontier for a in ACTIONS for t in TESTS]
        out.extend(frontier)
    return out


def guarded_table(rng, algebra: str, max_len: int) -> dict:
    """Every one-action string plus four random longer ones.

    Each test and action occurs, so pathtool infers the full 2-test,
    2-action model from the file.  Under natinf the test t1 weighs 1, whose
    star is infinite, so that the boundary stars of the star forms matter;
    under the other algebras every star is the unit and identities stay zero.
    """
    pool = POOLS[algebra]
    table = {g: rng.choice(pool) for g in all_guarded(1) if len(g) == 3}
    if algebra == "natinf":
        table[("t1",)] = 1
    for _ in range(4):
        k = rng.randint(2, max_len)
        g = (rng.choice(TESTS),)
        for _ in range(k):
            g += (rng.choice(ACTIONS), rng.choice(TESTS))
        table[g] = rng.choice(pool)
    return table


def guarded_text(table: dict) -> str:
    return "".join(f"{'.'.join(g)} {v}\n" for g, v in table.items())


# ---------------------------------------------------------------------------
# graphs: vertices are names, edges are (name, src, dst) triples


def count_paths(vertices, edges) -> int:
    """Number of paths of a DAG, the empty ones included."""
    out = {v: [] for v in vertices}
    for _, s, t in edges:
        out[s].append(t)
    memo = {}

    def from_v(v):
        if v not in memo:
            memo[v] = 1 + sum(from_v(t) for t in out[v])
        return memo[v]

    return sum(from_v(v) for v in vertices)


def banded_dag(rng, n: int, lo: int, hi: int, window=4, p=0.5):
    """Random DAG on n vertices whose path count lies in [lo, hi].

    Edges go forward by at most ``window`` places in a hidden random order,
    so vertex names do not reveal the topological order.  Path counts of
    random DAGs spread over orders of magnitude and the star's cost grows
    with the square of the path count, so candidates are drawn until one
    lands in the band; request cost then follows n, not luck.
    """
    for _ in range(100000):
        names = [f"v{k}" for k in range(n)]
        rng.shuffle(names)
        edges = []
        for i in range(n):
            for j in range(i + 1, min(n, i + 1 + window)):
                if rng.random() < p:
                    edges.append((f"e{len(edges)}", names[i], names[j]))
        if lo <= count_paths(names, edges) <= hi:
            return sorted(names), edges
    raise RuntimeError(f"no DAG with {n} vertices and {lo}-{hi} paths")


def add_back_edges(rng, vertices, edges, k: int):
    """Close k cycles by adding edges that run against existing paths."""
    edges = list(edges)
    reach = {v: {v} for v in vertices}
    changed = True
    while changed:
        changed = False
        for _, s, t in edges:
            if not reach[t] <= reach[s]:
                reach[s] |= reach[t]
                changed = True
    pairs = sorted((t, s) for s in vertices for t in reach[s] if t != s)
    for t, s in rng.sample(pairs, k):
        edges.append((f"e{len(edges)}", t, s))
    return edges


def edge_weights(rng, edges, algebra: str) -> list:
    """(name, src, dst, weight) with weights from the algebra's pool; boolean
    edges are all present, natinf edges are nonzero."""
    pool = {"boolean": (1,), "natinf": (1, 2, 3)}.get(algebra, POOLS[algebra])
    return [(name, s, t, rng.choice(pool)) for name, s, t in edges]


def graph_text(vertices, weighted_edges) -> str:
    lines = [f"vertex {v}\n" for v in vertices]
    lines += [f"{s} {t} {name} {w}\n" for name, s, t, w in weighted_edges]
    return "".join(lines)


def all_paths(vertices, edges, max_len: int) -> list:
    """Every path (v, edge names) with at most max_len edges."""
    out = {v: [] for v in vertices}
    for name, s, t, *_ in edges:
        out[s].append((name, t))
    paths = [(v, ()) for v in vertices]
    frontier = [(v, (), v) for v in vertices]
    for _ in range(max_len):
        frontier = [(v, es + (name,), t) for v, es, end in frontier
                    for name, t in out[end]]
        paths.extend((v, es) for v, es, _ in frontier)
    return paths
