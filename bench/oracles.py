"""Answer oracles the benchmark owns; none of them calls into convka.

Semirings here use Python ints with ``math.inf`` for the infinite element,
so they share no code with ``convka.values``.  The star oracles unfold the
star over split points: an element with split positions 0..n (letters of a
word, tests of a guarded string, vertices of a path) has one non-identity
decomposition per increasing run of split points, contributing

    b(0) . w(i0, i1) . b(i1) . w(i1, i2) ... w(i_{k-1}, n) . b(n)

where w is the weight of a segment and b the star of the identity at a split
point.  The positional dynamic programme below sums those terms.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

INF = math.inf


class Semiring(NamedTuple):
    name: str
    add: Callable
    mul: Callable
    zero: object
    one: object
    star: Callable


def _nat_mul(a, b):
    # 0 annihilates infinity in the naturals-with-infinity Conway semiring
    if a == 0 or b == 0:
        return 0
    return a * b


SEMIRINGS = {
    "minplus": Semiring("minplus", min, lambda a, b: a + b, INF, 0, lambda a: 0),
    "natinf": Semiring("natinf", lambda a, b: a + b, _nat_mul, 0, 1,
                       lambda a: 1 if a == 0 else INF),
    "boolean": Semiring("boolean", max, min, 0, 1, lambda a: 1),
}


def fmt(v) -> str:
    """Render a weight the way pathtool prints it."""
    return "inf" if v == INF else str(v)


def segment_star(S: Semiring, n: int, weight, boundary, max_seg=None):
    """Sum over every decomposition of split positions 0..n into segments.

    ``weight(i, j)`` is the weight of the segment between split points i < j
    and ``boundary(j)`` the star of the identity at split point j.  Segments
    longer than ``max_seg`` must weigh zero; they are then skipped.
    """
    D = [boundary(0)]
    for j in range(1, n + 1):
        b = boundary(j)
        acc = S.zero
        for i in range(0 if max_seg is None else max(0, j - max_seg), j):
            acc = S.add(acc, S.mul(S.mul(D[i], weight(i, j)), b))
        D.append(acc)
    return D[n]


def word_star(S: Semiring, table: dict, x: str, max_seg=None):
    """Star of a word weight table at x; the empty word is the identity."""
    eps = S.star(table.get("", S.zero))
    return segment_star(S, len(x), lambda i, j: table.get(x[i:j], S.zero),
                        lambda j: eps, max_seg)


def word_convolve(S: Semiring, f: dict, g: dict, x: str):
    """(f * g)(x) over the split points of a word."""
    acc = S.zero
    for i in range(len(x) + 1):
        acc = S.add(acc, S.mul(f.get(x[:i], S.zero), g.get(x[i:], S.zero)))
    return acc


def guarded_star(S: Semiring, table: dict, x: tuple):
    """Star at a guarded string (t0, a1, t1, ..., ak, tk); split points are tests."""
    return segment_star(
        S, len(x) // 2,
        lambda i, j: table.get(x[2 * i:2 * j + 1], S.zero),
        lambda j: S.star(table.get((x[2 * j],), S.zero)))


def path_star(S: Semiring, table: dict, path, ends: dict, unit_ids=False):
    """Star at a path (v, edge names); ``ends`` maps an edge name to its target.

    With ``unit_ids`` the identities weigh one and contribute no star factor,
    which is the star of a function in K[C].
    """
    v, edges = path
    verts = [v]
    for e in edges:
        verts.append(ends[e])
    if unit_ids:
        boundary = lambda j: S.one
    else:
        boundary = lambda j: S.star(table.get((verts[j], ()), S.zero))
    return segment_star(S, len(edges),
                        lambda i, j: table.get((verts[i], edges[i:j]), S.zero),
                        boundary)


# ---------------------------------------------------------------------------
# all-pairs oracles for the matrix star; edges are (src, dst, weight) triples


def floyd_warshall(vertices, edges) -> dict:
    """Min-plus closure: shortest path weights with a zero diagonal."""
    d = {(a, b): 0 if a == b else INF for a in vertices for b in vertices}
    for s, t, w in edges:
        d[s, t] = min(d[s, t], w)
    for k in vertices:
        for i in vertices:
            dik = d[i, k]
            if dik == INF:
                continue
            for j in vertices:
                if dik + d[k, j] < d[i, j]:
                    d[i, j] = dik + d[k, j]
    return d


def warshall(vertices, edges) -> dict:
    """Boolean reflexive-transitive closure."""
    r = {(a, b): int(a == b) for a in vertices for b in vertices}
    for s, t, w in edges:
        r[s, t] = max(r[s, t], w)
    for k in vertices:
        for i in vertices:
            if r[i, k]:
                for j in vertices:
                    if r[k, j]:
                        r[i, j] = 1
    return r


def dag_path_sums(vertices, edges) -> dict:
    """Naturals on an acyclic graph: sum over paths of the product of weights.

    The empty path at each vertex weighs one.
    """
    out = {v: [] for v in vertices}
    indeg = {v: 0 for v in vertices}
    for s, t, w in edges:
        out[s].append((t, w))
        indeg[t] += 1
    order = []
    todo = [v for v in vertices if indeg[v] == 0]
    while todo:
        v = todo.pop()
        order.append(v)
        for t, _ in out[v]:
            indeg[t] -= 1
            if indeg[t] == 0:
                todo.append(t)
    if len(order) != len(vertices):
        raise ValueError("dag_path_sums needs an acyclic graph")
    sums = {}
    for v in reversed(order):
        for b in vertices:
            acc = int(v == b)
            for t, w in out[v]:
                acc += w * sums[t, b]
            sums[v, b] = acc
    return sums
