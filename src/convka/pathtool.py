"""Weighted path machinery: matrices, the block star, parsers, homset sums.

A matrix is a plain list of n >= 1 rows, each a list of n weights of one
algebra; the functions that read one take the algebra beside it.  The
matrix star recurses on the block partition with a 1x1 bottom-right corner:

    (A B; C D)* = ((A+BD*C)*        A*B(D+CA*B)*
                   D*C(A+BD*C)*     (D+CA*B)*)

Independent oracles (the power-sum star over idempotent algebras, Warshall
closure over the booleans, Floyd-Warshall over min-plus) live here too, used
by tests and by --check-oracles.
"""

from __future__ import annotations

import operator
import re
from functools import reduce

from .catoid import Catoid
from .models import GraphSpec, PosetSpec
from .values import INF, NEG_INF, CapabilityError, ValueAlgebra, power_join


def matrix_star(K: ValueAlgebra, M: list) -> list:
    """Block-recursive star; the base case is the entrywise star of a 1x1 matrix."""
    n = len(M)
    if n < 1 or any(len(row) != n for row in M):
        raise ValueError("matrix must be square and at least 1x1")
    if not K.has_star:
        raise CapabilityError(f"{K.name}: no star operation")
    return _block_star(K, M)


def _block_star(K, M):
    m = len(M) - 1
    if m == 0:
        return [[K.star(M[0][0])]]
    A = [row[:m] for row in M[:m]]
    B = [row[m] for row in M[:m]]  # column vector
    C = M[m][:m]                   # row vector
    D = M[m][m]

    Astar = _block_star(K, A)
    # scalar star of the corner, then the two Schur-style complements
    Dstar = K.star(D)
    # A + B D* C
    top = [[K.add(A[i][j], K.mul(K.mul(B[i], Dstar), C[j])) for j in range(m)]
           for i in range(m)]
    top_star = _block_star(K, top)
    # D + C A* B
    corner = D
    for i in range(m):
        for j in range(m):
            corner = K.add(corner, K.mul(K.mul(C[i], Astar[i][j]), B[j]))
    corner_star = K.star(corner)

    # top_star's rows become the top rows of the result, the last column appended
    for i in range(m):
        # A* B (D + C A* B)*
        acc = K.zero
        for k in range(m):
            acc = K.add(acc, K.mul(Astar[i][k], B[k]))
        top_star[i].append(K.mul(acc, corner_star))
    last = []
    for j in range(m):
        # D* C (A + B D* C)*
        acc = K.zero
        for k in range(m):
            acc = K.add(acc, K.mul(C[k], top_star[k][j]))
        last.append(K.mul(Dstar, acc))
    last.append(corner_star)
    return top_star + [last]


# ---------------------------------------------------------------------------
# independent oracles


def mat_power_star(K: ValueAlgebra, M: list) -> list:
    """Sum of matrix powers to a fixed point; oracle for idempotent algebras."""
    if not K.idempotent_add:
        raise CapabilityError("power-sum star needs an idempotent algebra")
    n = len(M)

    def times(P):  # P . M
        return [[reduce(K.add, (K.mul(row[k], M[k][j]) for k in range(n)), K.zero)
                 for j in range(n)] for row in P]

    return power_join([[K.one if i == j else K.zero for j in range(n)] for i in range(n)],
                      times, lambda P, Q: [list(map(K.add, r, s)) for r, s in zip(P, Q)],
                      operator.eq, n * n + 2)


def warshall_closure(M: list) -> list:
    """Reflexive-transitive closure of a boolean matrix, Warshall's algorithm."""
    n = len(M)
    reach = [[bool(M[i][j]) or i == j for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return [[1 if v else 0 for v in row] for row in reach]


def floyd_warshall(M: list) -> list:
    """All-pairs shortest paths with zero diagonal, over exact min-plus weights."""
    n = len(M)

    def add(a, b):
        return INF if a is INF or b is INF else a + b

    dist = [[0 if i == j else M[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = add(dist[i][k], dist[k][j])
                if via is not INF and (dist[i][j] is INF or via < dist[i][j]):
                    dist[i][j] = via
    return dist


# ---------------------------------------------------------------------------
# graph weights and homset aggregation


def edge_weight_matrix(graph, K: ValueAlgebra):
    """Sorted vertex labels and the matrix of edge weights in that order;
    parallel edges are summed."""
    labels = tuple(sorted(graph.vertices))
    idx = {v: i for i, v in enumerate(labels)}
    rows = [[K.zero] * len(labels) for _ in labels]
    for name, src, dst, w in graph.edges:
        if w is None:
            raise ValueError(f"edge {name} has no weight")
        rows[idx[src]][idx[dst]] = K.add(rows[idx[src]][idx[dst]], w)
    return labels, rows


def homset_matrix(C: Catoid, f, K: ValueAlgebra) -> list:
    """Aggregate a weight function over each homset into a matrix indexed by
    the identities in ``C.identities()`` order.

    Requires a complete universe: with a truncated one the aggregation would
    silently drop paths, which is exactly the wrong-optimum trap.
    """
    if not C.is_complete:
        raise CapabilityError(
            f"{C.name}: homset aggregation needs a complete universe "
            "(cyclic models are truncated at the bound)")
    ids = C.identities()
    index = {e: i for i, e in enumerate(ids)}
    rows = [[K.zero] * len(ids) for _ in ids]
    for x in C.elements():
        i = index[C.source(x)]
        j = index[C.target(x)]
        rows[i][j] = K.add(rows[i][j], f(x))
    return rows


# ---------------------------------------------------------------------------
# text formats


class ParseError(Exception):
    """Line-numbered input format error."""


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_weight_token(tok: str):
    """An integer of ASCII digits with an optional sign, ``inf`` or ``-inf``;
    ``validate_weight`` checks the carrier."""
    if tok == "inf":
        return INF
    if tok == "-inf":
        return NEG_INF
    try:
        if _INTEGER.fullmatch(tok):  # int() alone also reads 1_0 and non-ASCII digits
            return int(tok)
    except ValueError:  # past int()'s limit on digits
        pass
    raise ParseError(f"bad weight token {tok!r}")


def validate_weight(K: ValueAlgebra, w):
    """Reject weights outside the algebra's carrier domain."""
    ok = {
        "boolean": lambda: w in (0, 1),
        "minplus": lambda: w is INF or (isinstance(w, int) and w >= 0),
        "maxplus": lambda: w is NEG_INF or (isinstance(w, int) and w <= 0),
        "natinf": lambda: w is INF or (isinstance(w, int) and w >= 0),
    }.get(K.name, lambda: True)
    if not ok():
        raise ParseError(f"weight {w!r} is outside the {K.name} carrier")
    return w


def _line_weight(lineno, tok):
    """``parse_weight_token`` of a token on line ``lineno``, whose refusal names the line."""
    try:
        return parse_weight_token(tok)
    except ParseError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def parse_graph(text: str):
    """Graph file: optional ``vertex v`` lines; edges ``src dst name weight``."""
    vertices = []
    edges = []
    names = set()
    for lineno, line in _lines(text):
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: vertex takes one name")
            if parts[1] not in vertices:
                vertices.append(parts[1])
            continue
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 'src dst name weight'")
        src, dst, name, wtok = parts
        if name in names:
            raise ParseError(f"line {lineno}: duplicate edge {name}")
        names.add(name)
        w = _line_weight(lineno, wtok)
        for v in (src, dst):
            if v not in vertices:
                vertices.append(v)
        edges.append((name, src, dst, w))
    if not edges and not vertices:
        raise ParseError("empty graph")
    return GraphSpec(vertices=tuple(vertices), edges=tuple(edges))


def parse_poset(text: str):
    """Poset file: cover lines ``x < y``; weight lines ``x y w`` for intervals."""
    covers = []
    vertices = []
    weights = {}
    for lineno, line in _lines(text):
        parts = line.split()
        if len(parts) == 3 and parts[1] == "<":
            a, _, b = parts
            if (a, b) in covers:
                raise ParseError(f"line {lineno}: duplicate cover {a} < {b}")
            covers.append((a, b))
            for v in (a, b):
                if v not in vertices:
                    vertices.append(v)
        elif len(parts) == 3:
            weights[(parts[0], parts[1])] = _line_weight(lineno, parts[2])
        elif len(parts) == 1:
            if parts[0] not in vertices:
                vertices.append(parts[0])
        else:
            raise ParseError(f"line {lineno}: expected 'x < y', 'x y w' or a vertex")
    if not vertices and not weights:
        raise ParseError("empty poset")
    try:
        spec = PosetSpec(vertices=tuple(vertices), covers=tuple(covers))
    except ValueError as exc:
        raise ParseError(str(exc))
    return spec, weights


def parse_weights(text: str):
    """Element-weight lines: ``token weight``, with ``eps`` for the empty word."""
    out = {}
    for lineno, line in _lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'element weight'")
        key = parts[0]
        if key in out:
            raise ParseError(f"line {lineno}: duplicate element {key}")
        out[key] = _line_weight(lineno, parts[1])
    return out
