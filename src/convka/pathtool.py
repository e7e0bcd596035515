"""Weighted path machinery: matrices, the block star, parsers, homset sums.

The matrix star recurses on the block partition with a 1x1 bottom-right
corner:

    (A B; C D)* = ((A+BD*C)*        A*B(D+CA*B)*
                   D*C(A+BD*C)*     (D+CA*B)*)

Independent oracles (Warshall closure over the booleans, Floyd-Warshall over
min-plus) live here too, used by tests and by --check-oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catoid import Catoid
from .values import INF, NEG_INF, CapabilityError, ValueAlgebra


@dataclass
class Matrix:
    """Square weight matrix over one algebra, with row/column labels."""

    algebra: ValueAlgebra
    labels: tuple
    rows: tuple  # tuple of tuples

    def __post_init__(self):
        n = len(self.labels)
        if n < 1 or len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square and at least 1x1")

    @property
    def n(self):
        return len(self.labels)

    def at(self, i, j):
        return self.rows[i][j]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.labels == other.labels
                and self.rows == other.rows)


def _mat(algebra, labels, rows):
    return Matrix(algebra, tuple(labels), tuple(tuple(r) for r in rows))


def mat_add(M, N):
    K = M.algebra
    return _mat(K, M.labels, [[K.add(M.at(i, j), N.at(i, j)) for j in range(M.n)]
                              for i in range(M.n)])


def mat_mul(M, N):
    K = M.algebra
    out = []
    for i in range(M.n):
        row = []
        for j in range(M.n):
            acc = K.zero
            for k in range(M.n):
                acc = K.add(acc, K.mul(M.at(i, k), N.at(k, j)))
            row.append(acc)
        out.append(row)
    return _mat(K, M.labels, out)


def mat_identity(K, labels):
    n = len(labels)
    return _mat(K, labels, [[K.one if i == j else K.zero for j in range(n)]
                            for i in range(n)])


def matrix_star(M: Matrix) -> Matrix:
    """Block-recursive star; the base case is the entrywise star of a 1x1 matrix."""
    K = M.algebra
    if not K.has_star:
        raise CapabilityError(f"{K.name}: no star operation")
    if M.n == 1:
        return _mat(K, M.labels, [[K.star(M.at(0, 0))]])

    m = M.n - 1
    A = _mat(K, M.labels[:m], [r[:m] for r in M.rows[:m]])
    B = [M.rows[i][m] for i in range(m)]     # column vector
    C = [M.rows[m][j] for j in range(m)]     # row vector
    D = M.rows[m][m]

    Astar = matrix_star(A)
    # scalar star of the corner, then the two Schur-style complements
    Dstar = K.star(D)
    # A + B D* C
    top = [[K.add(A.at(i, j), K.mul(K.mul(B[i], Dstar), C[j])) for j in range(m)]
           for i in range(m)]
    top_star = matrix_star(_mat(K, M.labels[:m], top))
    # D + C A* B
    corner = D
    for i in range(m):
        for j in range(m):
            corner = K.add(corner, K.mul(K.mul(C[i], Astar.at(i, j)), B[j]))
    corner_star = K.star(corner)

    out = [[None] * M.n for _ in range(M.n)]
    for i in range(m):
        for j in range(m):
            out[i][j] = top_star.at(i, j)
    for i in range(m):
        # A* B (D + C A* B)*
        acc = K.zero
        for k in range(m):
            acc = K.add(acc, K.mul(Astar.at(i, k), B[k]))
        out[i][m] = K.mul(acc, corner_star)
    for j in range(m):
        # D* C (A + B D* C)*
        acc = K.zero
        for k in range(m):
            acc = K.add(acc, K.mul(C[k], top_star.at(k, j)))
        out[m][j] = K.mul(Dstar, acc)
    out[m][m] = corner_star
    return _mat(K, M.labels, out)


# ---------------------------------------------------------------------------
# independent oracles


def warshall_closure(M: Matrix) -> Matrix:
    """Reflexive-transitive closure of a boolean matrix, Warshall's algorithm."""
    n = M.n
    reach = [[bool(M.at(i, j)) or i == j for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return _mat(M.algebra, M.labels, [[1 if v else 0 for v in row] for row in reach])


def floyd_warshall(M: Matrix) -> Matrix:
    """All-pairs shortest paths with zero diagonal, over exact min-plus weights."""
    n = M.n

    def add(a, b):
        return INF if a is INF or b is INF else a + b

    dist = [[0 if i == j else M.at(i, j) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = add(dist[i][k], dist[k][j])
                if via is not INF and (dist[i][j] is INF or via < dist[i][j]):
                    dist[i][j] = via
    return _mat(M.algebra, M.labels, dist)


def mat_power_star(M: Matrix) -> Matrix:
    """Sum of matrix powers to a fixed point; oracle for idempotent algebras."""
    if not M.algebra.idempotent_add:
        raise CapabilityError("power-sum star needs an idempotent algebra")
    acc = mat_identity(M.algebra, M.labels)
    power = mat_identity(M.algebra, M.labels)
    for _ in range(M.n * M.n + 2):
        power = mat_mul(power, M)
        nxt = mat_add(acc, power)
        if nxt == acc:
            return acc
        acc = nxt
    raise CapabilityError("matrix powers did not stabilise")


# ---------------------------------------------------------------------------
# graph weights and homset aggregation


def edge_weight_matrix(graph, K: ValueAlgebra) -> Matrix:
    """Vertex-indexed matrix of edge weights in sorted vertex order;
    parallel edges are summed."""
    labels = tuple(sorted(graph.vertices))
    idx = {v: i for i, v in enumerate(labels)}
    rows = [[K.zero] * len(labels) for _ in labels]
    for name, src, dst, w in graph.edges:
        if w is None:
            raise ValueError(f"edge {name} has no weight")
        rows[idx[src]][idx[dst]] = K.add(rows[idx[src]][idx[dst]], w)
    return _mat(K, labels, rows)


def homset_matrix(C: Catoid, f, K: ValueAlgebra) -> Matrix:
    """Aggregate a weight function over each homset into an identity-indexed matrix.

    Requires a complete universe: with a truncated one the aggregation would
    silently drop paths, which is exactly the wrong-optimum trap.
    """
    if not C.is_complete:
        raise CapabilityError(
            f"{C.name}: homset aggregation needs a complete universe "
            "(cyclic models are truncated at the bound)")
    ids = C.identities()
    labels = tuple(C.format_element(e) for e in ids)
    index = {e: i for i, e in enumerate(ids)}
    rows = [[K.zero] * len(ids) for _ in ids]
    for x in C.elements():
        i = index[C.source(x)]
        j = index[C.target(x)]
        rows[i][j] = K.add(rows[i][j], f(x))
    return _mat(K, labels, rows)


# ---------------------------------------------------------------------------
# text formats


class ParseError(Exception):
    """Line-numbered input format error."""


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_weight_token(tok: str):
    """An integer, ``inf`` or ``-inf``; ``validate_weight`` checks the carrier."""
    if tok == "inf":
        return INF
    if tok == "-inf":
        return NEG_INF
    try:
        return int(tok)
    except ValueError:
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


def parse_graph(text: str):
    """Graph file: optional ``vertex v`` lines; edges ``src dst name weight``."""
    from .models import GraphSpec

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
        try:
            w = parse_weight_token(wtok)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}")
        for v in (src, dst):
            if v not in vertices:
                vertices.append(v)
        edges.append((name, src, dst, w))
    if not edges and not vertices:
        raise ParseError("empty graph")
    return GraphSpec(vertices=tuple(vertices), edges=tuple(edges))


def parse_poset(text: str):
    """Poset file: cover lines ``x < y``; weight lines ``x y w`` for intervals."""
    from .models import PosetSpec

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
            weights[(parts[0], parts[1])] = parts[2]
        elif len(parts) == 1:
            if parts[0] not in vertices:
                vertices.append(parts[0])
        else:
            raise ParseError(f"line {lineno}: expected 'x < y', 'x y w' or a vertex")
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
        out[key] = parts[1]
    return out
