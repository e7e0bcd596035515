"""Concrete catoid models: words, shuffles, intervals, pairs, paths, guarded strings.

Infinite models take a ``max_len`` bound; see the truncation note in
``catoid``.  Complete models (intervals, pairs, acyclic path categories whose
bound covers the longest path) advertise ``is_complete = True``, which the
valency-based modal operators require.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .catoid import Catoid, TableCatoid
from .higher import NCatoid


@dataclass(frozen=True)
class PosetSpec:
    """Finite poset given by vertex names and cover pairs (lower, upper)."""

    vertices: tuple
    covers: tuple

    def __post_init__(self):
        names = set(self.vertices)
        for a, b in self.covers:
            if a not in names or b not in names:
                raise ValueError(f"cover ({a},{b}) uses undeclared vertex")
            if a == b:
                raise ValueError(f"self-cover {a} < {b}: a cover needs two distinct vertices")
        if len(set(self.covers)) != len(self.covers):
            raise ValueError("duplicate cover pair")
        order = self.leq_table()
        for a, b in self.covers:
            if order.get((b, a)):
                raise ValueError(f"cover relation cyclic at {a} < {b}")

    def leq_table(self) -> dict:
        """Reflexive-transitive closure of the covers (Warshall)."""
        vs = list(self.vertices)
        leq = {(a, b): a == b for a in vs for b in vs}
        for a, b in self.covers:
            leq[(a, b)] = True
        for k in vs:
            for i in vs:
                if leq[(i, k)]:
                    for j in vs:
                        if leq[(k, j)]:
                            leq[(i, j)] = True
        return leq


@dataclass(frozen=True)
class GraphSpec:
    """Directed multigraph with named edges and optional exact weights."""

    vertices: tuple
    edges: tuple  # (name, src, dst, weight-or-None)

    def __post_init__(self):
        names = set(self.vertices)
        seen = set()
        for name, src, dst, _ in self.edges:
            if src not in names or dst not in names:
                raise ValueError(f"edge {name}: endpoint not declared")
            if name in seen:
                raise ValueError(f"duplicate edge name {name}")
            seen.add(name)

    @functools.cached_property
    def _depths(self):
        """Edge count of the longest path ending at each vertex, by one Kahn
        pass per graph (no recursion, so long chains are fine); None if cyclic."""
        out = {v: [] for v in self.vertices}
        indeg = {v: 0 for v in self.vertices}
        for _, src, dst, _ in self.edges:
            out[src].append(dst)
            indeg[dst] += 1
        todo = [v for v in indeg if indeg[v] == 0]
        depth = dict.fromkeys(indeg, 0)
        done = 0
        while todo:
            v = todo.pop()
            done += 1
            for w in out[v]:
                depth[w] = max(depth[w], depth[v] + 1)
                indeg[w] -= 1
                if indeg[w] == 0:
                    todo.append(w)
        return depth if done == len(depth) else None

    def is_acyclic(self) -> bool:
        return self._depths is not None

    def longest_path_len(self) -> int:
        """Edge count of the longest path; only meaningful on acyclic graphs."""
        depth = self._depths
        if depth is None:
            raise ValueError("longest path undefined on a cyclic graph")
        return max(depth.values(), default=0)


# ---------------------------------------------------------------------------
# word models


class FreeMonoid(Catoid):
    """Words up to max_len over single-character letters under concatenation;
    single identity eps."""

    def __init__(self, alphabet, max_len: int):
        if not alphabet or max_len < 1:
            raise ValueError("need a nonempty alphabet and max_len >= 1")
        self.alphabet = tuple(sorted(alphabet))
        if any(len(a) != 1 for a in self.alphabet) or len(set(self.alphabet)) < len(self.alphabet):
            raise ValueError(f"letters must be distinct single characters: {self.alphabet}")
        self.max_len = max_len
        self.name = f"words({''.join(self.alphabet)},{max_len})"

    def compose(self, y, z):
        w = y + z
        return frozenset([w]) if len(w) <= self.max_len else frozenset()

    def source(self, x):
        return ""

    def target(self, x):
        return ""

    def _build_elements(self):
        out = [""]
        for n in range(1, self.max_len + 1):
            out.extend("".join(p) for p in itertools.product(self.alphabet, repeat=n))
        return out

    def sort_key(self, x):
        return (len(x), x)

    def format_element(self, x):
        return x or "eps"

    def decompose2(self, x):
        return [(x[:i], x[i:]) for i in range(len(x) + 1)]

    def rows(self, i):
        """Over one letter a closed form with no memo, since a^j has id j;
        over more letters ``Catoid.rows``, which keeps each decoded row."""
        if len(self.alphabet) == 1:
            return range(i + 1), range(i, -1, -1)
        return Catoid.rows(self, i)

    def dual_rows(self, i):
        """Over one letter, which commutes, the row is its own mirror and
        keeps no memo; over more letters ``Catoid.dual_rows``."""
        if len(self.alphabet) == 1:
            return self.rows(i)
        return Catoid.dual_rows(self, i)


def _interleavings(u, v):
    """Distinct shuffles of u and v, via position subsets for u's letters."""
    n = len(u) + len(v)
    out = set()
    for places in itertools.combinations(range(n), len(u)):
        chosen = set(places)
        word, iu, iv = [], 0, 0
        for i in range(n):
            if i in chosen:
                word.append(u[iu])
                iu += 1
            else:
                word.append(v[iv])
                iv += 1
        out.add("".join(word))
    return out


class ShuffleCatoid(FreeMonoid):
    """Words under the shuffle multioperation, not functional over two or more
    letters; over one letter it is concatenation, so the words' closed-form
    rows serve."""

    def __init__(self, alphabet, max_len):
        super().__init__(alphabet, max_len)
        self.name = f"shuffle({''.join(self.alphabet)},{max_len})"

    def compose(self, y, z):
        if len(y) + len(z) > self.max_len:
            return frozenset()
        return frozenset(_interleavings(y, z))

    def decompose2(self, x):
        """The pairs of complementary subwords of x, sorted by the word sort key."""
        pairs = set()
        for r in range(len(x) + 1):
            for places in itertools.combinations(range(len(x)), r):
                chosen = set(places)
                y = "".join(x[i] for i in range(len(x)) if i in chosen)
                z = "".join(x[i] for i in range(len(x)) if i not in chosen)
                pairs.add((y, z))
        return sorted(pairs, key=lambda p: ((len(p[0]), p[0]), (len(p[1]), p[1])))


# ---------------------------------------------------------------------------
# interval and pair models


class IntervalCatoid(Catoid):
    """Closed intervals [a,b] of a finite poset, composing on matching endpoints."""

    is_complete = True

    def __init__(self, poset: PosetSpec):
        self.vertices = poset.vertices
        self.leq = poset.leq_table()
        self.name = f"intervals({','.join(poset.vertices)})"

    def compose(self, y, z):
        (a, b), (c, d) = y, z
        return frozenset([(a, d)]) if b == c else frozenset()

    def source(self, x):
        return (x[0], x[0])

    def target(self, x):
        return (x[1], x[1])

    def _build_elements(self):
        vs = self.vertices
        return [(a, b) for a in vs for b in vs if self.leq[(a, b)]]

    def sort_key(self, x):
        return x

    def format_element(self, x):
        return f"[{x[0]},{x[1]}]"

    def decompose2(self, x):
        a, b = x
        mids = [m for m in self.vertices if self.leq[(a, m)] and self.leq[(m, b)]]
        return sorted(((a, m), (m, b)) for m in mids)


class PairGroupoid(IntervalCatoid):
    """All ordered pairs over a finite set; the catoid of untyped relations.

    It is the interval catoid of the relation that relates every two points.
    """

    def __init__(self, points):
        self.vertices = tuple(sorted(points))
        if not self.vertices:
            raise ValueError("need a nonempty point set")
        self.leq = dict.fromkeys(itertools.product(self.vertices, repeat=2), True)
        self.name = f"pairs({','.join(map(str, self.vertices))})"

    def format_element(self, x):
        return f"({x[0]},{x[1]})"


# ---------------------------------------------------------------------------
# path category


class PathCatoid(Catoid):
    """Paths of a directed graph: constant paths at vertices plus edge runs.

    Elements are (source vertex, edge-name tuple) with at most max_len >= 1
    edges.  Complete exactly when the graph is acyclic and the bound covers
    its longest path.
    """

    def __init__(self, graph: GraphSpec, max_len: int):
        if max_len < 1:
            raise ValueError("need max_len >= 1")
        self.graph = graph
        self.max_len = max_len
        self.edge_by_name = {e[0]: e for e in graph.edges}
        self.is_complete = graph.is_acyclic() and graph.longest_path_len() <= max_len
        self.name = f"paths({len(graph.vertices)}v)"

    def _endpoint(self, x):
        v, edges = x
        for name in edges:
            v = self.edge_by_name[name][2]
        return v

    def compose(self, y, z):
        if self._endpoint(y) != z[0]:
            return frozenset()
        edges = y[1] + z[1]
        if len(edges) > self.max_len:
            return frozenset()
        return frozenset([(y[0], edges)])

    def source(self, x):
        return (x[0], ())

    def target(self, x):
        return (self._endpoint(x), ())

    def _build_elements(self):
        out = [(v, ()) for v in self.graph.vertices]
        frontier = list(out)
        for _ in range(self.max_len):
            nxt = []
            for v, edges in frontier:
                end = self._endpoint((v, edges))
                for name, src, dst, _ in self.graph.edges:
                    if src == end:
                        nxt.append((v, edges + (name,)))
            out.extend(nxt)
            frontier = nxt
            if not frontier:
                break
        return out

    def sort_key(self, x):
        return (len(x[1]), x[0], x[1])

    def format_element(self, x):
        if not x[1]:
            return f"({x[0]})"
        return "[" + ",".join(x[1]) + "]"

    def decompose2(self, x):
        """Split points in order; the left factors grow, so the list is sorted."""
        v, edges = x
        pairs = []
        for i in range(len(edges) + 1):
            left = (v, edges[:i])
            right = (self._endpoint(left), edges[i:])
            pairs.append((left, right))
        return pairs


# ---------------------------------------------------------------------------
# guarded strings


class GuardedStringCatoid(Catoid):
    """Alternating test/action tuples t0 a1 t1 ... ak tk; identities are (t,).

    max_len >= 1 bounds the number of actions; different boundary tests do
    not compose.
    """

    def __init__(self, tests, actions, max_len: int):
        self.tests = tuple(sorted(tests))
        self.actions = tuple(sorted(actions))
        if not self.tests or not self.actions:
            raise ValueError("need nonempty test and action sets")
        if max_len < 1:
            raise ValueError("need max_len >= 1")
        self.max_len = max_len
        self.name = f"guarded({len(self.tests)}t,{len(self.actions)}a,{max_len})"

    def compose(self, y, z):
        if y[-1] != z[0]:
            return frozenset()
        glued = y + z[1:]
        if len(glued) // 2 > self.max_len:
            return frozenset()
        return frozenset([glued])

    def source(self, x):
        return (x[0],)

    def target(self, x):
        return (x[-1],)

    def _build_elements(self):
        out = [(t,) for t in self.tests]
        frontier = list(out)
        for _ in range(self.max_len):
            nxt = []
            for g in frontier:
                for a in self.actions:
                    for t in self.tests:
                        nxt.append(g + (a, t))
            out.extend(nxt)
            frontier = nxt
        return out

    def sort_key(self, x):
        return (len(x), x)

    def format_element(self, x):
        return ".".join(x)

    def decompose2(self, x):
        """Splits at each test; the left factors grow, so the list is sorted."""
        return [(x[: i + 1], x[i:]) for i in range(0, len(x), 2)]


# ---------------------------------------------------------------------------
# constructors mirroring the library catalogue; bench/tracing.py looks them up
# by name (MODEL_CONSTRUCTORS) to time model builds, so keep the names


def free_monoid(alphabet, max_len) -> FreeMonoid:
    return FreeMonoid(alphabet, max_len)


def shuffle_catoid(alphabet, max_len) -> ShuffleCatoid:
    return ShuffleCatoid(alphabet, max_len)


def interval_catoid(poset: PosetSpec) -> IntervalCatoid:
    return IntervalCatoid(poset)


def pair_groupoid(points) -> PairGroupoid:
    return PairGroupoid(points)


def path_catoid(graph: GraphSpec, max_len) -> PathCatoid:
    return PathCatoid(graph, max_len)


def guarded_string_catoid(tests, actions, max_len) -> GuardedStringCatoid:
    return GuardedStringCatoid(tests, actions, max_len)


def example_poset() -> PosetSpec:
    """Five-element poset with chains a<d<e<c and a<b<c; the saturated-chain
    counterexample lives here (l([a,c]) = 3 but [a,b].[b,c] has 1+1)."""
    return PosetSpec(
        vertices=("a", "b", "c", "d", "e"),
        covers=(("a", "d"), ("d", "e"), ("e", "c"), ("a", "b"), ("b", "c")),
    )


def diamond_dag() -> GraphSpec:
    return GraphSpec(
        vertices=("a", "b", "c", "d"),
        edges=(("x", "a", "b", 2), ("y", "b", "d", 3), ("z", "a", "c", 1),
               ("w", "c", "d", 7)),
    )


def two_edge_path_graph() -> GraphSpec:
    return GraphSpec(
        vertices=("a", "b", "c"),
        edges=(("x", "a", "b", 2), ("y", "b", "c", 3)),
    )


def random_dag(n=8, density=0.35, seed=11) -> GraphSpec:
    """Seeded random DAG on n vertices with weights 1..9; edges only go
    forward, so acyclic."""
    rng = random.Random(seed)
    vertices = tuple(f"v{i}" for i in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w = rng.randint(1, 9)
                edges.append((f"e{i}_{j}", vertices[i], vertices[j], w))
    return GraphSpec(vertices=vertices, edges=tuple(edges))


# ---------------------------------------------------------------------------
# two-dimensional models


def shuffle_concat_2catoid(alphabet, max_len):
    """Words with concatenation as dimension 0 and shuffle as dimension 1."""
    dim0 = FreeMonoid(alphabet, max_len)
    dim1 = ShuffleCatoid(alphabet, max_len)
    return NCatoid(f"shuffle-concat({''.join(dim0.alphabet)},{max_len})", (dim0, dim1))


def pasting_square_2category():
    """The free strict 2-category on two horizontally composable 2-cells.

    Three 0-cells u -> v -> w, parallel 1-cells p1,q1 : u -> v and
    p2,q2 : v -> w, generating 2-cells al : p1 => q1 and be : p2 => q2.
    Closing under whiskering and both compositions gives 18 elements; the
    horizontal composite al0be decomposes both as (al*p2);(q1*be) and
    (p1*be);(al*q2), which makes interchange non-trivial.  Finite, local,
    functional and Moebius in both dimensions.
    """
    cells0 = ["u", "v", "w"]
    cells1 = ["p1", "q1", "p2", "q2", "p1p2", "p1q2", "q1p2", "q1q2"]
    cells2 = ["al", "be", "al*p2", "al*q2", "p1*be", "q1*be", "al0be"]
    elements = cells0 + cells1 + cells2

    s0 = {"u": "u", "v": "v", "w": "w",
          "p1": "u", "q1": "u", "p2": "v", "q2": "v",
          "p1p2": "u", "p1q2": "u", "q1p2": "u", "q1q2": "u",
          "al": "u", "be": "v",
          "al*p2": "u", "al*q2": "u", "p1*be": "u", "q1*be": "u", "al0be": "u"}
    t0 = {"u": "u", "v": "v", "w": "w",
          "p1": "v", "q1": "v", "p2": "w", "q2": "w",
          "p1p2": "w", "p1q2": "w", "q1p2": "w", "q1q2": "w",
          "al": "v", "be": "w",
          "al*p2": "w", "al*q2": "w", "p1*be": "w", "q1*be": "w", "al0be": "w"}
    s1 = {x: x for x in cells0 + cells1}
    s1.update({"al": "p1", "be": "p2",
               "al*p2": "p1p2", "al*q2": "p1q2", "p1*be": "p1p2", "q1*be": "q1p2",
               "al0be": "p1p2"})
    t1 = {x: x for x in cells0 + cells1}
    t1.update({"al": "q1", "be": "q2",
               "al*p2": "q1p2", "al*q2": "q1q2", "p1*be": "p1q2", "q1*be": "q1q2",
               "al0be": "q1q2"})

    compose0 = {
        ("p1", "p2"): ["p1p2"], ("p1", "q2"): ["p1q2"],
        ("q1", "p2"): ["q1p2"], ("q1", "q2"): ["q1q2"],
        ("al", "p2"): ["al*p2"], ("al", "q2"): ["al*q2"],
        ("p1", "be"): ["p1*be"], ("q1", "be"): ["q1*be"],
        ("al", "be"): ["al0be"],
    }
    compose1 = {
        ("al*p2", "q1*be"): ["al0be"],
        ("p1*be", "al*q2"): ["al0be"],
    }

    dim0 = TableCatoid("square.h", elements, compose0, s0, t0)
    dim1 = TableCatoid("square.v", elements, compose1, s1, t1)
    return NCatoid("pasting-square", (dim0, dim1))
