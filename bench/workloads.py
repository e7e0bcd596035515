"""The four workloads: inputs from the seed, requests, and answer checks.

Each workload issues its requests from one client in a closed loop: a
request starts only after the previous one returned.  Requests come in
cycles, and a cycle holds a fixed mix (every suite, every size slot), so a
run of whole cycles has the same composition whatever the seed; the seed
only changes the generated inputs and the order within a cycle.
"""

from __future__ import annotations

import io
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import inputs
import oracles


class CliResult(NamedTuple):
    code: int
    stdout: str


def run_cli(cli, argv) -> CliResult:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return CliResult(code, out.getvalue())


def parse_rows(text: str) -> dict:
    rows = dict(line.split("\t") for line in text.splitlines())
    return rows if len(rows) == text.count("\n") else {}


class Workload:
    name = ""

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def setup(self, cv):
        """Build inputs and warm models with the freshly imported package."""
        self.cv = cv

    def pass_setup(self):
        """Set-up work a traced pass repeats before its requests."""

    def cycle(self, c: int) -> list:
        raise NotImplementedError

    def probes(self) -> list:
        """Requests run outside the timed phase, counted only in success_rate."""
        return []

    def run(self, req):
        raise NotImplementedError

    def check(self, req, out) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Suite(NamedTuple):
    suite: str
    seed: int


class Campaign(Workload):
    """``pathtool check`` over the nine suites, interchange twice per cycle.

    Cycle c checks campaign seed c + 1 in every run; the benchmark seed only
    orders the suites within each cycle.  Some suites (modal, nka, kleene)
    cost more or less depending on the campaign seed, and the median request
    is a modal or catoid check, so fixing the campaign seeds keeps p50 from
    following the benchmark seed.  Interchange, the slowest suite by 3x, runs
    twice, so that its requests are the slowest fifth of each cycle and p90
    lands in the middle of them; with one it would be the slowest ninth and
    p90 would sit on its fastest request, a single sample.  Per-suite status
    counts do not depend on the campaign seed; they were read off the seed
    package and are the oracle.
    """

    name = "campaign"
    EXPECTED = {
        "catoid": {"PASS": 113, "XFAIL": 6},
        "kleene": {"PASS": 12},
        "kat": {"PASS": 9},
        "modal": {"PASS": 34, "XFAIL": 2},
        "interchange": {"PASS": 36, "INFO": 2},
        "nka": {"PASS": 55, "INFO": 2},
        "conway": {"PASS": 4},
        "independence": {"PASS": 3, "INFO": 11},
        "quantale": {"PASS": 4},
    }
    MIX = (*EXPECTED, "interchange")

    def cycle(self, c):
        reqs = [Suite(s, c + 1) for s in self.MIX]
        self.rng(c).shuffle(reqs)
        return reqs

    def run(self, req):
        return run_cli(self.cv.cli, ["check", "--suite", req.suite, "--seed", str(req.seed),
                                     "--samples", "25"])

    def check(self, req, out):
        statuses = Counter(line.split("\t", 1)[0] for line in out.stdout.splitlines())
        return out.code == 0 and statuses == self.EXPECTED[req.suite]


# ---------------------------------------------------------------------------


class Star(NamedTuple):
    model: str
    size: int
    algebra: str
    mode: str


class StarCold(Workload):
    """``pathtool star --star {recursive,dual}``; every call builds its model.

    A cycle runs the eleven slots below once each, so every run has the same
    mix and the seed only changes the weights, the DAGs and the order.  Each
    model meets every algebra and both star forms.  Sorted by cost, five slots
    cost under about 0.2 s, then three guarded(4), one words(ab,9) and two
    words(ab,10): p50 falls inside the guarded(4) group and p90 inside the
    words(ab,10) group, whose cost is set by the model and not by the seed,
    rather than on the edge between two kinds of request.  DAGs are drawn
    with 20n-22n paths, a few hundred elements, so that their cost follows
    the vertex count and not the luck of the draw.
    """

    name = "star_cold"
    SLOTS = (Star("guarded", 3, "natinf", "recursive"), Star("graph", 14, "natinf", "dual"),
             Star("words", 8, "boolean", "recursive"), Star("graph", 17, "boolean", "recursive"),
             Star("graph", 20, "minplus", "dual"), Star("guarded", 4, "minplus", "dual"),
             Star("guarded", 4, "boolean", "recursive"), Star("guarded", 4, "natinf", "dual"),
             Star("words", 9, "minplus", "recursive"),
             Star("words", 10, "minplus", "recursive"), Star("words", 10, "natinf", "dual"))

    def setup(self, cv):
        super().setup(cv)
        rng = self.rng("inputs")
        self.files, self.tables, self.graphs, self._oracle = {}, {}, {}, {}
        for slot in self.SLOTS:
            if slot.model == "words":
                table = inputs.words_table(rng, slot.algebra, slot.size)
                text = inputs.words_text(table)
            elif slot.model == "guarded":
                table = inputs.guarded_table(rng, slot.algebra, slot.size)
                text = inputs.guarded_text(table)
            else:
                vertices, edges = inputs.banded_dag(rng, slot.size, 20 * slot.size,
                                                    22 * slot.size)
                self.graphs[slot] = (vertices, edges)
                table = inputs.edge_weights(rng, edges, slot.algebra)
                text = inputs.graph_text(vertices, table)
            path = self.workdir / f"cold-{len(self.files)}.txt"
            path.write_text(text)
            self.files[slot] = str(path)
            self.tables[slot] = table

    def cycle(self, c):
        reqs = list(self.SLOTS)
        self.rng(c).shuffle(reqs)
        return reqs

    def run(self, req):
        argv = ["star", "--model", req.model, "--algebra", req.algebra, "--star", req.mode,
                "--weights", self.files[req]]
        if req.model != "graph":
            argv += ["--max-length", str(req.size)]
        return run_cli(self.cv.cli, argv)

    def check(self, req, out):
        return out.code == 0 and parse_rows(out.stdout) == self.oracle(req)

    def oracle(self, req):
        if req not in self._oracle:
            S = oracles.SEMIRINGS[req.algebra]
            table = self.tables[req]
            if req.model == "words":
                rows = {w or "eps": oracles.word_star(S, table, w)
                        for w in inputs.all_words("ab", req.size)}
            elif req.model == "guarded":
                rows = {".".join(g): oracles.guarded_star(S, table, g)
                        for g in inputs.all_guarded(req.size)}
            else:
                vertices, edges = self.graphs[req]
                weights = {(s, (name,)): w for name, s, _, w in table}
                weights.update({(v, ()): S.one for v in vertices})
                ends = {name: t for name, _, t in edges}
                rows = {(f"[{','.join(es)}]" if es else f"({v})"):
                        oracles.path_star(S, weights, (v, es), ends)
                        for v, es in inputs.all_paths(vertices, edges, req.size)}
            self._oracle[req] = {k: oracles.fmt(v) for k, v in rows.items()}
        return self._oracle[req]


# ---------------------------------------------------------------------------


class Matrix(NamedTuple):
    n: int
    kind: str
    algebra: str


class MatrixStar(Workload):
    """``pathtool star --star matrix`` on graphs with 8-16 vertices.

    A cycle runs each size once and sizes 12 and 16 twice, with a fixed graph
    kind and algebra per size so that every run has the same mix.  The cost
    doubles per vertex, so sorted by cost the two n=12 requests hold the
    middle of a cycle and the two n=16 requests its slowest fifth: p50 and
    p90 land inside those groups rather than on a single request at a group's
    edge.  Natinf runs on acyclic graphs only: on a cycle its star is
    infinite.  Acyclic graphs have 10n-12n paths, which the CLI enumerates as
    a path catoid before the matrix star.
    """

    name = "matrix"
    SLOTS = (Matrix(8, "acyclic", "natinf"), Matrix(9, "cyclic", "minplus"),
             Matrix(10, "acyclic", "boolean"), Matrix(11, "cyclic", "boolean"),
             Matrix(12, "acyclic", "minplus"), Matrix(13, "acyclic", "natinf"),
             Matrix(14, "cyclic", "minplus"), Matrix(15, "acyclic", "boolean"),
             Matrix(16, "cyclic", "minplus"))
    MIX = (*SLOTS, SLOTS[4], SLOTS[8])

    def setup(self, cv):
        super().setup(cv)
        rng = self.rng("inputs")
        self.files, self.graphs, self._oracle = {}, {}, {}
        for slot in self.SLOTS:
            vertices, edges = inputs.banded_dag(rng, slot.n, 10 * slot.n, 12 * slot.n)
            if slot.kind == "cyclic":
                edges = inputs.add_back_edges(rng, vertices, edges, 2)
            weighted = inputs.edge_weights(rng, edges, slot.algebra)
            path = self.workdir / f"matrix-{slot.n}.txt"
            path.write_text(inputs.graph_text(vertices, weighted))
            self.files[slot] = str(path)
            self.graphs[slot] = (vertices, weighted)

    def cycle(self, c):
        reqs = list(self.MIX)
        self.rng(c).shuffle(reqs)
        return reqs

    def run(self, req):
        return run_cli(self.cv.cli, ["star", "--model", "graph", "--algebra", req.algebra,
                                     "--star", "matrix", "--weights", self.files[req]])

    def check(self, req, out):
        return out.code == 0 and parse_rows(out.stdout) == self.oracle(req)

    def oracle(self, req):
        if req not in self._oracle:
            vertices, weighted = self.graphs[req]
            edges = [(s, t, w) for _, s, t, w in weighted]
            closure = {"minplus": oracles.floyd_warshall, "boolean": oracles.warshall,
                       "natinf": oracles.dag_path_sums}[req.algebra]
            d = closure(vertices, edges)
            self._oracle[req] = {f"{a}->{b}": oracles.fmt(d[a, b])
                                 for a in vertices for b in vertices}
        return self._oracle[req]


# ---------------------------------------------------------------------------


class Point(NamedTuple):
    variant: int
    word: str
    path: tuple
    k: int


class Probe(NamedTuple):
    form: str
    k: int
    variant: int = 0


class StarPoint(Workload):
    """Library session: warm models, then point queries on fresh functions.

    A request evaluates star_recursive, star_dual and convolve at one word of
    words(ab,10) and at a^k in words(a,1000), and star_path at one path of a
    20-vertex DAG.  Each cycle runs k = 50, 55, ..., 300 once; the unary
    queries dominate and cost about k^2.  The probes ask both star forms for
    a^400 and a^800; star_recursive fails there on the recursion limit.
    """

    name = "star_point"
    VARIANTS = 4
    KS = tuple(range(50, 301, 5))
    PROBES = (Probe("recursive", 400), Probe("dual", 400),
              Probe("recursive", 800), Probe("dual", 800))

    def setup(self, cv):
        super().setup(cv)
        rng = self.rng("inputs")
        vertices, edges = inputs.banded_dag(rng, 20, 400, 480)
        self.dag = cv.models.GraphSpec(tuple(vertices),
                                       tuple(inputs.edge_weights(rng, edges, "minplus")))
        self.ends = {name: t for name, _, t in edges}
        self.paths = [p for p in inputs.all_paths(vertices, edges, 20) if p[1]]
        self.words = [w for w in inputs.all_words("ab", 10) if w]
        self.word_tables, self.unary_tables, self.path_tables = [], [], []
        for _ in range(self.VARIANTS):
            t = {w: rng.choice(inputs.POOLS["natinf"]) for w in inputs.all_words("ab", 3) if w}
            for _ in range(6):
                t[rng.choice(self.words)] = rng.choice(inputs.POOLS["natinf"])
            self.word_tables.append(t)
            self.unary_tables.append({"a" * j: rng.randint(1, 9) for j in range(1, 6)})
            t = {(s, (name,)): w for name, s, _, w in self.dag.edges}
            for p in rng.sample([p for p in self.paths if len(p[1]) == 2], 10):
                t[p] = rng.randint(0, 9)
            t.update({(v, ()): 0 for v in vertices})  # K[C]: identities weigh the min-plus one
            self.path_tables.append(t)
        self._oracle = {}
        self.pass_setup()

    def pass_setup(self):
        cli, models = self.cv.cli, self.cv.models
        self.natinf = cli.ALGEBRAS["natinf"]()
        self.minplus = cli.ALGEBRAS["minplus"]()
        self.W = models.free_monoid("ab", 10)
        self.P = models.path_catoid(self.dag, 20)
        self.U = models.free_monoid("a", 1000)
        for C in (self.W, self.P, self.U):
            C.require_moebius()

    def cycle(self, c):
        rng = self.rng(c)
        ks = list(self.KS)
        rng.shuffle(ks)
        return [Point(rng.randrange(self.VARIANTS), rng.choice(self.words),
                      rng.choice(self.paths), k) for k in ks]

    def probes(self):
        return list(self.PROBES)

    def run(self, req):
        conv = self.cv.convolution
        u = conv.from_pairs(self.U, self.minplus, self.unary_tables[req.variant])
        a = "a" * req.k
        if isinstance(req, Probe):
            star = conv.star_recursive if req.form == "recursive" else conv.star_dual
            return (star(u)(a),)
        f = conv.from_pairs(self.W, self.natinf, self.word_tables[req.variant])
        g = conv.from_pairs(self.P, self.minplus, self.path_tables[req.variant])
        x = req.word
        return (conv.star_recursive(f)(x), conv.star_dual(f)(x), conv.convolve(f, f)(x),
                conv.star_path(g)(req.path),
                conv.star_recursive(u)(a), conv.star_dual(u)(a), conv.convolve(u, u)(a))

    def check(self, req, out):
        return tuple(str(v) for v in out) == self.oracle(req)

    def oracle(self, req):
        if req not in self._oracle:
            N, M = oracles.SEMIRINGS["natinf"], oracles.SEMIRINGS["minplus"]
            ut = self.unary_tables[req.variant]
            a = "a" * req.k
            unary_star = oracles.word_star(M, ut, a, max_seg=5)
            if isinstance(req, Probe):
                vals = (unary_star,)
            else:
                wt = self.word_tables[req.variant]
                ws = oracles.word_star(N, wt, req.word)
                vals = (ws, ws, oracles.word_convolve(N, wt, wt, req.word),
                        oracles.path_star(M, self.path_tables[req.variant], req.path,
                                          self.ends, unit_ids=True),
                        unary_star, unary_star, oracles.word_convolve(M, ut, ut, a))
            self._oracle[req] = tuple(oracles.fmt(v) for v in vals)
        return self._oracle[req]


WORKLOADS = {w.name: w for w in (Campaign, StarCold, StarPoint, MatrixStar)}
