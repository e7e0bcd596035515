"""Spans and counters for the traced run, installed from outside the package.

Wrappers go on the names callers look up: module attributes (for example
``convka.cli.matrix_star`` and ``convka.lab.check_n_catoid``), class
attributes (``Catoid.require_moebius``, each model's ``compose``) and two
lookup tables (``cli.ALGEBRAS`` and ``lab._SUITE_FN``).  ``uninstall`` puts
every original back, so untraced passes run the package unchanged.

A span records name, start, end, parent span and request id.  Spans stay in
memory until ``write_spans``.  Times are process CPU seconds, as for the
untraced run.  A span's self time is its duration minus the
durations of its child spans; calls are synchronous on one thread, so the
children of a span never overlap.

Semiring operations are counted on copies of each algebra made with
``dataclasses.replace``, whose add, mul and star count before delegating.
Each operation is charged to the innermost open span.
"""

from __future__ import annotations

import dataclasses
import functools
from array import array
from collections import Counter, defaultdict
from time import process_time

SUITES = ("catoid", "kleene", "kat", "modal", "interchange", "nka", "conway",
          "independence", "quantale")
STAR_FORMS = ("star_recursive", "star_dual", "star_path", "star_unfolded", "convolve")
MODEL_CONSTRUCTORS = ("free_monoid", "shuffle_catoid", "interval_catoid",
                      "pair_groupoid", "path_catoid", "guarded_string_catoid",
                      "shuffle_concat_2catoid", "pasting_square_2category")

# Every per-layer metric with its unit, in report order.
SELF_TIME_SPANS = (
    "catoid.require_moebius", "catoid.check_catoid_axioms", "higher.check_n_catoid",
    "higher.check_interchange", "higher.check_n_axioms", "modal.check_modal",
    "lab.verify_quantale_star", "convolution.star_recursive", "convolution.star_dual",
    "convolution.star_path", "convolution.convolve", "pathtool.matrix_star",
    "pathtool.parse", "models.build", "cli.main", "report.to_text",
)
PER_LAYER = (
    [(f"{s}.self_s", "s") for s in SELF_TIME_SPANS]
    + [(f"lab.suite.{s}.s", "s") for s in SUITES]
    + [("catoid.compose.calls", "count"), ("catoid.decompositions", "count"),
       ("catoid.moebius.useful_ratio", "ratio"), ("convolution.semiring_ops", "count"),
       ("convolution.errors", "count"), ("pathtool.matrix_star.semiring_ops", "count"),
       ("models.elements", "count"), ("cli.output_lines", "count"),
       ("values.semiring_ops", "count"), ("trace.overhead_ratio", "ratio")]
)


class TimedWeightFunction:
    """Stands in for a lazily evaluated WeightFunction so that evaluating it
    opens a span; every other attribute comes from the wrapped function."""

    __slots__ = ("_wf", "_call")

    def __init__(self, wf, call):
        self._wf = wf
        self._call = call

    def __call__(self, x):
        return self._call(x)

    def __getattr__(self, attr):
        return getattr(self._wf, attr)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, child time, span id]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.ops = Counter()  # semiring operations by innermost span name
        self.request = 0
        self._names = {}
        self._records = array("d")  # id, parent, request, name index, start, end
        self._next_id = 0
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def enter(self, name):
        self.stack.append([name, process_time(), 0.0, self._next_id])
        self._next_id += 1

    def exit(self):
        end = process_time()
        name, start, child, sid = self.stack.pop()
        dur = end - start
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        parent = -1
        if self.stack:
            top = self.stack[-1]
            top[2] += dur
            parent = top[3]
        ix = self._names.setdefault(name, len(self._names))
        self._records.extend((sid, parent, self.request, ix, start, end))

    def span(self, name, fn):
        """fn wrapped in a span; an exception leaving the layer counts as an error."""
        layer = name.split(".", 1)[0] + "."

        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                if len(self.stack) < 2 or not self.stack[-2][0].startswith(layer):
                    self.counts[layer + "errors"] += 1
                raise
            finally:
                self.exit()

        return wrapper

    def lazy_span(self, name, fn):
        """Span a star/convolve constructor and the evaluations of its result."""
        build = self.span(name, fn)

        def wrapper(*args, **kwargs):
            wf = build(*args, **kwargs)
            return TimedWeightFunction(wf, self.span(name, wf))

        return wrapper

    # -- counters -------------------------------------------------------------

    def counted(self, fn):
        ops, stack = self.ops, self.stack

        def op(*args):
            ops[stack[-1][0] if stack else "-"] += 1
            return fn(*args)

        return op

    def counted_algebra(self, K):
        c = self.counted
        if hasattr(K, "dims"):  # n-dimensional: shared add, per-dimension mul/star
            dims = tuple(dataclasses.replace(d, mul=c(d.mul), star=d.star and c(d.star))
                         for d in K.dims)
            return dataclasses.replace(K, add=c(K.add), dims=dims)
        return dataclasses.replace(K, add=c(K.add), mul=c(K.mul), star=K.star and c(K.star))

    def counted_factory(self, make):
        return lambda *args, **kwargs: self.counted_algebra(make(*args, **kwargs))

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        old = getattr(owner, attr)
        self._undo.append((setattr, owner, attr, old))
        setattr(owner, attr, functools.wraps(old)(new))

    def _patch_item(self, table, key, new):
        self._undo.append((dict.__setitem__, table, key, table[key]))
        table[key] = new

    def install(self, cv):
        """Wrap the layer boundaries of the freshly imported package ``cv``."""
        P, sp = self._patch, self.span
        P(cv.cli, "main", sp("cli.main", cv.cli.main))
        for name in ("parse_graph", "parse_weights", "parse_poset", "parse_weight_token"):
            P(cv.cli, name, sp("pathtool.parse", getattr(cv.cli, name)))
        P(cv.cli, "matrix_star", sp("pathtool.matrix_star", cv.cli.matrix_star))
        for name, make in list(cv.cli.ALGEBRAS.items()):
            self._patch_item(cv.cli.ALGEBRAS, name, self.counted_factory(make))

        for name in ("make_boolean", "make_boolean_nd", "make_min_plus", "make_nat_inf_conway"):
            P(cv.lab, name, self.counted_factory(getattr(cv.lab, name)))
        for suite, fn in list(cv.lab._SUITE_FN.items()):
            self._patch_item(cv.lab._SUITE_FN, suite, sp(f"lab.suite.{suite}", fn))
        P(cv.lab, "verify_quantale_star", sp("lab.verify_quantale_star", cv.lab.verify_quantale_star))
        for name, layer in (("check_catoid_axioms", "catoid"), ("check_n_catoid", "higher"),
                            ("check_interchange", "higher"), ("check_n_axioms", "higher"),
                            ("check_modal", "modal")):
            P(cv.lab, name, sp(f"{layer}.{name}", getattr(cv.lab, name)))

        for mod in (cv.convolution, cv.package, cv.cli, cv.lab, cv.higher, cv.modal):
            for name in STAR_FORMS:
                if hasattr(mod, name):
                    P(mod, name, self.lazy_span(f"convolution.{name}", getattr(mod, name)))

        Catoid = cv.catoid.Catoid
        P(Catoid, "require_moebius", sp("catoid.require_moebius", Catoid.require_moebius))
        for mod in (cv.catoid, cv.lab):
            P(mod, "check_moebius", self._moebius_counter(mod.check_moebius))
        for cls in _subclasses(Catoid):
            if "compose" in cls.__dict__:
                P(cls, "compose", self._call_counter(cls.compose))
            if "decompose2" in cls.__dict__:
                P(cls, "decompose2", self._size_counter("catoid.decompositions", cls.decompose2))
            if "_build_elements" in cls.__dict__:
                P(cls, "_build_elements",
                  sp("models.build", self._size_counter("models.elements", cls._build_elements)))
        for name in MODEL_CONSTRUCTORS:
            P(cv.models, name, sp("models.build", getattr(cv.models, name)))
        P(cv.report.Report, "to_text", sp("report.to_text", cv.report.Report.to_text))

    def uninstall(self):
        while self._undo:
            put, owner, key, old = self._undo.pop()
            put(owner, key, old)

    def _call_counter(self, fn):
        counts = self.counts

        def wrapper(*args):
            counts["catoid.compose.calls"] += 1
            return fn(*args)

        return wrapper

    def _size_counter(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            out = fn(*args)
            counts[key] += len(out)
            return out

        return wrapper

    def _moebius_counter(self, fn):
        """Count the decompositions of the checked universe against the pairs
        its no-self-absorption scan tests; only pairs among the former can
        satisfy x in x.y."""

        def wrapper(C, universe=None):
            rep = fn(C, universe)
            U = list(universe) if universe is not None else C.elements()
            d2 = type(C).decompose2
            d2 = getattr(d2, "__wrapped__", d2)
            self.counts["catoid.moebius.decompositions"] += sum(len(d2(C, x)) for x in U)
            self.counts["catoid.moebius.pairs"] += len(U) ** 2
            return rep

        return wrapper

    # -- results --------------------------------------------------------------

    def metrics(self, passes: int, overhead_ratio: float) -> dict:
        """Per-layer metrics per traced pass, by the names in PER_LAYER."""
        c = self.counts
        values = {f"{s}.self_s": self.self_s[s] / passes for s in SELF_TIME_SPANS}
        for suite in SUITES:
            values[f"lab.suite.{suite}.s"] = self.total_s[f"lab.suite.{suite}"] / passes
        pairs = c["catoid.moebius.pairs"]
        values.update({
            "catoid.compose.calls": c["catoid.compose.calls"] / passes,
            "catoid.decompositions": c["catoid.decompositions"] / passes,
            "catoid.moebius.useful_ratio":
                c["catoid.moebius.decompositions"] / pairs if pairs else 0.0,
            "convolution.semiring_ops":
                sum(n for k, n in self.ops.items() if k.startswith("convolution.")) / passes,
            "convolution.errors": c["convolution.errors"] / passes,
            "pathtool.matrix_star.semiring_ops": self.ops["pathtool.matrix_star"] / passes,
            "models.elements": c["models.elements"] / passes,
            "cli.output_lines": c["cli.output_lines"] / passes,
            "values.semiring_ops": sum(self.ops.values()) / passes,
            "trace.overhead_ratio": overhead_ratio,
        })
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write_spans(self, path):
        """One tab-separated line per span: id, parent, request, name, start, end."""
        names = sorted(self._names, key=self._names.get)
        r = self._records
        with open(path, "w") as out:
            out.write("id\tparent\trequest\tname\tstart_s\tend_s\n")
            for i in range(0, len(r), 6):
                out.write(f"{int(r[i])}\t{int(r[i + 1])}\t{int(r[i + 2])}\t"
                          f"{names[int(r[i + 3])]}\t{r[i + 4]:.9f}\t{r[i + 5]:.9f}\n")

    @property
    def span_count(self) -> int:
        return len(self._records) // 6


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out
