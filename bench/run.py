"""convka benchmark: one seeded workload, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It imports convka from ``src/`` of the same
checkout and nothing else; without that package it exits with status 2.

Workloads (see workloads.py): campaign, star_cold, star_point, matrix.  One
client sends requests in a closed loop, in whole cycles of a fixed mix, until
the next cycle would end past ``--seconds``.  Every answer is checked against
the benchmark's own oracles after the timed phase.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count the requests; probes are counted only in ``success_rate``.

``--trace 0`` reports, by name with unit:

    setup_s         median over 3-15 fresh imports of convka, each followed by
                    building the inputs and warming the models
    throughput_rps  correctly answered requests per CPU second of the timed
                    phase
    latency_p50_ms, latency_p90_ms
                    per-request latency; a failed request counts as +inf
    success_rate    correct answers over requests plus probes
    peak_rss_mb     peak resident memory of this process

All times are CPU time of the benchmark process (see ``cpu_clock``), scaled
to a host of nominal speed: a fixed reference job runs before and after each
timed item, and the item's time is divided by how much slower than nominal
the reference ran around it (see speed.py).  The unscaled figures are
printed on the line before the result.

``--trace 1`` alternates untraced and traced passes over cycle 0 (plus, on
star_point, the model set-up and the probes) and reports the per-layer
metrics of tracing.PER_LAYER per traced pass.  The spans of all traced passes
are written to ``bench/out/trace-<workload>-<seed>.tsv``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

import speed
from tracing import Tracer
from workloads import CliResult, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# Set-up is repeated and its median reported: at least SETUP_MIN times, and
# more (up to SETUP_MAX) while the repeats so far took under SETUP_BUDGET_S.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 1.5
MODULES = ("catoid", "cli", "convolution", "higher", "lab", "modal", "models",
           "pathtool", "report", "values")


def load_convka() -> SimpleNamespace:
    """Import convka afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "convka" or m.startswith("convka.")]:
        del sys.modules[name]
    package = importlib.import_module("convka")
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"convka was imported from {package.__file__}, not from {SRC}")
    mods = {m: importlib.import_module(f"convka.{m}") for m in MODULES}
    return SimpleNamespace(package=package, **mods)


def cpu_clock() -> float:
    """CPU seconds used by this process and its waited-for children.

    Requests are timed on this clock, not the wall clock: the workloads are
    single-threaded and do no I/O beyond reading small files from the page
    cache, so the two differ only by the time the host takes the virtual CPU
    away (steal), which on a shared machine swings wall times by 2x within
    minutes.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


def attempt(wl, req):
    """Run one request; returns (output, exception)."""
    try:
        return wl.run(req), None
    except (Exception, SystemExit) as exc:
        return None, exc


def verify(wl, req, out, exc) -> bool:
    if exc is not None:
        return False
    try:
        return bool(wl.check(req, out))
    except (ValueError, KeyError, TypeError):
        return False


def percentile(sorted_vals, q: float) -> float:
    """Quantile at rank q(N+1), interpolated, as statistics.quantiles does;
    +inf entries propagate."""
    pos = min(max(q * (len(sorted_vals) + 1) - 1, 0), len(sorted_vals) - 1)
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0 or sorted_vals[lo + 1] == sorted_vals[lo]:
        return sorted_vals[lo]
    return sorted_vals[lo] + frac * (sorted_vals[lo + 1] - sorted_vals[lo])


def tally(wl, results):
    """Check (is_probe, request, output, exception) rows; returns the ok flag
    per row, the failed requests, and the answers that came back wrong."""
    ok = [verify(wl, req, out, exc) for _, req, out, exc in results]
    failed = sum(1 for (probe, *_), good in zip(results, ok) if not probe and not good)
    wrong = sum(1 for (*_, exc), good in zip(results, ok) if exc is None and not good)
    return ok, failed, wrong


def timed_run(wl_cls, seed, seconds, workdir) -> dict:
    setup, gaps = [], [speed.measure()]
    while len(setup) < SETUP_MIN or (len(setup) < SETUP_MAX and sum(setup) < SETUP_BUDGET_S):
        t0 = cpu_clock()
        wl = wl_cls(seed, workdir)
        wl.setup(load_convka())
        setup.append(cpu_clock() - t0)
        gaps.append(speed.measure(setup[-1]))
    setup_scaled = [t / f for t, f in zip(setup, speed.factors(gaps))]

    results, times, gaps = [], [], [speed.measure()]
    start = perf_counter()
    c = 0
    while True:
        for req in wl.cycle(c):
            t0 = cpu_clock()
            results.append((False, req, *attempt(wl, req)))
            times.append(cpu_clock() - t0)
            gaps.append(speed.measure(times[-1]))
        c += 1
        elapsed = perf_counter() - start
        if elapsed * (c + 1) / c > seconds:
            break
    wall = perf_counter() - start
    factors = speed.factors(gaps)
    scaled = [t / f for t, f in zip(times, factors)]

    n = len(results)
    results += [(True, p, *attempt(wl, p)) for p in wl.probes()]
    ok, failed, wrong = tally(wl, results)
    lat = sorted(dt * 1e3 if good else math.inf for dt, good in zip(scaled, ok))
    raw = sorted(dt * 1e3 for dt in times)
    p90 = percentile(lat, 0.9)
    print(f"# {wl.name} seed={seed}: {n} requests in {c} cycles, {wall:.2f} s wall, "
          f"{sum(times):.2f} s CPU; host speed factor {statistics.median(factors):.3f} "
          f"(quartiles {' '.join(f'{q:.3f}' for q in statistics.quantiles(factors, n=4))}); "
          f"unscaled p50 {percentile(raw, 0.5):.2f} ms, p90 {percentile(raw, 0.9):.2f} ms, "
          f"setup {statistics.median(setup):.4f} s; "
          f"{sum(v > p90 for v in lat)} samples above p90; "
          f"probes ok {sum(ok[n:])}/{len(ok) - n}"
          + "".join(f"; {p.form} k={p.k}: {type(exc).__name__}"
                    for _, p, _, exc in results[n:] if exc is not None))
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "throughput_rps": (sum(ok[:n]) / sum(scaled), "1/s"),
        "latency_p50_ms": (percentile(lat, 0.5), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "success_rate": (sum(ok) / len(ok), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {"correct": failed == 0 and wrong == 0, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def one_pass(wl, tracer=None):
    """Cycle 0 of the workload after its pass set-up, then its probes; returns
    (is_probe, request, output, exception) per request.  Request id 0 is the
    pass set-up."""
    if tracer is not None:
        tracer.request = 0
    wl.pass_setup()
    reqs = [(False, r) for r in wl.cycle(0)] + [(True, p) for p in wl.probes()]
    results = []
    for i, (probe, req) in enumerate(reqs, start=1):
        if tracer is not None:
            tracer.request = i
        out, exc = attempt(wl, req)
        if tracer is not None and isinstance(out, CliResult):
            tracer.counts["cli.output_lines"] += out.stdout.count("\n")
        results.append((probe, req, out, exc))
    return results


def scaled_call(fn, *args):
    """Returns fn(*args) and its CPU time scaled to nominal host speed."""
    before = speed.measure()
    t0 = cpu_clock()
    out = fn(*args)
    dt = cpu_clock() - t0
    return out, dt / speed.factors([before, speed.measure(dt)])[0]


def traced_run(wl_cls, seed, seconds, workdir) -> dict:
    cv = load_convka()
    wl = wl_cls(seed, workdir)
    wl.setup(cv)
    tracer = Tracer()
    plain, traced, results = [], [], []
    start = perf_counter()
    while True:
        out, dt = scaled_call(one_pass, wl)
        results += out
        plain.append(dt)
        tracer.install(cv)
        try:
            out, dt = scaled_call(one_pass, wl, tracer)
        finally:
            tracer.uninstall()
        results += out
        traced.append(dt)
        if (perf_counter() - start) * (len(traced) + 1) / len(traced) > seconds:
            break

    _, failed, wrong = tally(wl, results)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"trace-{wl.name}-{seed}.tsv"
    tracer.write_spans(spans)
    print(f"# {wl.name} seed={seed}: {len(traced)} traced passes, "
          f"{tracer.span_count} spans written to {spans.relative_to(ROOT)}")
    return {"correct": failed == 0 and wrong == 0,
            "attempted": sum(1 for probe, *_ in results if not probe), "failed": failed,
            "metrics": tracer.metrics(len(traced),
                                      statistics.median(traced) / statistics.median(plain))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "convka" / "__init__.py").is_file():
        print(f"run.py: no convka package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
