"""A fixed reference job that measures how fast the host runs right now.

On a shared virtual machine the CPU time of identical work changes by up to
2x from one second to the next, as other tenants come and go on the same
cores and caches.  The benchmark therefore runs ``reference()`` before
and after every timed request and reports the request's time scaled to a
host on which one reference slice takes ``NOMINAL_S``.

The reference does the kinds of work convka spends its time on: it
concatenates words and looks them up in a dict of two thousand entries,
as a catoid scan does, and folds min/plus over a small dict of tuples, as a
star evaluation does.  It allocates no cycles, and the cyclic garbage
collector is off while it runs, so the objects a workload keeps alive do
not change its cost.  Only the benchmark's own code runs in it, so a change
to convka moves the scaled times by exactly its own effect.
"""

from __future__ import annotations

import gc
import itertools
import statistics
from time import process_time

# Median CPU seconds of one slice on the 2-core machine the baseline in
# METRICS.md comes from, in a quiet minute (Python 3.11.7).
NOMINAL_S = 0.002
# After an item of t CPU seconds, slices run for at least SHARE * t seconds.
SHARE = 0.05

_WORDS = ["".join(p) for n in range(1, 11) for p in itertools.product("ab", repeat=n)]
_INDEX = {w: i for i, w in enumerate(_WORDS)}


def _job(pairs: int = 2500, cells: int = 1200) -> int:
    m = len(_WORDS)
    hits = 0
    k = 12345
    for _ in range(pairs):
        k = (k * 1103515245 + 12345) & 0x7FFFFFFF
        x, y = _WORDS[k % m], _WORDS[(k >> 12) % m]
        z = x + y
        if z in _INDEX:
            hits += _INDEX[z] & 1
    best = {}
    for i in range(cells):
        key = (_WORDS[i % m], i % 7)
        old = best.get(key)
        new = (i * 7919) % 101 + len(key[0])
        best[key] = new if old is None else min(old, old + new)
    return hits + sum(best.values())


def reference() -> float:
    """Run one reference slice; returns its CPU seconds.

    The job runs twice and only the second run is timed: the request before
    it has evicted the job's data from the caches, and how much of it
    depends on the request, which would otherwise leak into the factor."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _job()
        t0 = process_time()
        _job()
        return process_time() - t0
    finally:
        if enabled:
            gc.enable()


def measure(busy_s: float = 0.0) -> float:
    """Mean CPU seconds of reference slices run right after an item that took
    ``busy_s`` CPU seconds: at least one slice, and slices for at least
    SHARE * busy_s seconds, so that a long item is judged by more than an
    instant of the host's speed."""
    times = [reference()]
    while sum(times) < SHARE * busy_s:
        times.append(reference())
    return statistics.fmean(times)


def factors(gaps: list) -> list:
    """Speed factor of each of ``len(gaps) - 1`` timed items, item i having
    run between the measurements ``gaps[i]`` and ``gaps[i + 1]``: their mean
    over NOMINAL_S.  Above 1 the host ran slower than nominal.

    The host's speed changes by up to 2x from one second to the next, so
    only the adjacent measurements describe the item's own moment: on the
    same requests, averaging the slices of the surrounding 0.5 s or more
    followed their time per request less closely than these two."""
    return [(a + b) / (2 * NOMINAL_S) for a, b in zip(gaps, gaps[1:])]
