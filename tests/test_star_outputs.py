"""Every ``pathtool star`` output line on a fixed set of weight files, pinned.

Each case is one model with seeded weights for every algebra whose carrier
the weights fit: words(ab,4), words(a,40), shuffle(ab,3), guarded(2t,2a,2),
the paths of a DAG, the intervals of a poset and the paths of length <= 3 of
a graph with back edges.  Each runs in the recursive, dual and unfolded
forms, and both graphs also under ``--star matrix``.  The
unfolded form skips words(a,40): it sums over all 2^39 compositions of a^40.
A change to how the star forms evaluate, order or format their values shows
here as a changed line.

Regenerate with ``PYTHONPATH=src python tests/test_star_outputs.py``.
"""

import io
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from convka.cli import main

STAR_PIN = Path(__file__).parent / "data" / "star_outputs.txt"
POOLS = {
    "boolean": ("0", "1", "1"),
    "minplus": ("0", "1", "2", "3", "5", "inf"),
    "maxplus": ("0", "-1", "-2", "-4", "-inf"),
    "natinf": ("0", "1", "1", "2", "inf"),
}
FORMS = ("recursive", "dual", "unfolded")
DAG_EDGES = (("a", "b", "x"), ("b", "d", "y"), ("a", "c", "z"), ("c", "d", "w"),
             ("b", "c", "v"), ("d", "e", "u"), ("a", "e", "t"))
CYCLIC_EDGES = (("a", "b", "x"), ("b", "c", "y"), ("c", "a", "z"), ("c", "d", "w"),
                ("d", "b", "v"), ("a", "d", "u"))
POSET_COVERS = (("a", "d"), ("d", "e"), ("e", "c"), ("a", "b"), ("b", "c"))
POSET_WEIGHTED = (("a", "d"), ("d", "e"), ("e", "c"), ("a", "b"), ("b", "c"), ("a", "e"),
                  ("b", "b"), ("a", "c"))


def element_text(tokens):
    def text(rng, pool):
        return "".join(f"{tok} {rng.choice(pool)}\n" for tok in tokens)
    return text


def edge_text(edges):
    def text(rng, pool):
        return "".join(f"{s} {t} {name} {rng.choice(pool)}\n" for s, t, name in edges)
    return text


def poset_text(rng, pool):
    covers = "".join(f"{a} < {b}\n" for a, b in POSET_COVERS)
    return covers + "".join(f"{a} {b} {rng.choice(pool)}\n" for a, b in POSET_WEIGHTED)


# (case, model, max length or None, weight-file text from an rng and a pool, forms)
CASES = (
    ("words(ab,4)", "words", 4, element_text(["a", "b", "ab", "ba", "aab", "bb"]), FORMS),
    ("words(a,40)", "words", 40, element_text(["a", "aa", "aaa", "aaaaa"]), FORMS[:2]),
    ("shuffle(ab,3)", "shuffle", 3, element_text(["a", "b", "ab", "bb"]), FORMS),
    ("guarded(2t,2a,2)", "guarded", 2,
     element_text(["t0.p.t1", "t1.q.t0", "t0.q.t0", "t1.p.t1", "t0.p.t1.q.t1"]), FORMS),
    ("dag-paths", "graph", None, edge_text(DAG_EDGES), FORMS + ("matrix",)),
    ("poset-intervals", "poset", None, poset_text, FORMS),
    ("cyclic-graph", "graph", 3, edge_text(CYCLIC_EDGES), FORMS + ("matrix",)),
)


def star_output_lines():
    """One line per printed row: case, algebra, form, then the row itself."""
    with tempfile.TemporaryDirectory() as tmp:
        for case, model, max_len, text, forms in CASES:
            for algebra, pool in POOLS.items():
                path = Path(tmp) / "weights.txt"
                path.write_text(text(random.Random(f"{case}:{algebra}"), pool))
                for form in forms:
                    argv = ["star", "--model", model, "--algebra", algebra, "--star", form,
                            "--weights", str(path)]
                    if max_len is not None:
                        argv += ["--max-length", str(max_len)]
                    out = io.StringIO()
                    with redirect_stdout(out), redirect_stderr(io.StringIO()):
                        code = main(argv)
                    assert code == 0, (case, algebra, form, code)
                    for row in out.getvalue().splitlines():
                        yield f"{case}\t{algebra}\t{form}\t{row}"


def test_star_outputs_pinned():
    expected = STAR_PIN.read_text().splitlines()
    assert list(star_output_lines()) == expected


if __name__ == "__main__":  # regenerate the pin: python tests/test_star_outputs.py
    STAR_PIN.write_text("".join(line + "\n" for line in star_output_lines()))
