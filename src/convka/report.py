"""Structured pass/fail reports shared by all law checkers.

A report is a flat list of law results.  Statuses:

  pass   law held on every instance checked
  fail   at least one witness violates the law
  xfail  the law failed and the failure was expected (negative control)
  info   informational line (classification, pattern diff); never a failure
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
XFAIL = "xfail"
INFO = "info"


def fmt_value(v) -> str:
    """Compact, deterministic rendering of witnesses and weights."""
    if isinstance(v, str):
        return v if v else "eps"
    if isinstance(v, frozenset):
        return "{" + ",".join(sorted(fmt_value(x) for x in v)) + "}"
    if isinstance(v, (tuple, list)):
        return "(" + ",".join(fmt_value(x) for x in v) + ")"
    if isinstance(v, dict):
        items = sorted((str(k), fmt_value(x)) for k, x in v.items())
        return "{" + ",".join(f"{k}={x}" for k, x in items) + "}"
    return repr(v)


@dataclass
class LawResult:
    law: str
    status: str
    witnesses: list = field(default_factory=list)
    checked: int = 0
    vacuous: int = 0
    note: str = ""
    model: str = "-"
    algebra: str = "-"

    @property
    def witness(self):
        return self.witnesses[0] if self.witnesses else None


class Report:
    """Accumulates law results; defaults tag each entry with model/algebra."""

    def __init__(self, model: str = "-", algebra: str = "-"):
        self.model = model
        self.algebra = algebra
        self.entries: list[LawResult] = []

    def add(self, law, status, witnesses=None, checked=0, vacuous=0, note=""):
        self.entries.append(
            LawResult(law, status, list(witnesses or []), checked, vacuous, note,
                      self.model, self.algebra)
        )
        return self.entries[-1]

    def law(self, name: str) -> LawResult:
        for e in self.entries:
            if e.law == name:
                return e
        raise KeyError(name)

    @property
    def failures(self) -> list[LawResult]:
        return [e for e in self.entries if e.status == FAIL]

    def failed_laws(self) -> set[str]:
        return {e.law for e in self.failures}

    @property
    def clean(self) -> bool:
        return not self.failures

    def merge(self, other: "Report") -> "Report":
        self.entries.extend(other.entries)
        return self

    def to_text(self) -> str:
        """One line per law: STATUS, law id, model, algebra, witness or dash, count."""
        lines = []
        for e in self.entries:
            w = fmt_value(e.witness) if e.witnesses else "-"
            if e.note:
                w = w + " " + e.note if e.witnesses else e.note
            if e.vacuous:
                w += f" vacuous={e.vacuous}"
            lines.append(
                "\t".join([e.status.upper(), e.law, e.model, e.algebra, w, str(e.checked)])
            )
        return "\n".join(lines)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        n = len(self.entries)
        bad = len(self.failures)
        return f"<Report {self.model}/{self.algebra}: {n} laws, {bad} failing>"
