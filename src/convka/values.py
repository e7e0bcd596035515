"""Value algebras: semirings through Kleene/Conway/modal/n-dimensional variants.

Carriers are exact: booleans and finite tables use small ints or interned
strings, tropical carriers use Python ints plus distinguished infinity
tokens.  No floats anywhere, so every law check is an exact equality.

All algebra objects are immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Callable, Optional

from .report import FAIL, PASS, Report


class CapabilityError(Exception):
    """An operation needs a capability (star, modal maps, finiteness) the algebra lacks."""


class TableFormatError(Exception):
    """Malformed finite-algebra table text."""


class _Inf:
    __slots__ = ()

    def __repr__(self):
        return "inf"


class _NegInf:
    __slots__ = ()

    def __repr__(self):
        return "-inf"


INF = _Inf()
NEG_INF = _NegInf()


class _SharedAddition:
    """Finiteness, the order and the sampling pool, which one- and
    n-dimensional algebras derive alike from their shared addition."""

    @property
    def is_finite(self) -> bool:
        return self.carrier is not None

    def leq(self, a, b) -> bool:
        if not self.idempotent_add:
            raise CapabilityError(f"{self.name}: no order, addition is not idempotent")
        return self.add(a, b) == b

    def pool(self) -> tuple:
        if self.carrier is not None:
            return self.carrier
        if self.sample_pool is not None:
            return self.sample_pool
        raise CapabilityError(f"{self.name}: no carrier and no sample pool")


@dataclass(frozen=True)
class ValueAlgebra(_SharedAddition):
    """An operation bundle (add, mul, 0, 1) with optional star/modal structure.

    ``leq`` is only defined when addition is idempotent, via a <= b iff a+b == b.
    ``carrier`` enumerates the full weight set for finite algebras; infinite
    algebras instead carry ``sample_pool``, the finite pool random checks draw
    from.
    """

    name: str
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    zero: Any
    one: Any
    idempotent_add: bool = False
    star: Optional[Callable[[Any], Any]] = None
    dom: Optional[Callable[[Any], Any]] = None
    cod: Optional[Callable[[Any], Any]] = None
    carrier: Optional[tuple] = None
    sample_pool: Optional[tuple] = None

    @cached_property
    def zero_absorbs(self) -> bool:
        """0.a = a.0 = 0 and 0 + a = a + 0 = a for every weight a in ``pool()``
        (the carrier, else the sample pool), decided once per algebra; False
        when the algebra has neither."""
        if self.carrier is None and self.sample_pool is None:
            return False
        z, add, mul = self.zero, self.add, self.mul
        return all(mul(z, a) == z == mul(a, z) and add(z, a) == a == add(a, z)
                   for a in self.pool())

    @property
    def has_star(self) -> bool:
        return self.star is not None

    @property
    def has_modal(self) -> bool:
        return self.dom is not None and self.cod is not None

    def with_quantale_star(self) -> "ValueAlgebra":
        """Attach the power-join star (finite idempotent algebras only)."""
        table = {a: quantale_star(self, a) for a in self.carrier or ()}
        if not table:
            raise CapabilityError(f"{self.name}: quantale star needs a finite carrier")
        return replace(self, star=table.__getitem__, name=self.name + "*")


@dataclass(frozen=True)
class DimOps:
    """Per-dimension operations of an n-dimensional value algebra."""

    mul: Callable[[Any, Any], Any]
    one: Any
    dom: Optional[Callable[[Any], Any]] = None
    cod: Optional[Callable[[Any], Any]] = None
    star: Optional[Callable[[Any], Any]] = None


@dataclass(frozen=True)
class NValueAlgebra(_SharedAddition):
    """Shared additive structure plus one multiplicative/modal bundle per dimension."""

    name: str
    add: Callable[[Any, Any], Any]
    zero: Any
    dims: tuple[DimOps, ...]
    idempotent_add: bool = True
    carrier: Optional[tuple] = None
    sample_pool: Optional[tuple] = None

    @property
    def n(self) -> int:
        return len(self.dims)

    def view(self, i: int) -> ValueAlgebra:
        """Dimension i as an ordinary value algebra over the shared addition."""
        d = self.dims[i]
        return ValueAlgebra(
            name=f"{self.name}[{i}]",
            add=self.add,
            mul=d.mul,
            zero=self.zero,
            one=d.one,
            idempotent_add=self.idempotent_add,
            star=d.star,
            dom=d.dom,
            cod=d.cod,
            carrier=self.carrier,
            sample_pool=self.sample_pool,
        )


# ---------------------------------------------------------------------------
# stock instances


def make_boolean() -> ValueAlgebra:
    """The two-element Kleene algebra: add=max, mul=min, star constant 1."""
    return ValueAlgebra(
        name="boolean",
        add=max,
        mul=min,
        zero=0,
        one=1,
        idempotent_add=True,
        star=lambda a: 1,
        dom=lambda a: a,
        cod=lambda a: a,
        carrier=(0, 1),
    )


def make_min_plus() -> ValueAlgebra:
    """Min-plus Kleene algebra on the non-negative integers with inf adjoined."""

    def add(a, b):
        if a is INF:
            return b
        if b is INF:
            return a
        return min(a, b)

    def mul(a, b):
        if a is INF or b is INF:
            return INF
        return a + b

    def dom(a):
        return INF if a is INF else 0

    return ValueAlgebra(
        name="minplus",
        add=add,
        mul=mul,
        zero=INF,
        one=0,
        idempotent_add=True,
        star=lambda a: 0,
        dom=dom,
        cod=dom,
        sample_pool=tuple(range(10)) + (INF,),
    )


def make_max_plus() -> ValueAlgebra:
    """Max-plus Kleene algebra on the non-positive integers with -inf adjoined."""

    def add(a, b):
        if a is NEG_INF:
            return b
        if b is NEG_INF:
            return a
        return max(a, b)

    def mul(a, b):
        if a is NEG_INF or b is NEG_INF:
            return NEG_INF
        return a + b

    return ValueAlgebra(
        name="maxplus",
        add=add,
        mul=mul,
        zero=NEG_INF,
        one=0,
        idempotent_add=True,
        star=lambda a: 0,
        sample_pool=tuple(range(-9, 1)) + (NEG_INF,),
    )


def make_nat_inf_conway() -> ValueAlgebra:
    """Naturals with infinity: ordinary +/*, star(0)=1 and star(a)=inf otherwise.

    Addition is not idempotent (2+2=4); this is the stock Conway semiring.
    """

    def add(a, b):
        if a is INF or b is INF:
            return INF
        return a + b

    def mul(a, b):
        if a == 0 or b == 0:
            return 0
        if a is INF or b is INF:
            return INF
        return a * b

    def star(a):
        return 1 if a == 0 else INF

    return ValueAlgebra(
        name="natinf",
        add=add,
        mul=mul,
        zero=0,
        one=1,
        idempotent_add=False,
        star=star,
        sample_pool=tuple(range(6)) + (INF,),
    )


# ---------------------------------------------------------------------------
# finite table parsing


def load_finite_algebra(text: str):
    """Parse the line-oriented finite-algebra format.

    Blocks: ``carrier: e1 e2 ...``, optional ``order: e1 < e2 < ...`` (a chain
    inducing add = join), ``add:``/``mul:``/``mulK:`` square tables in carrier
    order, ``one: e``/``oneK: e`` units, ``dom:``/``cod:`` (or per-dimension
    ``domK:``/``codK:``) single rows.  ``#`` starts a comment.  Returns a
    ValueAlgebra for one multiplication, an NValueAlgebra for several.
    """
    carrier: list[str] = []
    order: list[str] = []
    tables: dict[str, list[list[str]]] = {}
    rows: dict[str, list[str]] = {}
    units: dict[str, str] = {}
    pending: Optional[str] = None

    def fail(msg, lineno):
        raise TableFormatError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line:
            key, _, rest = line.partition(":")
            key = key.strip()
            rest = rest.strip()
            pending = None
            if key == "carrier":
                carrier = rest.split()
                if not carrier:
                    fail("empty carrier", lineno)
            elif key == "order":
                order = [tok for tok in rest.split() if tok != "<"]
            elif key.startswith("one"):
                units[key[3:] or "0"] = rest
                if not rest:
                    fail(f"missing unit element after {key}:", lineno)
            elif key.startswith(("dom", "cod", "star")):
                base = key[:3] if not key.startswith("star") else "star"
                idx = key[len(base):] or "0"
                rows[base + idx] = rest.split() if rest else []
                if not rest:
                    pending = "row:" + base + idx
            elif key.startswith(("add", "mul")):
                tables[key] = []
                pending = "table:" + key
                if rest:
                    fail(f"table {key}: starts on its own line", lineno)
            else:
                fail(f"unknown key {key!r}", lineno)
            continue
        if pending is None:
            fail(f"unexpected data {line!r}", lineno)
        kind, _, name = pending.partition(":")
        if kind == "table":
            tables[name].append(line.split())
        else:
            rows[name] = line.split()
            pending = None

    if not carrier:
        raise TableFormatError("missing carrier")
    if len(set(carrier)) != len(carrier):
        raise TableFormatError("duplicate carrier element")
    index = {e: i for i, e in enumerate(carrier)}
    n = len(carrier)

    def check_table(name, tab):
        if len(tab) != n:
            raise TableFormatError(f"table {name}: expected {n} rows, got {len(tab)}")
        for i, row in enumerate(tab):
            if len(row) != n:
                raise TableFormatError(
                    f"table {name}: row {carrier[i]} has {len(row)} entries, expected {n}"
                )
            for j, v in enumerate(row):
                if v not in index:
                    raise TableFormatError(
                        f"table {name}: row {carrier[i]} column {carrier[j]}: "
                        f"{v!r} not in carrier"
                    )

    def check_row(name, row):
        if len(row) != n:
            raise TableFormatError(f"row {name}: expected {n} entries, got {len(row)}")
        for j, v in enumerate(row):
            if v not in index:
                raise TableFormatError(f"row {name}: column {carrier[j]}: {v!r} not in carrier")

    def table_fn(tab):
        data = {(a, b): tab[index[a]][index[b]] for a in carrier for b in carrier}
        return lambda a, b: data[(a, b)]

    def row_fn(row):
        data = {a: row[index[a]] for a in carrier}
        return data.__getitem__

    if "add" in tables:
        check_table("add", tables["add"])
        add = table_fn(tables["add"])
    elif order:
        if set(order) != set(carrier):
            raise TableFormatError("order does not cover the carrier")
        rank = {e: i for i, e in enumerate(order)}
        add = lambda a, b: a if rank[a] >= rank[b] else b  # join of the chain
    else:
        raise TableFormatError("need an add: table or an order: chain")

    mul_keys = sorted(k for k in tables if k.startswith("mul"))
    if not mul_keys:
        raise TableFormatError("missing multiplication table")
    for k in mul_keys:
        check_table(k, tables[k])
    for k, row in rows.items():
        check_row(k, row)

    idem = all(add(a, a) == a for a in carrier)
    zero = carrier[0] if not order else order[0]
    if "add" in tables:
        # additive unit: the element e with e+x == x for all x
        zeros = [e for e in carrier if all(add(e, x) == x for x in carrier)]
        if not zeros:
            raise TableFormatError("add table has no additive unit")
        zero = zeros[0]

    def one_dim(suffix: str) -> DimOps:
        key = "mul" + suffix if "mul" + suffix in tables else "mul"
        unit = units.get(suffix if suffix else "0")
        if unit is None and suffix == "":
            unit = units.get("0")
        if unit is None:
            raise TableFormatError(f"missing unit one{suffix or ''}:")
        if unit not in index:
            raise TableFormatError(f"unit one{suffix}: {unit!r} not in carrier")
        dom = rows.get("dom" + (suffix or "0"))
        cod = rows.get("cod" + (suffix or "0"))
        star = rows.get("star" + (suffix or "0"))
        return DimOps(
            mul=table_fn(tables[key]),
            one=unit,
            dom=row_fn(dom) if dom else None,
            cod=row_fn(cod) if cod else None,
            star=row_fn(star) if star else None,
        )

    if mul_keys == ["mul"]:
        d = one_dim("")
        return ValueAlgebra(
            name="table",
            add=add,
            mul=d.mul,
            zero=zero,
            one=d.one,
            idempotent_add=idem,
            star=d.star,
            dom=d.dom,
            cod=d.cod,
            carrier=tuple(carrier),
        )

    dims = []
    for k in mul_keys:
        suffix = k[3:]
        if not suffix.isdigit():
            raise TableFormatError(f"bad multiplication key {k}")
        dims.append((int(suffix), one_dim(suffix)))
    dims.sort()
    if [i for i, _ in dims] != list(range(len(dims))):
        raise TableFormatError("multiplication tables must be numbered 0..n-1")
    return NValueAlgebra(
        name="table",
        add=add,
        zero=zero,
        dims=tuple(d for _, d in dims),
        idempotent_add=idem,
        carrier=tuple(carrier),
    )


# ---------------------------------------------------------------------------
# quantale star

def quantale_star(A: ValueAlgebra, a):
    """Join of all powers of a, by accumulating partial sums to a fixed point.

    Sound because once sum(i<=n) a^i stabilises, every later power is below
    it; monotone chains in a finite carrier stabilise within |carrier| steps.
    """
    if not A.is_finite or not A.idempotent_add:
        raise CapabilityError(f"{A.name}: quantale star needs a finite idempotent algebra")
    acc = A.one  # a^0
    power = A.one
    for _ in range(len(A.carrier) + 1):
        power = A.mul(power, a)
        nxt = A.add(acc, power)
        if nxt == acc:
            return acc
        acc = nxt
    raise CapabilityError(f"{A.name}: power joins did not stabilise")  # unreachable on finite data


# ---------------------------------------------------------------------------
# axiom checking

AXIOM_CLASSES = (
    "semiring",
    "dioid",
    "kleene",
    "conway",
    "modal",
    "interchange",
    "n_semiring",
    "n_kleene",
)


def _tuples(pool, arity, rng, samples):
    if rng is None:
        yield from itertools.product(pool, repeat=arity)
    else:
        for _ in range(samples):
            yield tuple(rng.choice(pool) for _ in range(arity))


def _law(report, name, pool, arity, pred, rng, samples):
    """Run one equation/inequality law; collect every violating tuple."""
    bad = []
    count = 0
    for t in _tuples(pool, arity, rng, samples):
        count += 1
        detail = pred(*t)
        if detail is not None:
            bad.append(t + (detail,))
    report.add(name, FAIL if bad else PASS, witnesses=bad, checked=count)


def _implication(report, name, pool, arity, antecedent, conclusion, rng, samples):
    """Conditional law: instances failing the antecedent count as vacuous."""
    bad = []
    count = 0
    vacuous = 0
    for t in _tuples(pool, arity, rng, samples):
        count += 1
        if not antecedent(*t):
            vacuous += 1
            continue
        detail = conclusion(*t)
        if detail is not None:
            bad.append(t + (detail,))
    report.add(name, FAIL if bad else PASS, witnesses=bad, checked=count, vacuous=vacuous)


def _semiring_laws(rep, A, pool, rng, samples, tag=""):
    add, mul, zero, one = A.add, A.mul, A.zero, A.one
    eq = lambda x, y: None if x == y else (x, y)
    _law(rep, f"sr.add-assoc{tag}", pool, 3,
         lambda a, b, c: eq(add(add(a, b), c), add(a, add(b, c))), rng, samples)
    _law(rep, f"sr.add-comm{tag}", pool, 2,
         lambda a, b: eq(add(a, b), add(b, a)), rng, samples)
    _law(rep, f"sr.add-zero{tag}", pool, 1,
         lambda a: eq(add(a, zero), a), rng, samples)
    _law(rep, f"sr.mul-assoc{tag}", pool, 3,
         lambda a, b, c: eq(mul(mul(a, b), c), mul(a, mul(b, c))), rng, samples)
    _law(rep, f"sr.mul-one-left{tag}", pool, 1, lambda a: eq(mul(one, a), a), rng, samples)
    _law(rep, f"sr.mul-one-right{tag}", pool, 1, lambda a: eq(mul(a, one), a), rng, samples)
    _law(rep, f"sr.distrib-left{tag}", pool, 3,
         lambda a, b, c: eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c))), rng, samples)
    _law(rep, f"sr.distrib-right{tag}", pool, 3,
         lambda a, b, c: eq(mul(add(a, b), c), add(mul(a, c), mul(b, c))), rng, samples)
    _law(rep, f"sr.zero-annihil-left{tag}", pool, 1,
         lambda a: eq(mul(zero, a), zero), rng, samples)
    _law(rep, f"sr.zero-annihil-right{tag}", pool, 1,
         lambda a: eq(mul(a, zero), zero), rng, samples)


def _dioid_laws(rep, A, pool, rng, samples, tag=""):
    _semiring_laws(rep, A, pool, rng, samples, tag)
    _law(rep, f"dioid.add-idem{tag}", pool, 1,
         lambda a: None if A.add(a, a) == a else (A.add(a, a),), rng, samples)


def _kleene_laws(rep, A, pool, rng, samples, tag=""):
    add, mul, one, star, leq = A.add, A.mul, A.one, A.star, A.leq
    eq = lambda x, y: None if x == y else (x, y)
    _law(rep, f"ka.unfold-left{tag}", pool, 1,
         lambda a: eq(add(one, mul(a, star(a))), star(a)), rng, samples)
    _law(rep, f"ka.unfold-right{tag}", pool, 1,
         lambda a: eq(add(one, mul(star(a), a)), star(a)), rng, samples)
    _implication(rep, f"ka.induct-left{tag}", pool, 3,
                 lambda a, b, c: leq(add(c, mul(a, b)), b),
                 lambda a, b, c: None if leq(mul(star(a), c), b)
                 else (mul(star(a), c), b),
                 rng, samples)
    _implication(rep, f"ka.induct-right{tag}", pool, 3,
                 lambda a, b, c: leq(add(c, mul(b, a)), b),
                 lambda a, b, c: None if leq(mul(c, star(a)), b)
                 else (mul(c, star(a)), b),
                 rng, samples)


def _conway_laws(rep, A, pool, rng, samples):
    add, mul, one, star = A.add, A.mul, A.one, A.star
    eq = lambda x, y: None if x == y else (x, y)
    _law(rep, "conway.unfold-left", pool, 1,
         lambda a: eq(add(one, mul(a, star(a))), star(a)), rng, samples)
    _law(rep, "conway.unfold-right", pool, 1,
         lambda a: eq(add(one, mul(star(a), a)), star(a)), rng, samples)
    _law(rep, "conway.sum-star", pool, 2,
         lambda a, b: eq(star(add(a, b)), mul(star(mul(star(a), b)), star(a))),
         rng, samples)
    _law(rep, "conway.prod-star-swap", pool, 2,
         lambda a, b: eq(mul(star(mul(a, b)), a), mul(a, star(mul(b, a)))),
         rng, samples)


def _modal_laws(rep, A, pool, rng, samples, tag=""):
    add, mul, one, zero, dom, cod, leq = A.add, A.mul, A.one, A.zero, A.dom, A.cod, A.leq
    eq = lambda x, y: None if x == y else (x, y)
    _law(rep, f"modal.dom-expand{tag}", pool, 1,
         lambda a: None if leq(a, mul(dom(a), a)) else (mul(dom(a), a),), rng, samples)
    _law(rep, f"modal.dom-local{tag}", pool, 2,
         lambda a, b: eq(dom(mul(a, dom(b))), dom(mul(a, b))), rng, samples)
    _law(rep, f"modal.dom-subid{tag}", pool, 1,
         lambda a: None if leq(dom(a), one) else (dom(a),), rng, samples)
    _law(rep, f"modal.dom-strict{tag}", pool, 0,
         lambda: eq(dom(zero), zero), rng, 1 if rng else samples)
    _law(rep, f"modal.dom-additive{tag}", pool, 2,
         lambda a, b: eq(dom(add(a, b)), add(dom(a), dom(b))), rng, samples)
    _law(rep, f"modal.cod-expand{tag}", pool, 1,
         lambda a: None if leq(a, mul(a, cod(a))) else (mul(a, cod(a)),), rng, samples)
    _law(rep, f"modal.cod-local{tag}", pool, 2,
         lambda a, b: eq(cod(mul(cod(a), b)), cod(mul(a, b))), rng, samples)
    _law(rep, f"modal.cod-subid{tag}", pool, 1,
         lambda a: None if leq(cod(a), one) else (cod(a),), rng, samples)
    _law(rep, f"modal.cod-strict{tag}", pool, 0,
         lambda: eq(cod(zero), zero), rng, 1 if rng else samples)
    _law(rep, f"modal.cod-additive{tag}", pool, 2,
         lambda a, b: eq(cod(add(a, b)), add(cod(a), cod(b))), rng, samples)
    _law(rep, f"modal.compat-dom{tag}", pool, 1,
         lambda a: eq(cod(dom(a)), dom(a)), rng, samples)
    _law(rep, f"modal.compat-cod{tag}", pool, 1,
         lambda a: eq(dom(cod(a)), cod(a)), rng, samples)


def _require(A, attr, cls):
    if not getattr(A, attr):
        raise CapabilityError(f"{A.name}: class {cls!r} needs {attr}")


def check_value_axioms(A, cls: str, rng=None, samples: int = 200) -> Report:
    """Verify the named axiom class; exhaustive when the algebra is finite.

    Pass an un-seeded ``rng=None`` to force exhaustive mode (requires a finite
    carrier); otherwise a random.Random drives bounded sampling.  Violations
    are all collected, not first-fail.
    """
    if cls not in AXIOM_CLASSES:
        raise ValueError(f"unknown axiom class {cls!r}")
    multi = isinstance(A, NValueAlgebra)
    if cls in ("interchange", "n_semiring", "n_kleene") and not multi:
        raise CapabilityError(f"{A.name}: class {cls!r} needs an n-dimensional algebra")
    if cls not in ("interchange", "n_semiring", "n_kleene") and multi:
        raise CapabilityError(f"{A.name}: class {cls!r} needs a one-dimensional algebra")
    if rng is None and not A.is_finite:
        raise CapabilityError(f"{A.name}: exhaustive checking needs a finite carrier")

    pool = A.carrier if rng is None else A.pool()
    rep = Report(algebra=A.name)
    eq = lambda x, y: None if x == y else (x, y)

    if cls == "semiring":
        _semiring_laws(rep, A, pool, rng, samples)
    elif cls == "dioid":
        _dioid_laws(rep, A, pool, rng, samples)
    elif cls == "kleene":
        _require(A, "has_star", cls)
        _dioid_laws(rep, A, pool, rng, samples)
        _kleene_laws(rep, A, pool, rng, samples)
    elif cls == "conway":
        _require(A, "has_star", cls)
        _semiring_laws(rep, A, pool, rng, samples)
        _conway_laws(rep, A, pool, rng, samples)
    elif cls == "modal":
        _require(A, "has_modal", cls)
        _dioid_laws(rep, A, pool, rng, samples)
        _modal_laws(rep, A, pool, rng, samples)
    elif cls == "interchange":
        if A.n != 2:
            raise CapabilityError("interchange class is two-dimensional")
        v0, v1 = A.view(0), A.view(1)
        _dioid_laws(rep, v0, pool, rng, samples, tag="[0]")
        _dioid_laws(rep, v1, pool, rng, samples, tag="[1]")
        if v0.has_star and v1.has_star:
            _kleene_laws(rep, v0, pool, rng, samples, tag="[0]")
            _kleene_laws(rep, v1, pool, rng, samples, tag="[1]")
        m0, m1 = A.dims[0].mul, A.dims[1].mul
        _law(rep, "ic.interchange", pool, 4,
             lambda a, b, c, d: None
             if A.leq(m0(m1(a, b), m1(c, d)), m1(m0(a, c), m0(b, d)))
             else (m0(m1(a, b), m1(c, d)), m1(m0(a, c), m0(b, d))),
             rng, samples)
        _law(rep, "ic.unit-leq", pool, 0,
             lambda: None if A.leq(A.dims[0].one, A.dims[1].one) else
             (A.dims[0].one, A.dims[1].one), rng, 1 if rng else samples)
    elif cls in ("n_semiring", "n_kleene"):
        for i, d in enumerate(A.dims):
            if d.dom is None or d.cod is None:
                raise CapabilityError(f"{A.name}: dimension {i} lacks modal maps")
        for i in range(A.n):
            vi = A.view(i)
            _dioid_laws(rep, vi, pool, rng, samples, tag=f"[{i}]")
            _modal_laws(rep, vi, pool, rng, samples, tag=f"[{i}]")
        for i in range(A.n):
            for j in range(A.n):
                if i == j:
                    continue
                di, mj = A.dims[i], A.dims[j].mul
                _law(rep, f"nsr.dom-lax[{i},{j}]", pool, 2,
                     lambda a, b, di=di, mj=mj: None
                     if A.leq(di.dom(mj(a, b)), mj(di.dom(a), di.dom(b)))
                     else (di.dom(mj(a, b)), mj(di.dom(a), di.dom(b))),
                     rng, samples)
                _law(rep, f"nsr.cod-lax[{i},{j}]", pool, 2,
                     lambda a, b, di=di, mj=mj: None
                     if A.leq(di.cod(mj(a, b)), mj(di.cod(a), di.cod(b)))
                     else (di.cod(mj(a, b)), mj(di.cod(a), di.cod(b))),
                     rng, samples)
        for i in range(A.n):
            for j in range(i + 1, A.n):
                mi, dj = A.dims[i].mul, A.dims[j]
                mj, di = A.dims[j].mul, A.dims[i]
                _law(rep, f"nsr.interchange[{i}<{j}]", pool, 4,
                     lambda a, b, c, d, mi=mi, mj=mj: None
                     if A.leq(mi(mj(a, b), mj(c, d)), mj(mi(a, c), mi(b, d)))
                     else (mi(mj(a, b), mj(c, d)), mj(mi(a, c), mi(b, d))),
                     rng, samples)
                _law(rep, f"nsr.dom-absorb[{i}<{j}]", pool, 1,
                     lambda a, di=di, dj=dj: eq(dj.dom(di.dom(a)), di.dom(a)),
                     rng, samples)
                _law(rep, f"nsr.closure-dom[{i}<{j}]", pool, 2,
                     lambda a, b, mi=mi, dj=dj: eq(
                         dj.dom(mi(dj.dom(a), dj.dom(b))), mi(dj.dom(a), dj.dom(b))),
                     rng, samples)
                _law(rep, f"nsr.closure-cod[{i}<{j}]", pool, 2,
                     lambda a, b, mi=mi, dj=dj: eq(
                         dj.cod(mi(dj.cod(a), dj.cod(b))), mi(dj.cod(a), dj.cod(b))),
                     rng, samples)
        if cls == "n_kleene":
            for i, d in enumerate(A.dims):
                if d.star is None:
                    raise CapabilityError(f"{A.name}: dimension {i} lacks a star")
                _kleene_laws(rep, A.view(i), pool, rng, samples, tag=f"[{i}]")
            for i in range(A.n):
                for j in range(i + 1, A.n):
                    mi, di = A.dims[i].mul, A.dims[i]
                    sj = A.dims[j].star
                    _law(rep, f"nka.star-dom[{i}<{j}]", pool, 2,
                         lambda a, b, mi=mi, di=di, sj=sj: None
                         if A.leq(mi(di.dom(a), sj(b)), sj(mi(di.dom(a), b)))
                         else (mi(di.dom(a), sj(b)), sj(mi(di.dom(a), b))),
                         rng, samples)
                    _law(rep, f"nka.star-cod[{i}<{j}]", pool, 2,
                         lambda a, b, mi=mi, di=di, sj=sj: None
                         if A.leq(mi(sj(b), di.cod(a)), sj(mi(b, di.cod(a))))
                         else (mi(sj(b), di.cod(a)), sj(mi(b, di.cod(a)))),
                         rng, samples)
    return rep


def make_boolean_nd(n: int = 2) -> NValueAlgebra:
    """Boolean n-dimensional Kleene algebra: every dimension is the boolean KA."""
    dim = DimOps(mul=min, one=1, dom=lambda a: a, cod=lambda a: a, star=lambda a: 1)
    return NValueAlgebra(
        name=f"boolean{n}d",
        add=max,
        zero=0,
        dims=tuple(dim for _ in range(n)),
        idempotent_add=True,
        carrier=(0, 1),
    )
