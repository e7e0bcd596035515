"""Value algebras: semirings through Kleene/Conway/modal/n-dimensional variants.

Carriers are exact: booleans and finite tables use small ints or interned
strings, tropical carriers use Python ints plus distinguished infinity
tokens.  No floats anywhere, so every law check is an exact equality.

All algebra objects are immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Callable, Optional

from .report import Report


class CapabilityError(Exception):
    """An operation needs a capability (star, modal maps, finiteness) the algebra lacks."""


class TableFormatError(Exception):
    """Malformed finite-algebra table text."""


class _Infinity:
    """An infinity token, compared by identity and printed as its text."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self):
        return self.text


INF = _Infinity("inf")
NEG_INF = _Infinity("-inf")


class _SharedAddition:
    """Finiteness, the order and the sampling pool, which one- and
    n-dimensional algebras derive alike from their shared addition."""

    @property
    def is_finite(self) -> bool:
        return self.carrier is not None

    @cached_property
    def idempotent_add(self) -> bool:
        """a + a = a for every weight a in ``pool()``, decided once per algebra
        like ``zero_absorbs``; False when the algebra has no pool."""
        if self.carrier is None and self.sample_pool is None:
            return False
        return all(self.add(a, a) == a for a in self.pool())

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
    algebras instead carry ``sample_pool``, the finite pool that random
    weight functions draw from and the law checker runs over.
    """

    name: str
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    zero: Any
    one: Any
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

    @cached_property
    def add_top(self):
        """The weight t with t + a = a + t = t for every weight a in ``pool()``,
        decided once per algebra like ``zero_absorbs``; None when no weight
        absorbs the addition or the algebra has no pool.  A sum that reaches
        it is settled: boolean 1, min-plus 0, max-plus 0, natinf inf."""
        if self.carrier is None and self.sample_pool is None:
            return None
        pool, add = self.pool(), self.add
        return next((t for t in pool if all(add(t, a) == t == add(a, t) for a in pool)), None)

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
    carrier: Optional[tuple] = None
    sample_pool: Optional[tuple] = None

    @property
    def n(self) -> int:
        return len(self.dims)

    def view(self, i: int) -> ValueAlgebra:
        """Dimension i as an ordinary value algebra over the shared addition;
        the same object on every call, so its derived properties such as
        ``idempotent_add`` are decided once per dimension."""
        return self._views[i]

    @cached_property
    def _views(self) -> tuple:
        return tuple(ValueAlgebra(name=f"{self.name}[{i}]", add=self.add, mul=d.mul,
                                  zero=self.zero, one=d.one, star=d.star, dom=d.dom,
                                  cod=d.cod, carrier=self.carrier,
                                  sample_pool=self.sample_pool)
                     for i, d in enumerate(self.dims))


# ---------------------------------------------------------------------------
# stock instances


def make_boolean() -> ValueAlgebra:
    """The two-element Kleene algebra: add=max, mul=min, star constant 1.

    On the carrier {0, 1} max and min are bitwise or and and, which cost
    less than two-argument max and min and keep 0 and 1 ints."""
    return ValueAlgebra(
        name="boolean",
        add=operator.or_,
        mul=operator.and_,
        zero=0,
        one=1,
        star=lambda a: 1,
        dom=lambda a: a,
        cod=lambda a: a,
        carrier=(0, 1),
    )


def _tropical(name, better, zero, pool, **modal) -> ValueAlgebra:
    """The tropical Kleene algebra over integers with ``zero`` adjoined: add
    keeps a if ``better(a, b)``, else b, and has ``zero`` as its unit, mul is
    + and ``zero`` absorbs it, one is 0 and the star is constant 0.  A
    comparison operator costs less than two-argument min or max."""

    def add(a, b):
        if a is zero:
            return b
        if b is zero:
            return a
        return a if better(a, b) else b

    def mul(a, b):
        if a is zero or b is zero:
            return zero
        return a + b

    return ValueAlgebra(name=name, add=add, mul=mul, zero=zero, one=0, star=lambda a: 0,
                        sample_pool=pool, **modal)


def make_min_plus() -> ValueAlgebra:
    """Min-plus Kleene algebra on the non-negative integers with inf adjoined."""

    def dom(a):
        return INF if a is INF else 0

    return _tropical("minplus", operator.lt, INF, tuple(range(10)) + (INF,), dom=dom, cod=dom)


def make_max_plus() -> ValueAlgebra:
    """Max-plus Kleene algebra on the non-positive integers with -inf adjoined."""
    return _tropical("maxplus", operator.gt, NEG_INF, tuple(range(-9, 1)) + (NEG_INF,))


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
        star=star,
        sample_pool=tuple(range(6)) + (INF,),
    )


# ---------------------------------------------------------------------------
# finite table parsing


_KEY = re.compile(r"carrier|order|add|mul\d*|(one|dom|cod|star)(\d*)")


def load_finite_algebra(text: str):
    """Parse the block-structured finite-algebra format.

    Each ``key:`` line opens a block; its rows are the tokens after the colon
    plus the data lines up to the next key, and ``#`` starts a comment.  Keys:
    ``carrier`` (the elements), ``order`` (a chain ``e1 < e2 < ...`` inducing
    add = join, refused beside an ``add`` table), ``add`` and ``mul`` or
    ``mul0``..``mulK`` (square tables, rows and columns in carrier order),
    ``oneK`` (the unit of dimension K) and ``domK``/``codK``/``starK`` (a row
    with one entry per carrier element).  ``one``, ``dom``, ``cod`` and
    ``star`` are aliases for dimension 0.  Returns a ValueAlgebra for ``mul``,
    an NValueAlgebra for numbered multiplications.
    """
    blocks: dict[str, list[list[str]]] = {}
    rows = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        key, colon, rest = line.partition(":")
        if colon:
            key = key.strip()
            m = _KEY.fullmatch(key)
            if m is None:
                raise TableFormatError(f"line {lineno}: unknown key {key!r}")
            if key == m[1]:
                key += "0"  # one, dom, cod and star alone name dimension 0
            rows = blocks[key] = [rest.split()] if rest.strip() else []
        elif line:
            if rows is None:
                raise TableFormatError(f"line {lineno}: unexpected data {line!r}")
            rows.append(line.split())

    # a table keeps its rows; every other block reads them as one row of tokens
    carrier = sum(blocks.get("carrier", []), [])
    if not carrier:
        raise TableFormatError("missing carrier")
    if len(set(carrier)) != len(carrier):
        raise TableFormatError("duplicate carrier element")
    n = len(carrier)

    def cells(label, row):
        if len(row) != n:
            raise TableFormatError(f"{label} has {len(row)} entries, expected {n}")
        for e, v in zip(carrier, row):
            if v not in carrier:
                raise TableFormatError(f"{label} column {e}: {v!r} not in carrier")
        return zip(carrier, row)

    ops = {}
    for key, rows in blocks.items():
        if key in ("carrier", "order") or key.startswith("one"):
            continue
        if key.startswith(("add", "mul")):
            if len(rows) != n:
                raise TableFormatError(f"table {key}: expected {n} rows, got {len(rows)}")
            data = {(a, b): v for a, row in zip(carrier, rows)
                    for b, v in cells(f"table {key}: row {a}", row)}
            ops[key] = lambda a, b, data=data: data[(a, b)]
        else:
            ops[key] = dict(cells(f"row {key}", sum(rows, []))).__getitem__

    if "add" in ops:
        if "order" in blocks:
            raise TableFormatError("give an add: table or an order: chain, not both")
        add = ops["add"]
        zero = next((e for e in carrier if all(add(e, x) == x for x in carrier)), None)
        if zero is None:
            raise TableFormatError("add table has no additive unit")
    elif "order" in blocks:
        tokens = sum(blocks["order"], [])
        order = tokens[::2]
        if tokens[1::2] != ["<"] * (len(order) - 1) or len(set(order)) != len(order):
            raise TableFormatError("order must be a chain e1 < e2 < ... naming each element once")
        if set(order) != set(carrier):
            raise TableFormatError("order does not cover the carrier")
        rank = {e: i for i, e in enumerate(order)}
        add = lambda a, b: a if rank[a] >= rank[b] else b  # join of the chain
        zero = order[0]
    else:
        raise TableFormatError("need an add: table or an order: chain")

    # (-1, "") for a lone ``mul``, else (K, "K") for each ``mulK``
    muls = sorted((int(k[3:] or -1), k[3:]) for k in ops if k.startswith("mul"))
    if not muls:
        raise TableFormatError("missing multiplication table")
    if [i for i, _ in muls] not in ([-1], list(range(len(muls)))):
        raise TableFormatError("multiplication tables must be numbered 0..n-1")
    tabled = {k or "0" for _, k in muls}  # the dimensions with a multiplication table
    for key in blocks:  # a oneK/domK/codK/starK block needs the table mulK
        if (m := _KEY.fullmatch(key))[1] and m[2] not in tabled:
            raise TableFormatError(f"{key}: no multiplication table for dimension {m[2]}")
    dims = []
    for _, k in muls:
        d = k or "0"
        unit = sum(blocks.get("one" + d, []), [])
        if len(unit) != 1 or unit[0] not in carrier:
            raise TableFormatError(f"unit one{k}: expected one carrier element, got {unit}")
        dims.append(DimOps(mul=ops["mul" + k], one=unit[0], dom=ops.get("dom" + d),
                           cod=ops.get("cod" + d), star=ops.get("star" + d)))
    A = NValueAlgebra(name="table", add=add, zero=zero, dims=tuple(dims), carrier=tuple(carrier))
    return replace(A.view(0), name="table") if muls[0][0] < 0 else A


# ---------------------------------------------------------------------------
# quantale star

def power_join(one, times, join, equal, cap):
    """The join of all powers, one + a + a^2 + ..., summed until a step adds
    nothing, where ``times`` maps each power to the next: in an idempotent
    algebra every later power then lies below the sum too.  Raises after
    ``cap`` steps without a fixed point."""
    acc = power = one
    for _ in range(cap):
        power = times(power)
        nxt = join(acc, power)
        if equal(nxt, acc):
            return acc
        acc = nxt
    raise CapabilityError(f"power joins did not stabilise within {cap} steps")


def quantale_star(A: ValueAlgebra, a):
    """Join of all powers of a; monotone chains in a finite carrier stabilise
    within |carrier| steps."""
    if not A.is_finite or not A.idempotent_add:
        raise CapabilityError(f"{A.name}: quantale star needs a finite idempotent algebra")
    return power_join(A.one, lambda p: A.mul(p, a), A.add, operator.eq, len(A.carrier) + 1)


# ---------------------------------------------------------------------------
# axiom checking

def _eq(x, y):
    return None if x == y else (x, y)


def _le(A, x, y):
    return None if A.leq(x, y) else (x, y)


def _law_runner(rep, pool):
    """The law runner of ``check_value_axioms`` and ``convolution.check_kat``:
    ``law(name, arity, *preds, given)`` reports one line of ``len(preds)`` instances
    per tuple of the pool, so once if the arity is 0.  A predicate returns None
    or a violation's detail, recorded after the tuple; tuples failing the
    antecedent ``given`` count as vacuous."""

    def law(name, arity, *preds, given=None):
        bad, count, vacuous = [], 0, 0
        for t in itertools.product(pool, repeat=arity):
            count += len(preds)
            if given is not None and not given(*t):
                vacuous += len(preds)
                continue
            for pred in preds:
                if (detail := pred(*t)) is not None:
                    bad.append(t + (detail,))
        rep.add(name, bad, checked=count, vacuous=vacuous)

    return law


# A one-sided law is stated once, for the left side and dom; the right side
# and cod state it in the opposite multiplication, x .op y = y . x.  The
# function-level checkers read their paired laws through the same sides.
SIDES = (("left", "dom", lambda x, y: (x, y)), ("right", "cod", lambda x, y: (y, x)))


def _mirrored(mul, mirror):
    return lambda x, y: mul(*mirror(x, y))


def _semiring_laws(law, A, tag=""):
    add, mul, zero, one = A.add, A.mul, A.zero, A.one
    for name, arity, pred in (
        ("add-assoc", 3, lambda a, b, c: _eq(add(add(a, b), c), add(a, add(b, c)))),
        ("add-comm", 2, lambda a, b: _eq(add(a, b), add(b, a))),
        ("add-zero", 1, lambda a: _eq(add(a, zero), a)),
        ("mul-assoc", 3, lambda a, b, c: _eq(mul(mul(a, b), c), mul(a, mul(b, c)))),
        ("mul-one-left", 1, lambda a: _eq(mul(one, a), a)),
        ("mul-one-right", 1, lambda a: _eq(mul(a, one), a)),
        ("distrib-left", 3, lambda a, b, c: _eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))),
        ("distrib-right", 3, lambda a, b, c: _eq(mul(add(a, b), c), add(mul(a, c), mul(b, c)))),
        ("zero-annihil-left", 1, lambda a: _eq(mul(zero, a), zero)),
        ("zero-annihil-right", 1, lambda a: _eq(mul(a, zero), zero)),
    ):
        law(f"sr.{name}{tag}", arity, pred)


def _dioid_laws(law, A, tag=""):
    _semiring_laws(law, A, tag)
    law(f"dioid.add-idem{tag}", 1, lambda a: None if A.add(a, a) == a else (A.add(a, a),))


def _unfold_laws(law, A, prefix, tag=""):
    add, one, star = A.add, A.one, A.star
    for side, _, mirror in SIDES:
        m = _mirrored(A.mul, mirror)
        law(f"{prefix}.unfold-{side}{tag}", 1, lambda a: _eq(add(one, m(a, star(a))), star(a)))


def _kleene_laws(law, A, tag=""):
    _unfold_laws(law, A, "ka", tag)
    add, star, leq = A.add, A.star, A.leq
    for side, _, mirror in SIDES:
        m = _mirrored(A.mul, mirror)
        law(f"ka.induct-{side}{tag}", 3, lambda a, b, c: _le(A, m(star(a), c), b),
            given=lambda a, b, c: leq(add(c, m(a, b)), b))


def _conway_laws(law, A):
    _unfold_laws(law, A, "conway")
    add, mul, star = A.add, A.mul, A.star
    law("conway.sum-star", 2,
        lambda a, b: _eq(star(add(a, b)), mul(star(mul(star(a), b)), star(a))))
    law("conway.prod-star-swap", 2,
        lambda a, b: _eq(mul(star(mul(a, b)), a), mul(a, star(mul(b, a)))))


def _modal_laws(law, A, tag=""):
    add, one, zero, leq = A.add, A.one, A.zero, A.leq
    for _, f, mirror in SIDES:
        face, m = getattr(A, f), _mirrored(A.mul, mirror)

        def local(a, b):  # dom(a.dom(b)) = dom(a.b), cod(cod(a).b) = cod(a.b)
            a, b = mirror(a, b)
            return _eq(face(m(a, face(b))), face(m(a, b)))

        law(f"modal.{f}-expand{tag}", 1,
            lambda a: None if leq(a, m(face(a), a)) else (m(face(a), a),))
        law(f"modal.{f}-local{tag}", 2, local)
        law(f"modal.{f}-subid{tag}", 1, lambda a: None if leq(face(a), one) else (face(a),))
        law(f"modal.{f}-strict{tag}", 0, lambda: _eq(face(zero), zero))
        law(f"modal.{f}-additive{tag}", 2,
            lambda a, b: _eq(face(add(a, b)), add(face(a), face(b))))
    for f, g in (("dom", "cod"), ("cod", "dom")):
        face, other = getattr(A, f), getattr(A, g)
        law(f"modal.compat-{f}{tag}", 1, lambda a: _eq(other(face(a)), face(a)))


def _interchange(A, mi, mj):
    return lambda a, b, c, d: _le(A, mi(mj(a, b), mj(c, d)), mj(mi(a, c), mi(b, d)))


def _interchange_laws(law, A):
    """Two dioids (Kleene when both have stars), interchange and 1_0 <= 1_1."""
    views = [A.view(0), A.view(1)]
    for i, v in enumerate(views):
        _dioid_laws(law, v, f"[{i}]")
    if all(v.has_star for v in views):
        for i, v in enumerate(views):
            _kleene_laws(law, v, f"[{i}]")
    law("ic.interchange", 4, _interchange(A, A.dims[0].mul, A.dims[1].mul))
    law("ic.unit-leq", 0, lambda: _le(A, A.dims[0].one, A.dims[1].one))


def _n_laws(law, A):
    """The laws linking the dimensions of an n-semiring."""
    for i in range(A.n):
        _dioid_laws(law, A.view(i), f"[{i}]")
        _modal_laws(law, A.view(i), f"[{i}]")
    for i, j in itertools.permutations(range(A.n), 2):
        mj = A.dims[j].mul
        for _, f, _ in SIDES:
            face = getattr(A.dims[i], f)
            law(f"nsr.{f}-lax[{i},{j}]", 2,
                lambda a, b: _le(A, face(mj(a, b)), mj(face(a), face(b))))
    for i, j in itertools.combinations(range(A.n), 2):
        mi, di, dj = A.dims[i].mul, A.dims[i], A.dims[j]
        law(f"nsr.interchange[{i}<{j}]", 4, _interchange(A, mi, dj.mul))
        law(f"nsr.dom-absorb[{i}<{j}]", 1, lambda a: _eq(dj.dom(di.dom(a)), di.dom(a)))
        for _, f, _ in SIDES:
            face = getattr(dj, f)
            law(f"nsr.closure-{f}[{i}<{j}]", 2,
                lambda a, b: _eq(face(mi(face(a), face(b))), mi(face(a), face(b))))


def _n_kleene_laws(law, A):
    """The star laws an n-Kleene algebra adds to its n-semiring."""
    for i in range(A.n):
        _kleene_laws(law, A.view(i), f"[{i}]")
    for i, j in itertools.combinations(range(A.n), 2):
        sj = A.dims[j].star
        for _, f, mirror in SIDES:
            face, m = getattr(A.dims[i], f), _mirrored(A.dims[i].mul, mirror)
            law(f"nka.star-{f}[{i}<{j}]", 2,
                lambda a, b: _le(A, m(face(a), sj(b)), sj(m(face(a), b))))


# One row per axiom class: whether it is n-dimensional, the capabilities it
# needs (of each dimension when n-dimensional), whether its laws read the
# order, and its law groups in report order.
_CLASSES = {
    "semiring": (False, (), False, (_semiring_laws,)),
    "dioid": (False, (), False, (_dioid_laws,)),
    "kleene": (False, ("has_star",), True, (_dioid_laws, _kleene_laws)),
    "conway": (False, ("has_star",), False, (_semiring_laws, _conway_laws)),
    "modal": (False, ("has_modal",), True, (_dioid_laws, _modal_laws)),
    "interchange": (True, (), True, (_interchange_laws,)),
    "n_semiring": (True, ("has_modal",), True, (_n_laws,)),
    "n_kleene": (True, ("has_modal", "has_star"), True, (_n_laws, _n_kleene_laws)),
}
AXIOM_CLASSES = tuple(_CLASSES)
_LACKS = {"has_modal": "modal maps", "has_star": "a star"}


def _require(A, attr, cls):
    if not getattr(A, attr):
        raise CapabilityError(f"{A.name}: class {cls!r} needs {attr}")


def check_value_axioms(A, cls: str) -> Report:
    """Verify the named axiom class over every tuple of ``A.pool()``: the
    carrier of a finite algebra, else its sample pool.  Violations are all
    collected, not first-fail.
    """
    if cls not in _CLASSES:
        raise ValueError(f"unknown axiom class {cls!r}")
    multi, needs, ordered, groups = _CLASSES[cls]
    if multi != isinstance(A, NValueAlgebra):
        kind = "an n-dimensional" if multi else "a one-dimensional"
        raise CapabilityError(f"{A.name}: class {cls!r} needs {kind} algebra")
    if cls == "interchange" and A.n != 2:
        raise CapabilityError("interchange class is two-dimensional")
    for attr in needs:  # of every dimension when n-dimensional
        if not multi:
            _require(A, attr, cls)
        for i in range(A.n if multi else 0):
            if not getattr(A.view(i), attr):
                raise CapabilityError(f"{A.name}: dimension {i} lacks {_LACKS[attr]}")
    if ordered:
        _require(A, "idempotent_add", cls)  # their laws read the order

    rep = Report(algebra=A.name)
    law = _law_runner(rep, A.pool())
    for group in groups:
        group(law, A)
    return rep


def make_boolean_nd(n: int) -> NValueAlgebra:
    """Boolean n-dimensional Kleene algebra: every dimension is the boolean KA."""
    B = make_boolean()
    dim = DimOps(mul=B.mul, one=B.one, dom=B.dom, cod=B.cod, star=B.star)
    return NValueAlgebra(name=f"boolean{n}d", add=B.add, zero=B.zero, dims=(dim,) * n,
                         carrier=B.carrier)
