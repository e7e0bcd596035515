"""Catoids: set-valued composition with source/target maps, plus law checkers.

A model exposes a finite element universe.  Infinite catoids (words, paths on
cyclic graphs, guarded strings) are realised as bounded universes: ``compose``
only returns results inside the bound, and ``decompose2`` of an in-bound
element is exact because every factor of an in-bound element is in-bound.
Such models set ``is_complete = False``; models whose universe is the whole
catoid set it to True.

Models are immutable after construction.  A model states its compose, faces
and elements; ``Catoid`` derives everything else from them on first use, as
cached properties (``derived``): ids, faces, identity ids, the
decomposition, row, mirrored row, row pair and length memos, the unfolded
oracle's table of splits, the Moebius report and the kernel.  These are
pure functions of the model, so concurrent readers are safe.  Lengths, the
Moebius conditions on decompositions, convolution and the star engine read
id rows (``Catoid.rows``; the dual star their mirror, ``Catoid.dual_rows``),
the unfolded oracle its own splits (``Catoid.splits``); elsewhere only the
oracles call ``decompose2``.
Lengths and the star engine run their generator frames through ``settle``.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .report import Report, fmt_value
from .values import SIDES


class MoebiusViolation(Exception):
    """Raised when decomposition structure is circular or unbounded."""


class Memo(dict):
    """A table that fills a missing key k with ``fn(k)`` and keeps it.  ``fn``
    must be pure and must not hold the memo's owner: an owner reachable from
    its own memo is freed only by the cycle collector."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, k):
        out = self[k] = self.fn(k)
        return out


class Index(dict):
    """The ids of ``elements``, a catoid's universe, by position; a missing
    key raises the catoid ``name``'s one ValueError for an element outside it."""

    __slots__ = ("name", "elements")

    def __init__(self, name, elements):
        super().__init__(zip(elements, itertools.count()))
        self.name, self.elements = name, elements

    def __missing__(self, x):
        raise ValueError(f"{self.name}: {fmt_value(x)} is not in elements()")


class derived:
    """A cached property kept by ``setattr``.  ``functools.cached_property``
    reads ``__dict__``, after which CPython 3.11's method-call caches skip
    the instance: ``check_moebius``'s compose scan then ran a sixth slower."""

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner):
        if obj is None:
            return self
        value = self.fn(obj)
        setattr(obj, self.name, value)  # the instance attribute now shadows this
        return value


def settle(frame, x, cycle):
    """Run the generator ``frame(x)`` to its end on a stack, not in nested
    Python frames: a frame yields an id whose value it lacks, and that id's
    frame fills it before the yielding frame resumes.  Yielding the id of a
    frame still open raises ``cycle(id)``."""
    stack, opened = [frame(x)], {x}
    while stack:
        need = next(stack[-1], None)
        if need is None:
            stack.pop()
        elif need in opened:  # opened without a value: its frame is still on the stack
            raise cycle(need)
        else:
            stack.append(frame(need))
            opened.add(need)


class Catoid:
    """Base contract: a model defines ``compose``, ``source``, ``target``,
    ``_build_elements`` and ``sort_key``; it may override ``decompose2``
    with a closed form (equivalence with the generic inversion is a test),
    and ``rows`` or ``dual_rows`` with one that decodes to it.  This class
    derives the rest on first use and keeps it: ids, faces, identity ids,
    rows, mirrored rows, splits, lengths, the Moebius report and the kernel,
    so a model calls no initialiser of it.
    """

    name = "catoid"
    is_complete = False

    def format_element(self, x) -> str:
        return fmt_value(x)

    # -- derived structure, each built on first use -------------------------

    @derived
    def _index(self) -> Index:
        U = sorted(self._build_elements(), key=self.sort_key)
        index = Index(self.name, U)
        if len(index) < len(U):
            twice = next(x for i, x in enumerate(U) if index[x] != i)
            raise ValueError(f"{self.name}: {self.format_element(twice)} is listed "
                             "twice in elements()")
        return index

    @derived
    def _faces(self) -> tuple:
        U, index = self.elements(), self.index()
        src = [index[self.source(x)] for x in U]
        tgt = [index[self.target(x)] for x in U]
        return src, tgt, [s == i for i, s in enumerate(src)]

    @derived
    def _d2(self) -> list:
        """``decompose2`` by id, in product order: the factors' sort-key order."""
        U, index = self.elements(), self.index()
        table = [[] for _ in U]
        for y, z in itertools.product(U, repeat=2):
            for w in self.compose(y, z):
                table[index[w]].append((y, z))
        return table

    _rows = derived(lambda self: {})  # the per-id memo of ``rows``
    _dual_rows = derived(lambda self: {})  # the per-id memo of ``dual_rows``
    _lengths = derived(lambda self: [0 if e else None for e in self.faces()[2]])
    identity_ids = derived(lambda self: [i for i, e in enumerate(self.faces()[2]) if e])
    _moebius_report = derived(lambda self: check_moebius(self))
    _kernel = derived(lambda self: Kernel(self))

    def elements(self) -> list:
        """The universe in sort-key order; an element listed twice is refused."""
        return self._index.elements

    def index(self) -> Index:
        """Each element's id, its position in ``elements()``; the kernel and
        the convolution layer run on ids."""
        return self._index

    def __contains__(self, x):
        return x in self.index()

    def faces(self) -> tuple:
        """(source ids, target ids, identity flags), one entry per id, built
        once; callers must not mutate the lists."""
        return self._faces

    def rows(self, i) -> tuple:
        """``decompose2`` of element i as (left ids, right ids), in the same
        order; memoised per instance.  Ids number the universe in sort-key
        order and ``decompose2`` sorts by the factors' sort keys, so the
        left ids never decrease: the pairs whose left id lies below a bound
        form a prefix."""
        row = self._rows.get(i)
        if row is None:
            pairs, index = self.decompose2(self.elements()[i]), self.index()
            row = self._rows[i] = [index[y] for y, _ in pairs], [index[z] for _, z in pairs]
        return row

    def dual_rows(self, i) -> tuple:
        """``rows(i)`` mirrored, as (right ids, left ids) sorted by right id,
        so that the pairs whose right id lies below a bound form a prefix;
        memoised per instance as two tuples, which fit their ids exactly.  A
        row whose right ids fall, as on words, paths and guarded strings, is
        reversed by the sort in one pass."""
        row = self._dual_rows.get(i)
        if row is None:
            lefts, rights = self.rows(i)
            row = self._dual_rows[i] = tuple(zip(*sorted(zip(rights, lefts))))
        return row

    @derived
    def row_pairs(self) -> list:
        """Per id, its ``rows`` as (left, right) id tuples, built by the first whole convolution."""
        return [list(zip(*self.rows(i))) for i in range(len(self.elements()))]

    @derived
    def splits(self) -> list:
        """Per id: its source id, its target id and the (left id, right id)
        pairs of ``decompose2`` with no identity factor.  A chain through an
        identity ends nowhere: an identity is no last factor, and a Moebius
        catoid does not split it further.  The unfolded oracle's one input,
        built from ``decompose2`` and the faces, not from ``rows`` or
        ``faces()``, so that the oracle shares no input with the star engine."""
        index, unit = self.index(), self.is_identity
        return [(index[self.source(x)], index[self.target(x)],
                 [(index[y], index[z]) for y, z in self.decompose2(x)
                  if not unit(y) and not unit(z)])
                for x in self.elements()]

    def is_identity(self, x) -> bool:
        return self.source(x) == x

    def identities(self) -> list:
        """The identities in element order."""
        return list(map(self.elements().__getitem__, self.identity_ids))

    def decompose2(self, x) -> list:
        """All ordered pairs (y, z) with x in y . z, sorted by the factors' sort keys.

        The generic form inverts ``compose`` over the whole universe once and
        keeps the table.  A closed form in a subclass must list the same pairs
        in the same order, which ``check_decompose2_consistency`` guards;
        where its pairs are built with strictly growing left factors it can
        return them without sorting.  No closed form memoises: outside the
        oracles the catoid layer reads decompositions only through ``rows``.
        """
        return self._d2[self.index()[x]]

    def length(self, x) -> int:
        """Maximal degree of decomposition into non-identity factors, by
        dynamic programming over ``rows`` with one length per id (0 exactly
        for identities), each row read once by a frame that ``settle`` runs.
        An id still open when reached decomposes through itself, which a
        Moebius catoid forbids."""
        L = self._lengths

        def frame(y):
            best = 1
            for u, v in zip(*self.rows(y)):
                if L[u] == 0 or L[v] == 0:  # an identity factor
                    continue
                if L[u] is None:
                    yield u
                if L[v] is None:
                    yield v
                best = max(best, L[u] + L[v])
            L[y] = best

        i = self.index()[x]
        if L[i] is None:
            settle(frame, i, functools.partial(self.violation, "cyclic decomposition"))
        return L[i]

    def violation(self, what, i) -> MoebiusViolation:
        """The MoebiusViolation that names ``what`` found at element id i."""
        return MoebiusViolation(f"{self.name}: {what} at {self.format_element(self.elements()[i])}")

    def kernel(self) -> "Kernel":
        """The integer product table the law checkers and the modal hat run
        on, built on first use and kept; the star forms and ``check_moebius``
        never build it."""
        return self._kernel

    def moebius_report(self) -> Report:
        return self._moebius_report

    def require_moebius(self):
        """Raise with the failing condition named unless the model checks out;
        condition (1) holds on every finite universe, so its line never fails."""
        rep = self.moebius_report()
        if rep.clean:
            return
        if "moebius.identities-indecomposable" in rep.failed_laws():
            raise MoebiusViolation(
                f"{self.name}: model fails Moebius condition (2): identity decomposable")
        raise MoebiusViolation(
            f"{self.name}: model fails Moebius condition (3): x in x.y with y != t(x)")

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}: {len(self.elements())} elements>"


class TableCatoid(Catoid):
    """Catoid given by explicit tables; used for fixtures and negative controls."""

    is_complete = True

    def __init__(self, name, elements, compose_table, source_map, target_map,
                 add_units=True):
        self.name = name
        self._given = list(elements)
        self._src = dict(source_map)
        self._tgt = dict(target_map)
        self._table = {k: frozenset(v) for k, v in compose_table.items()}
        if add_units:
            for x in self._given:
                self._table.setdefault((self._src[x], x), frozenset([x]))
                self._table.setdefault((x, self._tgt[x]), frozenset([x]))

    def compose(self, y, z):
        return self._table.get((y, z), frozenset())

    def source(self, x):
        return self._src[x]

    def target(self, x):
        return self._tgt[x]

    def _build_elements(self):
        return list(self._given)

    def sort_key(self, x):
        return (isinstance(x, tuple), x)


# ---------------------------------------------------------------------------
# the integer kernel of the law checkers


def _join(parts, keys) -> int:
    """The union of the masks ``parts[k]`` over the keys k."""
    out = 0
    for k in keys:
        out |= parts[k]
    return out


class Kernel:
    """A catoid as integers, for the law checkers (the finite incidence-algebra
    technique: element ids and a dense product table).

    Ids 0..n-1 number ``elements()`` in order; ``src`` and ``tgt`` are the
    catoid's ``faces()``, and ``table[y][z]`` is the bitmask of the ids in
    y . z, each pair composed once.  A source, target or product member
    outside ``elements()`` raises the catoid's one ValueError for it.  Sets
    are bitmasks: union is ``|`` and inclusion ``a & ~b == 0``.  Ids decode
    to elements only for witnesses.
    """

    def __init__(self, C: Catoid):
        U, index = C.elements(), C.index()

        self.n = len(U)
        self.elements = U
        self.src, self.tgt, _ = C.faces()
        self.table = [[0] * self.n for _ in U]
        for row, y in zip(self.table, U):
            for z, v in enumerate(U):
                for w in C.compose(y, v):
                    row[z] |= 1 << index[w]
        self.bits = Memo(lambda m: tuple(i for i in range(m.bit_length()) if m >> i & 1))

    def decode(self, m) -> frozenset:
        return frozenset(map(self.elements.__getitem__, self.bits[m]))

    @functools.cached_property
    def right_defined(self) -> list:
        """For each id y, the mask of the ids z with y . z nonempty."""
        return [sum(1 << z for z, m in enumerate(row) if m) for row in self.table]

    @functools.cached_property
    def non_local(self) -> list:
        """The id pairs (x, y) with t(x) = s(y) and x . y empty, in id order:
        the witnesses against locality, which the modal hat needs."""
        n, src, tgt, table = self.n, self.src, self.tgt, self.table
        return [(x, y) for x, y in itertools.product(range(n), repeat=2)
                if tgt[x] == src[y] and not table[x][y]]

    def compose_masks(self, m1, m2) -> int:
        """The union of a . b over the ids a in m1 and b in m2."""
        out, bits, table = 0, self.bits, self.table
        for a in bits[m1]:
            row = table[a]
            for b in bits[m2]:
                out |= row[b]
        return out

    def union(self, parts) -> Memo:
        """A self-filling map from each mask to the union of ``parts[i]``, a
        list of masks, over the ids i in it."""
        bits = self.bits
        return Memo(lambda m: _join(parts, bits[m]))

    def image(self, face) -> Memo:
        """A self-filling map from masks to their images under ``face``, a
        list from ids to ids."""
        return self.union([1 << i for i in face])


# ---------------------------------------------------------------------------
# law checkers


def check_catoid_axioms(C: Catoid) -> Report:
    """Associativity, composability, unit laws and the basic source/target facts.

    Runs on the model's kernel: associativity and the six laws over pairs
    share one pass over U^2, and for each pair (x, y) associativity compares
    the row of x . (y . z) over all z with the row of (x . y) . z at once.
    A pair with x . y empty and no y . z composable with x on the left is
    decided by one mask test, since both rows are then empty; ``checked=``
    still counts all |U|^3 triples.
    """
    K = C.kernel()
    n, P, src, tgt, E, bits, decode = K.n, K.table, K.src, K.tgt, K.elements, K.bits, K.decode
    simg, timg = K.image(src), K.image(tgt)
    rep = Report(model=C.name)
    rows = Memo(lambda m: [functools.reduce(operator.or_, col)  # row of (union of m) . z
                           for col in zip(*[P[u] for u in bits[m]] or [[0] * n])])
    reach = [functools.reduce(operator.or_, row, 0) for row in P]  # all of y . U
    assoc, comp_st, commute, absorb, st_sub, st_prod, member = [], [], [], [], [], [], []
    for x in range(n):
        sx, tx, defined = src[x], tgt[x], K.right_defined[x]
        Px, Psx, Ptx = P[x], P[sx], P[tx]
        lefts = K.union(Px).__getitem__  # y.z -> x.(y.z)
        for y in range(n):
            xy, sy, ty = Px[y], src[y], tgt[y]
            if xy or reach[y] & defined:  # else both sides are empty for every z
                left, right = list(map(lefts, P[y])), rows[xy]
                if left != right:
                    assoc.extend((E[x], E[y], E[z], decode(left[z]), decode(right[z]))
                                 for z in range(n) if left[z] != right[z])
            if xy and tx != sy:
                comp_st.append((E[x], E[y]))
            if Psx[ty] != P[ty][sx]:
                commute.append((E[x], E[y]))
            lhs = simg[Psx[y]]
            if lhs != Psx[sy]:
                absorb.append((E[x], E[y], decode(lhs)))
            lhs = timg[Px[ty]]
            if lhs != Ptx[ty]:
                absorb.append((E[x], E[y], decode(lhs)))
            if simg[xy] & ~simg[Px[sy]]:
                st_sub.append((E[x], E[y]))
            if timg[xy] & ~timg[Ptx[y]]:
                st_sub.append((E[x], E[y]))
            if xy and (simg[xy] != 1 << sx or timg[xy] != 1 << ty):
                st_prod.append((E[x], E[y], decode(xy)))
                member.extend((E[w], E[x], E[y]) for w in bits[xy]
                              if src[w] != sx or tgt[w] != ty)

    rep.add("catoid.assoc", assoc, checked=n ** 3)
    rep.add("catoid.composability-st", comp_st, checked=n ** 2)

    for (side, _, mirror), face in zip(SIDES, (src, tgt)):  # s(x).x = {x} = x.t(x)
        bad = [E[x] for x in range(n) for a, b in [mirror(face[x], x)] if P[a][b] != 1 << x]
        rep.add(f"catoid.unit-{side}", bad, checked=n)

    bad = [E[x] for x in range(n) if src[src[x]] != src[x] or tgt[tgt[x]] != tgt[x]
           or src[tgt[x]] != tgt[x] or tgt[src[x]] != src[x]]
    rep.add("props.st-idem", bad, checked=n)

    bad = [E[x] for x in range(n) if (src[x] == x) != (tgt[x] == x)]
    rep.add("props.fix-agree", bad, checked=n)

    bad = [E[x] for x in range(n)
           if P[src[x]][src[x]] != 1 << src[x] or P[tgt[x]][tgt[x]] != 1 << tgt[x]]
    rep.add("props.id-idem", bad, checked=n)

    for law, bad in (("props.id-commute", commute), ("props.id-absorb", absorb),
                     ("props.st-sub", st_sub), ("props.st-of-product", st_prod),
                     ("props.member-st", member)):
        rep.add(law, bad, checked=n ** 2)

    ids = C.identity_ids
    bad = [(E[e], E[f], decode(P[e][f])) for e, f in itertools.product(ids, repeat=2)
           if P[e][f] != (1 << e if e == f else 0)]
    rep.add("catoid.orth-idem", bad, checked=len(ids) ** 2)
    return rep


def check_moebius(C: Catoid, universe=None) -> Report:
    """The three Moebius conditions: finite 2-decomposability, indecomposable
    identities, and x in x.y forcing y = t(x).

    Absorption on the left, x in w.x with w != s(x), needs no check of its
    own on an associative catoid, since it fails condition (2) or (3).
    Composability makes w a non-identity.  The set powers of {w} reach an
    idempotent set E = E.E, and x in E.x, since x in w.x.  If E holds an
    identity e, then e is in w.v for some v, as E is a power of {w} and w
    is not e; v is no identity, or w.v would be {w}: e decomposes into
    non-identities, failing (2).  Else split any u in E as u in u'.y with
    u', y in E, and split u' alike: the finitely many u repeat, so some u
    lies in u.y with y in a product of E's, which is E, so that y is no
    identity and y != t(u): (3) fails.  A table that is not associative can
    absorb on the left and pass; each recursion then raises on the cycle
    it meets.

    ``universe`` stays, though nothing in the package sets it:
    ``bench/tracing.py`` wraps this function and calls ``fn(C, universe)``
    positionally."""
    U = list(universe) if universe is not None else C.elements()
    rep = Report(model=C.name)
    E, index, ident = C.elements(), C.index(), C.faces()[2]
    ids = [index[x] for x in U]

    widths = [len(C.rows(i)[0]) for i in ids]
    rep.add("moebius.finite-2-decomposable", checked=len(U),
            note=f"max-decompositions={max(widths, default=0)}")

    bad = [(E[e], E[y], E[z]) for e in ids if ident[e]
           for y, z in zip(*C.rows(e)) if not ident[y] and not ident[z]]
    rep.add("moebius.identities-indecomposable", bad, checked=len(U))

    bad = []
    for x, y in itertools.product(U, repeat=2):
        if x in C.compose(x, y) and y != C.target(x):
            bad.append((x, y))
    rep.add("moebius.no-self-absorption", bad, checked=len(U) ** 2)
    return rep


def is_local(C: Catoid) -> Report:
    K = C.kernel()
    E = K.elements
    rep = Report(model=C.name)
    rep.add("catoid.local", [(E[x], E[y]) for x, y in K.non_local], checked=K.n ** 2)
    return rep


def is_functional(C: Catoid) -> Report:
    K = C.kernel()
    E = K.elements
    bad = [(E[y], E[z], K.decode(m)) for y, row in enumerate(K.table)
           for z, m in enumerate(row) if m & (m - 1)]
    rep = Report(model=C.name)
    rep.add("catoid.functional", bad, checked=K.n ** 2)
    return rep


def check_saturated_chain(C: Catoid) -> Report:
    """l(z) = l(x) + l(y) for every z in x . y over the universe."""
    K = C.kernel()
    E = K.elements
    L = [C.length(x) for x in E]
    rep = Report(model=C.name)
    bad = []
    count = 0
    for x, row in enumerate(K.table):
        for y, m in enumerate(row):
            for z in K.bits[m]:
                count += 1
                if L[z] != L[x] + L[y]:
                    bad.append((E[x], E[y], E[z], L[x] + L[y], L[z]))
    rep.add("moebius.saturated-chain", bad, checked=count)
    return rep


def check_decompose2_consistency(C: Catoid) -> Report:
    """A model's closed-form decompose2 must equal the base class's generic
    inversion of compose."""
    rep = Report(model=C.name)
    bad = [(e,) for e in C.elements() if Catoid.decompose2(C, e) != list(C.decompose2(e))]
    rep.add("catoid.decompose2-closed-form", bad, checked=len(C.elements()))
    return rep
