"""Catoids: set-valued composition with source/target maps, plus law checkers.

A model exposes a finite element universe.  Infinite catoids (words, paths on
cyclic graphs, guarded strings) are realised as bounded universes: ``compose``
only returns results inside the bound, and ``decompose2`` of an in-bound
element is exact because every factor of an in-bound element is in-bound.
Such models set ``is_complete = False``; models whose universe is the whole
catoid set it to True.

Models are immutable after construction.  The decomposition, row and length
caches are memo tables for pure functions, so concurrent readers are safe.
Lengths, the Moebius conditions on decompositions, convolution and the star
read decompositions as id rows (``Catoid.rows``); outside ``rows`` only the
oracles call ``decompose2``.
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
    """The element ids of the catoid ``name``; a missing key raises the one
    ValueError for an element outside ``elements()``."""

    __slots__ = ("name",)

    def __init__(self, name, elements):
        super().__init__(zip(elements, itertools.count()))
        self.name = name

    def __missing__(self, x):
        raise ValueError(f"{self.name}: {fmt_value(x)} is not in elements()")


class Catoid:
    """Base contract: compose, source, target, element enumeration.

    Subclasses must implement ``compose``, ``source``, ``target``,
    ``_build_elements`` and ``sort_key``; they may override ``decompose2``
    with a closed form (equivalence with the generic inversion is a test),
    and ``rows`` with one that decodes to it.
    """

    name = "catoid"
    is_complete = False

    def __init__(self):
        self._elements = None
        self._index = None
        self._faces = None
        self._rows = {}
        self._d2_cache = None
        self._dn_cache = {}
        self._lengths = None
        self._moebius_report = None
        self._kernel = None

    # -- model surface ------------------------------------------------------

    def compose(self, y, z) -> frozenset:
        raise NotImplementedError

    def source(self, x):
        raise NotImplementedError

    def target(self, x):
        raise NotImplementedError

    def _build_elements(self) -> list:
        raise NotImplementedError

    def sort_key(self, x):
        raise NotImplementedError

    def format_element(self, x) -> str:
        return fmt_value(x)

    # -- derived structure --------------------------------------------------

    def elements(self) -> list:
        """The universe in sort-key order; an element listed twice is refused."""
        if self._elements is None:
            U = sorted(self._build_elements(), key=self.sort_key)
            index = Index(self.name, U)
            if len(index) < len(U):
                twice = next(x for i, x in enumerate(U) if index[x] != i)
                raise ValueError(f"{self.name}: {self.format_element(twice)} is listed "
                                 "twice in elements()")
            self._elements, self._index = U, index
        return self._elements

    def index(self) -> Index:
        """Each element's id, its position in ``elements()``; the kernel and
        the convolution layer run on ids."""
        self.elements()
        return self._index

    def __contains__(self, x):
        return x in self.index()

    def faces(self) -> tuple:
        """(source ids, target ids, identity flags), one entry per id, built
        once; callers must not mutate the lists."""
        if self._faces is None:
            U, index = self.elements(), self.index()
            src = [index[self.source(x)] for x in U]
            tgt = [index[self.target(x)] for x in U]
            self._faces = src, tgt, [s == i for i, s in enumerate(src)]
        return self._faces

    def rows(self, i) -> tuple:
        """``decompose2`` of element i as (left ids, right ids), in the same
        order; memoised per instance."""
        row = self._rows.get(i)
        if row is None:
            pairs, index = self.decompose2(self.elements()[i]), self.index()
            row = self._rows[i] = [index[y] for y, _ in pairs], [index[z] for _, z in pairs]
        return row

    def is_identity(self, x) -> bool:
        return self.source(x) == x

    def identities(self) -> list:
        """The identities in element order."""
        return list(itertools.compress(self.elements(), self.faces()[2]))

    def decompose2(self, x) -> list:
        """All ordered pairs (y, z) with x in y . z, sorted by the factors' sort keys.

        The generic form inverts ``compose`` over the whole universe once and
        keeps the table.  A closed form in a subclass must list the same pairs
        in the same order, which ``check_decompose2_consistency`` guards;
        where its pairs are built with strictly growing left factors it can
        return them without sorting.  No closed form memoises: outside the
        oracles the catoid layer reads decompositions only through ``rows``.
        """
        index = self.index()
        if self._d2_cache is None:  # product order is the factors' sort-key order
            U = self.elements()
            table = [[] for _ in U]
            for y, z in itertools.product(U, repeat=2):
                for w in self.compose(y, z):
                    table[index[w]].append((y, z))
            self._d2_cache = table
        return self._d2_cache[index[x]]

    def decompose_n(self, x, n: int) -> list:
        """The n-fold non-identity decompositions of x, one entry per chain.

        A tuple appears once for each chain of intermediate products that
        composes it to x, so a multi-valued catoid can list it more than once;
        convolution powers count one term per chain.  For functional catoids
        every tuple appears once.  Sorted stably by the factors' sort keys.
        """
        key = (x, n)
        if key in self._dn_cache:
            return self._dn_cache[key]
        if n == 0:
            out = [()] if self.is_identity(x) else []
        elif n == 1:
            out = [] if self.is_identity(x) else [(x,)]
        else:
            found = []
            for y, z in self.decompose2(x):
                if self.is_identity(y):
                    continue
                for rest in self.decompose_n(z, n - 1):
                    found.append((y,) + rest)
            out = sorted(found, key=lambda t: tuple(self.sort_key(p) for p in t))
        self._dn_cache[key] = out
        return out

    def length(self, x) -> int:
        """Maximal degree of decomposition into non-identity factors.

        Iterative depth-first dynamic programming over ``rows``, one length
        per id (0 exactly for identities); a frame is [id, left ids, right ids,
        resume index, best so far], so each row is read once.  Reaching an id
        still open means it decomposes through itself, impossible if Moebius.
        """
        L = self._lengths
        if L is None:
            L = self._lengths = [0 if e else None for e in self.faces()[2]]
        need = top = self.index()[x]
        stack, open_ = [], set()
        while True:
            if L[need] is None:
                if need in open_:
                    raise MoebiusViolation(f"{self.name}: cyclic decomposition at "
                                           f"{self.format_element(self.elements()[need])}")
                stack.append([need, *self.rows(need), 0, 1])
                open_.add(need)
            if not stack:
                return L[top]
            frame = stack[-1]
            y, lefts, rights, k, best = frame
            for k in range(k, len(lefts)):
                lu, lv = L[lefts[k]], L[rights[k]]
                if lu == 0 or lv == 0:  # an identity factor
                    continue
                if lu is None or lv is None:
                    need = lefts[k] if lu is None else rights[k]
                    frame[3:] = k, best
                    break
                best = max(best, lu + lv)
            else:
                stack.pop()
                open_.discard(y)
                L[y] = best  # need is y or a factor finished before y: set

    def kernel(self) -> "Kernel":
        """The integer product table the law checkers run on, built on first
        use and kept; the star forms and ``check_moebius`` never build it."""
        if self._kernel is None:
            self._kernel = Kernel(self)
        return self._kernel

    def moebius_report(self) -> Report:
        if self._moebius_report is None:
            self._moebius_report = check_moebius(self)
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
        super().__init__()
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

    ids = [x for x in range(n) if C.is_identity(E[x])]
    bad = [(E[e], E[f], decode(P[e][f])) for e, f in itertools.product(ids, repeat=2)
           if P[e][f] != (1 << e if e == f else 0)]
    rep.add("catoid.orth-idem", bad, checked=len(ids) ** 2)
    return rep


def check_moebius(C: Catoid, universe=None) -> Report:
    """The three Moebius conditions: finite 2-decomposability, indecomposable
    identities, and x in x.y forcing y = t(x).

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
    n, E = K.n, K.elements
    bad = [(E[x], E[y]) for x, y in itertools.product(range(n), repeat=2)
           if K.tgt[x] == K.src[y] and not K.table[x][y]]
    rep = Report(model=C.name)
    rep.add("catoid.local", bad, checked=n ** 2)
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
