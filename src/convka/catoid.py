"""Catoids: set-valued composition with source/target maps, plus law checkers.

A model exposes a finite element universe.  Infinite catoids (words, paths on
cyclic graphs, guarded strings) are realised as bounded universes: ``compose``
only returns results inside the bound, and ``decompose2`` of an in-bound
element is exact because every factor of an in-bound element is in-bound.
Such models set ``is_complete = False``; models whose universe is the whole
catoid set it to True.

Models are immutable after construction.  The decomposition and length caches
are memo tables for pure functions, so concurrent readers are safe.
"""

from __future__ import annotations

import itertools

from .report import FAIL, PASS, Report, fmt_value


class MoebiusViolation(Exception):
    """Raised when decomposition structure is circular or unbounded."""


class Catoid:
    """Base contract: compose, source, target, element enumeration.

    Subclasses must implement ``compose``, ``source``, ``target``,
    ``_build_elements`` and ``sort_key``; they may override ``decompose2``
    with a closed form (equivalence with the generic inversion is a test).
    """

    name = "catoid"
    is_complete = False

    def __init__(self):
        self._elements = None
        self._element_set = None
        self._identities = None
        self._d2_cache = None
        self._dn_cache = {}
        self._len_cache = {}
        self._moebius_report = None

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
        if self._elements is None:
            self._elements = sorted(self._build_elements(), key=self.sort_key)
            self._element_set = frozenset(self._elements)
        return self._elements

    def __contains__(self, x):
        self.elements()
        return x in self._element_set

    def is_identity(self, x) -> bool:
        return self.source(x) == x

    def identities(self) -> list:
        """The identities in element order, computed once; callers must not
        mutate the returned list."""
        if self._identities is None:
            self._identities = [e for e in self.elements() if self.is_identity(e)]
        return self._identities

    def decompose2(self, x) -> list:
        """All ordered pairs (y, z) with x in y . z, sorted by the factors' sort keys.

        The generic form inverts ``compose`` over the whole universe once and
        keeps the table.  A closed form in a subclass must list the same pairs
        in the same order, which ``check_decompose2_consistency`` guards;
        where its pairs are built with strictly growing left factors it can
        return them without sorting.  Of the closed forms, shuffle and guarded
        strings memoise their splits per instance, since the law checkers
        decompose the same elements again and again.  Words, paths, pairs and
        intervals do not: their split costs one pass, and a memo over a long
        word or a dense graph would keep hundreds of thousands of slices alive.
        """
        if self._d2_cache is None:
            table = {e: [] for e in self.elements()}
            for y, z in itertools.product(self.elements(), repeat=2):
                for w in self.compose(y, z):
                    if w in table:
                        table[w].append((y, z))
            pair_key = lambda p: (self.sort_key(p[0]), self.sort_key(p[1]))
            self._d2_cache = {e: sorted(ps, key=pair_key) for e, ps in table.items()}
        return self._d2_cache[x]

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

        Iterative depth-first dynamic programming over decompose2; a frame is
        [element, resume index, best so far].  Reaching an element that is
        still open means it decomposes through itself, impossible if Moebius.
        """
        cache, limit, stack, open_, need = self._len_cache, len(self.elements()), [], set(), x
        while True:
            if need not in cache:
                if need in open_:
                    raise MoebiusViolation(
                        f"{self.name}: cyclic decomposition at {self.format_element(need)}")
                if len(open_) > limit:
                    raise MoebiusViolation(f"{self.name}: decomposition depth exceeds universe size")
                if self.is_identity(need):
                    cache[need] = 0
                else:
                    stack.append([need, 0, 1])
                    open_.add(need)
            if not stack:
                return cache[x]
            frame = stack[-1]
            y, i, best = frame
            pairs = self.decompose2(y)
            for i in range(i, len(pairs)):
                u, v = pairs[i]
                lu, lv = cache.get(u), cache.get(v)  # a cached 0 marks an identity
                if lu and lv:
                    best = max(best, lu + lv)
                elif not (lu == 0 or lv == 0 or lu is None and self.is_identity(u)
                          or lv is None and self.is_identity(v)):
                    need = u if lu is None else v
                    frame[1:] = i, best
                    break
            else:
                stack.pop()
                open_.discard(y)
                cache[y] = best  # need is y or a factor finished before y: cached

    def moebius_report(self) -> Report:
        if self._moebius_report is None:
            self._moebius_report = check_moebius(self)
        return self._moebius_report

    def require_moebius(self):
        """Raise with the failing condition named unless the model checks out."""
        rep = self.moebius_report()
        if rep.clean:
            return
        failed = rep.failed_laws()
        if "moebius.identities-indecomposable" in failed:
            raise MoebiusViolation(
                f"{self.name}: model fails Moebius condition (2): identity decomposable")
        if "moebius.no-self-absorption" in failed:
            raise MoebiusViolation(
                f"{self.name}: model fails Moebius condition (3): x in x.y with y != t(x)")
        raise MoebiusViolation(
            f"{self.name}: model fails Moebius condition (1): not finitely 2-decomposable")

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
# law checkers


class memo_compose(dict):
    """``C.compose`` as a table that fills itself: ``products[y, z]`` composes
    on its first lookup and is a dict hit after that.

    Law checkers take one per call, so repeated products cost a lookup and
    nothing is retained once the check returns.
    """

    __slots__ = ("compose",)

    def __init__(self, C: Catoid):
        super().__init__()
        self.compose = C.compose

    def __missing__(self, pair):
        out = self[pair] = self.compose(*pair)
        return out


def check_catoid_axioms(C: Catoid) -> Report:
    """Associativity, composability, unit laws and the basic source/target facts.

    Products come from one ``memo_compose`` table for the whole call, and
    associativity and the six laws over pairs share one pass over U^2.
    Associativity decides a triple (x, y, z) with x.y and y.z both empty
    without composing, since both sides are then empty; ``checked=`` still
    counts all |U|^3 triples.
    """
    U = C.elements()
    rep = Report(model=C.name)
    products = memo_compose(C)
    s, t = C.source, C.target

    assoc, comp_st, commute, absorb, st_sub, st_prod, member = [], [], [], [], [], [], []
    right_defined = {y: [z for z in U if products[y, z]] for y in U}
    for x, y in itertools.product(U, repeat=2):
        xy = products[x, y]
        for z in U if xy else right_defined[y]:
            left = set()
            for v in products[y, z]:
                left |= products[x, v]
            right = set()
            for u in xy:
                right |= products[u, z]
            if left != right:
                assoc.append((x, y, z, frozenset(left), frozenset(right)))
        if xy and t(x) != s(y):
            comp_st.append((x, y))
        if products[s(x), t(y)] != products[t(y), s(x)]:
            commute.append((x, y))
        lhs = frozenset(s(w) for w in products[s(x), y])
        if lhs != products[s(x), s(y)]:
            absorb.append((x, y, lhs))
        lhs = frozenset(t(w) for w in products[x, t(y)])
        if lhs != products[t(x), t(y)]:
            absorb.append((x, y, lhs))
        if not {s(w) for w in xy} <= {s(w) for w in products[x, s(y)]}:
            st_sub.append((x, y))
        if not {t(w) for w in xy} <= {t(w) for w in products[t(x), y]}:
            st_sub.append((x, y))
        if xy and ({s(w) for w in xy} != {s(x)} or {t(w) for w in xy} != {t(y)}):
            st_prod.append((x, y, frozenset(xy)))
        for w in xy:
            if s(w) != s(x) or t(w) != t(y):
                member.append((w, x, y))

    rep.add("catoid.assoc", FAIL if assoc else PASS, assoc, checked=len(U) ** 3)
    rep.add("catoid.composability-st", FAIL if comp_st else PASS, comp_st,
            checked=len(U) ** 2)

    bad = [x for x in U if products[s(x), x] != frozenset([x])]
    rep.add("catoid.unit-left", FAIL if bad else PASS, bad, checked=len(U))
    bad = [x for x in U if products[x, t(x)] != frozenset([x])]
    rep.add("catoid.unit-right", FAIL if bad else PASS, bad, checked=len(U))

    bad = [x for x in U if s(s(x)) != s(x) or t(t(x)) != t(x)
           or s(t(x)) != t(x) or t(s(x)) != s(x)]
    rep.add("props.st-idem", FAIL if bad else PASS, bad, checked=len(U))

    bad = [x for x in U if (s(x) == x) != (t(x) == x)]
    rep.add("props.fix-agree", FAIL if bad else PASS, bad, checked=len(U))

    bad = [x for x in U
           if products[s(x), s(x)] != frozenset([s(x)])
           or products[t(x), t(x)] != frozenset([t(x)])]
    rep.add("props.id-idem", FAIL if bad else PASS, bad, checked=len(U))

    for law, bad in (("props.id-commute", commute), ("props.id-absorb", absorb),
                     ("props.st-sub", st_sub), ("props.st-of-product", st_prod),
                     ("props.member-st", member)):
        rep.add(law, FAIL if bad else PASS, bad, checked=len(U) ** 2)

    ids = [e for e in U if C.is_identity(e)]
    bad = []
    for e, f in itertools.product(ids, repeat=2):
        expect = frozenset([e]) if e == f else frozenset()
        if products[e, f] != expect:
            bad.append((e, f, frozenset(products[e, f])))
    rep.add("catoid.orth-idem", FAIL if bad else PASS, bad, checked=len(ids) ** 2)
    return rep


def check_moebius(C: Catoid, universe=None) -> Report:
    """The three Moebius conditions: finite 2-decomposability, indecomposable
    identities, and x in x.y forcing y = t(x).

    ``universe`` stays, though nothing in the package sets it:
    ``bench/tracing.py`` wraps this function and calls ``fn(C, universe)``
    positionally."""
    U = list(universe) if universe is not None else C.elements()
    rep = Report(model=C.name)

    widths = [len(C.decompose2(x)) for x in U]
    rep.add("moebius.finite-2-decomposable", PASS, checked=len(U),
            note=f"max-decompositions={max(widths, default=0)}")

    bad = []
    for e in U:
        if not C.is_identity(e):
            continue
        for y, z in C.decompose2(e):
            if not C.is_identity(y) and not C.is_identity(z):
                bad.append((e, y, z))
    rep.add("moebius.identities-indecomposable", FAIL if bad else PASS, bad, checked=len(U))

    bad = []
    for x, y in itertools.product(U, repeat=2):
        if x in C.compose(x, y) and y != C.target(x):
            bad.append((x, y))
    rep.add("moebius.no-self-absorption", FAIL if bad else PASS, bad, checked=len(U) ** 2)
    return rep


def is_local(C: Catoid) -> Report:
    U = C.elements()
    rep = Report(model=C.name)
    bad = [(x, y) for x, y in itertools.product(U, repeat=2)
           if C.target(x) == C.source(y) and not C.compose(x, y)]
    rep.add("catoid.local", FAIL if bad else PASS, bad, checked=len(U) ** 2)
    return rep


def is_functional(C: Catoid) -> Report:
    U = C.elements()
    rep = Report(model=C.name)
    bad = [(y, z, frozenset(C.compose(y, z)))
           for y, z in itertools.product(U, repeat=2) if len(C.compose(y, z)) > 1]
    rep.add("catoid.functional", FAIL if bad else PASS, bad, checked=len(U) ** 2)
    return rep


def check_saturated_chain(C: Catoid) -> Report:
    """l(z) = l(x) + l(y) for every z in x . y over the universe."""
    U = C.elements()
    rep = Report(model=C.name)
    bad = []
    count = 0
    for x, y in itertools.product(U, repeat=2):
        for z in C.compose(x, y):
            count += 1
            if C.length(z) != C.length(x) + C.length(y):
                bad.append((x, y, z, C.length(x) + C.length(y), C.length(z)))
    rep.add("moebius.saturated-chain", FAIL if bad else PASS, bad, checked=count)
    return rep


def check_decompose2_consistency(C: Catoid) -> Report:
    """A model's closed-form decompose2 must equal the base class's generic
    inversion of compose."""
    rep = Report(model=C.name)
    bad = [(e,) for e in C.elements() if Catoid.decompose2(C, e) != list(C.decompose2(e))]
    rep.add("catoid.decompose2-closed-form", FAIL if bad else PASS, bad,
            checked=len(C.elements()))
    return rep
