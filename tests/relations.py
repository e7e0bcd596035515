"""Binary relations on a two-element set: a non-commutative Kleene algebra with
domain (the relational model of KA, Kozen 1994, and of KA with domain,
Desharnais, Moeller and Struth 2006).

A relation R on {0, 1} is a 4-bit mask with bit 2i + j set when (i, j) is in R.
Addition is union, multiplication relational composition, the star the
reflexive-transitive closure, and dom/cod the subidentities of the left/right
support.
"""

from convka.values import ValueAlgebra

IDENTITY = 0b1001  # {(0, 0), (1, 1)}


def _pairs(r):
    return [(i, j) for i in range(2) for j in range(2) if r >> (2 * i + j) & 1]


def _mask(pairs):
    return sum({1 << (2 * i + j) for i, j in pairs})


def _compose(r, s):
    return _mask((i, k) for i, j in _pairs(r) for j2, k in _pairs(s) if j == j2)


def _closure(r):
    acc = IDENTITY
    while (nxt := acc | _compose(acc, r)) != acc:
        acc = nxt
    return acc


def make_relations() -> ValueAlgebra:
    carrier = tuple(range(16))
    mul = {(r, s): _compose(r, s) for r in carrier for s in carrier}
    return ValueAlgebra(
        name="relations2",
        add=lambda r, s: r | s,
        mul=lambda r, s: mul[(r, s)],
        zero=0,
        one=IDENTITY,
        star={r: _closure(r) for r in carrier}.__getitem__,
        dom={r: _mask((i, i) for i, _ in _pairs(r)) for r in carrier}.__getitem__,
        cod={r: _mask((j, j) for _, j in _pairs(r)) for r in carrier}.__getitem__,
        carrier=carrier,
    )
