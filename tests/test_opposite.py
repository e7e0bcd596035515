"""The duality mirror: the dual star over (C, K) is the left star over the
opposite catoid and the opposite algebra, and opposition keeps a catoid's
Moebius conditions while swapping its left and right unit laws.

Both opposite views are built here, from the structured API only, so the
mirror checks the dual engine against the left one, not against itself.
"""

import dataclasses
import random

import pytest

from convka import models
from convka.catoid import TableCatoid, check_catoid_axioms, check_moebius
from convka.convolution import from_pairs, random_function, star_dual, star_recursive
from convka.values import make_boolean, make_min_plus, make_nat_inf_conway
from relations import make_relations


def opposite(C):
    """C^op: the same elements, source and target swapped, y .op z = z . y."""
    U = C.elements()
    table = {(z, y): m for y in U for z in U if (m := C.compose(y, z))}
    op = TableCatoid(f"op({C.name})", U, table, {x: C.target(x) for x in U},
                     {x: C.source(x) for x in U}, add_units=False)
    op.sort_key, op.format_element = C.sort_key, C.format_element
    return op


def op(K):
    """K^op: multiplication reversed, dom and cod swapped."""
    return dataclasses.replace(K, name=f"op({K.name})", mul=lambda a, b: K.mul(b, a),
                               dom=K.cod, cod=K.dom)


MODELS = [
    lambda: models.free_monoid("ab", 3),
    lambda: models.path_catoid(models.diamond_dag(), 4),
    lambda: models.guarded_string_catoid(["t0", "t1"], ["p"], 2),
    lambda: models.interval_catoid(models.example_poset()),
    lambda: models.shuffle_catoid("ab", 3),
]
ALGEBRAS = [make_boolean, make_min_plus, make_nat_inf_conway, make_relations]


@pytest.mark.parametrize("build", MODELS)
def test_opposite_keeps_moebius_and_swaps_unit_laws(build):
    C = build()
    Cop = opposite(C)
    assert check_moebius(Cop).clean
    assert (check_catoid_axioms(Cop).law("catoid.unit-left").status
            == check_catoid_axioms(C).law("catoid.unit-right").status)


@pytest.mark.parametrize("build", MODELS)
def test_dual_star_is_the_left_star_of_the_opposites(build):
    C = build()
    Cop = opposite(C)
    rng = random.Random(C.name)
    for make in ALGEBRAS:
        K = make()
        Kop = op(K)
        for _ in range(10):
            f = random_function(C, K, rng)
            g = from_pairs(Cop, Kop, {x: f(x) for x in C.elements()})
            dual, left = star_dual(f), star_recursive(g)
            bad = [x for x in C.elements() if dual(x) != left(x)]
            assert not bad, (K.name, [C.format_element(x) for x in bad])
