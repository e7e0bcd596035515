"""Every function-level law's verdict, counts and full witness list, pinned.

``tests/data/check_all_seed7.txt`` shows one witness per law, and nearly
every law there passes.  This pin runs the function-level checkers on inputs
that fail the paired laws (dom/cod, left/right, s/t) as well as on clean
ones, and keeps every witness, so a change to a law's body or to the order
it visits its instances shows.  Witnesses are rendered with ``fmt_value``,
which sorts sets, so the lines do not depend on string hashing.

Regenerate with ``PYTHONPATH=src python tests/test_function_laws.py``.
"""

import operator
import random
from dataclasses import replace
from pathlib import Path

from relations import IDENTITY, make_relations

from convka import models
from convka.catoid import TableCatoid, check_catoid_axioms
from convka.convolution import check_conway, check_kat
from convka.higher import NCatoid, NConvolution, check_interchange, check_n_axioms, \
    check_n_catoid
from convka.lab import appendix_b_model, check_kleene_convolution, negative_control_dioid
from convka.modal import check_modal
from convka.report import fmt_value
from convka.values import DimOps, NValueAlgebra, make_boolean, make_boolean_nd

FUNCTION_LAW_PIN = Path(__file__).parent / "data" / "function_laws.txt"


def relations_nd(n, **dim0):
    """n copies of the relations algebra over one union; ``dim0`` replaces
    operations of dimension 0.  Relational composition does not commute, so
    the interchange law fails."""
    R = make_relations()
    dim = DimOps(mul=R.mul, one=R.one, dom=R.dom, cod=R.cod, star=R.star)
    dims = (replace(dim, **dim0),) + (dim,) * (n - 1)
    return NValueAlgebra(name="relations2d" if not dim0 else "relations2d-broken",
                         add=R.add, zero=R.zero, dims=dims, carrier=R.carrier)


def point_faces():
    """Relations whose dimension-0 dom and cod keep only the point 0, under a
    dimension-1 star that jumps to the full relation: D-_0(f) .0 g* and
    g* .0 D+_0(f) then exceed the stars of the products."""
    R = make_relations()
    return relations_nd(2, dom=lambda r: R.dom(r) & 1, cod=lambda r: R.cod(r) & 1,
                        star=lambda r: 15 if r else IDENTITY)


def swapped_faces(nc):
    """``nc`` with dimension 1's source and target exchanged, units not re-added."""
    d = nc.dims[1]
    flipped = TableCatoid(d.name + "-swapped", d._given, d._table, d._tgt, d._src,
                          add_units=False)
    return NCatoid(nc.name + "-swapped", (nc.dims[0], flipped))


def non_closed_faces():
    """A two-dimensional catoid whose 1-identities a, a multiply in dimension 0
    to b, which is no 1-identity, and whose b has 1-faces a and e, so that
    lax functoriality and closure fail on both faces."""
    U = ["e", "a", "b"]
    mul0 = {("a", "a"): ["b"], ("a", "b"): ["b"], ("b", "a"): ["b"], ("b", "b"): ["b"]}
    dim0 = TableCatoid("abs.0", U, mul0, dict.fromkeys(U, "e"), dict.fromkeys(U, "e"))
    dim1 = TableCatoid("abs.1", U, {}, {"e": "e", "a": "a", "b": "a"},
                       {"e": "e", "a": "a", "b": "e"})
    return NCatoid("non-closed", (dim0, dim1))


def dom_as_itself():
    """Relations whose dimension-0 dom keeps the relation itself, so D-_0(f)
    need not lie below its own square in dimension 1, and whose dimension-0
    product lets 0 act as a left unit, so a term with a zero left factor adds
    its right factor."""
    R = make_relations()
    return relations_nd(2, dom=lambda r: r, mul=lambda r, s: R.mul(r, s) if r else s)


def wrong_booleans():
    """(label, algebra) for boolean copies that break the tests' Boolean
    algebra.  mul-xor, mul-or and one-zero fail every kat line that an
    algebra can fail; add-and, add-left and mul-left fail the predicates
    they leave passing, such as commutativity and the bounds of the addition,
    so that each predicate that an algebra can fail has a witness here."""
    B = make_boolean()
    for label, ops in (("mul-xor", {"mul": operator.xor}), ("mul-or", {"mul": operator.or_}),
                       ("one-zero", {"one": 0}), ("add-and", {"add": operator.and_}),
                       ("add-left", {"add": lambda a, b: a}), ("mul-left", {"mul": lambda a, b: a})):
        yield label, replace(B, name=f"boolean-{label}", **ops)


def function_law_reports():
    """(case, report) for each pinned checker run, each with its own seeded rng."""
    R = make_relations()
    star_is_one = replace(R, name="relations2-star-one", star=lambda r: IDENTITY)
    square = models.pasting_square_2category()
    words3 = models.free_monoid("ab", 3)
    diamond = models.path_catoid(models.diamond_dag(), 4)
    rng = random.Random
    yield "ncat-square", check_n_catoid(square)
    yield "ncat-square-swapped", check_n_catoid(swapped_faces(square))
    yield "ncat-non-closed", check_n_catoid(non_closed_faces())
    yield "catoid-shuffle", check_catoid_axioms(models.shuffle_catoid("ab", 3))
    for label, A in (("boolean2d", make_boolean_nd(2)), ("appendix1", appendix_b_model(1)),
                     ("appendix2", appendix_b_model(2)), ("relations2d", relations_nd(2)),
                     ("point-faces", point_faces())):
        for seed in (1, 2):
            yield (f"nconv-{label}-{seed}",
                   check_n_axioms(NConvolution(square, A), rng(seed), samples=6))
    for label, nc, A in (("boolean2d", models.shuffle_concat_2catoid("ab", 3),
                          make_boolean_nd(2)),
                         ("relations2d", square, relations_nd(2))):
        yield f"ic-{label}", check_interchange(NConvolution(nc, A), rng(1), samples=10)
    for C in (words3, diamond):
        for K in (R, star_is_one):
            yield f"kleene-{C.name}", check_kleene_convolution(C, K, rng(1), 6)
            yield f"conway-{C.name}", check_conway(C, K, rng(1), samples=6)
    for K in (make_boolean(), R):
        yield "modal-hat", check_modal(diamond, K, "hat", rng(1), samples=6)
    yield "modal-bracket", check_modal(words3, make_boolean(), "bracket", rng(1), samples=6)
    yield "modal-control", check_modal(models.path_catoid(models.two_edge_path_graph(), 4),
                                       negative_control_dioid(), "hat", rng(1), samples=6)
    guarded = models.guarded_string_catoid(["t0", "t1"], ["p", "q"], 2)
    for label, K in wrong_booleans():
        yield f"kat-{label}", check_kat(guarded, K, rng(1), samples=6)
    for label, broken in (("dom-identity", {"dom": lambda r: IDENTITY}),  # D(0) != 0
                          ("cod-itself", {"cod": lambda r: r}),  # no subidentity
                          ("dom-forgets-full",  # not additive: dom(a + b) != dom(a) + dom(b)
                           {"dom": lambda r: 0 if r == 15 else R.dom(r)})):
        K = replace(R, name=f"relations2-{label}", **broken)
        yield "modal-hat", check_modal(diamond, K, "hat", rng(1), samples=6)
    yield "nconv-dom-as-itself", check_n_axioms(NConvolution(square, dom_as_itself()), rng(1),
                                                samples=6)


def function_law_lines():
    """One tab-separated line per law: the case, model, algebra, law, status,
    checked and vacuous counts, note and the full witness list."""
    for case, rep in function_law_reports():
        for e in rep.entries:
            yield "\t".join([case, e.model, e.algebra, e.law, e.status, str(e.checked),
                             str(e.vacuous), e.note, fmt_value(e.witnesses)])


def test_function_law_witnesses_pinned():
    expected = FUNCTION_LAW_PIN.read_text().splitlines()
    assert list(function_law_lines()) == expected


if __name__ == "__main__":  # regenerate the pin: python tests/test_function_laws.py
    FUNCTION_LAW_PIN.write_text("".join(line + "\n" for line in function_law_lines()))
