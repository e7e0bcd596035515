"""Domain and codomain operators on convolution algebras.

Two liftings of a modal value algebra to weight functions:

  hat      D-(f)(e) = sum of dom(f(y)) over all y with s(y) = e, zero off the
           identities.  Sound only on finite-valency models, i.e. when the
           enumerated universe is the whole catoid; bounded (truncated)
           models are rejected rather than silently summed, since a
           truncated sum would change the operator's value.
  bracket  the closed form on K[C]: id0 for f != 0, zero for f = 0.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .catoid import Catoid, is_local
from .convolution import (
    WeightFunction,
    conv_add,
    convolve,
    first_difference,
    from_pairs,
    function_leq,
    functions_equal,
    id0,
    is_in_bracket,
    random_function,
    zero_function,
)
from .report import FAIL, PASS, Report
from .values import CapabilityError, ValueAlgebra


def _hat(f, take_source: bool) -> WeightFunction:
    C, K = f.catoid, f.algebra
    if not K.has_modal:
        raise CapabilityError(f"{K.name}: no modal structure")
    if not C.is_complete:
        raise CapabilityError(
            f"{C.name}: cannot certify finite valency, universe is truncated")
    anchor, lift = (C.source, K.dom) if take_source else (C.target, K.cod)
    table = {e: K.zero for e in C.identities()}
    for y in C.elements():
        e = anchor(y)
        table[e] = K.add(table[e], lift(f(y)))
    return from_pairs(C, K, table, name=("D-" if take_source else "D+") + f"({f.name})")


def dom_hat(f) -> WeightFunction:
    """Finite-valency domain operator: source-anchored sums of dom values."""
    return _hat(f, True)


def cod_hat(f) -> WeightFunction:
    return _hat(f, False)


def _bracket(f, op: str) -> WeightFunction:
    if not is_in_bracket(f):
        raise CapabilityError(f"{op} needs a weight function in K[C]")
    C, K = f.catoid, f.algebra
    # stops at the first nonzero value, where f.support() would evaluate all
    nonzero = any(f(x) != K.zero for x in C.elements())
    return id0(C, K) if nonzero else zero_function(C, K)


def dom_bracket(f) -> WeightFunction:
    """Closed-form domain on K[C]: id0 unless f is the zero map."""
    return _bracket(f, "dom_bracket")


def cod_bracket(f) -> WeightFunction:
    """Closed-form codomain on K[C]: the same closed form as the domain."""
    return _bracket(f, "cod_bracket")


def modal_laws(fs, pairs, mul, add, dom, cod, unit):
    """The modal laws on sample functions ``fs``, for ``check_modal`` and for
    each dimension of ``higher.check_n_axioms``.

    Each sample's D- (``dom``) and D+ (``cod``) is lifted once.  Expansion,
    subidentity and compatibility are checked per sample i, witnessed by
    (i,); locality and additivity per index pair (i, j) in ``pairs``,
    witnessed by (i, j, element, lhs, rhs) and (i, j).  ``unit`` is the
    convolution unit, over the catoid that formats witness elements.
    Returns the D- lifts, the D+ lifts and the witness lists by law name.
    """
    fmt = unit.catoid.format_element
    dm = [dom(f) for f in fs]
    dp = [cod(f) for f in fs]
    laws = {law: [] for law in (
        "dom-expand", "cod-expand", "dom-subid", "cod-subid", "compat-dom", "compat-cod",
        "dom-local", "cod-local", "dom-additive", "cod-additive")}
    for i, f in enumerate(fs):
        df, cf = dm[i], dp[i]
        if not function_leq(f, mul(df, f)):
            laws["dom-expand"].append((i,))
        if not function_leq(f, mul(f, cf)):
            laws["cod-expand"].append((i,))
        if not function_leq(df, unit):
            laws["dom-subid"].append((i,))
        if not function_leq(cf, unit):
            laws["cod-subid"].append((i,))
        if not functions_equal(cod(df), df):
            laws["compat-dom"].append((i,))
        if not functions_equal(dom(cf), cf):
            laws["compat-cod"].append((i,))
    for i, j in pairs:
        f, g = fs[i], fs[j]
        fg, f_plus_g = mul(f, g), add(f, g)
        d = first_difference(dom(mul(f, dm[j])), dom(fg))
        if d:
            laws["dom-local"].append((i, j, fmt(d[0]), d[1], d[2]))
        d = first_difference(cod(mul(dp[i], g)), cod(fg))
        if d:
            laws["cod-local"].append((i, j, fmt(d[0]), d[1], d[2]))
        if not functions_equal(dom(f_plus_g), add(dm[i], dm[j])):
            laws["dom-additive"].append((i, j))
        if not functions_equal(cod(f_plus_g), add(dp[i], dp[j])):
            laws["cod-additive"].append((i, j))
    return dm, dp, laws


def check_modal(C: Catoid, K: ValueAlgebra, variant: str, rng, samples=30) -> Report:
    """All modal axioms, pointwise, for sampled functions.

    variant "hat" lifts the value algebra's dom/cod by finite-valency sums
    (needs a local complete model); variant "bracket" uses the closed form on
    K[C] functions.
    """
    if variant not in ("hat", "bracket"):
        raise ValueError("variant must be 'hat' or 'bracket'")
    rep = Report(model=C.name, algebra=K.name)

    if variant == "hat":
        if not C.is_complete:
            raise CapabilityError(
                f"{C.name}: cannot certify finite valency, universe is truncated")
        if not is_local(C).clean:
            raise CapabilityError(f"{C.name}: hat variant needs a local catoid")
        # valency: the most elements sharing one source, or one target
        U = C.elements()
        valency = max((Counter(map(C.source, U)) | Counter(map(C.target, U))).values(),
                      default=0)
        rep.add("modal.finite-valency", PASS, checked=len(U), note=f"max-valency={valency}")
        D_minus = dom_hat
        D_plus = cod_hat
        sample = lambda: random_function(C, K, rng)
    else:
        D_minus = dom_bracket
        D_plus = cod_bracket
        sample = lambda: random_function(C, K, rng, bracket=True)

    zero = zero_function(C, K)
    unit = id0(C, K)
    fs = [zero] + [sample() for _ in range(samples)]
    if variant == "bracket":
        fs.append(id0(C, K))
    pairs = itertools.product(range(len(fs)), repeat=2)
    dm, dp, laws = modal_laws(fs, pairs, convolve, conv_add, D_minus, D_plus, unit)

    ok = functions_equal(dm[0], zero) and functions_equal(dp[0], zero)
    rep.add("modal.strictness", PASS if ok else FAIL,
            [] if ok else [("D(0) != 0",)], checked=2)
    for law, bad in sorted(laws.items()):
        n = len(fs) ** 2 if law.endswith(("local", "additive")) else len(fs)
        rep.add(f"modal.{law}", FAIL if bad else PASS, bad, checked=n)

    if variant == "bracket":
        fixed = []
        for i, f in enumerate(fs):
            if functions_equal(dm[i], f):
                fixed.append("0" if not f.support() else
                             ("id0" if functions_equal(f, unit) else f"f{i}"))
        names = sorted(set(fixed))
        rep.add("modal.bracket-fixpoints", PASS if names == ["0", "id0"] else FAIL,
                [] if names == ["0", "id0"] else [tuple(names)],
                checked=len(fs), note="K[C]_0 = {0, id0}")
    return rep
