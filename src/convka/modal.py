"""Domain and codomain operators on convolution algebras.

Two liftings of a modal value algebra to weight functions:

  hat      D-(f)(e) = sum of dom(f(y)) over all y with s(y) = e, zero off the
           identities.  Sound only on local finite-valency models, i.e. when
           the enumerated universe is the whole catoid; the hat refuses, in
           this order, an algebra without modal maps, a bounded (truncated)
           model, whose truncated sum would change the operator's value, and
           a non-local one.
  bracket  the closed form on K[C]: id0 for f != 0, zero for f = 0.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .catoid import Catoid
from .convolution import (
    WeightFunction,
    conv_add,
    convolve,
    first_difference,
    function_leq,
    functions_equal,
    id0,
    is_in_bracket,
    random_function,
    zero_function,
)
from .report import Report
from .values import SIDES, CapabilityError, ValueAlgebra


def _refuse_hat(C: Catoid, K: ValueAlgebra):
    """Raise the hat's refusal of functions C -> K, if it has one."""
    if not K.has_modal:
        raise CapabilityError(f"{K.name}: no modal structure")
    if not C.is_complete:
        raise CapabilityError(
            f"{C.name}: cannot certify finite valency, universe is truncated")
    if C.kernel().non_local:
        raise CapabilityError(f"{C.name}: model is not local")


def _hat(f, take_source: bool) -> WeightFunction:
    C, K = f.catoid, f.algebra
    _refuse_hat(C, K)
    src, tgt, _ = C.faces()
    anchor, lift = (src, K.dom) if take_source else (tgt, K.cod)
    vals = [K.zero] * len(anchor)
    for w, e in zip(f.values(), anchor):
        vals[e] = K.add(vals[e], lift(w))
    return WeightFunction(C, K, vals=vals)


def dom_hat(f) -> WeightFunction:
    """Finite-valency domain operator: source-anchored sums of dom values."""
    return _hat(f, True)


def cod_hat(f) -> WeightFunction:
    return _hat(f, False)


def bracket(f) -> WeightFunction:
    """Closed-form domain and codomain on K[C]: id0 unless f is the zero map."""
    if not is_in_bracket(f):
        raise CapabilityError("bracket needs a weight function in K[C]")
    C, K = f.catoid, f.algebra
    return id0(C, K) if any(v != K.zero for v in f.values()) else zero_function(C, K)


def modal_laws(fs, pairs, mul, add, dom, cod, unit):
    """The modal laws on sample functions ``fs``, for ``check_modal`` and for
    each dimension of ``higher.check_n_axioms``.

    Each sample's D- (``dom``) and D+ (``cod``) is lifted once.  Strictness,
    D(0) = 0 for both faces, is checked on the zero sample ``fs[0]``.
    Expansion, subidentity and compatibility are checked per sample i,
    witnessed by (i,); locality and additivity per index pair (i, j) in ``pairs``,
    witnessed by (i, j, element, lhs, rhs) and (i, j).  Each law is stated
    for dom, and cod reads it in the opposite product.  ``unit`` is the
    convolution unit, over the catoid that formats witness elements.  Returns
    the lifts by face and the witness lists by law.
    """
    fmt = unit.catoid.format_element
    ops = {"dom": (dom, cod), "cod": (cod, dom)}  # each face, then the other one
    lifts = {face: [op(f) for f in fs] for face, (op, _) in ops.items()}
    laws = {law: [] for law in (
        "strict", "dom-expand", "cod-expand", "dom-subid", "cod-subid", "compat-dom",
        "compat-cod", "dom-local", "cod-local", "dom-additive", "cod-additive")}
    if not all(functions_equal(lift[0], fs[0]) for lift in lifts.values()):
        laws["strict"].append(("D(0) != 0",))
    for i, f in enumerate(fs):
        for _, face, mirror in SIDES:
            df, other = lifts[face][i], ops[face][1]
            if not function_leq(f, mul(*mirror(df, f))):
                laws[f"{face}-expand"].append((i,))
            if not function_leq(df, unit):
                laws[f"{face}-subid"].append((i,))
            if not functions_equal(other(df), df):
                laws[f"compat-{face}"].append((i,))
    for i, j in pairs:
        fg, f_plus_g = mul(fs[i], fs[j]), add(fs[i], fs[j])
        for _, face, mirror in SIDES:
            op, lift = ops[face][0], lifts[face]
            a, b = mirror(i, j)  # dom(f.dom(g)) = dom(f.g), cod(cod(f).g) = cod(f.g)
            d = first_difference(op(mul(*mirror(fs[a], lift[b]))), op(fg))
            if d:
                laws[f"{face}-local"].append((i, j, fmt(d[0]), d[1], d[2]))
            if not functions_equal(op(f_plus_g), add(lift[i], lift[j])):
                laws[f"{face}-additive"].append((i, j))
    return lifts, laws


def check_modal(C: Catoid, K: ValueAlgebra, variant: str, rng, samples) -> Report:
    """All modal axioms, pointwise, for sampled functions.

    variant "hat" lifts the value algebra's dom/cod by finite-valency sums,
    and meets the hat's refusals before it draws a sample; variant "bracket"
    uses the closed form on K[C] functions.
    """
    if variant not in ("hat", "bracket"):
        raise ValueError("variant must be 'hat' or 'bracket'")
    rep = Report(model=C.name, algebra=K.name)

    if variant == "hat":
        _refuse_hat(C, K)
        # valency: the most elements sharing one source, or one target
        U = C.elements()
        valency = max((Counter(map(C.source, U)) | Counter(map(C.target, U))).values(),
                      default=0)
        rep.add("modal.finite-valency", checked=len(U), note=f"max-valency={valency}")
        D_minus, D_plus = dom_hat, cod_hat
        sample = lambda: random_function(C, K, rng)
    else:
        D_minus = D_plus = bracket
        sample = lambda: random_function(C, K, rng, bracket=True)

    unit = id0(C, K)
    fs = [zero_function(C, K)] + [sample() for _ in range(samples)]
    if variant == "bracket":
        fs.append(id0(C, K))
    pairs = itertools.product(range(len(fs)), repeat=2)
    lifts, laws = modal_laws(fs, pairs, convolve, conv_add, D_minus, D_plus, unit)

    rep.add("modal.strictness", laws.pop("strict"), checked=2)
    for law, bad in sorted(laws.items()):
        n = len(fs) ** 2 if law.endswith(("local", "additive")) else len(fs)
        rep.add(f"modal.{law}", bad, checked=n)

    if variant == "bracket":
        fixed = []
        for i, f in enumerate(fs):
            if functions_equal(lifts["dom"][i], f):
                fixed.append("0" if not f.support() else
                             ("id0" if functions_equal(f, unit) else f"f{i}"))
        names = sorted(set(fixed))
        rep.add("modal.bracket-fixpoints", [] if names == ["0", "id0"] else [tuple(names)],
                checked=len(fs), note="K[C]_0 = {0, id0}")
    return rep
