"""Domain and codomain operators on convolution algebras.

Two liftings of a modal value algebra to weight functions:

  hat      D-(f)(e) = sum of dom(f(y)) over all y with s(y) = e, zero off the
           identities.  Sound only when the model's valency is certified
           finite, i.e. the enumerated universe is the whole catoid; bounded
           (truncated) models are rejected rather than silently summed, since
           a truncated sum would change the operator's value.
  bracket  the closed form on K[C]: id0 for f != 0, zero for f = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ValencyCertificate:
    """Per-identity counts of outgoing/incoming elements over the whole catoid."""

    source_counts: dict
    target_counts: dict

    @property
    def max_valency(self) -> int:
        counts = list(self.source_counts.values()) + list(self.target_counts.values())
        return max(counts, default=0)


def valency_certificate(C: Catoid) -> ValencyCertificate:
    if not C.is_complete:
        raise CapabilityError(
            f"{C.name}: cannot certify finite valency, universe is truncated")
    src = {e: 0 for e in C.identities()}
    tgt = {e: 0 for e in C.identities()}
    for x in C.elements():
        src[C.source(x)] += 1
        tgt[C.target(x)] += 1
    return ValencyCertificate(src, tgt)


def _hat(f, take_source: bool, certificate):
    C, K = f.catoid, f.algebra
    if not K.has_modal:
        raise CapabilityError(f"{K.name}: no modal structure")
    if certificate is None:
        valency_certificate(C)  # raises when uncertifiable
    anchor, lift = (C.source, K.dom) if take_source else (C.target, K.cod)
    table = {e: K.zero for e in C.identities()}
    for y in C.elements():
        e = anchor(y)
        table[e] = K.add(table[e], lift(f(y)))
    return from_pairs(C, K, table, name=("D-" if take_source else "D+") + f"({f.name})")


def dom_hat(f, certificate=None) -> WeightFunction:
    """Finite-valency domain operator: source-anchored sums of dom values."""
    return _hat(f, True, certificate)


def cod_hat(f, certificate=None) -> WeightFunction:
    return _hat(f, False, certificate)


def _is_zero(f) -> bool:
    return all(f(x) == f.algebra.zero for x in f.catoid.elements())


def dom_bracket(f) -> WeightFunction:
    """Closed-form domain on K[C]: id0 unless f is the zero map."""
    if not is_in_bracket(f):
        raise CapabilityError("dom_bracket needs a weight function in K[C]")
    C, K = f.catoid, f.algebra
    return zero_function(C, K) if _is_zero(f) else id0(C, K)


def cod_bracket(f) -> WeightFunction:
    if not is_in_bracket(f):
        raise CapabilityError("cod_bracket needs a weight function in K[C]")
    C, K = f.catoid, f.algebra
    return zero_function(C, K) if _is_zero(f) else id0(C, K)


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
        cert = valency_certificate(C)
        local = is_local(C)
        if not local.clean:
            raise CapabilityError(f"{C.name}: hat variant needs a local catoid")
        rep.add("modal.finite-valency", PASS, checked=len(C.elements()),
                note=f"max-valency={cert.max_valency}")
        D_minus = lambda f: dom_hat(f, cert)
        D_plus = lambda f: cod_hat(f, cert)
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

    laws = {
        "modal.dom-expand": [], "modal.dom-local": [], "modal.dom-subid": [],
        "modal.dom-additive": [], "modal.cod-expand": [], "modal.cod-local": [],
        "modal.cod-subid": [], "modal.cod-additive": [],
        "modal.compat-dom": [], "modal.compat-cod": [],
    }
    pairs = 0
    for i, f in enumerate(fs):
        df, cf = D_minus(f), D_plus(f)
        if not function_leq(f, convolve(df, f)):
            laws["modal.dom-expand"].append((i,))
        if not function_leq(df, unit):
            laws["modal.dom-subid"].append((i,))
        if not function_leq(f, convolve(f, cf)):
            laws["modal.cod-expand"].append((i,))
        if not function_leq(cf, unit):
            laws["modal.cod-subid"].append((i,))
        if not functions_equal(D_plus(df), df):
            laws["modal.compat-dom"].append((i,))
        if not functions_equal(D_minus(cf), cf):
            laws["modal.compat-cod"].append((i,))
        for j, g in enumerate(fs):
            pairs += 1
            d = first_difference(D_minus(convolve(f, D_minus(g))), D_minus(convolve(f, g)))
            if d:
                laws["modal.dom-local"].append((i, j, C.format_element(d[0]), d[1], d[2]))
            d = first_difference(D_plus(convolve(D_plus(f), g)), D_plus(convolve(f, g)))
            if d:
                laws["modal.cod-local"].append((i, j, C.format_element(d[0]), d[1], d[2]))
            if not functions_equal(D_minus(conv_add(f, g)), conv_add(D_minus(f), D_minus(g))):
                laws["modal.dom-additive"].append((i, j))
            if not functions_equal(D_plus(conv_add(f, g)), conv_add(D_plus(f), D_plus(g))):
                laws["modal.cod-additive"].append((i, j))

    ok = functions_equal(D_minus(zero), zero) and functions_equal(D_plus(zero), zero)
    rep.add("modal.strictness", PASS if ok else FAIL,
            [] if ok else [("D(0) != 0",)], checked=2)
    for law, bad in sorted(laws.items()):
        n = pairs if law.endswith(("local", "additive")) else len(fs)
        rep.add(law, FAIL if bad else PASS, bad, checked=n)

    if variant == "bracket":
        fixed = []
        for i, f in enumerate(fs):
            if functions_equal(D_minus(f), f):
                fixed.append("0" if _is_zero(f) else ("id0" if functions_equal(f, unit) else f"f{i}"))
        names = sorted(set(fixed))
        rep.add("modal.bracket-fixpoints", PASS if names == ["0", "id0"] else FAIL,
                [] if names == ["0", "id0"] else [tuple(names)],
                checked=len(fs), note="K[C]_0 = {0, id0}")
    return rep
