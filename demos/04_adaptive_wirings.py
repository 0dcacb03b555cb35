#!/usr/bin/env python3
"""Adaptive two-copy wirings: exhaustive search and the parity rewrite.

An adaptive wiring feeds the first box's output into the second box's
input, per player. Each player's behaviour is three bit-tables (first
input, second input given the intermediate bit, final output), so the
whole protocol packs into 24 bits and all 2^24 composites can be
searched exhaustively.

Two results below. First, on boxes with marginals the best adaptive
wiring beats every non-adaptive one. Second, a known two-step wiring is
secretly a parity protocol: interpolating the eight marginal and
correlator entries of its output as polynomials in delta and factoring
each into two affine pieces yields two effective boxes whose plain parity
combination reproduces the wiring exactly, with a numerical certificate.
Factoring a polynomial can fail in two ways, and the assembled boxes can
be invalid; each is reported by its own exception.
"""

import numpy as np

from nlbd import (
    AdaptiveTwoCopyProtocol,
    AffineFactor,
    DeltaPolynomial,
    InvalidConstructedBox,
    NoRealFactorization,
    RangeInfeasible,
    adaptive_search_max,
    adaptive_value,
    apply_nonadaptive,
    box_from_correlators,
    bs_output_box,
    bs_wiring,
    build_equivalent_boxes,
    chsh_value_of_box,
    factor_affine_target,
    format_protocol,
    make_named_box,
    parity_protocol,
    symmetric_box,
)

print("== exhaustive adaptive search ==")
iso = box_from_correlators(make_named_box("isotropic", delta=0.9))
result = adaptive_search_max(iso)
print(f"isotropic(0.9): best {result.best_value:.6g} over "
      f"{result.protocols_examined} protocols")
print("(adaptivity buys nothing without marginals: parity already gives 3.6)")

strong = box_from_correlators(symmetric_box(0.0, 0.0, 1.0, -0.7))
result = adaptive_search_max(strong)
print(f"symmetric(0, 0, 1, -0.7): best {result.best_value:.6g}, "
      f"closed form {adaptive_value(1.0, -0.7, 0.0):.6g}")

witness = box_from_correlators(symmetric_box(0.42, 0.42, 0.99, -0.16))
result = adaptive_search_max(witness)
print(f"symmetric(0.42, 0.42, 0.99, -0.16): best {result.best_value:.6f}")
print(f"  protocol {result.best_protocol:06x}, vs 3.268275 for the OR wiring:")
print("  the adaptive composite is strictly stronger on this box too.")

print()
print("== one wiring, written out ==")
proto = bs_wiring()
print(format_protocol(proto))

print()
print("== the wiring is a parity protocol in disguise ==")
equiv = build_equivalent_boxes(proto)
assert all(t.coeffs == (0.0, 0.0, 0.0) for t in equiv.targets[:4])
print("output correlators of the wiring on the isotropic family,")
print("interpolated as polynomials in delta and factored affine*affine")
print("(its output marginals are 0 = 0 * 0):")
def _fmt_factor(factor):
    sign = "-" if factor.c0 < 0 else "+"
    return f"({factor.c1:g}*d {sign} {abs(factor.c0):g})"

box1, box2 = equiv.boxes
labels = ("00", "01", "10", "11")
for label, target, *pair in zip(labels, equiv.targets[4:], box1.correlator,
                                box2.correlator):
    coeffs = ", ".join(f"{c:g}" for c in target.coeffs)
    facs = " * ".join(_fmt_factor(f) for f in pair)
    print(f"  input {label}: [{coeffs}]  =  {facs}")
for name, eb in (("box1", box1), ("box2", box2)):
    form = eb.correlator_form(0.6)
    print(f"{name} at delta=0.6: d=({form.d1:g}, {form.d2:g}, {form.d3:g}), "
          f"eps={form.eps:g}")
cert = equiv.certificate
print(f"certificate at delta = 0, 0.1, ..., 1: max deviation "
      f"{cert.max_deviation:.3g}, p(00|xy) deviation {cert.p00_deviation:.3g}")

print()
print("rebuilding the wiring from the two effective boxes with parity:")
for delta in (0.0, 0.3, 0.7, 1.0):
    concrete = [box1.box_at(delta), box2.box_at(delta)]
    rebuilt = apply_nonadaptive(concrete, parity_protocol(2, 2))
    gap = float(np.abs(rebuilt.p - bs_output_box(delta).p).max())
    print(f"  delta={delta:g}: max |rebuilt - direct| = {gap:.3g}")

print()
print("== factoring a single polynomial ==")
factors = factor_affine_target(DeltaPolynomial((0.0, 0.5, 0.5)))
print("q(d) = 0.25 + 0.125 d + 0.125 d^2, so 4q - 1 = d (1 + d) / 2")
print("(for an output without marginals, 4q - 1 is the correlator)")
print(f"factors of 4q - 1: {' * '.join(_fmt_factor(f) for f in factors)}")
assert factors == (AffineFactor(1.0, 0.0), AffineFactor(0.5, 0.5))

print()
print("== three ways the rewrite can fail ==")
polys = (
    ((0.5, 0.0, 0.5), "(1 + d^2) / 2 has complex roots"),
    ((1.5,), "the constant 1.5 needs a factor outside [-1, 1]"),
)
for coeffs, why in polys:
    try:
        factor_affine_target(DeltaPolynomial(coeffs))
    except (NoRealFactorization, RangeInfeasible) as err:
        print(f"  {type(err).__name__}: {why}")
wirings = (
    (0x0C5C7F, "the factored boxes are not probability tables"),
    (0xA6A3A4, "this one is fine"),
)
for enc, why in wirings:
    proto = AdaptiveTwoCopyProtocol.decode(enc)
    try:
        equiv = build_equivalent_boxes(proto)
    except InvalidConstructedBox as err:
        print(f"  {enc:06x}: {type(err).__name__} ({why})")
    else:
        print(f"  {enc:06x}: ok, certificate max deviation "
              f"{equiv.certificate.max_deviation:.3g} ({why})")
