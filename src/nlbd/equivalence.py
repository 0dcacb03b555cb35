"""Rewriting adaptive two-copy wirings as parity over two tailored boxes.

An adaptive two-copy wiring applied to two identical one-parameter boxes
produces output probabilities that are quadratics in the noise parameter.
So are the eight entries of its correlator form (marginal biases and
correlators).  This module recovers those eight quadratics exactly by
interpolation, splits each into two affine factors bounded on the physical
parameter range, and assembles two (generally nonidentical) boxes, one per
factor, whose two-copy parity wiring reproduces the adaptive output: the
parity wiring multiplies marginal biases exactly as it multiplies
correlators.  A numeric certificate reports the reconstruction error at
eleven parameter values, both for the full distribution and for the
even-even output probabilities alone.  Points are evaluated in one pass each:
the adaptive output at the 3 + 11 points as one stack of boxes, each distinct
parameter once, its correlator form at the 3 interpolation nodes in one call,
then the constructed pair's check and parity replay at the 11.

The factorization is canonical (see factor_affine_target), so the
constructed pair is deterministic; failures (complex roots, range
infeasibility, an invalid assembled box) are reported as typed errors, never
patched over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .boxes import (
    VALIDITY_TOL,
    BipartiteBox,
    CorrelatorForm,
    box_breaches,
    box_from_correlators,
    boxes_from_fields,
    fields_from_boxes,
    make_named_box,
    require_valid,
    require_valid_stack,
)
from .errors import (
    InvalidConstructedBox,
    NoRealFactorization,
    RangeInfeasible,
    VerificationFailed,
)
from .wirings import (
    AdaptiveTwoCopyProtocol,
    parity_protocol,
    wire_adaptive,
    wire_nonadaptive,
)

__all__ = [
    "AffineFactor",
    "DeltaPolynomial",
    "EquivalenceCertificate",
    "EquivalenceResult",
    "EquivalentBox",
    "build_equivalent_boxes",
    "factor_affine_target",
]

COEFF_TOL = 1e-12
PRODUCT_TOL = 1e-9
RANGE_TOL = 1e-9
# Interpolation nodes: three points determine a quadratic; 0, 1/2, 1 keep
# every arithmetic step dyadic, so the fit is exact in floats.
SAMPLE_DELTAS = (0.0, 0.5, 1.0)
CERTIFICATE_DELTAS = tuple(step / 10.0 for step in range(11))


@dataclass(frozen=True)
class DeltaPolynomial:
    """Real polynomial in the noise parameter; coefficients constant-first."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def __call__(self, delta: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * float(delta) + c
        return acc


class AffineFactor(NamedTuple):
    """Affine expected-value entry c1 * delta + c0 of one constructed box."""

    c1: float
    c0: float

    def __call__(self, delta: float) -> float:
        return self.c1 * float(delta) + self.c0


def _product_coefficients(factors: Sequence[AffineFactor]) -> tuple[float, ...]:
    coeffs = [1.0]
    for f in factors:
        expanded = [0.0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            expanded[i] += c * f.c0
            expanded[i + 1] += c * f.c1
        coeffs = expanded
    return tuple(coeffs)


def _spread(total: float, caps: Sequence[float]) -> list[float]:
    """Two scale magnitudes multiplying to total, each at most its cap.

    Equal geometric split, total ** 0.5 each; a factor whose cap falls below
    that share takes its cap and the other the rest, up to its own cap.  The
    caller guarantees feasibility (cap_0 * cap_1 >= total, up to RANGE_TOL).
    """
    share = total ** 0.5
    if caps[0] < share:
        return [caps[0], min(caps[1], total / caps[0])]
    if caps[1] < share:
        return [min(caps[0], total / caps[1]), caps[1]]
    return [share, share]


def factor_affine_target(target: DeltaPolynomial) -> tuple[AffineFactor, ...]:
    """Split target into two affine factors, each mapping [0, 1] into [-1, 1].

    Canonical form: affine factors ordered by descending root, constant
    factors last; the leading-coefficient magnitude is spread over the
    factors by equal geometric split with per-factor caps (a factor whose
    cap binds takes its cap, the other the rest); a negative leading
    coefficient is carried by the affine factor with the smallest root, or
    by the first constant factor when the target is constant.  The zero polynomial becomes
    all-zero factors.

    Raises NoRealFactorization when the target has complex roots and
    RangeInfeasible when no scaling keeps every factor inside [-1, 1].
    """
    coeffs = [0.0 if abs(c) <= COEFF_TOL else float(c) for c in target.coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    degree = len(coeffs) - 1
    if degree > 2:
        raise ValueError(f"degree-{degree} target cannot split into two affine factors")
    if coeffs == [0.0]:
        return (AffineFactor(0.0, 0.0),) * 2

    lead = coeffs[-1]
    if degree == 0:
        roots: list[float] = []
    elif degree == 1:
        roots = [-coeffs[0] / coeffs[1]]
    else:
        c0, c1, c2 = coeffs
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < -COEFF_TOL:
            raise NoRealFactorization(
                f"target with coefficients {tuple(coeffs)} has complex roots "
                f"(discriminant {disc:.3g})"
            )
        s = math.sqrt(max(disc, 0.0))
        roots = [(-c1 + s) / (2.0 * c2), (-c1 - s) / (2.0 * c2)]
    roots.sort(reverse=True)

    # |(delta - r)| on [0, 1] peaks at an endpoint, so the largest scale that
    # keeps a factor inside [-1, 1] is 1/max(|r|, |1 - r|); constants cap at 1.
    caps = [1.0 / max(abs(r), abs(1.0 - r)) for r in roots]
    caps += [1.0] * (2 - degree)
    total = abs(lead)
    if math.prod(caps) < total - RANGE_TOL:
        raise RangeInfeasible(
            f"leading coefficient {lead:.6g} exceeds the achievable product of "
            f"range caps {math.prod(caps):.6g}"
        )

    scales = _spread(total, caps)
    factors = [AffineFactor(s, -s * r) for s, r in zip(scales, roots)]
    factors += [AffineFactor(0.0, s) for s in scales[degree:]]
    if lead < 0.0:
        flip = degree - 1 if degree > 0 else 0
        chosen = factors[flip]
        factors[flip] = AffineFactor(-chosen.c1, -chosen.c0)

    product = _product_coefficients(factors)
    padded = coeffs + [0.0] * (len(product) - len(coeffs))
    drift = max(abs(p - t) for p, t in zip(product, padded))
    if not drift <= PRODUCT_TOL:
        raise VerificationFailed(f"factor product drifted from the target by {drift:.3g}")
    return tuple(factors)


def _clip_entry(value: float) -> float:
    if not abs(value) <= 1.0 + 1e-6:  # also catches nan
        raise InvalidConstructedBox(f"affine entry {value:.6g} leaves [-1, 1]")
    return min(1.0, max(-1.0, value))


@dataclass(frozen=True)
class EquivalentBox:
    """One box of the constructed pair; every entry is affine in the parameter.

    marginal_a / marginal_b hold the per-input expected-value factors of the
    two players' outputs, correlator the per-joint-input factors, both in
    input order.
    """

    marginal_a: tuple[AffineFactor, AffineFactor]
    marginal_b: tuple[AffineFactor, AffineFactor]
    correlator: tuple[AffineFactor, AffineFactor, AffineFactor, AffineFactor]

    def correlator_form(self, delta: float) -> CorrelatorForm:
        values = [
            factor(delta)
            for factor in (*self.marginal_a, *self.marginal_b, *self.correlator)
        ]
        return CorrelatorForm(*(_clip_entry(v) for v in values))

    def box_at(self, delta: float) -> BipartiteBox:
        """The concrete box at one parameter value (may fail validation)."""
        return box_from_correlators(self.correlator_form(delta))


class EquivalenceCertificate(NamedTuple):
    """Largest gap between the parity reconstruction and the adaptive output.

    Measured at the eleven points of CERTIFICATE_DELTAS; not a bound over
    [0, 1].  The construction is exact, so the gap is float rounding, which
    can peak between the points and is often exactly 0 at the three
    interpolation nodes: neither set of points bounds it.
    """

    max_deviation: float
    p00_deviation: float


@dataclass(frozen=True)
class EquivalenceResult:
    """Constructed box pair, the polynomials it was split from, and its certificate.

    targets holds the eight correlator-form polynomials of the adaptive output
    in CORRELATOR_FIELDS order; box i carries factor i of each of them.
    """

    boxes: tuple[EquivalentBox, EquivalentBox]
    targets: tuple[DeltaPolynomial, ...]
    certificate: EquivalenceCertificate


def build_equivalent_boxes(proto: AdaptiveTwoCopyProtocol) -> EquivalenceResult:
    """Rewrite an adaptive two-copy wiring as parity over two tailored boxes.

    Interpolates the eight marginal-bias and correlator polynomials of the
    adaptive output (reported in .targets) and factors each into two affine
    factors; the two boxes take the first and second factor of every field.
    The certificate holds the largest entrywise and even-even-probability
    deviations between their parity wiring and the adaptive output at
    delta in {0, 0.1, ..., 1}; it is not a bound between those points.

    Raises NoRealFactorization or RangeInfeasible when a polynomial cannot be
    split into bounded affine factors, InvalidConstructedBox when the factor
    assignment fails box validation at some certificate point.
    """
    # the adaptive output at every sample and certificate point: one stack, each delta once
    deltas = sorted(set(SAMPLE_DELTAS + CERTIFICATE_DELTAS))
    unit = np.array(list(make_named_box("isotropic", delta=1.0).as_dict().values()))
    iso = boxes_from_fields(np.array(deltas)[:, None] * unit)
    require_valid_stack(iso, "input box fails validation")
    outputs = wire_adaptive(iso, iso, proto)
    at = lambda points: outputs[[deltas.index(d) for d in points]]  # noqa: E731
    # each field's exact quadratic through its samples at 0, 1/2 and 1
    v0, vh, v1 = fields_from_boxes(at(SAMPLE_DELTAS))
    c2 = 2.0 * (v0 - 2.0 * vh + v1)
    targets = tuple(map(DeltaPolynomial, zip(v0.tolist(), (v1 - v0 - c2).tolist(), c2.tolist())))
    split = [factor_affine_target(target) for target in targets]
    boxes = tuple(
        EquivalentBox(
            marginal_a=(split[0][i], split[1][i]),
            marginal_b=(split[2][i], split[3][i]),
            correlator=tuple(pair[i] for pair in split[4:]),
        )
        for i in (0, 1)
    )

    # values[i, j]: box j's eight entries at certificate point i, each c1 * delta + c0
    factors = np.array([(*b.marginal_a, *b.marginal_b, *b.correlator) for b in boxes])
    values = factors[..., 0] * np.array(CERTIFICATE_DELTAS)[:, None, None] + factors[..., 1]
    concrete = boxes_from_fields(np.clip(values, -1.0, 1.0))
    out_of_range = ~(np.abs(values) <= 1.0 + 1e-6).all(-1)  # also catches nan
    failed = out_of_range | ~(box_breaches(concrete) <= VALIDITY_TOL).all(-1)
    if failed.any():  # the per-box path raises the per-delta loop's first failure
        i, j = divmod(int(failed.argmax()), 2)  # earliest delta, then box1 before box2
        message = f"constructed box invalid at delta={CERTIFICATE_DELTAS[i]:g}"
        require_valid(boxes[j].box_at(CERTIFICATE_DELTAS[i]), message, InvalidConstructedBox)
    rebuilt = wire_nonadaptive([concrete[:, 0], concrete[:, 1]], parity_protocol(2, 2))
    gap = np.abs(rebuilt - at(CERTIFICATE_DELTAS))
    return EquivalenceResult(
        boxes=boxes,
        targets=targets,
        certificate=EquivalenceCertificate(float(gap.max()), float(gap[..., 0].max())),
    )
