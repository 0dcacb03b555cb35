"""Tests for rewriting adaptive two-copy wirings as parity over tailored boxes."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import nlbd.equivalence
from nlbd.boxes import (
    CORRELATOR_FIELDS,
    box_from_correlators,
    correlators_from_box,
    make_named_box,
    require_valid,
    validate_box,
)
from nlbd.equivalence import (
    CERTIFICATE_DELTAS,
    SAMPLE_DELTAS,
    AffineFactor,
    DeltaPolynomial,
    build_equivalent_boxes,
    factor_affine_target,
)
from nlbd.errors import InvalidConstructedBox, NoRealFactorization, RangeInfeasible
from nlbd.wirings import (
    AdaptiveTwoCopyProtocol,
    apply_adaptive,
    apply_nonadaptive,
    bs_output_box,
    bs_wiring,
    identity_wiring,
    parity_as_adaptive,
    parity_protocol,
)


def field_factors(box):
    """A constructed box's eight affine entries, in CORRELATOR_FIELDS order."""
    return (*box.marginal_a, *box.marginal_b, *box.correlator)


def max_product_drift(result) -> float:
    """Largest coefficientwise gap between a field's factor product and its target."""
    worst = 0.0
    first, second = (field_factors(box) for box in result.boxes)
    for target, *factors in zip(result.targets, first, second):
        product = [1.0]
        for f in factors:
            product = np.polynomial.polynomial.polymul(product, [f.c0, f.c1])
        gap = np.polynomial.polynomial.polysub(product, target.coeffs)
        worst = max(worst, float(np.abs(gap).max()))
    return worst


def targets_by_field(proto):
    return dict(zip(CORRELATOR_FIELDS, build_equivalent_boxes(proto).targets))


def one_parameter_box(delta):
    return box_from_correlators(make_named_box("isotropic", delta=delta))


def adaptive_output(proto, delta):
    box = one_parameter_box(delta)
    return apply_adaptive(box, box, proto)


def test_polynomial_evaluation():
    p = DeltaPolynomial((1.0, 2.0, 3.0))
    assert p(0.0) == 1.0
    assert p(0.5) == 1.0 + 1.0 + 0.75
    with pytest.raises(ValueError):
        DeltaPolynomial(())


def test_interpolated_identity_wiring_correlators():
    # Returning box 1 unchanged: no marginals, correlator delta except on
    # input 11, where the one-parameter family has correlator -delta.
    targets = targets_by_field(identity_wiring())
    for name in ("alpha", "beta", "gamma", "omega"):
        assert targets[name].coeffs == (0.0, 0.0, 0.0)
    for name in ("d1", "d2", "d3"):
        assert targets[name].coeffs == (0.0, 1.0, 0.0)
    assert targets["eps"].coeffs == (0.0, -1.0, 0.0)


def test_interpolated_parity_wiring_is_quadratic():
    # parity squares every correlator, -delta on input 11 included
    targets = targets_by_field(parity_as_adaptive())
    for name in ("d1", "d2", "d3", "eps"):
        assert targets[name].coeffs == (0.0, 0.0, 1.0)


def test_interpolated_bs_wiring_input_11():
    targets = targets_by_field(bs_wiring())
    assert targets["eps"].coeffs == (0.0, -0.5, -0.5)
    for delta in (0.0, 0.25, 0.8, 1.0):
        assert targets["eps"](delta) == pytest.approx(-(delta + delta * delta) / 2.0, abs=1e-12)


def test_interpolation_matches_simulation_at_fresh_points():
    protos = [
        identity_wiring(),
        parity_as_adaptive(),
        bs_wiring(),
        AdaptiveTwoCopyProtocol.decode(0xA6A3A4),
        AdaptiveTwoCopyProtocol.decode(0x000000),
    ]
    deltas = np.linspace(0.037, 0.963, 10)
    for proto in protos:
        targets = targets_by_field(proto)
        for delta in deltas:
            form = correlators_from_box(adaptive_output(proto, float(delta)))
            for name in CORRELATOR_FIELDS:
                assert targets[name](float(delta)) == pytest.approx(
                    getattr(form, name), abs=1e-9
                )


def test_factorize_bs_target():
    # 4q - 1 = delta(1 + delta)/2 for q = (1 + delta/2 + delta^2/2)/4: the affine
    # factor with the larger root comes first and soaks up the scale its cap allows.
    factors = factor_affine_target(DeltaPolynomial((0.0, 0.5, 0.5)))
    assert factors == (AffineFactor(1.0, 0.0), AffineFactor(0.5, 0.5))


def test_factorize_double_root():
    target = DeltaPolynomial((0.0, 0.0, 1.0))  # 4q - 1 = delta^2
    assert factor_affine_target(target) == (AffineFactor(1.0, 0.0), AffineFactor(1.0, 0.0))


def test_factorize_complex_roots_is_reported():
    target = DeltaPolynomial((0.5, 0.0, 0.5))  # 4q - 1 = (1 + delta^2)/2
    with pytest.raises(NoRealFactorization):
        factor_affine_target(target)


def test_factorize_degree_one_target():
    # 4q - 1 = delta: one affine factor plus a constant factor of 1.
    factors = factor_affine_target(DeltaPolynomial((0.0, 1.0)))
    assert factors == (AffineFactor(1.0, 0.0), AffineFactor(0.0, 1.0))
    # Negative leading coefficient rides on the affine factor, not the constant.
    factors = factor_affine_target(DeltaPolynomial((0.0, -1.0)))
    assert factors == (AffineFactor(-1.0, 0.0), AffineFactor(0.0, 1.0))


def test_factorize_constant_and_zero_targets():
    half = math.sqrt(0.5)
    factors = factor_affine_target(DeltaPolynomial((0.5,)))
    assert [f.c1 for f in factors] == [0.0, 0.0]
    assert [f.c0 for f in factors] == pytest.approx([half, half])
    negated = factor_affine_target(DeltaPolynomial((-0.5,)))
    assert [f.c0 for f in negated] == pytest.approx([-half, half])
    assert factor_affine_target(DeltaPolynomial((0.0, 0.0, 0.0))) == (
        AffineFactor(0.0, 0.0),
        AffineFactor(0.0, 0.0),
    )
    with pytest.raises(RangeInfeasible):
        factor_affine_target(DeltaPolynomial((1.5,)))


def test_factorize_scale_split_clamps_to_caps():
    # 2*delta*(delta - 1/2): the equal split sqrt(2) exceeds the root-0 cap of 1,
    # so that factor clamps and the root-1/2 factor carries the rest.
    factors = factor_affine_target(DeltaPolynomial((0.0, -1.0, 2.0)))
    assert factors == (AffineFactor(2.0, -1.0), AffineFactor(1.0, 0.0))
    flipped = factor_affine_target(DeltaPolynomial((0.0, 1.0, -2.0)))
    assert flipped == (AffineFactor(2.0, -1.0), AffineFactor(-1.0, 0.0))
    grid = np.linspace(0.0, 1.0, 21)
    for factor in (*factors, *flipped):
        assert max(abs(factor(float(d))) for d in grid) <= 1.0 + 1e-12


def test_factorize_infeasible_quadratic():
    # 3*(delta - 2)*(delta + 1): both caps are 1/2, their product 1/4 < 3.
    with pytest.raises(RangeInfeasible):
        factor_affine_target(DeltaPolynomial((-6.0, -3.0, 3.0)))


def test_factorize_degree_above_count():
    cubic = DeltaPolynomial((0.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        factor_affine_target(cubic)


def test_factor_products_match_targets_randomly():
    rng = random.Random(20260816)
    for _ in range(40):
        lead = rng.uniform(-1.2, 1.2)
        if abs(lead) < 1e-3:
            continue
        r1 = rng.uniform(-1.5, 2.5)
        r2 = rng.uniform(-1.5, 2.5)
        target = DeltaPolynomial((lead * r1 * r2, -lead * (r1 + r2), lead))
        cap1 = 1.0 / max(abs(r1), abs(1.0 - r1))
        cap2 = 1.0 / max(abs(r2), abs(1.0 - r2))
        if cap1 * cap2 < abs(lead) - 1e-9:
            with pytest.raises(RangeInfeasible):
                factor_affine_target(target)
            continue
        factors = factor_affine_target(target)
        product = [
            factors[0].c0 * factors[1].c0,
            factors[0].c0 * factors[1].c1 + factors[0].c1 * factors[1].c0,
            factors[0].c1 * factors[1].c1,
        ]
        assert product == pytest.approx(target.coeffs, abs=1e-9)
        for factor in factors:
            assert max(abs(factor(0.0)), abs(factor(1.0))) <= 1.0 + 1e-9


def test_bs_construction_matches_reference_pair():
    result = build_equivalent_boxes(bs_wiring())
    assert result.certificate.max_deviation <= 1e-9
    assert result.certificate.p00_deviation <= result.certificate.max_deviation
    assert max_product_drift(result) <= 1e-9

    first, second = result.boxes
    assert first.correlator == (AffineFactor(1.0, 0.0),) * 4
    assert second.correlator[:3] == (AffineFactor(1.0, 0.0),) * 3
    assert second.correlator[3] == AffineFactor(-0.5, -0.5)
    for box in result.boxes:
        assert box.marginal_a == (AffineFactor(0.0, 0.0),) * 2
        assert box.marginal_b == (AffineFactor(0.0, 0.0),) * 2

    # The second box, written out at delta = 0.6: rows 00-10 as for the
    # one-parameter family, row 11 with expected value -(1 + delta)/2.
    concrete = second.box_at(0.6)
    plain = np.array([1.6, 0.4, 0.4, 1.6]) / 4.0
    flipped = np.array([1.0 - 0.8, 1.0 + 0.8, 1.0 + 0.8, 1.0 - 0.8]) / 4.0
    for row in range(3):
        assert concrete.p[row] == pytest.approx(plain, abs=1e-12)
    assert concrete.p[3] == pytest.approx(flipped, abs=1e-12)

    parity = parity_protocol(2, 2)
    for delta in (0.0, 0.3, 0.7, 1.0):
        rebuilt = apply_nonadaptive([b.box_at(delta) for b in result.boxes], parity)
        assert np.max(np.abs(rebuilt.p - bs_output_box(delta).p)) <= 1e-9


def test_identity_construction_returns_original_and_deterministic_box():
    result = build_equivalent_boxes(identity_wiring())
    assert result.certificate.max_deviation <= 1e-9
    first, second = result.boxes
    for delta in (0.0, 0.4, 1.0):
        assert np.max(np.abs(first.box_at(delta).p - one_parameter_box(delta).p)) <= 1e-12
    # Factor lists: the original box times the deterministic even-parity box.
    assert first.correlator == (
        AffineFactor(1.0, 0.0),
        AffineFactor(1.0, 0.0),
        AffineFactor(1.0, 0.0),
        AffineFactor(-1.0, 0.0),
    )
    assert second.correlator == (AffineFactor(0.0, 1.0),) * 4
    even = second.box_at(0.3)
    assert even.p == pytest.approx(
        np.array([[0.5, 0.0, 0.0, 0.5]] * 4), abs=1e-15
    )


def test_parity_as_adaptive_construction_is_exact():
    # Parity squares every correlator, so both constructed boxes carry the
    # factor delta on every input (correlator +delta on input 11, unlike the
    # original one-parameter family at -delta); the product still matches.
    result = build_equivalent_boxes(parity_as_adaptive())
    assert result.certificate.max_deviation == 0.0
    assert result.certificate.p00_deviation == 0.0
    first, second = result.boxes
    assert first == second
    assert first.correlator == (AffineFactor(1.0, 0.0),) * 4


def test_constant_output_wiring_carries_marginals():
    # Force Alice's final output to 0: her marginal bias is the constant 1,
    # which must be split across both constructed boxes for the full
    # distribution to match.
    ident_b2 = (0, 0, 1, 1)
    xor_out = (0, 1, 1, 0, 0, 1, 1, 0)
    proto = AdaptiveTwoCopyProtocol(ident_b2, (0,) * 8, ident_b2, xor_out)
    result = build_equivalent_boxes(proto)
    assert result.certificate.max_deviation <= 1e-12
    for box in result.boxes:
        assert box.marginal_a == (AffineFactor(0.0, 1.0),) * 2
        assert box.marginal_b == (AffineFactor(0.0, 0.0),) * 2
        assert box.correlator == (AffineFactor(0.0, 0.0),) * 4
        assert validate_box(box.box_at(0.5)).valid


def test_failure_kinds_on_frozen_wirings():
    # Encodings drawn from random.Random(7).  All eight correlator-form
    # polynomials of each split into bounded factors; the failing three fail
    # box validation.  The factoring errors are tested on polynomials above.
    for enc in (0x52E6B4, 0x269E0D, 0x0C5C7F):
        with pytest.raises(InvalidConstructedBox):
            build_equivalent_boxes(AdaptiveTwoCopyProtocol.decode(enc))
    for enc in (0xA6A3A4, 0x000000):
        ok = build_equivalent_boxes(AdaptiveTwoCopyProtocol.decode(enc))
        assert ok.certificate.max_deviation <= 1e-9


def test_random_wirings_end_to_end():
    rng = random.Random(7)
    counts = {"ok": 0, "noreal": 0, "range": 0, "invalid": 0}
    for _ in range(50):
        proto = AdaptiveTwoCopyProtocol.decode(rng.getrandbits(24))
        try:
            result = build_equivalent_boxes(proto)
        except NoRealFactorization:
            counts["noreal"] += 1
        except RangeInfeasible:
            counts["range"] += 1
        except InvalidConstructedBox:
            counts["invalid"] += 1
        else:
            counts["ok"] += 1
            assert result.certificate.max_deviation <= 1e-9
            assert result.certificate.p00_deviation <= result.certificate.max_deviation
            assert max_product_drift(result) <= 1e-9
    assert sum(counts.values()) == 50
    # Seed-pinned split; successes reconstruct exactly.
    assert counts == {"ok": 8, "noreal": 0, "range": 0, "invalid": 42}


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_non_finite_parameter_is_rejected(delta):
    pair = build_equivalent_boxes(bs_wiring()).boxes
    with pytest.raises(InvalidConstructedBox):
        pair[1].correlator_form(delta)


def test_construction_samples_each_output_once(monkeypatch):
    # One adaptive pass over a stack of isotropic boxes that holds every one
    # of the 3 + 11 points, each distinct delta once (the interpolation nodes
    # are certificate points too), and one parity replay over the 11 pairs.
    adaptive, replays = [], []
    real_adaptive = nlbd.equivalence.wire_adaptive
    real_replay = nlbd.equivalence.wire_nonadaptive
    monkeypatch.setattr(
        nlbd.equivalence, "wire_adaptive",
        lambda p1, p2, proto: adaptive.append((p1, p2)) or real_adaptive(p1, p2, proto),
    )
    monkeypatch.setattr(
        nlbd.equivalence, "wire_nonadaptive",
        lambda ps, proto: replays.append(ps) or real_replay(ps, proto),
    )
    build_equivalent_boxes(bs_wiring())
    assert len(adaptive) == 1
    first, second = adaptive[0]
    assert np.array_equal(first, second)
    evaluated = [p.tobytes() for p in first]
    assert len(set(evaluated)) == len(evaluated) == 11
    points = SAMPLE_DELTAS + CERTIFICATE_DELTAS
    assert len(points) == 14
    assert set(evaluated) == {one_parameter_box(delta).p.tobytes() for delta in points}
    assert len(replays) == 1 and [p.shape for p in replays[0]] == [(11, 4, 4)] * 2


@pytest.mark.parametrize(
    "encoding, message",
    [
        (0x0C5C7F, "constructed box invalid at delta=0: (('negativity', 0.10355339059327379),)"),
        (0x0925E4, "constructed box invalid at delta=0.5: (('negativity', 0.01516504294495534),)"),
        (0xF4BEA9, "constructed box invalid at delta=0.2: (('negativity', 0.003553390593273781),)"),
    ],
)
def test_first_invalid_point_message_is_pinned(encoding, message):
    with pytest.raises(InvalidConstructedBox) as raised:
        build_equivalent_boxes(AdaptiveTwoCopyProtocol.decode(encoding))
    assert str(raised.value) == message


def per_point_first_failure(pair):
    """The first failure of a point-by-point check: each delta, box1 then box2."""
    for delta in CERTIFICATE_DELTAS:
        for built in pair:
            try:
                require_valid(
                    built.box_at(delta),
                    f"constructed box invalid at delta={delta:g}",
                    InvalidConstructedBox,
                )
            except InvalidConstructedBox as error:
                return str(error)
    return None


def test_stacked_checks_raise_the_point_by_point_first_failure(monkeypatch):
    # Perturbed factors put entries out of range and boxes out of validity at
    # assorted points; the construction must name the same first failure as a
    # check that walks the points in order, range before validity.
    rng = random.Random(1905)
    splits, shifts = [], []
    real = nlbd.equivalence.factor_affine_target

    def perturbed(target):
        shift = lambda: rng.choice(shifts)  # noqa: E731
        factors = tuple(AffineFactor(f.c1 + shift(), f.c0 + shift()) for f in real(target))
        splits.append(factors)
        return factors

    monkeypatch.setattr(nlbd.equivalence, "factor_affine_target", perturbed)
    succeeding = [bs_wiring().encode(), 0xA6A3A4, 0x000000]
    kinds = {"range": 0, "validity": 0, "none": 0}
    for trial in range(150):
        splits.clear()
        # a third of the trials keep the factors of a succeeding wiring
        shifts[:] = (0.0,) if trial % 3 == 0 else (0.0,) * 8 + (0.3, -0.45, 1.2)
        encoding = succeeding[trial % 9 // 3] if trial % 3 == 0 else rng.getrandbits(24)
        try:
            build_equivalent_boxes(AdaptiveTwoCopyProtocol.decode(encoding))
            got = None
        except InvalidConstructedBox as error:
            got = str(error)
        pair = tuple(
            nlbd.equivalence.EquivalentBox(
                marginal_a=(splits[0][i], splits[1][i]),
                marginal_b=(splits[2][i], splits[3][i]),
                correlator=tuple(pair[i] for pair in splits[4:]),
            )
            for i in (0, 1)
        )
        assert got == per_point_first_failure(pair)
        kinds["none" if got is None else "range" if "leaves" in got else "validity"] += 1
    assert min(kinds.values()) > 0, kinds
