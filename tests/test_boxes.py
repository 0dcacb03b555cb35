"""Box representation, validation, and correlator roundtrip."""

import numpy as np
import pytest

from nlbd.boxes import (
    BipartiteBox,
    CorrelatorForm,
    box_from_correlators,
    chsh_value,
    chsh_value_of_box,
    chsh_values,
    correlators_from_box,
    fields_from_boxes,
    make_named_box,
    validate_box,
)
from nlbd.errors import InvalidBox, UnknownKind

PR = CorrelatorForm(0, 0, 0, 0, 1, 1, 1, -1)


def random_valid_forms(seed, count):
    """Rejection-sample correlator forms whose induced box is valid."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        c = CorrelatorForm(*rng.uniform(-1, 1, size=8))
        if validate_box(box_from_correlators(c)).valid:
            found.append(c)
    return found


def test_uniform_box_from_zero_correlators():
    b = box_from_correlators(CorrelatorForm(0, 0, 0, 0, 0, 0, 0, 0))
    assert np.allclose(b.p, 0.25)


def test_pr_box_matrix_and_value():
    b = box_from_correlators(PR)
    # p(ab|xy) = 1/2 iff a xor b = x and y, else 0.
    for row in range(4):
        x, y = row >> 1, row & 1
        for col in range(4):
            a, bo = col >> 1, col & 1
            expect = 0.5 if (a ^ bo) == (x & y) else 0.0
            assert b.p[row, col] == pytest.approx(expect, abs=1e-15)
    assert validate_box(b).valid
    assert chsh_value(PR) == 4.0


def test_correlated_box_row00():
    c = make_named_box("correlated", alpha=0.5, eps=0.3)
    b = box_from_correlators(c)
    assert np.allclose(b.p[0], [0.75, 0.0, 0.0, 0.25], atol=1e-15)


def test_correlated_box_row11():
    c = make_named_box("correlated", alpha=0.5, eps=0.01)
    b = box_from_correlators(c)
    # (1+2a+e, 1-e, 1-e, 1-2a+e)/4
    assert np.allclose(b.p[3], [0.5025, 0.2475, 0.2475, 0.0025], atol=1e-15)


def test_rows_normalize_exactly():
    rng = np.random.default_rng(7)
    for _ in range(200):
        c = CorrelatorForm(*rng.uniform(-1, 1, size=8))
        b = box_from_correlators(c)
        assert np.abs(b.p.sum(axis=1) - 1.0).max() < 1e-15


def test_roundtrip_on_random_valid_forms():
    for c in random_valid_forms(seed=11, count=1000):
        back = correlators_from_box(box_from_correlators(c))
        for name, value in c.as_dict().items():
            assert abs(back.as_dict()[name] - value) < 1e-12, name


def test_correlators_of_uniform_and_pr():
    uniform = BipartiteBox(np.full((4, 4), 0.25))
    c = correlators_from_box(uniform)
    assert all(v == pytest.approx(0, abs=1e-15) for v in c.as_dict().values())
    c = correlators_from_box(box_from_correlators(PR))
    assert (c.d1, c.d2, c.d3, c.eps) == (1, 1, 1, -1)
    assert (c.alpha, c.beta, c.gamma, c.omega) == (0, 0, 0, 0)


def test_correlators_from_invalid_box_raises():
    c = make_named_box("correlated", alpha=0.5, eps=-0.1)
    with pytest.raises(InvalidBox):
        correlators_from_box(box_from_correlators(c))


def test_validate_flags_negative_entry():
    c = make_named_box("correlated", alpha=0.5, eps=-0.1)
    report = validate_box(box_from_correlators(c))
    assert not report.valid
    names = [name for name, _ in report.violations]
    assert names == ["negativity"]
    # p(11|11) = (1 - 2*0.5 - 0.1)/4 = -0.025
    assert report.violations[0][1] == pytest.approx(0.025, abs=1e-15)


def test_validate_flags_broken_normalization():
    p = box_from_correlators(PR).p.copy()
    p[0, 0] += 0.01
    report = validate_box(BipartiteBox(p))
    assert not report.valid
    found = dict(report.violations)
    assert found["normalization"] == pytest.approx(0.01, abs=1e-12)


def test_validate_flags_signalling():
    p = np.full((4, 4), 0.25)
    p[1] = [0.4, 0.4, 0.1, 0.1]  # Alice's output biased when y=1 but not when y=0
    report = validate_box(BipartiteBox(p))
    assert not report.valid
    assert "no-signalling-to-alice" in dict(report.violations)


def test_signalling_magnitudes_match_marginal_differences():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.uniform(0.0, 0.5, size=(4, 4))
        p /= p.sum(axis=1, keepdims=True)
        found = dict(validate_box(BipartiteBox(p)).violations)
        # row 2x + y, column 2a + b
        alice = max(abs(p[2 * x, 2 * a] + p[2 * x, 2 * a + 1]
                        - p[2 * x + 1, 2 * a] - p[2 * x + 1, 2 * a + 1])
                    for x in (0, 1) for a in (0, 1))
        bob = max(abs(p[y, b] + p[y, 2 + b] - p[2 + y, b] - p[2 + y, 2 + b])
                  for y in (0, 1) for b in (0, 1))
        assert found["no-signalling-to-alice"] == pytest.approx(alice, abs=1e-15)
        assert found["no-signalling-to-bob"] == pytest.approx(bob, abs=1e-15)


def test_validate_flags_nan_entries():
    p = np.full((4, 4), 0.25)
    p[2, 1] = np.nan
    report = validate_box(BipartiteBox(p))
    assert not report.valid
    assert "normalization" in dict(report.violations)
    assert not validate_box(BipartiteBox(np.full((4, 4), np.nan))).valid


def test_chsh_value_examples():
    assert chsh_value(make_named_box("correlated", alpha=0.5, eps=0.01)) == pytest.approx(2.99)
    assert chsh_value(make_named_box("isotropic", delta=0.6)) == pytest.approx(2.4)


def test_chsh_value_ignores_marginals():
    rng = np.random.default_rng(3)
    corr = rng.uniform(-0.3, 0.3, size=4)
    values = set()
    for _ in range(20):
        marg = rng.uniform(-0.2, 0.2, size=4)
        c = CorrelatorForm(*marg, *corr)
        values.add(chsh_value(c))
    assert len(values) == 1


def test_isotropic_rows():
    b = box_from_correlators(make_named_box("isotropic", delta=0.6))
    assert np.allclose(b.p[0], [0.4, 0.1, 0.1, 0.4], atol=1e-15)
    assert np.allclose(b.p[3], [0.1, 0.4, 0.4, 0.1], atol=1e-15)


def test_symmetric_row01():
    c = make_named_box("symmetric", alpha=0.43, beta=0.44, delta=0.99, eps=0.28)
    b = box_from_correlators(c)
    assert np.allclose(b.p[1], [0.715, 0.0, 0.005, 0.28], atol=1e-15)
    assert validate_box(b).valid


def test_correlated_half_alpha_valid_iff_eps_nonneg():
    for eps in (0.0, 0.01, 0.4):
        b = box_from_correlators(make_named_box("correlated", alpha=0.5, eps=eps))
        assert validate_box(b).valid, eps
    for eps in (-1e-6, -0.1):
        b = box_from_correlators(make_named_box("correlated", alpha=0.5, eps=eps))
        assert not validate_box(b).valid, eps


def test_chsh_value_of_box():
    assert chsh_value_of_box(box_from_correlators(PR)) == pytest.approx(4.0, abs=1e-12)


def test_stacked_chsh_values_match_the_correlator_form():
    # the stacked kernel must give chsh_value(correlators_from_box(b)) to the bit,
    # clipping included: the last box overshoots its first correlator by 9e-10
    boxes = [box_from_correlators(c) for c in random_valid_forms(2101, 120)]
    over = box_from_correlators(PR).p.copy()
    over[0, 0] += 5e-10
    over[0, 3] += 4e-10
    boxes.append(BipartiteBox(over))
    stacked = chsh_values(np.stack([b.p for b in boxes]))
    expect = [chsh_value(correlators_from_box(b)) for b in boxes]
    assert stacked.tolist() == expect
    assert [chsh_value_of_box(b) for b in boxes] == expect
    assert expect[-1] == 4.0
    with pytest.raises(InvalidBox):
        chsh_value_of_box(BipartiteBox(np.full((4, 4), 0.3)))


def _reference_fields(q):
    """The clipped correlator form of one box in Python floats, sums left to right."""
    def signed(row, signs):  # ((q0 +- q1) +- q2) +- q3
        total = row[0]
        for v, sign in zip(row[1:], signs[1:]):
            total = total + v if sign > 0 else total - v
        return total

    rows = q.tolist()
    ea, eb, e = ([signed(r, signs) for r in rows]
                 for signs in ((1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)))
    fields = [(ea[0] + ea[1]) / 2, (ea[2] + ea[3]) / 2, (eb[0] + eb[2]) / 2, (eb[1] + eb[3]) / 2]
    return [min(1.0, max(-1.0, v)) for v in fields + e]


def test_fields_from_boxes_sum_left_to_right():
    # bit for bit, signed zeros included, on valid and tolerance-noise boxes
    # and on stacks; the noise pushes some fields past +-1, where they clip
    rng = np.random.default_rng(2208)
    p = np.stack([box_from_correlators(c).p for c in random_valid_forms(2209, 150)])
    corners = np.stack([box_from_correlators(c).p for c in (PR, CorrelatorForm(*[1.0] * 8))])
    noisy = np.concatenate([p, corners] * 3) + rng.uniform(-3e-10, 3e-10, (456, 4, 4))
    noisy = noisy[[validate_box(BipartiteBox(q)).valid for q in noisy]]
    assert len(noisy) > 150
    every = np.concatenate([p, corners, noisy])
    stacked = fields_from_boxes(every)
    assert stacked.shape == (len(every), 8)
    hexes = lambda values: [float(v).hex() for v in values]  # noqa: E731
    for q, fields in zip(every, stacked):
        want = hexes(_reference_fields(q))
        assert hexes(fields) == hexes(fields_from_boxes(q)) == want
        assert hexes(correlators_from_box(BipartiteBox(q)).as_dict().values()) == want
    assert (np.abs(stacked) == 1.0).sum() > (np.abs(fields_from_boxes(p)) == 1.0).sum()
    pairs = every[: len(every) // 2 * 2].reshape(-1, 2, 4, 4)
    assert fields_from_boxes(pairs).tobytes() == stacked[: 2 * len(pairs)].tobytes()


def test_unknown_kind_rejected():
    with pytest.raises(UnknownKind):
        make_named_box("pr")
    with pytest.raises(UnknownKind):
        make_named_box("isotropic", delta=0.5, extra=1.0)
    with pytest.raises(UnknownKind):
        make_named_box("correlated", alpha=0.5)
    general = dict(alpha=0, beta=0, gamma=0, omega=0, d1=1, d2=1, d3=1, eps=-1)
    assert make_named_box("general", **general) == PR
    with pytest.raises(UnknownKind, match="unexpected parameters"):
        make_named_box("general", **general, extra=5)


def test_out_of_range_field_rejected():
    with pytest.raises(ValueError):
        CorrelatorForm(0, 0, 0, 0, 1.2, 0, 0, 0)


def test_box_is_immutable():
    b = box_from_correlators(PR)
    with pytest.raises((ValueError, AttributeError)):
        b.p[0, 0] = 0.3
