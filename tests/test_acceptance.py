"""Acceptance suite: one test per headline guarantee of the package.

Run with -v to get one pass/fail line per criterion. Each test pins a
guarantee at its stated tolerance:

 1. box/correlator conversion round-trips and produces normalized rows;
 2. the parity protocol's closed-form value matches exact enumeration;
 3. the parity bound is tight for input-free non-adaptive distillation;
 4. the OR protocol beats parity on the perfectly-correlated family, on
    the published parameter windows;
 5. the symmetric-family witness distills past the communication-collapse
    threshold, and the reference-table diff flags exactly the known
    disagreeing column;
 6. the closed-form protocol values agree with simulation;
 7. the adaptive-class search reaches the published adaptive values;
 8. affine factorization rewrites the adaptive two-copy wiring as parity
    over two tailored boxes;
 9. Fourier identities: Parseval and the spectral value formula;
10. search and scan output is bit-identical across thread counts.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from nlbd import (
    AffineFactor,
    CC_COLLAPSE_THRESHOLD,
    CorrelatorForm,
    DeltaPolynomial,
    MultipartiteXorBox,
    PmOutputFunction,
    XorGame,
    adaptive_search_max,
    adaptive_value,
    apply_nonadaptive,
    box_from_correlators,
    bs_output_box,
    bs_wiring,
    build_equivalent_boxes,
    chsh_value_of_box,
    correlators_from_box,
    enumerate_nonadaptive_max,
    factor_affine_target,
    make_named_box,
    nonadaptive_value_fourier,
    or_protocol,
    or_value,
    parity_bound,
    parity_distill_value,
    parity_protocol,
    region_scan,
    reproduce_tables,
    simulate_parity,
    symmetric_box,
    validate_box,
    walsh_transform,
    xor_value,
)
from nlbd.wirings import NonAdaptiveProtocol
from nlbd.xorboxes import simulate_nonadaptive_xor

FIELDS = ("alpha", "beta", "gamma", "omega", "d1", "d2", "d3", "eps")


def parseval_defect(spectrum) -> float:
    """|sum_z coeff_z^2 - 1|; within 1e-12 for spectra of +-1 functions."""
    return float(abs(spectrum @ spectrum - 1.0))


def _random_valid_forms(count: int, rng: np.random.Generator) -> list[CorrelatorForm]:
    """Uniform draws from [-1,1]^8 kept when every induced entry is >= 0."""
    sa = np.array([1.0, 1.0, -1.0, -1.0])
    sb = np.array([1.0, -1.0, 1.0, -1.0])
    sab = sa * sb
    kept: list[CorrelatorForm] = []
    while len(kept) < count:
        vals = rng.uniform(-1.0, 1.0, size=(50 * count, 8))
        worst = np.full(len(vals), np.inf)
        for x in (0, 1):
            for y in (0, 1):
                entries = 0.25 * (
                    1.0
                    + np.outer(vals[:, x], sa)
                    + np.outer(vals[:, 2 + y], sb)
                    + np.outer(vals[:, 4 + 2 * x + y], sab)
                )
                worst = np.minimum(worst, entries.min(axis=1))
        kept.extend(CorrelatorForm(*row) for row in vals[worst >= 0.0])
    return kept[:count]


def _random_xor_box(n: int, rng: np.random.Generator) -> MultipartiteXorBox:
    game = XorGame(n, tuple(int(b) for b in rng.integers(0, 2, size=1 << n)))
    delta = tuple(float(d) for d in rng.uniform(-1.0, 1.0, size=1 << n))
    return MultipartiteXorBox(game, delta)


def test_criterion_01_roundtrip_and_validity():
    rng = np.random.default_rng(1)
    forms = _random_valid_forms(1000, rng)
    for form in forms:
        box = box_from_correlators(form)
        assert float(np.abs(box.p.sum(axis=1) - 1.0).max()) <= 1e-15
        back = correlators_from_box(box)
        for name in FIELDS:
            assert abs(getattr(back, name) - getattr(form, name)) <= 1e-12
    pr = box_from_correlators(make_named_box("isotropic", delta=1.0))
    assert validate_box(pr).valid
    assert chsh_value_of_box(pr) == 4.0


def test_criterion_02_parity_closed_form_matches_enumeration():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        boxes = [_random_xor_box(n, rng) for _ in range(100)]
        for m in range(1, 5):
            for box in boxes:
                simulated = xor_value(simulate_parity(box, m))
                closed = parity_distill_value(box, m)
                assert abs(simulated - closed) <= 1e-9


def test_criterion_03_parity_bound_is_tight():
    # The optimality statement lives in the distillation regime: the parity
    # bound must be at least |T_0| = |sum_x (-1)^f(x)|, the value of the
    # box-free constant strategy. Weaker boxes are dominated by constant
    # tables (legal input-free protocols that ignore the boxes entirely),
    # so sampling conditions on that regime.
    rng = np.random.default_rng(3)
    for n, m in ((2, 2), (2, 3), (3, 2)):
        checked = 0
        while checked < 100:
            box = _random_xor_box(n, rng)
            bound = parity_bound(box.game, box.delta, m)
            if bound.value < abs(float(box.game.signs().sum())):
                continue
            result = enumerate_nonadaptive_max(box, m)
            assert result.best_value <= bound.value + 1e-9
            assert result.best_value >= bound.value - 1e-9  # the bound is attained
            checked += 1


# Parameter windows of the perfectly-correlated family where the OR
# protocol is the strict best of {undistilled, parity, OR}: one
# (alpha, eps_lo, eps_hi) row per published window.
OR_WINDOWS = (
    (0.26, -0.04, 0.013),
    (0.30, -0.20, 0.066),
    (0.35, -0.30, 0.133),
    (0.40, -0.20, 0.200),
    (0.45, -0.10, 0.266),
    (0.50, 0.00, 0.333),
)


def test_criterion_04_or_beats_parity_on_correlated_family():
    box = box_from_correlators(make_named_box("correlated", alpha=0.5, eps=0.01))
    v_or = chsh_value_of_box(apply_nonadaptive(box, or_protocol()))
    v_parity = chsh_value_of_box(apply_nonadaptive(box, parity_protocol(2, 2)))
    assert v_or == pytest.approx(3.239975, abs=1e-6)
    assert v_parity == pytest.approx(2.9999, abs=1e-6)
    assert v_or > v_parity

    for alpha, eps_lo, eps_hi in OR_WINDOWS:
        scan = region_scan({"alpha": alpha, "eps": (-0.40, 0.40, 0.0005), "delta": 1.0})
        winner_is_or = (scan.column("winner") == "OR") & scan.column("valid")
        assert winner_is_or.any()
        eps = scan.column("eps")[winner_is_or]
        assert float(eps.min()) == pytest.approx(eps_lo, abs=1e-3)
        assert float(eps.max()) == pytest.approx(eps_hi, abs=1e-3)


def test_criterion_05_collapse_witness_and_reference_diff():
    box = box_from_correlators(symmetric_box(0.42, 0.42, 0.99, -0.16))
    v_or = chsh_value_of_box(apply_nonadaptive(box, or_protocol()))
    assert v_or == pytest.approx(3.2683, abs=5e-4)
    assert CC_COLLAPSE_THRESHOLD == 4.0 * math.sqrt(2.0 / 3.0)
    assert v_or > CC_COLLAPSE_THRESHOLD

    report = reproduce_tables(3)
    assert len(report.printed_rows) == 7
    for check in report.checks:
        if check.column in ("V", "V_OR"):
            assert check.matches, f"row {check.row} {check.column}"
    flagged = {(c.row, c.column) for c in report.mismatches}
    assert flagged == {(row, "V_parity") for row in range(7)}
    # The recomputed parity column is trusted because it equals an
    # independent simulation: 3 delta^2 - eps^2 on this family.
    for row, computed in enumerate(report.computed_rows):
        delta = float(report.printed_rows[row][1])
        eps = float(report.printed_rows[row][2])
        assert computed["V_parity"] == pytest.approx(3 * delta**2 - eps**2, abs=1e-9)


def test_criterion_06_closed_forms_match_simulation():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 200:
        alpha, beta = rng.uniform(-0.5, 0.5, size=2)
        delta, eps = rng.uniform(-1.0, 1.0, size=2)
        try:
            form = symmetric_box(alpha, beta, delta, eps)
            box = box_from_correlators(form)
        except ValueError:
            continue
        if not validate_box(box).valid:
            continue
        simulated = chsh_value_of_box(apply_nonadaptive(box, or_protocol()))
        assert abs(or_value(alpha, beta, delta, eps) - simulated) <= 1e-9
        checked += 1

    assert adaptive_value(1.0, -0.7, 0.0) == 3.8275
    for which in (1, 3):
        report = reproduce_tables(which)
        assert len(report.fitted_combinations) == len(report.printed_rows)
        assert all(math.isfinite(c) for c in report.fitted_combinations)


# (delta, eps, published adaptive value) for the trivial-marginal rows.
ADAPTIVE_TARGETS = (
    (1.0, -0.7, 3.8275),
    (0.92, -0.22, 2.9867),
    (0.917, -0.22, 2.96971),
)


def test_criterion_07_adaptive_search_reaches_published_values():
    for delta, eps, published in ADAPTIVE_TARGETS:
        box = box_from_correlators(symmetric_box(0.0, 0.0, delta, eps))
        result = adaptive_search_max(box)
        assert result.best_value >= published - 1e-4


def test_criterion_08_factorization_rewrites_wiring_as_parity():
    # 4q - 1 = delta (1 + delta) / 2 for q = (1 + delta/2 + delta^2/2) / 4, the
    # even-even probability of the isotropic-distilling wiring's output.
    factors = factor_affine_target(DeltaPolynomial((0.0, 0.5, 0.5)))
    assert factors == (AffineFactor(1.0, 0.0), AffineFactor(0.5, 0.5))

    pair = build_equivalent_boxes(bs_wiring()).boxes
    for delta in (0.0, 0.3, 0.7, 1.0):
        concrete = [pair[0].box_at(delta), pair[1].box_at(delta)]
        rebuilt = apply_nonadaptive(concrete, parity_protocol(2, 2))
        assert float(np.abs(rebuilt.p - bs_output_box(delta).p).max()) <= 1e-9


def test_criterion_09_fourier_machinery():
    for code in range(16):
        f = PmOutputFunction.from_bits(2, [(code >> s) & 1 for s in range(4)])
        assert parseval_defect(walsh_transform(f)) <= 1e-12
    rng = np.random.default_rng(9)
    for _ in range(1000):
        m = int(rng.integers(3, 5))
        bits = rng.integers(0, 2, size=1 << m)
        assert parseval_defect(walsh_transform(PmOutputFunction.from_bits(m, bits))) <= 1e-12

    for _ in range(100):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        box = _random_xor_box(n, rng)
        functions = [
            PmOutputFunction.from_bits(m, rng.integers(0, 2, size=1 << m)) for _ in range(n)
        ]
        spectra = [walsh_transform(f) for f in functions]
        via_fourier = nonadaptive_value_fourier(spectra, box.game, box.delta)
        tables = tuple(
            (tuple(int(b) for b in f.bits()),) * 2 for f in functions
        )
        proto = NonAdaptiveProtocol(n, m, tables)
        direct, _ = simulate_nonadaptive_xor(box, proto.tables, proto.m)
        assert abs(via_fourier - direct) <= 1e-9


def test_criterion_10_thread_count_determinism(tmp_path, capsys):
    from nlbd.cli import main
    from nlbd import format_box_correlators

    path = tmp_path / "box.box"
    path.write_text(
        format_box_correlators(make_named_box("correlated", alpha=0.5, eps=0.01)),
        encoding="utf-8",
    )

    def capture(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    search_outputs = {
        capture(["search", "--class", "nonadaptive", "--m", "3",
                 "--threads", str(k), str(path)])
        for k in (1, 4, 8)
    }
    assert len(search_outputs) == 1

    scan_outputs = {
        capture(["scan", "--alpha", "0.26:0.50:0.02", "--eps=-0.3:0.3:0.01",
                 "--threads", str(k), "--out", "-"])
        for k in (1, 4, 8)
    }
    assert len(scan_outputs) == 1
