"""XOR-game boxes: value bookkeeping and the parity enumeration oracle."""

import numpy as np
import pytest

import nlbd.xorboxes
from nlbd.errors import BudgetExceeded, VerificationFailed
from nlbd.xorboxes import (
    MultipartiteXorBox,
    XorGame,
    parity_distill_value,
    simulate_parity,
    simulate_nonadaptive_xor,
    xor_value,
)

CHSH = XorGame.chsh()


def random_box(rng, n=2, game=None):
    game = game or (CHSH if n == 2 else XorGame.from_predicate(n, lambda bits: all(bits)))
    return MultipartiteXorBox(game, tuple(rng.uniform(-1, 1, size=1 << game.n)))


def test_chsh_game_table():
    assert CHSH.f == (0, 0, 0, 1)
    assert list(CHSH.signs()) == [1, 1, 1, -1]


def test_from_predicate_bit_order():
    # f(x1, x2) = x1 puts the first player's bit in the most significant slot.
    game = XorGame.from_predicate(2, lambda bits: bits[0])
    assert game.f == (0, 0, 1, 1)


def test_xor_value_isotropic_and_correlated():
    iso = MultipartiteXorBox(CHSH, (0.6, 0.6, 0.6, -0.6))
    assert xor_value(iso) == pytest.approx(2.4)
    corr = MultipartiteXorBox(CHSH, (1, 1, 1, 0.3))
    assert xor_value(corr) == pytest.approx(2.7)
    assert xor_value(MultipartiteXorBox(CHSH, (0, 0, 0, 0))) == 0.0


def test_parity_distill_closed_form():
    corr = MultipartiteXorBox(CHSH, (1, 1, 1, 0.3))
    assert parity_distill_value(corr, 2) == pytest.approx(3 - 0.09)
    iso = MultipartiteXorBox(CHSH, (0.7, 0.7, 0.7, -0.7))
    assert parity_distill_value(iso, 2) == pytest.approx(2 * 0.49)
    assert parity_distill_value(iso, 1) == xor_value(iso)


def test_simulate_parity_matches_powers():
    box = MultipartiteXorBox(CHSH, (1, 1, 1, 0.3))
    distilled = simulate_parity(box, 2)
    assert np.allclose(distilled.delta, (1, 1, 1, 0.09), atol=1e-12)


def test_simulate_parity_reports_a_biased_distillate(monkeypatch):
    # every player outputs 0 whatever the outcomes, so the unbiasedness check must fire
    monkeypatch.setattr(
        nlbd.xorboxes, "_player_parities",
        lambda outcomes, n, m: np.zeros((outcomes.shape[0], n), dtype=np.uint8),
    )
    with pytest.raises(VerificationFailed, match="biased player"):
        simulate_parity(MultipartiteXorBox(CHSH, (1, 1, 1, 0.3)), 2)


def test_simulate_parity_three_players():
    rng = np.random.default_rng(5)
    game = XorGame.from_predicate(3, lambda bits: all(bits))
    box = MultipartiteXorBox(game, tuple(rng.uniform(-1, 1, size=8)))
    distilled = simulate_parity(box, 2)
    assert np.allclose(distilled.delta, np.array(box.delta) ** 2, atol=1e-12)


def test_simulate_parity_single_copy_is_identity():
    rng = np.random.default_rng(6)
    box = random_box(rng)
    distilled = simulate_parity(box, 1)
    assert np.allclose(distilled.delta, box.delta, atol=1e-15)


def test_lemma_oracle_equivalence_random():
    rng = np.random.default_rng(12)
    for n in (2, 3):
        game = CHSH if n == 2 else XorGame.from_predicate(3, lambda bits: all(bits))
        for m in (1, 2, 3, 4):
            for _ in range(25):
                box = MultipartiteXorBox(game, tuple(rng.uniform(-1, 1, size=1 << n)))
                sim = xor_value(simulate_parity(box, m))
                assert sim == pytest.approx(parity_distill_value(box, m), abs=1e-9)


def test_single_copy_dominates_when_aligned():
    # With every (-1)^f(x) delta_x >= 0 and |delta| <= 1, parity over more
    # copies never beats one copy (|V_m| <= V_1), and the odd-m values
    # decrease monotonically. (Full monotonicity in m fails: the isotropic
    # box at delta = 0.9 has |V_2| = 1.62 < |V_3| = 2.916.)
    rng = np.random.default_rng(9)
    for _ in range(50):
        mags = rng.uniform(0, 1, size=4)
        delta = tuple(m * s for m, s in zip(mags, (1, 1, 1, -1)))
        box = MultipartiteXorBox(CHSH, delta)
        v1 = parity_distill_value(box, 1)
        assert v1 >= -1e-12
        for m in (2, 3, 4, 5):
            assert abs(parity_distill_value(box, m)) <= v1 + 1e-12
        odd = [parity_distill_value(box, m) for m in (1, 3, 5, 7)]
        assert all(a >= b - 1e-12 for a, b in zip(odd, odd[1:]))


def test_budget_enforced():
    box = MultipartiteXorBox(CHSH, (1, 1, 1, 0))
    with pytest.raises(BudgetExceeded):
        simulate_parity(box, 13)  # 2*13 = 26 > 24


def test_bad_delta_length_rejected():
    with pytest.raises(ValueError):
        MultipartiteXorBox(CHSH, (1, 1, 1))
    with pytest.raises(ValueError):
        MultipartiteXorBox(CHSH, (1, 1, 1, 1.5))


def test_nonadaptive_xor_parity_tables_agree_with_oracle():
    rng = np.random.default_rng(21)
    box = random_box(rng)
    m = 2
    parity_table = np.array([bin(s).count("1") % 2 for s in range(1 << m)])
    tables = [[parity_table, parity_table] for _ in range(2)]
    value, bias = simulate_nonadaptive_xor(box, tables, m)
    assert value == pytest.approx(parity_distill_value(box, m), abs=1e-9)
    assert np.allclose(bias, np.array(box.delta) ** m, atol=1e-9)


def test_nonadaptive_xor_constant_tables():
    # Constant-0 outputs force even parity: bias 1 everywhere, value = sum of signs.
    rng = np.random.default_rng(22)
    box = random_box(rng)
    zero = np.zeros(4, dtype=int)
    value, bias = simulate_nonadaptive_xor(box, [[zero, zero]] * 2, 2)
    assert np.allclose(bias, 1.0, atol=1e-12)
    assert value == pytest.approx(2.0, abs=1e-12)


def test_nonadaptive_xor_input_dependent_tables():
    # Player outputs first bit when her input is 0, second bit when 1; cross-check
    # against a hand enumeration on a two-copy CHSH box.
    box = MultipartiteXorBox(CHSH, (0.9, 0.5, -0.3, 0.1))
    pick_first = np.array([0, 0, 1, 1])
    pick_second = np.array([0, 1, 0, 1])
    tables = [[pick_first, pick_second], [pick_first, pick_second]]
    value, bias = simulate_nonadaptive_xor(box, tables, 2)
    # Input 00: both pick copy 1 bits -> bias delta_00; input 11: both pick copy 2.
    assert bias[0] == pytest.approx(0.9, abs=1e-12)
    assert bias[3] == pytest.approx(0.1, abs=1e-12)
    # Input 01: Alice picks copy 1, Bob copy 2; outputs from different copies are
    # independent and unbiased, so the parity bias vanishes.
    assert bias[1] == pytest.approx(0.0, abs=1e-12)
    assert value == pytest.approx(0.9 + 0 + 0 - 0.1, abs=1e-12)
