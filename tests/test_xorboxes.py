"""XOR-game boxes: value bookkeeping and the parity enumeration oracle."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

import nlbd.xorboxes
from nlbd.errors import BudgetExceeded, VerificationFailed
from nlbd.fourier import PmOutputFunction, nonadaptive_value_fourier, walsh_transform
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
    def all_zero(tables, n, m):
        counts = np.zeros((1 << m, 1 << n), dtype=np.int64)
        counts[:, 0] = 1 << ((n - 1) * m)  # every tuple of each XOR pattern outputs 0...0
        return counts

    monkeypatch.setattr(nlbd.xorboxes, "_outcome_counts", all_zero)
    with pytest.raises(VerificationFailed, match="biased player"):
        simulate_parity(MultipartiteXorBox(CHSH, (1, 1, 1, 0.3)), 2)


def test_simulate_parity_reports_a_non_uniform_parity_class(monkeypatch):
    # Half the tuples output 000 and half 111: every player is unbiased, but the
    # even class {000, 011, 101, 110} holds all its weight on 000. (With two
    # players unbiased outputs force uniform classes, so this needs n = 3.)
    def all_equal(tables, n, m):
        counts = np.zeros((1 << m, 1 << n), dtype=np.int64)
        counts[:, 0] = counts[:, -1] = 1 << ((n - 1) * m - 1)
        return counts

    monkeypatch.setattr(nlbd.xorboxes, "_outcome_counts", all_equal)
    box = MultipartiteXorBox(XorGame.from_predicate(3, all), (0.5,) * 8)
    with pytest.raises(VerificationFailed, match="not uniform within a parity class"):
        simulate_parity(box, 2)


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
    # refused before the 2^m-entry parity table is built
    with pytest.raises(BudgetExceeded, match=r"^enumeration needs 2\^2000000 outcome tuples"):
        simulate_parity(box, 10**6)


def test_budget_bounds_the_output_distribution():
    # one copy of a 13-player box has only 2^13 outcome tuples per input, but
    # dist[x, o] would hold 2^26 floats (512 MiB)
    box = MultipartiteXorBox(XorGame.from_predicate(13, all), (0.0,) * (1 << 13))
    message = r"2\^26-entry output distribution; budget is 2\^24"
    for boxes in (box, [box]):
        with pytest.raises(BudgetExceeded, match=message):
            simulate_nonadaptive_xor(boxes, [[[0, 1], [0, 1]]] * 13, 1)
    with pytest.raises(BudgetExceeded, match=message):
        simulate_parity(box, 1)


def test_nonadaptive_xor_checks_the_budget_before_sizing_the_copies():
    # a single box stands for m copies: at m = 10**5 the budget refuses
    # before m copies or 2^m-bit table lengths are built, mis-sized tables or not
    box = MultipartiteXorBox(CHSH, (1, 1, 1, 0))
    with pytest.raises(BudgetExceeded, match=r"^enumeration needs 2\^200000 outcome tuples"):
        simulate_nonadaptive_xor(box, [[[0, 1], [0, 1]]] * 2, 10**5)


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


def reference_even_bias(box_list, player_tables, m):
    """Even-parity bias per input, summed tuple by tuple over all 2^(n m) outcomes.

    Each copy's joint output is drawn independently; player j reads her m bits
    (first copy most significant) through her table for her own input bit.
    """
    n = box_list[0].n
    bias = np.zeros(1 << n)
    for x in range(1 << n):
        inputs = [(x >> (n - 1 - j)) & 1 for j in range(n)]
        for outcome in itertools.product(range(1 << n), repeat=m):
            prob = 1.0
            for c, a in enumerate(outcome):
                odd = bin(a).count("1") & 1
                prob *= (1 - box_list[c].delta[x] if odd else 1 + box_list[c].delta[x]) / (1 << n)
            parity = 0
            for j in range(n):
                s = 0
                for a in outcome:
                    s = (s << 1) | ((a >> (n - 1 - j)) & 1)
                parity ^= int(player_tables[j][inputs[j]][s])
            bias[x] += -prob if parity else prob
    return bias


def random_game(rng, n):
    return XorGame(n, tuple(int(b) for b in rng.integers(0, 2, size=1 << n)))


@pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)])
def test_oracles_match_tuple_by_tuple_reference(n, m):
    rng = np.random.default_rng(100 * n + m)
    game = random_game(rng, n)
    box = MultipartiteXorBox(game, tuple(rng.uniform(-1, 1, size=1 << n)))
    parity_table = np.array([bin(s).count("1") & 1 for s in range(1 << m)])

    expected = reference_even_bias([box] * m, [[parity_table] * 2] * n, m)
    assert np.allclose(simulate_parity(box, m).delta, expected, atol=1e-12, rtol=0)

    boxes = [MultipartiteXorBox(game, tuple(rng.uniform(-1, 1, size=1 << n))) for _ in range(m)]
    cases = [
        (box, [[t, t] for t in rng.integers(0, 2, size=(n, 1 << m))]),  # identical, input-free
        (boxes, [list(pair) for pair in rng.integers(0, 2, size=(n, 2, 1 << m))]),  # input-dependent
    ]
    for boxes_arg, tables in cases:
        box_list = [boxes_arg] * m if isinstance(boxes_arg, MultipartiteXorBox) else boxes_arg
        expected = reference_even_bias(box_list, tables, m)
        value, bias = simulate_nonadaptive_xor(boxes_arg, tables, m)
        assert np.allclose(bias, expected, atol=1e-12, rtol=0)
        assert value == pytest.approx(float(game.signs() @ expected), abs=1e-12)


def reference_counts(tables, n, m):
    """counts[e, o] by visiting every one of the 2^(n m) outcome tuples."""
    counts = np.zeros((1 << m, 1 << n), dtype=np.int64)
    for strings in itertools.product(range(1 << m), repeat=n):
        xor = out = 0
        for table, s in zip(tables, strings):
            xor ^= s
            out = (out << 1) | int(table[s])
        counts[xor, out] += 1
    return counts


@pytest.mark.parametrize("n, m", [(n, m) for n in (2, 3, 4) for m in range(1, 12 // n + 1)])
def test_outcome_counts_match_a_tuple_by_tuple_enumeration(n, m):
    rng = np.random.default_rng(10 * n + m)
    parity = np.array([bin(s).count("1") & 1 for s in range(1 << m)])
    cases = {
        "seeded": tuple(rng.integers(0, 2, size=(n, 1 << m))),
        "constant": tuple(np.full(1 << m, j & 1) for j in range(n)),
        "parity": (parity,) * n,
    }
    for name, tables in cases.items():
        counts = nlbd.xorboxes._outcome_counts(tables, n, m)
        assert counts.dtype == np.int64 and counts.shape == (1 << m, 1 << n), name
        assert counts.flags.c_contiguous, name
        assert counts.sum() == 1 << (n * m), name
        assert np.array_equal(counts, reference_counts(tables, n, m)), name


@pytest.mark.parametrize("n, m", [(2, 12), (3, 8), (4, 6), (12, 2)])
def test_outcome_counts_of_parity_tables_at_the_budget(n, m):
    # Given the XOR pattern e, the first n - 1 strings are free within their
    # output parities and the last is fixed, so its parity must close the sum.
    parity = np.array([bin(s).count("1") & 1 for s in range(1 << m)])
    out_parity = np.array([bin(o).count("1") & 1 for o in range(1 << n)])
    expected = np.where(parity[:, None] == out_parity, 1 << ((n - 1) * (m - 1)), 0)
    counts = nlbd.xorboxes._outcome_counts((parity,) * n, n, m)
    assert counts.dtype == np.int64 and counts.flags.c_contiguous
    assert np.array_equal(counts, expected)


def test_popcounts_count_the_one_bits():
    for bits in range(11):
        w = nlbd.xorboxes._popcounts(bits)
        assert w.dtype == np.int64
        assert w.tolist() == [bin(s).count("1") for s in range(1 << bits)]


# SHA-256 of the repr of each oracle call below, as the tuple-by-tuple
# enumeration printed it; any change in how the counts are summed shows here.
PINNED_ORACLE_DIGESTS = {
    ("parity", 2, 10): "ca80c965af82b6371fb153d51b26206a6cd0ad77ec97c2b1dc4ecfa9af3fe73b",
    ("parity", 3, 6): "739deef030318ca39c0bdd2d9004e538c9e21e8e1e5df176b1cb9c1d9f432fc8",
    ("input-free", 2, 9): "3ab9192a81f5959ad7cb50f7f843e3aac0bf8469942c71f07a98e0066740bde7",
    ("input-free", 3, 8): "d95e5c325620a9ce6a07cd48faec906194c6b13d2e8c42dced631f86b5622e3b",
    ("input-dependent", 2, 9): "3a8086d89a06fb6bdc5849e9c06cc67071a878c12f1318549514877c3547d54c",
    ("input-dependent", 3, 8): "4808b1ef706b13c71dc6433cd645c33d881093872fb4dab24a310c9c7f233ab0",
}


@pytest.mark.parametrize("kind, n, m", list(PINNED_ORACLE_DIGESTS))
def test_oracle_outputs_keep_their_pinned_bytes(kind, n, m):
    rng = np.random.default_rng(1000 * n + m)
    game = random_game(rng, n)
    boxes = [MultipartiteXorBox(game, tuple(rng.uniform(-1, 1, size=1 << n))) for _ in range(m)]
    if kind == "parity":
        text = repr(simulate_parity(boxes[0], m))
    elif kind == "input-free":
        tables = [[t, t] for t in rng.integers(0, 2, size=(n, 1 << m))]
        value, bias = simulate_nonadaptive_xor(boxes[0], tables, m)
        text = repr((value, bias.tolist()))
    else:
        tables = [list(pair) for pair in rng.integers(0, 2, size=(n, 2, 1 << m))]
        value, bias = simulate_nonadaptive_xor(boxes, tables, m)
        text = repr((value, bias.tolist()))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED_ORACLE_DIGESTS[kind, n, m], text


def test_nonadaptive_oracle_matches_fourier_value_four_players():
    rng = np.random.default_rng(44)
    n, m = 4, 2
    game = random_game(rng, n)
    box = MultipartiteXorBox(game, tuple(rng.uniform(-1, 1, size=1 << n)))
    for _ in range(5):
        tables = rng.integers(0, 2, size=(n, 1 << m))
        value, _ = simulate_nonadaptive_xor(box, [[t, t] for t in tables], m)
        spectra = [walsh_transform(PmOutputFunction.from_bits(m, t)) for t in tables]
        assert value == pytest.approx(nonadaptive_value_fourier(spectra, game, box.delta), abs=1e-12)


@pytest.mark.parametrize("n, m", [(2, 12), (3, 8)])
def test_simulate_parity_at_the_budget_matches_exact_powers(n, m):
    rng = np.random.default_rng(n * m)
    box = MultipartiteXorBox(random_game(rng, n), tuple(rng.uniform(-1, 1, size=1 << n)))
    exact = [float(Fraction(d) ** m) for d in box.delta]
    assert np.allclose(simulate_parity(box, m).delta, exact, atol=1e-13, rtol=0)


def test_nonadaptive_xor_rejects_non_bit_tables():
    box = MultipartiteXorBox(CHSH, (1, 1, 1, 0.3))
    bad = np.array([0, 2])
    with pytest.raises(ValueError, match="bits"):
        simulate_nonadaptive_xor(box, [[bad, bad]] * 2, 1)
    # checked before any cast to int, which would read 0.5 as 0
    with pytest.raises(ValueError, match="bits"):
        simulate_nonadaptive_xor(box, [[[0.5, 1.0], [0.5, 1.0]]] * 2, 1)


@pytest.mark.parametrize("m", [0, -1])
def test_nonadaptive_xor_rejects_fewer_than_one_copy(m):
    box = MultipartiteXorBox(CHSH, (1, 1, 1, 0.3))
    for boxes in (box, [], [box]):
        with pytest.raises(ValueError, match=f"^copies m must be >= 1, got {m}$"):
            simulate_nonadaptive_xor(boxes, [[[0], [0]]] * 2, m)
    with pytest.raises(ValueError, match=f"^copies m must be >= 1, got {m}$"):
        simulate_parity(box, m)
