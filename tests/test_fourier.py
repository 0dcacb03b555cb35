"""Walsh transforms, Fourier values, parity bound."""

import itertools

import numpy as np
import pytest

from nlbd.errors import ArityMismatch
from nlbd.fourier import (
    ParityBound,
    PmOutputFunction,
    nonadaptive_value_fourier,
    parity_bound,
    walsh_transform,
)
from nlbd.xorboxes import MultipartiteXorBox, XorGame, simulate_nonadaptive_xor

CHSH = XorGame.chsh()


def random_function(rng, m):
    return PmOutputFunction(m, tuple(rng.choice([-1, 1], size=1 << m)))


def parseval_defect(spectrum) -> float:
    """|sum_z coeff_z^2 - 1|; within 1e-12 for spectra of +-1 functions."""
    return float(abs(spectrum @ spectrum - 1.0))


def test_parity_function_spectrum():
    for m in (1, 2, 3):
        sp = walsh_transform(PmOutputFunction.parity(m))
        expect = np.zeros(1 << m)
        expect[-1] = 1.0  # z = all ones
        assert np.allclose(sp, expect, atol=1e-15)


def test_constant_function_spectrum():
    sp = walsh_transform(PmOutputFunction.constant(3))
    expect = np.zeros(8)
    expect[0] = 1.0
    assert np.allclose(sp, expect, atol=1e-15)


def test_majority_spectrum():
    # m=3 majority: output 0 (value +1) iff the string has >= 2 zeros.
    table = []
    for s in range(8):
        zeros = 3 - bin(s).count("1")
        table.append(+1 if zeros >= 2 else -1)
    sp = walsh_transform(PmOutputFunction(3, tuple(table)))
    for z in range(8):
        w = bin(z).count("1")
        if w == 1:
            assert sp[z] == pytest.approx(0.5, abs=1e-15)
        elif w == 3:
            assert sp[z] == pytest.approx(-0.5, abs=1e-15)
        else:
            assert sp[z] == pytest.approx(0.0, abs=1e-15)


def walsh_transform_direct(f: PmOutputFunction) -> np.ndarray:
    """Direct O(4^m) summation; cross-check oracle for the butterfly.

    Note the index convention makes the two transforms literally identical:
    z . s is the parity of the bitwise AND of the integer indices.
    """
    size = 1 << f.m
    vals = f.values()
    coeff = []
    for z in range(size):
        total = 0.0
        for s in range(size):
            dot = bin(z & s).count("1") % 2
            total += (-1) ** dot * vals[s]
        coeff.append(total / size)
    return np.array(coeff)


def test_butterfly_matches_direct():
    rng = np.random.default_rng(31)
    for m in (0, 1, 2, 3, 4):
        for _ in range(10):
            f = random_function(rng, m)
            fast = walsh_transform(f)
            assert isinstance(fast, np.ndarray) and fast.dtype == float
            # every coefficient is a sum of +-1 over a power of two: exact
            assert np.array_equal(fast, walsh_transform_direct(f))


def test_parseval_exhaustive_m2():
    for bits in itertools.product([0, 1], repeat=4):
        f = PmOutputFunction.from_bits(2, bits)
        assert parseval_defect(walsh_transform(f)) < 1e-12


def test_parseval_random_m3_m4():
    rng = np.random.default_rng(32)
    for m in (3, 4):
        for _ in range(200):
            assert parseval_defect(walsh_transform(random_function(rng, m))) < 1e-12


def test_arity_mismatch_rejected():
    sp2 = walsh_transform(PmOutputFunction.parity(2))
    sp3 = walsh_transform(PmOutputFunction.parity(3))
    with pytest.raises(ArityMismatch):
        nonadaptive_value_fourier([sp2, sp3], CHSH, (1, 1, 1, 0))
    with pytest.raises(ArityMismatch):
        nonadaptive_value_fourier([sp2[:3], sp2[:3]], CHSH, (1, 1, 1, 0))
    with pytest.raises(ArityMismatch):
        nonadaptive_value_fourier([sp2], CHSH, (1, 1, 1, 0))
    with pytest.raises(ArityMismatch):
        nonadaptive_value_fourier([sp2, sp2], CHSH, (1, 1, 1))


def test_value_fourier_parity_spectra_is_lemma_value():
    rng = np.random.default_rng(36)
    for n in (2, 3):
        game = CHSH if n == 2 else XorGame.from_predicate(3, lambda b: all(b))
        for m in (1, 2, 3):
            sp = walsh_transform(PmOutputFunction.parity(m))
            delta = rng.uniform(-1, 1, size=1 << n)
            v = nonadaptive_value_fourier([sp] * n, game, delta)
            expect = float(game.signs() @ delta**m)
            assert v == pytest.approx(expect, abs=1e-12)


def test_value_fourier_constant_spectra():
    sp = walsh_transform(PmOutputFunction.constant(2))
    delta = (0.3, -0.2, 0.9, 0.1)
    v = nonadaptive_value_fourier([sp, sp], CHSH, delta)
    assert v == pytest.approx(2.0, abs=1e-12)  # sum of (-1)^f(x)


def test_value_fourier_matches_simulation():
    rng = np.random.default_rng(37)
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
        game = CHSH if n == 2 else XorGame.from_predicate(3, lambda b: all(b))
        for _ in range(8):
            fs = [random_function(rng, m) for _ in range(n)]
            delta = tuple(rng.uniform(-1, 1, size=1 << n))
            box = MultipartiteXorBox(game, delta)
            tables = [[f.bits(), f.bits()] for f in fs]
            sim_value, _ = simulate_nonadaptive_xor(box, tables, m)
            fourier = nonadaptive_value_fourier([walsh_transform(f) for f in fs], game, delta)
            assert fourier == pytest.approx(sim_value, abs=1e-9)


def test_parity_bound_correlated():
    b = parity_bound(CHSH, (1, 1, 1, 0.3), 2)
    assert b == ParityBound(pytest.approx(3 - 0.09), 2)


def test_parity_bound_isotropic_prefers_single_copy():
    for delta in (0.2, 0.6, 1.0):
        b = parity_bound(CHSH, (delta, delta, delta, -delta), 2)
        assert b.k == 1
        assert b.value == pytest.approx(4 * delta)


def test_parity_bound_m1():
    rng = np.random.default_rng(38)
    d = tuple(rng.uniform(-1, 1, size=4))
    b = parity_bound(CHSH, d, 1)
    assert b.value == pytest.approx(abs(float(CHSH.signs() @ np.array(d))))
    assert b.k == 1
