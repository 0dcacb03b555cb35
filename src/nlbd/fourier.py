"""Boolean Fourier machinery for non-adaptive distillation bounds.

A player who sees m box-output bits and answers with one bit is described by
the +-1-valued function ``f(s) = +1`` iff she outputs 0 on outcome string s.
Its Walsh (character) expansion over Z_2^m is

    f(s) = sum_z fhat_z * chi_z(s),    chi_z(s) = (-1)^(z . s),
    fhat_z = 2^-m sum_s (-1)^(z . s) f(s),

with Parseval sum_z fhat_z^2 = 1 for +-1-valued f. Outcome strings and
frequency vectors z are indexed as integers with the first copy's bit most
significant, matching the rest of the package.

For n players applying input-independent functions f_1..f_n to m copies of
an even-parity-bias box (bias delta on the queried input), the probability
that the XOR of their answers is 0 is

    R(delta) = (1 + sum_z delta^|z| prod_j fhat_z^j) / 2,

and the resulting game value is

    V = sum_z (prod_j fhat_z^j) T_|z|,    T_k = sum_x (-1)^f(x) delta_x^k.

The parity protocol over k copies realizes V = T_k, and the maximum of
|T_k| over k in {1..m} upper-bounds every input-independent non-adaptive
protocol in the regime where the box beats all deterministic strategies
(|T_1| > |T_0|); see parity_bound. The k = 0 term (constant outputs,
value T_0 = sum_x (-1)^f(x)) is achievable too, so outside that regime the
sharp bound is max over k in {0..m}; parity_bound implements the 1..m form
and reports the achieving k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ArityMismatch
from .xorboxes import MultipartiteXorBox, XorGame


@dataclass(frozen=True)
class PmOutputFunction:
    """A +-1-valued function on m-bit outcome strings (player output rule).

    table[s] = +1 means the player outputs bit 0 on outcome string s.
    """

    m: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.table) != 1 << self.m:
            raise ValueError(f"table must have 2^{self.m} entries, got {len(self.table)}")
        if any(v not in (-1, +1) for v in self.table):
            raise ValueError("table values must be +1 or -1")

    @classmethod
    def from_bits(cls, m: int, bits: Sequence[int]) -> "PmOutputFunction":
        """Build from the boolean output table (bit b -> value (-1)^b)."""
        return cls(m, tuple(1 - 2 * int(b) for b in bits))

    @classmethod
    def parity(cls, m: int) -> "PmOutputFunction":
        return cls(m, tuple(1 - 2 * (bin(s).count("1") % 2) for s in range(1 << m)))

    @classmethod
    def constant(cls, m: int, value: int = +1) -> "PmOutputFunction":
        return cls(m, (value,) * (1 << m))

    def bits(self) -> np.ndarray:
        """Boolean output table: 0 where the value is +1."""
        return (1 - np.array(self.table)) // 2

    def values(self) -> np.ndarray:
        return np.array(self.table, dtype=float)


@dataclass(frozen=True)
class FourierSpectrum:
    """Walsh coefficients of a +-1 function; coeff[z] with z an integer index."""

    m: int
    coeff: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coeff) != 1 << self.m:
            raise ValueError(f"spectrum must have 2^{self.m} entries, got {len(self.coeff)}")

    def array(self) -> np.ndarray:
        return np.array(self.coeff, dtype=float)


def weight_table(m: int) -> np.ndarray:
    """Hamming weight |z| for every z < 2^m."""
    z = np.arange(1 << m)
    w = np.zeros(1 << m, dtype=np.int64)
    for b in range(m):
        w += (z >> b) & 1
    return w


def walsh_transform(f: PmOutputFunction) -> FourierSpectrum:
    """Walsh transform by the in-place butterfly, O(m 2^m)."""
    a = f.values().copy()
    h = 1
    size = 1 << f.m
    while h < size:
        for start in range(0, size, h * 2):
            lo = a[start : start + h].copy()
            hi = a[start + h : start + 2 * h].copy()
            a[start : start + h] = lo + hi
            a[start + h : start + 2 * h] = lo - hi
        h *= 2
    return FourierSpectrum(f.m, tuple(a / size))


def _common_arity(spectra: Sequence[FourierSpectrum]) -> int:
    if not spectra:
        raise ArityMismatch("need at least one spectrum")
    m = spectra[0].m
    if any(sp.m != m for sp in spectra):
        raise ArityMismatch(f"spectra mix arities {[sp.m for sp in spectra]}")
    return m


def even_parity_prob(spectra: Sequence[FourierSpectrum], delta: float) -> float:
    """Probability that n players' outputs XOR to 0 on an even-parity-bias box.

    R(delta) = (1 + sum_z delta^|z| prod_j fhat_z^j) / 2, all players reading
    the same m copies with per-copy even-parity bias delta.
    """
    if not -1.0 <= delta <= 1.0:
        raise ValueError(f"|delta| must be <= 1, got {delta}")
    m = _common_arity(spectra)
    prod = np.ones(1 << m)
    for sp in spectra:
        prod *= sp.array()
    powers = np.power(float(delta), weight_table(m), dtype=float)
    return float((1.0 + prod @ powers) / 2.0)


def nonadaptive_value_fourier(
    spectra: Sequence[FourierSpectrum],
    game: XorGame,
    delta: Sequence[float],
) -> float:
    """Game value of input-independent output functions, via Fourier coefficients.

    V = sum_z (prod_j fhat_z^j) T_|z| with T_k = sum_x (-1)^f(x) delta_x^k.
    One spectrum per player.
    """
    if len(spectra) != game.n:
        raise ArityMismatch(f"game has {game.n} players, got {len(spectra)} spectra")
    m = _common_arity(spectra)
    d = np.asarray(delta, dtype=float)
    if d.shape != (1 << game.n,):
        raise ArityMismatch(f"delta must have 2^{game.n} entries")
    signs = game.signs()
    t = np.array([signs @ d**k for k in range(m + 1)])  # T_0 .. T_m
    prod = np.ones(1 << m)
    for sp in spectra:
        prod *= sp.array()
    return float(prod @ t[weight_table(m)])


class ParityBound(NamedTuple):
    """Value of the parity upper bound and the copy count achieving it."""

    value: float
    k: int


def parity_bound(game: XorGame, delta: Sequence[float], m: int) -> ParityBound:
    """max over k in {1..m} of |T_k|, with the smallest achieving k.

    T_k = sum_x (-1)^f(x) delta_x^k is the parity-protocol value over k
    copies, so the bound is constructive: use k copies with parity (flip one
    player's output when T_k < 0).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    d = np.asarray(delta, dtype=float)
    if d.shape != (1 << game.n,):
        raise ArityMismatch(f"delta must have 2^{game.n} entries")
    signs = game.signs()
    best_value, best_k = -1.0, 1
    for k in range(1, m + 1):
        t = float(abs(signs @ d**k))
        if t > best_value:  # strict: ties keep the smaller k
            best_value, best_k = t, k
    return ParityBound(best_value, best_k)
