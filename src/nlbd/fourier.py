"""Boolean Fourier machinery for non-adaptive distillation bounds.

A player who sees m box-output bits and answers with one bit is described by
the +-1-valued function ``f(s) = +1`` iff she outputs 0 on outcome string s.
Its Walsh (character) expansion over Z_2^m is

    f(s) = sum_z fhat_z * chi_z(s),    chi_z(s) = (-1)^(z . s),
    fhat_z = 2^-m sum_s (-1)^(z . s) f(s),

with Parseval sum_z fhat_z^2 = 1 for +-1-valued f. Outcome strings and
frequency vectors z are indexed as integers with the first copy's bit most
significant, matching the rest of the package.

A spectrum is the float array of the 2^m coefficients, as walsh_transform
returns it.

For n players applying input-independent functions f_1..f_n to m copies of
an even-parity-bias box (bias delta on the queried input), the probability
that the XOR of their answers is 0 is

    R(delta) = (1 + sum_z delta^|z| prod_j fhat_z^j) / 2,

since chi_z of the copies' joint XOR pattern has mean delta^|z|. Summing
2 R - 1 over the inputs with sign (-1)^f(x) gives the game value

    V = sum_z (prod_j fhat_z^j) T_|z|,    T_k = sum_x (-1)^f(x) delta_x^k,

so with one bias delta on every input, R(delta) = (1 + V / T_0) / 2.

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
from .xorboxes import XorGame, _popcounts, _wht


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
        return cls(m, tuple((1 - 2 * (_popcounts(m) & 1)).tolist()))

    @classmethod
    def constant(cls, m: int, value: int = +1) -> "PmOutputFunction":
        return cls(m, (value,) * (1 << m))

    def bits(self) -> np.ndarray:
        """Boolean output table: 0 where the value is +1."""
        return (1 - np.array(self.table)) // 2

    def values(self) -> np.ndarray:
        return np.array(self.table, dtype=float)


def walsh_transform(f: PmOutputFunction) -> np.ndarray:
    """The 2^m coefficients fhat_z, by the butterfly one copy at a time, O(m 2^m).

    z is indexed first copy most significant, like s. Every partial sum of
    the +-1 values is an integer of at most 2^m, so the floats are exact.
    """
    return _wht(f.values(), f.m) / (1 << f.m)


def _levels(game: XorGame, delta: Sequence[float], m: int) -> np.ndarray:
    """T_0 .. T_m, T_k = sum_x (-1)^f(x) delta_x^k, for one bias delta_x per input x."""
    d = np.asarray(delta, dtype=float)
    if d.shape != (1 << game.n,):
        raise ArityMismatch(f"delta must have 2^{game.n} entries")
    signs = game.signs()
    return np.array([signs @ d**k for k in range(m + 1)])


def nonadaptive_value_fourier(
    spectra: Sequence[np.ndarray],
    game: XorGame,
    delta: Sequence[float],
) -> float:
    """Game value of input-independent output functions, via Fourier coefficients.

    V = sum_z (prod_j fhat_z^j) T_|z| with T_k = sum_x (-1)^f(x) delta_x^k.
    One coefficient array (as walsh_transform returns) per player.
    """
    if len(spectra) != game.n:
        raise ArityMismatch(f"game has {game.n} players, got {len(spectra)} spectra")
    sizes = [len(sp) for sp in spectra]
    size = sizes[0]
    if size < 1 or size & (size - 1) or any(s != size for s in sizes):
        raise ArityMismatch(f"spectra need one common length 2^m, got lengths {sizes}")
    m = size.bit_length() - 1
    t = _levels(game, delta, m)
    prod = np.ones(size)
    for sp in spectra:
        prod *= sp
    return float(prod @ t[_popcounts(m)])  # T_|z|


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
    t = np.abs(_levels(game, delta, m)).tolist()
    best_value, best_k = -1.0, 1
    for k in range(1, m + 1):
        if t[k] > best_value:  # strict: ties keep the smaller k
            best_value, best_k = t[k], k
    return ParityBound(best_value, best_k)
