"""n-player XOR-game boxes with trivial marginals and the parity oracle.

An n-player XOR-game box answers each joint input ``x in {0,1}^n`` with a
joint output ``a in {0,1}^n`` whose distribution depends only on the output
parity:

    p(a | x) = (1 + delta_x) / 2^n   if a1 xor ... xor an = 0,
    p(a | x) = (1 - delta_x) / 2^n   otherwise,

so ``delta_x in [-1, 1]`` is the bias toward even output parity on input x.
The value of the box for a game predicate ``f: {0,1}^n -> {0,1}`` is

    V = sum_x (-1)^f(x) delta_x,

i.e. winning inputs with ``f(x) = 1`` want a negative even-parity bias. The
CHSH instance is n = 2 with f = AND; the isotropic box has
``delta = (d, d, d, -d)`` and V = 4 d.

Indexing convention: an input string ``x = x1 x2 ... xn`` is stored at
integer index ``x1 * 2^(n-1) + ... + xn`` (first player's bit most
significant). Output and outcome strings use the same convention.

``simulate_nonadaptive_xor`` counts the ``2^(n m)`` outcome tuples exactly by
the copies' parity pattern and the players' joint output, on which a tuple's
probability depends: an XOR convolution, taken as a product of integer Walsh
transforms in O(2^n m 2^m) work, with int64 sums below 2^(n m + m) <= 2^36.
``simulate_parity`` (the oracle for the parity protocol's closed form) is the
same oracle run on the parity tables, plus its two soundness checks. Neither
uses the delta^m shortcut; both are budgeted at ``n*max(m, 2) <= 24``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArityMismatch, BudgetExceeded, VerificationFailed

# The oracle's ceiling: 2^24 outcome tuples per input, so int64 sums stay below 2^36.
PARITY_BUDGET_BITS = 24

_H2 = np.array([[1, 1], [1, -1]])


def _wht(a: np.ndarray, m: int) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of the last axis (2^m long), one bit per step."""
    shape = a.shape
    for c in range(m):
        a = _H2 @ a.reshape(-1, 2, 1 << c)
    return a.reshape(shape)


def _popcounts(bits: int) -> np.ndarray:
    """Number of 1 bits of each of 0 .. 2^bits - 1, as int64."""
    w = np.zeros(1, dtype=np.int64)
    for _ in range(bits):
        w = np.concatenate((w, w + 1))
    return w


@dataclass(frozen=True)
class XorGame:
    """Game predicate f: {0,1}^n -> {0,1} stored as a truth table of 2^n bits.

    ``f[i]`` is the predicate value on the input string whose integer index
    is i (first player's bit most significant). CHSH is ``XorGame.chsh()``.
    """

    n: int
    f: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"XOR games need n >= 2 players, got {self.n}")
        # 2^n itself is never built: n comes from a file and may be huge
        size = len(self.f)
        if size & (size - 1) or size.bit_length() != self.n + 1:
            raise ValueError(f"truth table must have 2^n entries for n={self.n}, got {size}")
        if any(bit not in (0, 1) for bit in self.f):
            raise ValueError("truth table entries must be bits")

    @classmethod
    def chsh(cls) -> "XorGame":
        """The n=2 AND game: win iff a xor b = x and y."""
        return cls(2, (0, 0, 0, 1))

    @classmethod
    def from_predicate(cls, n: int, predicate) -> "XorGame":
        """Build the table from a callable on bit tuples, e.g. lambda bits: all(bits)."""
        table = []
        for idx in range(1 << n):
            bits = tuple((idx >> (n - 1 - j)) & 1 for j in range(n))
            table.append(int(bool(predicate(bits))))
        return cls(n, tuple(table))

    def signs(self) -> np.ndarray:
        """(-1)^f(x) per input index, shape (2^n,)."""
        return 1.0 - 2.0 * np.array(self.f, dtype=float)


@dataclass(frozen=True)
class MultipartiteXorBox:
    """An XOR-game box: game plus even-parity bias delta_x per input."""

    game: XorGame
    delta: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.delta) != 1 << self.game.n:
            raise ValueError(
                f"delta must have one entry per input, expected {1 << self.game.n}, "
                f"got {len(self.delta)}"
            )
        if any(not -1.0 <= d <= 1.0 for d in self.delta):
            raise ValueError("every delta_x must lie in [-1, 1]")

    @property
    def n(self) -> int:
        return self.game.n

    def delta_array(self) -> np.ndarray:
        return np.array(self.delta, dtype=float)


def xor_value(b: MultipartiteXorBox) -> float:
    """Value sum_x (-1)^f(x) delta_x of the box for its game."""
    return float(b.game.signs() @ b.delta_array())


def parity_distill_value(b: MultipartiteXorBox, m: int) -> float:
    """Closed-form value of the parity protocol over m copies: sum_x (-1)^f(x) delta_x^m."""
    if m < 1:
        raise ValueError(f"copies m must be >= 1, got {m}")
    return float(b.game.signs() @ (b.delta_array() ** m))


def _outcome_counts(tables: tuple[np.ndarray, ...], n: int, m: int) -> np.ndarray:
    """Exact tuple counts, shape (2^m, 2^n), for one output table per player.

    Player j's outcome string ``s_j`` (m bits, first copy most significant)
    says which of her bits came out 1; copy c has even output parity exactly
    where bit c of ``s_1 xor ... xor s_n`` is 0. ``counts[e, o]`` is the
    number of the 2^(n m) tuples whose XOR pattern is e and whose joint
    output ``(tables[0][s_1], ..., tables[n-1][s_n])`` is o: the XOR
    convolution over the players of the indicators ``[tables[j] == o_j]``.
    The Walsh transform turns it into a product, and H(1 - t) = 2^m e_0 - H(t).
    """
    ones = _wht(np.stack(tables), m)  # H(t_j), shape (n, 2^m)
    zeros = -ones
    zeros[:, 0] += 1 << m
    pair = np.stack((zeros, ones), axis=1)  # [j, o_j, z]
    product = pair[0]
    for j in range(1, n):  # player 0 ends up highest in o
        product = (product[:, None, :] * pair[j][None, :, :]).reshape(-1, 1 << m)
    return np.ascontiguousarray((_wht(product, m) >> m).T)


def _output_distribution(
    deltas: np.ndarray, tables: list[list[np.ndarray]], n: int, m: int
) -> np.ndarray:
    """``dist[x, o]``: probability that the players output o on input x.

    ``deltas[x, c]`` is copy c's even-parity bias on input x and
    ``tables[j][v]`` player j's output table for input bit v. A tuple's
    probability on input x is ``w[x, e] = prod_c (1 +- delta_{x,c}) / 2^n``
    for its XOR pattern e, so ``dist[x] = w[x] @ counts``. The counts depend
    on x only through the players' tables, so each combination is counted once.
    """
    sign = 1.0 - 2.0 * ((np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1)
    weights = ((1.0 + sign * deltas[:, None, :]) / (1 << n)).prod(axis=2)  # w[x, e]
    dist = np.empty((1 << n, 1 << n), dtype=float)
    counted: dict[bytes, np.ndarray] = {}
    for x in range(1 << n):
        chosen = tuple(tables[j][(x >> (n - 1 - j)) & 1] for j in range(n))
        key = b"".join(t.tobytes() for t in chosen)
        if key not in counted:
            counted[key] = _outcome_counts(chosen, n, m).astype(float)
        dist[x] = weights[x] @ counted[key]
    return dist


def _copies(boxes, m: int) -> tuple[XorGame, np.ndarray]:
    """An oracle's checked copies: their shared game and ``deltas[x, c]``, shape (2^n, m).

    A single box stands for all m copies, so nothing is sized by m before the budget check.
    """
    if m < 1:
        raise ValueError(f"copies m must be >= 1, got {m}")
    single = isinstance(boxes, MultipartiteXorBox)
    box_list = [boxes] if single else list(boxes)
    if not single and len(box_list) != m:
        raise ArityMismatch(f"need {m} boxes, got {len(box_list)}")
    game = box_list[0].game
    if any(bx.game != game for bx in box_list):
        raise ArityMismatch("all copies must share the same game")
    n = game.n
    if n * max(m, 2) > PARITY_BUDGET_BITS:
        raise BudgetExceeded(
            f"enumeration needs 2^{n * m} outcome tuples per input and a 2^{2 * n}-entry "
            f"output distribution; budget is 2^{PARITY_BUDGET_BITS} each"
        )
    deltas = np.stack([bx.delta_array() for bx in box_list], axis=1)
    return game, np.repeat(deltas, m if single else 1, axis=1)


def simulate_parity(b: MultipartiteXorBox, m: int) -> MultipartiteXorBox:
    """Distill by the parity protocol: the general oracle run on the parity tables.

    For every input x, weighs all 2^(n m) joint outcome tuples (copies
    independent, each copy distributed per the even-parity bias delta_x),
    counted exactly as in ``simulate_nonadaptive_xor``, and groups their
    probabilities by the players' XOR outputs. The resulting distribution is
    again of even-parity-bias form; its bias is returned as the distilled
    box. Also checks that every player's output is unbiased and that the
    distribution is uniform within each parity class (to 1e-12), which is
    what makes the return type sound.

    Raises BudgetExceeded when n*max(m, 2) > 24 and VerificationFailed when
    a check fails.
    """
    game, deltas = _copies(b, m)
    n = game.n
    parity_table = _popcounts(m) & 1
    dist = _output_distribution(deltas, [[parity_table] * 2] * n, n, m)

    # Soundness of the return type, both identities of the parity wiring: on the first
    # failing input, every player's bias is checked before uniformity in each parity class.
    out_bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # [o, j]
    out_parity = _popcounts(n) & 1
    biased = ~(np.abs(dist @ (1.0 - 2.0 * out_bits)) < 1e-12)  # [x, j]
    uneven = [~(np.ptp(dist[:, out_parity == p], axis=1) < 1e-12) for p in (0, 1)]
    failed = biased.any(axis=1) | uneven[0] | uneven[1]
    if failed.any():
        x = int(failed.argmax())
        if biased[x].any():
            j = int(biased[x].argmax())
            raise VerificationFailed(f"parity distillate has biased player {j} on input {x}")
        raise VerificationFailed("parity distillate not uniform within a parity class")

    new_delta = tuple(float(dist[x] @ (1.0 - 2.0 * out_parity)) for x in range(1 << n))
    # Guard against enumeration noise pushing a bias epsilon past 1.
    new_delta = tuple(min(1.0, max(-1.0, d)) for d in new_delta)
    return MultipartiteXorBox(game, new_delta)


def simulate_nonadaptive_xor(
    boxes: "MultipartiteXorBox | list[MultipartiteXorBox]",
    player_tables: Sequence[Sequence[Sequence[int]]],
    m: int,
) -> tuple[float, np.ndarray]:
    """Value and distilled parity biases of a general non-adaptive protocol.

    ``player_tables[j][v]`` is player j's boolean output table over her m
    outcome bits (2^m bits, outcome string indexed first-copy most
    significant) when her own input bit is v, as in
    ``NonAdaptiveProtocol.tables``. Boxes may be a single box (m identical
    copies) or a list of m boxes sharing the game; copies are queried on the
    original input.

    Unlike the parity protocol, a general protocol's distillate need not be
    an even-parity-bias box (players can bias their outputs), so this oracle
    returns only what the game value needs: the distilled even-parity bias
    per input, plus the value sum_x (-1)^f(x) delta'_x.
    """
    game, deltas = _copies(boxes, m)
    n = game.n
    if len(player_tables) != n:
        raise ArityMismatch(f"need output tables for {n} players, got {len(player_tables)}")
    for j, tables in enumerate(player_tables):
        if len(tables) != 2 or any(len(t) != 1 << m for t in tables):
            raise ArityMismatch(f"player {j} needs two tables of 2^{m} bits")
    # entries are checked before the cast, which would read 0.5 as 0
    tables = [[np.asarray(t) for t in pair] for pair in player_tables]
    if any(((t != 0) & (t != 1)).any() for pair in tables for t in pair):
        raise ValueError("output tables must hold bits")
    tables = [[t.astype(np.int64) for t in pair] for pair in tables]

    dist = _output_distribution(deltas, tables, n, m)
    out_parity = _popcounts(n) & 1
    even_bias = dist @ (1.0 - 2.0 * out_parity)
    value = float(game.signs() @ even_bias)
    return value, even_bias
