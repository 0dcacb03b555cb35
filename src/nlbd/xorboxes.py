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

``simulate_parity`` is the enumeration oracle for the parity protocol's
closed form: it computes the distilled box by summing over all ``2^(n m)``
outcome tuples per input instead of using the delta^m shortcut, and is
budgeted at ``n*m <= 24``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, BudgetExceeded, VerificationFailed

# Enumeration ceiling for the oracle: 2^24 outcome tuples per input.
PARITY_BUDGET_BITS = 24

# Chunk size (in outcome tuples) for the enumeration loops; caps memory.
_CHUNK = 1 << 18


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
        if len(self.f) != 1 << self.n:
            raise ValueError(
                f"truth table must have 2^{self.n} = {1 << self.n} entries, got {len(self.f)}"
            )
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


def _player_parities(outcomes: np.ndarray, n: int, m: int) -> np.ndarray:
    """Per-player output bits of the parity protocol, shape (len(outcomes), n).

    ``outcomes`` are integers encoding one n-bit output per copy: bit
    ``c*n + j`` holds player j's bit in copy c. Player j's protocol output is
    the XOR of her m bits.
    """
    out = np.zeros((outcomes.shape[0], n), dtype=np.uint8)
    for j in range(n):
        acc = np.zeros(outcomes.shape[0], dtype=np.uint8)
        for c in range(m):
            acc ^= ((outcomes >> (c * n + j)) & 1).astype(np.uint8)
        out[:, j] = acc
    return out


def _copy_parities(outcomes: np.ndarray, n: int, m: int) -> np.ndarray:
    """Output parity of each copy, shape (len(outcomes), m)."""
    par = np.zeros((outcomes.shape[0], m), dtype=np.uint8)
    for c in range(m):
        acc = np.zeros(outcomes.shape[0], dtype=np.uint8)
        for j in range(n):
            acc ^= ((outcomes >> (c * n + j)) & 1).astype(np.uint8)
        par[:, c] = acc
    return par


def simulate_parity(b: MultipartiteXorBox, m: int) -> MultipartiteXorBox:
    """Distill by the parity protocol via exact enumeration of all outcome tuples.

    For every input x, sums the probabilities of all 2^(n m) joint outcome
    tuples (copies independent, each copy distributed per the even-parity
    bias delta_x), grouping them by the players' XOR outputs. The resulting
    distribution is again of even-parity-bias form; its bias is returned as
    the distilled box. Also checks, from the same enumeration, that every
    player's output is unbiased and that the distribution is uniform within
    each parity class (to 1e-12), which is what makes the return type sound.

    Raises BudgetExceeded when n*m > 24 and VerificationFailed when a check
    fails.
    """
    if m < 1:
        raise ValueError(f"copies m must be >= 1, got {m}")
    n = b.n
    bits = n * m
    if bits > PARITY_BUDGET_BITS:
        raise BudgetExceeded(
            f"enumeration needs 2^{bits} outcome tuples per input; budget is 2^{PARITY_BUDGET_BITS}"
        )

    total = 1 << bits
    n_out = 1 << n
    # Per input x: distilled joint output distribution over 2^n outputs.
    dist = np.zeros((1 << n, n_out), dtype=float)
    deltas = b.delta_array()

    for start in range(0, total, _CHUNK):
        outcomes = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        copy_par = _copy_parities(outcomes, n, m)  # (chunk, m)
        player_out = _player_parities(outcomes, n, m)  # (chunk, n)
        # Distilled output index of each outcome tuple (player 1 most significant).
        out_idx = np.zeros(outcomes.shape[0], dtype=np.int64)
        for j in range(n):
            out_idx = (out_idx << 1) | player_out[:, j]
        # Probability per input: product over copies of (1 +- delta_x) / 2^n.
        even = copy_par == 0  # (chunk, m)
        for x in range(1 << n):
            d = deltas[x]
            probs = np.where(even, (1.0 + d) / n_out, (1.0 - d) / n_out).prod(axis=1)
            np.add.at(dist[x], out_idx, probs)

    # Soundness of the return type: trivial marginals and uniformity within
    # each parity class, both algebraic identities of the parity wiring.
    out_bits = np.array(
        [[(o >> (n - 1 - j)) & 1 for j in range(n)] for o in range(n_out)], dtype=float
    )
    out_parity = out_bits.sum(axis=1) % 2
    for x in range(1 << n):
        for j in range(n):
            bias = float(dist[x] @ (1.0 - 2.0 * out_bits[:, j]))
            if not abs(bias) < 1e-12:
                raise VerificationFailed(f"parity distillate has biased player {j} on input {x}")
        for parity in (0, 1):
            cls = dist[x][out_parity == parity]
            if not np.ptp(cls) < 1e-12:
                raise VerificationFailed("parity distillate not uniform within a parity class")

    new_delta = tuple(float(dist[x] @ (1.0 - 2.0 * out_parity)) for x in range(1 << n))
    # Guard against enumeration noise pushing a bias epsilon past 1.
    new_delta = tuple(min(1.0, max(-1.0, d)) for d in new_delta)
    return MultipartiteXorBox(b.game, new_delta)


def simulate_nonadaptive_xor(
    boxes: "MultipartiteXorBox | list[MultipartiteXorBox]",
    player_tables: list[list[np.ndarray]],
    m: int,
) -> tuple[float, np.ndarray]:
    """Value and distilled parity biases of a general non-adaptive protocol.

    ``player_tables[j][v]`` is player j's boolean output table over her m
    outcome bits (array of 2^m bits, outcome string indexed first-copy most
    significant) when her own input bit is v. Boxes may be a single box
    (m identical copies) or a list of m boxes sharing the game; copies are
    queried on the original input.

    Unlike the parity protocol, a general protocol's distillate need not be
    an even-parity-bias box (players can bias their outputs), so this oracle
    returns only what the game value needs: the distilled even-parity bias
    per input, plus the value sum_x (-1)^f(x) delta'_x.
    """
    if isinstance(boxes, MultipartiteXorBox):
        box_list = [boxes] * m
    else:
        box_list = list(boxes)
        if len(box_list) != m:
            raise ArityMismatch(f"need {m} boxes, got {len(box_list)}")
    game = box_list[0].game
    if any(bx.game != game for bx in box_list):
        raise ArityMismatch("all copies must share the same game")
    n = game.n
    if len(player_tables) != n:
        raise ArityMismatch(f"need output tables for {n} players, got {len(player_tables)}")
    for j, tables in enumerate(player_tables):
        if len(tables) != 2 or any(len(t) != 1 << m for t in tables):
            raise ArityMismatch(f"player {j} needs two tables of 2^{m} bits")
    bits = n * m
    if bits > PARITY_BUDGET_BITS:
        raise BudgetExceeded(
            f"enumeration needs 2^{bits} outcome tuples per input; budget is 2^{PARITY_BUDGET_BITS}"
        )

    total = 1 << bits
    deltas = np.stack([bx.delta_array() for bx in box_list], axis=1)  # (2^n, m)
    even_bias = np.zeros(1 << n, dtype=float)

    for start in range(0, total, _CHUNK):
        outcomes = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        copy_par = _copy_parities(outcomes, n, m) == 0  # (chunk, m)
        # Player j's outcome string as a table index (first copy most significant).
        s = np.zeros((outcomes.shape[0], n), dtype=np.int64)
        for j in range(n):
            for c in range(m):
                s[:, j] |= ((outcomes >> (c * n + j)) & 1) << (m - 1 - c)
        for x in range(1 << n):
            probs = np.where(
                copy_par, (1.0 + deltas[x]) / (1 << n), (1.0 - deltas[x]) / (1 << n)
            ).prod(axis=1)
            out_par = np.zeros(outcomes.shape[0], dtype=np.int64)
            for j in range(n):
                v = (x >> (n - 1 - j)) & 1
                out_par ^= np.asarray(player_tables[j][v], dtype=np.int64)[s[:, j]]
            even_bias[x] += float(probs @ (1.0 - 2.0 * out_par))

    value = float(game.signs() @ even_bias)
    return value, even_bias
