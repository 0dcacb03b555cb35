"""Distillation wirings: non-adaptive and adaptive two-copy protocols.

A non-adaptive protocol for n players over m box copies queries every copy
with the player's original input bit and maps her m outcome bits to one
output bit through a per-input boolean table. The canonical integer encoding
packs the table bits player-major, then input-bit-major, then outcome index
ascending: the bit for (player j, own input v, outcome string s) sits at
position ``(j*2 + v) * 2^m + s``. Outcome strings are indexed with the first
copy's bit most significant.

An adaptive two-copy protocol queries box 1 with the original inputs; each
player computes her box-2 input from (own input, own box-1 output) and her
final output from (own input, box-1 output, box-2 output). Encoding per
player: 12 bits, box-2 input map at bits 0-3 (index ``v*2 + o1``), output
map at bits 4-11 (index ``v*4 + o1*2 + o2``); Alice occupies bits 0-11,
Bob bits 12-23. Equivalently, on each branch ``v*2 + o1`` a player has the
behavior ``u | F(o2=0) << 1 | F(o2=1) << 2`` (box-2 input u, output map F),
and pack_adaptive_player lays the four behaviors out in those 12 bits.

Application is by exact summation over every intermediate outcome, so the
results are oracle-grade. Two kernels wire stacks p[..., 4, 4] of boxes in
one pass: wire_nonadaptive sums all 4^m joint outcomes per input copy by
copy, in O(m 2^m) operations, and wire_adaptive adds each output cell's 16
products in a fixed order. Each kernel checks the stack it returns and raises
VerificationFailed if a box fails validation (a local wiring of valid boxes
cannot create signalling); its inputs are the caller's to check.
apply_nonadaptive and apply_adaptive pass them a stack of one and validate
each distinct input box first (InvalidBox).

Two closed forms give protocol values on the symmetric family without
wiring a box: or_value(alpha, beta, delta, eps) for the two-copy OR
protocol, and adaptive_value(delta, eps, combination) for the adaptive
protocol, whose free parameters enter only through one combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boxes import (
    BipartiteBox,
    CorrelatorForm,
    make_named_box,
    require_valid,
    require_valid_stack,
)
from .errors import ArityMismatch, FormatError, VerificationFailed
from .xorboxes import _popcounts


@dataclass(frozen=True)
class NonAdaptiveProtocol:
    """Per-player, per-own-input boolean output tables over m outcome bits.

    tables[j][v][s] is player j's output bit on outcome string s when her
    input bit is v.
    """

    n: int
    m: int
    tables: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if self.n < 2 or self.m < 1:
            raise ValueError(f"need n >= 2, m >= 1; got n={self.n}, m={self.m}")
        if len(self.tables) != self.n:
            raise ValueError(f"need one table pair per player, got {len(self.tables)}")
        for pair in self.tables:
            if len(pair) != 2 or any(len(t) != 1 << self.m for t in pair):
                raise ValueError(f"each player needs two tables of 2^{self.m} bits")
            try:
                bits = all({0, 1}.issuperset(t) for t in pair)
            except TypeError:  # an unhashable entry is no bit either
                bits = False
            if not bits:
                raise ValueError("table entries must be bits")

    @property
    def encoding_bits(self) -> int:
        return self.n * 2 * (1 << self.m)

    def encode(self) -> int:
        """Canonical packed-integer encoding (tie-break key for searches)."""
        bits = [bit for pair in self.tables for table in pair for bit in table]
        return sum(bit << i for i, bit in enumerate(bits))

    @classmethod
    def decode(cls, n: int, m: int, packed: int) -> "NonAdaptiveProtocol":
        block = 1 << m
        if packed < 0 or packed >> (n * 2 * block):
            raise FormatError(f"encoding out of range for n={n}, m={m}: {packed}")
        # table 2j + v starts at bit (2j + v) * 2^m
        tables = [tuple(packed >> (t * block + s) & 1 for s in range(block)) for t in range(2 * n)]
        return cls(n, m, tuple(zip(tables[0::2], tables[1::2])))

    def is_input_free(self) -> bool:
        return all(pair[0] == pair[1] for pair in self.tables)


def parity_protocol(n: int, m: int) -> NonAdaptiveProtocol:
    """Every player outputs the XOR of her m outcome bits, input-independent."""
    table = tuple((_popcounts(m) & 1).tolist())
    return NonAdaptiveProtocol(n, m, tuple(((table, table),) * n))


def or_protocol() -> NonAdaptiveProtocol:
    """Two players, two copies; each outputs the OR of her two bits."""
    table = tuple(1 if s else 0 for s in range(4))
    return NonAdaptiveProtocol(2, 2, ((table, table), (table, table)))


@dataclass(frozen=True)
class AdaptiveTwoCopyProtocol:
    """One-round adaptive wiring over two bipartite boxes.

    Per player: box2map[v*2 + o1] is the box-2 input bit, outmap[v*4 + o1*2
    + o2] the final output bit.
    """

    box2map_a: tuple[int, int, int, int]
    outmap_a: tuple[int, int, int, int, int, int, int, int]
    box2map_b: tuple[int, int, int, int]
    outmap_b: tuple[int, int, int, int, int, int, int, int]

    def __post_init__(self) -> None:
        for name, size in (("box2map_a", 4), ("box2map_b", 4), ("outmap_a", 8), ("outmap_b", 8)):
            bits = getattr(self, name)
            if len(bits) != size or any(bit not in (0, 1) for bit in bits):
                raise ValueError(f"{name} must hold {size} bits, got {bits!r}")

    def encode(self) -> int:
        bits = self.box2map_a + self.outmap_a + self.box2map_b + self.outmap_b
        return sum(bit << i for i, bit in enumerate(bits))

    @classmethod
    def decode(cls, packed: int) -> "AdaptiveTwoCopyProtocol":
        if packed < 0 or packed >> 24:
            raise FormatError(f"adaptive encoding out of range: {packed}")
        bits = tuple(packed >> i & 1 for i in range(24))
        return cls(bits[:4], bits[4:12], bits[12:16], bits[16:])


def pack_adaptive_player(behaviors):
    """A player's 12-bit block from her behaviors on branches v*2 + o1 = 0..3.

    Arrays of behaviors work elementwise.
    """
    block = 0
    for branch, beh in enumerate(behaviors):
        block = block | (beh & 1) << branch | (beh >> 1 & 3) << (4 + 2 * branch)
    return block


def identity_wiring() -> AdaptiveTwoCopyProtocol:
    """Box-2 input = own input, final output = box-1 output: returns box 1."""
    ident_b2 = (0, 0, 1, 1)  # u(v, o1) = v
    ident_out = (0, 0, 1, 1, 0, 0, 1, 1)  # F(v, o1, o2) = o1
    return AdaptiveTwoCopyProtocol(ident_b2, ident_out, ident_b2, ident_out)


def parity_as_adaptive() -> AdaptiveTwoCopyProtocol:
    """Box-2 input = own input, output = XOR of both box outputs."""
    ident_b2 = (0, 0, 1, 1)
    xor_out = (0, 1, 1, 0, 0, 1, 1, 0)  # F(v, o1, o2) = o1 xor o2
    return AdaptiveTwoCopyProtocol(ident_b2, xor_out, ident_b2, xor_out)


def bs_wiring() -> AdaptiveTwoCopyProtocol:
    """The two-copy wiring that distills isotropic boxes.

    Box-2 input = own input AND box-1 output; final output = XOR of both box
    outputs. On isotropic boxes it produces bs_output_box(delta).
    """
    and_b2 = (0, 0, 0, 1)  # u(v, o1) = v and o1
    xor_out = (0, 1, 1, 0, 0, 1, 1, 0)
    return AdaptiveTwoCopyProtocol(and_b2, xor_out, and_b2, xor_out)


def wire_nonadaptive(ps: Sequence[np.ndarray], proto: NonAdaptiveProtocol) -> np.ndarray:
    """The non-adaptive wiring of m stacks of boxes p_c[..., 4, 4].

    Per input, each copy's 2x2 outcome matrix turns one of Bob's outcome bits
    into Alice's; Alice's output indicator closes the sum, in O(m 2^m). The
    inputs are not checked; an invalid output raises VerificationFailed.
    """
    # indicator[v, o, s] = 1 where the player's output on input v, string s is o;
    # integers, so the output takes the dtype of the boxes
    g, h = (np.array(proto.tables[j]) for j in (0, 1))
    ind_a, ind_b = np.stack([1 - g, g], axis=1), np.stack([1 - h, h], axis=1)
    # t[..., xy, b, s] over Bob's strings s (its last two axes read as one); copy
    # by copy, the leading bit b_c is summed against p_c(a_c b_c | xy) and a_c
    # appended as the last bit, so s ends as Alice's string, first copy first.
    t = ind_b[[0, 1, 0, 1], ..., None]
    for p in ps:
        q = p.reshape(*p.shape[:-1], 2, 2)  # [..., xy, a_c, b_c]
        t = np.einsum("...nkbr,...nab->...nkra", t.reshape(*t.shape[:-2], 2, -1), q)
    out = np.einsum("nas,...nbs->...nab", ind_a[[0, 0, 1, 1]], t.reshape(*t.shape[:-2], -1))
    message = "non-adaptive wiring produced an invalid box"
    return require_valid_stack(out.reshape(*out.shape[:-2], 4), message, VerificationFailed)


def apply_nonadaptive(
    boxes: "BipartiteBox | Sequence[BipartiteBox]",
    proto: NonAdaptiveProtocol,
) -> BipartiteBox:
    """Wire m (not necessarily identical) bipartite boxes non-adaptively.

    Every copy is queried with the original input pair; the output is
    wire_nonadaptive's exact sum over all 4^m joint outcomes.
    """
    if proto.n != 2:
        raise ArityMismatch("bipartite wiring needs an n=2 protocol")
    box_list = [boxes] * proto.m if isinstance(boxes, BipartiteBox) else list(boxes)
    if len(box_list) != proto.m:
        raise ArityMismatch(f"protocol expects {proto.m} boxes, got {len(box_list)}")
    for b in {id(b): b for b in box_list}.values():
        require_valid(b, "input box fails validation")
    return BipartiteBox(wire_nonadaptive([b.p for b in box_list], proto))


# wire_adaptive's 64 terms (xy, a1, b1, a2, b2) in summation order: the box-1
# entry each reads, and its bits of box2map_a, outmap_a, box2map_b, outmap_b.
_ROW, _A1, _B1, _A2, _B2 = np.indices((4, 2, 2, 2, 2)).reshape(5, -1)
_FIRST, _SECOND, _X, _Y = _ROW * 4 + (_A1 << 1 | _B1), _A2 << 1 | _B2, _ROW >> 1, _ROW & 1
_MAPS = np.stack([_X * 2 + _A1, 4 + _X * 4 + _A1 * 2 + _A2,  # box2map_a, outmap_a
                  12 + _Y * 2 + _B1, 16 + _Y * 4 + _B1 * 2 + _B2])  # box2map_b, outmap_b


def wire_adaptive(p1: np.ndarray, p2: np.ndarray, proto) -> np.ndarray:
    """The adaptive wiring of two stacks p1, p2 of one shape [..., 4, 4].

    proto is one AdaptiveTwoCopyProtocol for every box, or a sequence of one
    per box. Each output cell adds its products p1 * p2 in (a1, b1, a2, b2) order.
    The inputs are not checked; an invalid output raises VerificationFailed.
    """
    protos = [proto] if isinstance(proto, AdaptiveTwoCopyProtocol) else proto
    bits = np.array([q.box2map_a + q.outmap_a + q.box2map_b + q.outmap_b for q in protos])
    u, f, v, g = np.moveaxis(bits[:, _MAPS], 1, 0)  # each [protocol, term]
    flat1, flat2 = p1.reshape(-1, 16), p2.reshape(-1, 16)
    box = np.arange(len(flat1))[:, None]
    out = np.zeros_like(flat1)
    terms = flat1[:, _FIRST] * flat2[box, (u << 1 | v) * 4 + _SECOND]
    np.add.at(out, (box, _ROW * 4 + (f << 1 | g)), terms)
    message = "adaptive wiring produced an invalid box"
    return require_valid_stack(out.reshape(p1.shape), message, VerificationFailed)


def apply_adaptive(
    box1: BipartiteBox,
    box2: BipartiteBox,
    proto: AdaptiveTwoCopyProtocol,
) -> BipartiteBox:
    """Wire two boxes adaptively, summing the 16 intermediate outcomes exactly."""
    for b in {id(b): b for b in (box1, box2)}.values():
        require_valid(b, "input box fails validation")
    return BipartiteBox(wire_adaptive(box1.p, box2.p, proto))


def bs_output_box(delta: float) -> BipartiteBox:
    """The distillate of bs_wiring on two isotropic boxes, as a literal matrix.

    Rows 00, 01, 10: (1+d^2, 1-d^2, 1-d^2, 1+d^2)/4; row 11:
    ((2-d^2-d)/2, (2+d^2+d)/2, (2+d^2+d)/2, (2-d^2-d)/2)/4.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    d2 = delta * delta
    plain = np.array([1 + d2, 1 - d2, 1 - d2, 1 + d2]) / 4.0
    last = np.array(
        [(2 - d2 - delta) / 2, (2 + d2 + delta) / 2, (2 + d2 + delta) / 2, (2 - d2 - delta) / 2]
    ) / 4.0
    return BipartiteBox(np.vstack([plain, plain, plain, last]))


def or_value(alpha, beta, delta, eps):
    """Two-copy OR-protocol value on the symmetric family; arrays broadcast.

    On each input the OR outputs' correlator is 4 q^2 - 2 m_A - 2 m_B + 1:
    q is one copy's probability of both outcomes 0, and m_A, m_B are each
    player's probability of output 0, her squared probability of outcome 0.
    The input-1 squared marginal m1 (Bob's in e_01) cancels out of
    e_00 + 2 e_01 - e_11: the two e_01 carry -4 m1 and -e_11 carries +4 m1.
    It stays in the float arithmetic anyway, since dropping it changes the
    rounding of the result and so the printed scan bytes.
    """
    # the squared marginals (1 + alpha) / 2 and (1 + beta) / 2
    m0, m1 = ((1 + alpha) / 2) ** 2, ((1 + beta) / 2) ** 2
    e_00 = 4 * ((1 + 2 * alpha + delta) / 4) ** 2 - 4 * m0 + 1
    e_01 = 4 * ((1 + alpha + beta + delta) / 4) ** 2 - 2 * m0 - 2 * m1 + 1
    e_11 = 4 * ((1 + 2 * beta + eps) / 4) ** 2 - 4 * m1 + 1
    return e_00 + 2 * e_01 - e_11


def adaptive_value(delta, eps, combination):
    """Adaptive two-copy closed form on the symmetric family; arrays broadcast.

    The box has correlators (delta, delta, delta, eps). The closed form's
    free parameters (a, b, c, d), from Allcock et al., PRA 80, 062107 (2009),
    enter only as `combination` = b - a + 2 d.
    """
    return 0.25 * (
        11 * delta * delta + 2 * delta - 2 * eps * delta - 2 * eps - eps * eps
        + combination * (delta - eps)
    )


def symmetric_box(alpha: float, beta: float, delta: float, eps: float) -> CorrelatorForm:
    """Correlator form of the symmetric family (alpha=gamma, beta=omega, d1=d2=d3)."""
    return make_named_box("symmetric", alpha=alpha, beta=beta, delta=delta, eps=eps)
