"""Exhaustive protocol searches, parameter-plane scans, and reference tables.

Search classes
--------------
Three protocol classes are searched exactly (no heuristics, no sampling):

* non-adaptive input-free: every player applies one boolean table to her m
  outcome bits, the same table for both own-input values;
* non-adaptive input-dependent: one table per own-input value;
* adaptive two-copy: the AdaptiveTwoCopyProtocol class (4096 strategies per
  player, 4096^2 pairs).

Every search returns the exact class maximum (a Fraction, and its correctly
rounded float) and the achieving protocol of smallest canonical encoding
among all exact maximisers. One engine serves every class: with every
player but the last (whose block holds the highest encoding bits) fixed,
the value is linear in her +-1 output signs, so her best value on each
input is sum_s |v_s|, reached by setting bit s exactly where v_s < 0, her
smallest code (the infinity-to-one-norm step of Alon and Naor). A float
pass totals the rows of the other players' tables at once, one slot s at
a time; an exact pass evaluates again in integers only the rows within a
rigorous rounding bound of the float maximum, and breaks ties on those
exact values. _dyadic puts the box entries, binary floats, over one
power-of-two denominator per box, and a search reads its float weights,
its rounding bound and its integer width from those integers, once:
int64 where their l1 bounds every partial sum below 2^62, Python ints
otherwise. The non-adaptive copy weights are products over class strings,
one copy's output (bipartite) or its parity (XOR) per copy, gathered onto
the outcome tuples. Everything runs on the calling thread, one block after another.

In the input-dependent and three-player classes the float pass's second
axis (player A's input-1 table, or the middle player's) runs only over
orbit representatives under copy permutation and the complement of one
non-last player's whole output (40 of 256 tables at m = 3); in the
adaptive class, A's input-1 branch pair runs over representatives under
the complement of her final output on both inputs (32 of 64). Each
candidate is expanded to its whole orbit before the exact pass. These
symmetries fix every row's exact total, so the result, key included, is
that of the full enumeration (see _best_response_max).

adaptive_search_stack searches a stack of boxes p[n, 4, 4] in one pass of
each kind, every row carrying its box; each result is the one that box
alone gives, and adaptive_search_max is the stack of one.

Supported sizes: m <= 3 copies throughout (the protocol count doubles per
outcome bit; beyond three copies enumeration is out of scope), n in {2, 3}
players for input-free parity-bias boxes, n = 2 for everything else.

Parameter scans
---------------
region_scan sweeps the symmetric two-marginal family (marginals alpha on
input 0, beta on input 1, correlators (delta, delta, delta, eps)) and
reports, per grid cell: validity, the undistilled value V = 3*delta - eps,
the two-copy parity and OR values, the adaptive closed-form value, the
winning label, and whether the best value crosses the collapse threshold
4*sqrt(2/3) above which communication complexity becomes trivial. Values
are evaluated even at invalid cells; the `valid` flag marks them. The
labels are wirings: PARITY 6666, OR eeee (wirings.or_value) and A the
adaptive 668669 (wirings.adaptive_value at (alpha - beta) - 2*beta). A scan
result has len(), column(name) and write_csv(stream), and computes cells
only as they are read.

reproduce_tables recomputes the three reference tables this code base is
checked against and diffs every computed column against the frozen printed
values at the precision they were printed with (one mismatch class is
expected and documented: the third table's printed parity column).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .boxes import (
    VALIDITY_TOL,
    BipartiteBox,
    boxes_from_fields,
    chsh_values,
    require_valid,
    require_valid_stack,
)
from .errors import BudgetExceeded, UnknownKind, VerificationFailed
from .wirings import (
    AdaptiveTwoCopyProtocol,
    NonAdaptiveProtocol,
    adaptive_value,
    or_protocol,
    or_value,
    pack_adaptive_player,
    parity_protocol,
    symmetric_box,
    wire_adaptive,
    wire_nonadaptive,
)
from .xorboxes import MultipartiteXorBox, simulate_nonadaptive_xor

GRID_BUDGET = 10_000_000
MAX_COPIES = 3

CC_COLLAPSE_THRESHOLD = 4.0 * math.sqrt(2.0 / 3.0)

# First-stage rows per block of either pass (the float pass's in whole
# second-player tables of every box): the cap on their memory.
_CHUNK_ROWS = 1 << 14

_CHSH_SIGNS = (1, 1, 1, -1)


@dataclass(frozen=True)
class SearchResult:
    """Exact maximum of a protocol-class search.

    best_exact is the class maximum and best_value its correctly rounded
    float. best_protocol is the canonical packed encoding, the smallest
    among all exact maximisers; decode it with
    NonAdaptiveProtocol.decode(n, m, enc) or AdaptiveTwoCopyProtocol.decode(enc)
    according to class_name.
    """

    best_value: float
    best_protocol: int
    protocols_examined: int
    class_name: str
    n: int
    m: int
    best_exact: Fraction


def _sign_matrix(m: int) -> np.ndarray:
    """S[g, s] = (-1)^(bit s of g): all 2^(2^m) boolean tables as integer sign rows."""
    size = 1 << m
    g = np.arange(1 << size, dtype=np.int64)[:, None]
    return 1 - 2 * ((g >> np.arange(size)) & 1)


def _dyadic(x: np.ndarray) -> tuple:
    """(ints, dens) with x[k] == ints[k] / dens[k] exactly, per leading index k.

    ints holds Python ints, and dens[k] is the smallest power of two that
    puts every entry of x[k] over one denominator.
    """
    mant, exp = np.frexp(x)
    nums = np.ldexp(mant, 53).astype(np.int64)  # x == nums / 2^(53 - exp)
    zeros = np.frexp((nums & -nums).astype(float))[1] - 1  # trailing zero bits, -1 for 0
    k = np.where(nums == 0, 0, 53 - exp - zeros)  # x == odd / 2^k
    top = np.maximum(k.reshape(len(x), -1).max(1), 0)
    odd = (nums >> np.maximum(zeros, 0)).astype(object)
    return odd << (top.reshape((-1,) + (1,) * (x.ndim - 1)) - k), [1 << int(t) for t in top]


@functools.cache
def _class_index(n: int, m: int, k: int) -> np.ndarray:
    """index[s_1, ..., s_n]: each outcome tuple's class string, base k, first copy highest.

    A copy's class is its output, player j's bit at bit n - 1 - j (k = 2^n), or its parity (k = 2).
    """
    s, index = np.indices((1 << m,) * n), 0
    for c in range(m - 1, -1, -1):
        index = index * k + sum((s[j] >> c & 1) << (n - 1 - j) * (k > 2) for j in range(n)) % k
    index.flags.writeable = False  # the cache shares it
    return index


def _copy_weights(box, m: int):
    """(floats, ints, index, scale, l1): per input x, s_x * W_x on one copy's class strings.

    One copy's row has a weight per output class: p(ab|xy) per output (k = 4)
    for a bipartite box, (1 +- delta_x)/2^n per output parity (k = 2) for an
    XOR box; s_x is the game sign. W_x is its m-fold Kronecker power on the
    k^m class strings (first copy most significant), W_x[index] per outcome
    tuple. From one copy's integer rows over den, the smallest power of two,
    come the floats, their correctly rounded quotients, l1, the sum of all
    |W_x[index]| times scale = den^m, and the integers: int64 if l1 < 2^62,
    which bounds every partial sum an exact pass forms, else Python ints.
    """
    if isinstance(box, BipartiteBox):
        require_valid(box, "search input fails validation")
        n, k, signs = 2, 4, _CHSH_SIGNS
        (rows,), (den,) = _dyadic(box.p[None])
    elif isinstance(box, MultipartiteXorBox):
        n, k, signs = box.n, 2, [1 - 2 * f for f in box.game.f]
        (ds,), (den,) = _dyadic(box.delta_array()[None])
        # (1 + e * d) / 2^n with d = ds / den is (den + e * ds) / (den << n) at parity
        # e = +-1; some ds is odd if den > 1, so that reduces only when every delta is +-1
        rows = den + np.array([1, -1]) * ds[:, None]
        half = int(not (rows & 1).any())
        rows, den = rows >> half, den << n >> half
    else:
        raise TypeError(f"expected BipartiteBox or MultipartiteXorBox, got {type(box).__name__}")
    floats, l1 = (rows / den).astype(float), int((((np.abs(rows).sum(1) << n) // k) ** m).sum())
    if l1 < 1 << 62:
        rows = rows.astype(np.int64)
    digits = [np.arange(k**m) // k**c % k for c in range(m - 1, -1, -1)]
    weights = [[g * math.prod(row[d] for d in digits) for g, row in zip(signs, r)]
               for r in (floats, rows)]
    return weights[0], weights[1], _class_index(n, m, k), den**m, l1


def _respond(v, key):
    """The last player's best response to slot values v[branch, u, slot, row].

    On each branch she takes an alternative u of largest sum_slot |v|, with
    bit s set exactly where v_s < 0. Returns her totals and key(beh) of her
    smallest behaviors beh[branch, row] = u + len(u) * bits.
    """
    value = np.abs(v).sum(2)
    best = value.max(1)
    choices, slots = v.shape[1:3]
    beh = np.arange(choices)[:, None] + choices * ((v < 0) << np.arange(slots)[:, None]).sum(2)
    return best.sum(0), key(np.where(value == best[:, None], beh, choices << slots).min(1))


def _distinct(tables, contract):
    """contract(t) for each distinct table t, gathered back in the order of `tables`."""
    first, inverse = np.unique(tables, return_inverse=True)
    return contract(first)[inverse]


def _outer_totals(left, right, tables):
    """sum_branch max_u sum_slot |left[.., b] + right[.., a]| on the grid [b in tables, a].

    left and right are [branch, u, slot, table], summed one slot at a time.
    """
    total = 0
    for lb, rb in zip(left[..., tables, None], right[..., None, :]):
        sums = [sum(np.abs(l + r) for l, r in zip(lu, ru)) for lu, ru in zip(lb, rb)]
        total = total + np.maximum.reduce(sums)
    return total


def _rounding_bound(terms: int, roundings: int, l1: float) -> float:
    """A priori bound on the float error of one first-stage row's total.

    A row's total is a sum, through abs() and max() which add no error, of
    at most `terms` signed products whose exact absolute values sum to at
    most `l1`, and each float product already carries at most `roundings`
    relative rounding errors. In any summation order a term meets at most
    terms - 1 additions, so |fl(total) - total| <= gamma_k * l1 with
    k = terms + roundings and gamma_k = k*u / (1 - k*u), u = 2^-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, section 4). A product
    that underflows loses up to 2^-1075, absolute, instead. The bound is
    doubled to cover the rounding of its own arithmetic and of the
    candidate window.
    """
    k = terms + roundings
    gamma = k * 2.0**-53 / (1 - k * 2.0**-53)
    return 2 * (gamma * l1 + terms * roundings * 2.0**-1074)


@functools.cache
def _copy_symmetry(m: int) -> tuple:
    """(moved, reps) for the boolean tables of m outcome bits.

    moved[pi, t] is table t with its outcome strings' copies reordered by
    the pi-th permutation of the m copies. reps are the tables t equal to
    the smallest of moved[:, t] and their complements: one per orbit under
    copy permutation and complement (2, 6 and 40 at m = 1, 2 and 3).
    """
    size = 1 << m
    s = np.arange(size)
    tables = np.arange(1 << size)
    bits = tables[:, None] >> s & 1  # [t, s]
    moved = np.stack([
        (bits << sum((s >> c & 1) << d for d, c in enumerate(order))).sum(1)
        for order in itertools.permutations(range(m))
    ])
    reps = np.flatnonzero(tables == np.minimum(moved, moved ^ tables[-1]).min(0))
    moved.flags.writeable = reps.flags.writeable = False  # the cache shares them
    return moved, reps


def _orbit_rows(rows, moved, flip_first: bool):
    """Every row a + b * count in the orbits of `rows` (rows of the same form), ascending.

    A copy permutation moves both tables; the complement flips b, and a
    too if flip_first. The exact total of a row is the same on its whole
    orbit: the copies are identical, and the last player's best response
    flips with the complemented player's output.
    """
    count = moved.shape[1]
    a, b = moved[:, rows % count], moved[:, rows // count]
    hit = np.zeros(count * count, dtype=bool)
    for c in (0, count - 1):
        hit[(a ^ (c if flip_first else 0)) + (b ^ c) * count] = True
    return np.flatnonzero(hit)


def _best_response_max(block, grid, exact_rows, scales, errs, orbit) -> list:
    """Exact class maximum and its smallest packed key per box of a stack, in two passes.

    Row r = a + b * first of grid = (seconds, first) fixes every player's
    tables but the last's, in box k's rows r + k * first^2; seconds lists
    the b the float pass runs over. Float pass: block(tables) gives the
    [(box,) b, a] row totals under the last player's best response for b in
    tables, in blocks set by the grid and the box count. Exact pass:
    exact_rows(rows) gives the totals of rows near their box's float
    maximum in integers (scales[k] times box k's exact values) and their
    keys with her smallest best response, _CHUNK_ROWS rows at a time.
    errs[k] bounds the float error of box k's totals.

    Where seconds holds only orbit representatives, orbit(rows) gives the
    whole orbits of rows, ascending, under a group that fixes every row's
    box and exact total; else orbit is the identity. That is still exact:
    every exact maximiser has an image on the grid with the same exact
    total, so within err of the float maximum and a candidate; its orbit
    brings it back, and the exact pass takes the same maximum and the same
    smallest key over the same set.
    """
    seconds, first = grid
    step = max(1, _CHUNK_ROWS // (first * len(scales)))
    approx = np.concatenate(
        [block(seconds[lo : lo + step]) for lo in range(0, len(seconds), step)], axis=-2
    ).reshape(len(scales), -1)
    top = approx.max(1)
    # every total is within err of its float value, so every exact
    # maximiser is within 2*err of the float maximum
    box, near = np.nonzero(approx >= (top - 2 * np.asarray(errs))[:, None])
    rows = orbit(near % first + (seconds[near // first] + box * first) * first)
    chunks = np.split(rows, range(_CHUNK_ROWS, len(rows), _CHUNK_ROWS))
    totals, keys = map(np.concatenate, zip(*map(exact_rows, chunks)))
    starts = np.searchsorted(rows, np.arange(len(scales)) * first**2)
    best = np.maximum.reduceat(totals, starts)
    keys = np.minimum.reduceat(np.where(totals == best[rows // first**2], keys, 1 << 62), starts)
    found = [(Fraction(int(b), scale), int(key)) for b, scale, key in zip(best, scales, keys)]
    for (exact, _), t, err in zip(found, top.tolist(), errs):
        if not abs(exact - Fraction(t)) <= err:
            raise VerificationFailed(
                f"exact maximum {float(exact)!r} lies beyond {err:.3g} of the float maximum {t!r}"
            )
    return found


def _replayed(result: SearchResult, replay: float) -> SearchResult:
    """The result, once the value its protocol replays to agrees with it."""
    if not abs(replay - result.best_value) <= 1e-9:
        raise VerificationFailed(
            f"replay of the best protocol gives {replay!r}, search found {result.best_value!r}"
        )
    return result


def enumerate_nonadaptive_max(box, m: int, input_dependent: bool = False) -> SearchResult:
    """Exact maximum value over a non-adaptive protocol class.

    `box` is a BipartiteBox (CHSH-style objective) or a MultipartiteXorBox
    (its game's objective); all m copies are identical. Ties are broken on
    exact values, by the smallest canonical protocol encoding.
    """
    # m is checked before it sizes anything: 1 << (1 << m) fails for m < 0
    # and grows doubly exponentially
    if m < 1:
        raise ValueError(f"need at least one copy, got m={m}")
    if m > MAX_COPIES:
        raise BudgetExceeded(f"enumeration beyond {MAX_COPIES} copies is out of scope (m={m})")
    n = 2 if isinstance(box, BipartiteBox) else box.n
    if input_dependent and n != 2:
        raise BudgetExceeded("input-dependent enumeration is implemented for two players")
    if n > 3:
        raise BudgetExceeded(f"enumeration for n={n} players is out of scope")
    examined = (1 << (1 << m)) ** (2 * n if input_dependent else n)
    class_name = "nonadaptive-input-dep" if input_dependent else "nonadaptive-input-free"
    floats, ints, index, scale, l1 = _copy_weights(box, m)
    size = 1 << m
    count = 1 << size
    smat = _sign_matrix(m)
    err = _rounding_bound(len(floats) * index.size, 2 * m, l1 / scale)
    if input_dependent:
        # K_xy = s_xy S W_xy in input order 2x + y, and v_y = K_0y[a_0] + K_1y[a_1]
        kernels = np.stack([(smat @ w[index]).T for w in floats])[:, None]  # [xy, -, slot, table]
        block = lambda tables: _outer_totals(kernels[2:], kernels[:2], tables)  # noqa: E731
        ints = np.stack(ints)[:, index].reshape(2, 2, size, size)  # [x, y, s_A, slot]

        def exact_rows(rows):
            v = sum(
                _distinct(tables, lambda t: np.tensordot(smat[t], ints[x], (1, 1)))
                for x, tables in enumerate((rows % count, rows // count))
            )
            # row r = a_0 | a_1 << size, the last player's tables above it
            key = lambda t: rows + (t[0] + (t[1] << size) << 2 * size)  # noqa: E731
            return _respond(v.transpose(1, 2, 0)[:, None], key)

    else:
        # the first player is contracted once for all her tables, then the
        # middle one (n = 3; else a single 1) one slot t at a time: kt[t, s_1, a_0]
        kt = np.tensordot(smat, sum(floats)[index], 1).T.reshape(size, -1, count).copy()
        middle = smat.astype(float) if n == 3 else np.ones((1, 1))
        block = lambda tables: sum(np.abs(middle[tables] @ k) for k in kt)  # noqa: E731
        weights = sum(ints)[index]  # summed on the class strings, then gathered

        def exact_rows(rows):
            v = _distinct(rows % count, lambda t: np.tensordot(smat[t], weights, 1))
            if n == 3:
                v = (smat[rows // count][:, None] @ v)[:, 0]
            # player j's table, the same on both inputs, at bit 2 * size * j
            first = rows % count + (rows // count << 2 * size)
            key = lambda t: (1 + count) * (first + (t[0] << 2 * size * (n - 1)))  # noqa: E731
            return _respond(v.T[None, None], key)

    reps, orbit = np.arange(1), lambda rows: rows  # noqa: E731
    if input_dependent or n == 3:
        # the second axis (a_1, or the middle player) runs over orbit
        # representatives under copy permutation and complement
        moved, reps = _copy_symmetry(m)
        orbit = lambda rows: _orbit_rows(rows, moved, input_dependent)  # noqa: E731
    [(exact, packed)] = _best_response_max(block, (reps, count), exact_rows, [scale], [err], orbit)
    proto = NonAdaptiveProtocol.decode(n, m, packed)
    if isinstance(box, BipartiteBox):  # _copy_weights validated the box
        replay = float(chsh_values(wire_nonadaptive([box.p] * m, proto)))
    else:
        replay = simulate_nonadaptive_xor(box, proto.tables, m)[0]
    return _replayed(SearchResult(float(exact), packed, examined, class_name, n, m, exact), replay)


# ------------------------------------------------------------------ adaptive


def _adaptive_kernels(p: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """M[key, 2y + b1, u, b2] for keys box * 128 + x * 64 + P_A, CHSH sign folded into x = y = 1.

    The first copy's weight times the second copy's expected sign product,
    on player A's input x, for her branch pair P_A = beh(a1=0) * 8 +
    beh(a1=1), player B's input y and first output b1, box-2 input u and
    box-2 output b2, in box p[box] of a stack. A branch behavior is beh =
    u_A | bit(a2=0) << 1 | bit(a2=1) << 2, with output sign (-1)^bit. p
    holds the box entries, as floats or as integers.
    """
    beh, box = np.arange(8), keys >> 7
    sign = 1 - 2 * ((beh[:, None] >> np.array([1, 2])) & 1)  # [beh, a2]
    second = p[:, ((beh & 1) << 1)[:, None] | np.arange(2)].reshape(-1, 8, 2, 2, 2)
    g = (sign[:, None, :, None] * second).sum(3)  # [box, beh, u, b2]
    halves = (g[box, keys >> 3 & 7], g[box, keys & 7])  # [key, u, b2]: P_A's behavior on a1 = 0, 1
    signed = np.array(_CHSH_SIGNS)[:, None, None] * p.reshape(-1, 4, 2, 2)  # [box, 2x + y, a1, b1]
    first = signed.reshape(-1, 2, 2, 2, 2)[box, keys >> 6 & 1]  # [key, y, a1, b1]
    kernels = sum(first[:, :, a1, :, None, None] * halves[a1][:, None, None] for a1 in (0, 1))
    return kernels.reshape(len(keys), 4, 2, 2)


def adaptive_search_stack(p: np.ndarray) -> list:
    """Exact maximum CHSH-style value over all adaptive two-copy wirings, per box of p[n, 4, 4].

    Both copies of each search are that box. A player's 12-bit block is the
    sum of her codes on the disjoint bits {0,1,4-7} (input 0) and
    {2,3,8-11} (input 1). The search enumerates player A's 64^2 branch
    pairs; player B answers each in closed form, so the 4096^2 class costs
    4096 rows. Ties are broken on exact values, by the smallest encoding.
    The float pass takes A's input-1 pair only up to P_A ^ 54, her final
    output complemented on both branches: with it complemented on both
    inputs, B's best response complements too, so every row's exact total
    is fixed. Returns one SearchResult per box.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 3 or p.shape[1:] != (4, 4):
        raise ValueError(f"expected a stack of 4x4 boxes, got shape {p.shape}")
    if not len(p):
        return []
    require_valid_stack(p, "search input fails validation")
    ints, dens = _dyadic(p)
    scales = [d * d for d in dens]
    # per row, 16 products p1*p2 on each of the four branches: with L = sum |ints|
    # and R the largest row's, L * R bounds them and every partial sum over scale
    row_l1 = np.abs(ints).sum(2)
    bounds = row_l1.sum(1) * row_l1.max(1)
    errs = _rounding_bound(64, 2, np.array([b / d for b, d in zip(bounds, scales)]))
    if max(bounds) < 1 << 62:
        ints = ints.astype(np.int64)
    kf = _adaptive_kernels(p, np.arange(128 * len(p))).reshape(-1, 2, 64, 4, 2, 2)
    kf = np.ascontiguousarray(kf.transpose(1, 3, 4, 5, 0, 2))  # [x, branch, u, b2, box, P_A]
    block = lambda tables: _outer_totals(kf[1], kf[0], tables)  # noqa: E731

    def exact_rows(rows):
        # the kernels of the distinct keys box * 128 + x * 64 + P_A among the rows
        r, base = rows & 4095, (rows >> 12) * 128
        keys = np.concatenate((base + r % 64, base + 64 + r // 64))
        k = _distinct(keys, lambda t: _adaptive_kernels(ints, t))
        # player B's branch 2y + b1 takes a box-2 input u, then her behavior
        # on it is u | bit(b2=0) << 1 | bit(b2=1) << 2
        v = np.moveaxis(k[: len(rows)] + k[len(rows) :], 0, -1)  # [branch, u, b2, row]
        a = pack_adaptive_player((r >> 3 & 7, r & 7, r >> 9, r >> 6 & 7))
        return _respond(v, lambda b: pack_adaptive_player(b) << 12 | a)

    # the representatives of P_A ^ 54 are the pairs without bit 5, so no row is its own image
    orbit = lambda rows: np.sort(np.concatenate((rows, rows ^ (54 | 54 << 6))))  # noqa: E731
    found = _best_response_max(block, (np.arange(32), 64), exact_rows, scales, errs, orbit)
    protos = [AdaptiveTwoCopyProtocol.decode(packed) for _, packed in found]
    replays = chsh_values(wire_adaptive(p, p, protos))
    return [
        _replayed(SearchResult(float(exact), packed, 4096 * 4096, "adaptive2", 2, 2, exact), replay)
        for (exact, packed), replay in zip(found, replays.tolist())
    ]


def adaptive_search_max(box: BipartiteBox) -> SearchResult:
    """adaptive_search_stack on the stack of one box."""
    return adaptive_search_stack(box.p[None])[0]


# ---------------------------------------------------------------- region scan


CSV_HEADER = "alpha,beta,delta,eps,valid,V,V_parity,V_OR,V_A_fit,winner,collapses_cc"

_LABEL_COLUMNS = {"PARITY": "V_parity", "OR": "V_OR", "A": "V_A_fit"}

# Cells computed, formatted and written at a time, so memory is O(chunk)
# whatever the grid; also the cap on each per-scan text table. On a
# 10^6-cell scan, 1024-cell chunks were a third slower; 16384- and
# 65536-cell chunks were no faster and raised peak RSS by 12 and 58 MB.
SCAN_CHUNK = 4096

_CODE_FIELDS = ("valid", "winner", "collapses_cc")  # the code axes of a text table, in order


class _Field(NamedTuple):
    """Adjacent CSV fields: one text table, or one column formatted per cell (table None)."""

    names: tuple
    table: np.ndarray | None  # over the grid axes then the code axes; length 1 where constant


class RegionScanResult:
    """Lazy scan result: len(), column(name) and write_csv(stream).

    One kernel (_chunk) computes the columns asked for, SCAN_CHUNK cells at
    a time, from the validated axes. Once per scan, write_csv formats each
    column that depends on only some axes over its own sub-grid: its
    broadcast shape on an open mesh of the axes (V and V_parity on
    (delta, eps), V_A_fit on (alpha, delta, eps) if beta tracks alpha).
    valid, winner and collapses_cc are code axes of those tables, and
    adjacent fields share one table while it stays within SCAN_CHUNK
    cells. Each chunk is one % template: a row of %.12g (per-cell columns)
    and %s (table entries, gathered by index) fields, repeated once per
    cell. Memory is one chunk plus tables of at most SCAN_CHUNK cells.
    column() computes one column chunk by chunk and keeps nothing.
    """

    def __init__(self, axes: dict, protocols: tuple) -> None:
        self._tracked_beta = axes["beta"] is None
        self._axes = [axes["alpha"]] + ([] if self._tracked_beta else [axes["beta"]])
        self._axes += [axes["delta"], axes["eps"]]
        self._shape = tuple(len(ax) for ax in self._axes)
        self._len = math.prod(self._shape)
        self._protocols = protocols
        self._labels = np.array(("none",) + protocols, dtype=object)
        self._layout: list | None = None

    def __len__(self) -> int:
        return self._len

    def column(self, name: str) -> np.ndarray:
        """One full column; "winner" holds the labels, not their codes."""
        col = np.concatenate([self._chunk(lo, hi, [name])[1][name] for lo, hi in self._bounds()])
        return self._labels[col].astype(str) if name == "winner" else col

    def _bounds(self) -> list:
        return [(i, min(i + SCAN_CHUNK, self._len)) for i in range(0, self._len, SCAN_CHUNK)]

    def _cells(self, per_axis) -> tuple:
        """(alpha, beta, delta, eps) from one array per grid axis."""
        per_axis = tuple(per_axis)
        return per_axis[:1] + per_axis if self._tracked_beta else per_axis

    def _mesh(self, counts) -> tuple:
        """_cells of an open mesh of the first counts[k] values of each axis k."""
        ndim = len(self._axes)
        return self._cells(
            ax[:n].reshape([-1 if j == k else 1 for j in range(ndim)])
            for k, (ax, n) in enumerate(zip(self._axes, counts))
        )

    def _value(self, name: str, a, bt, d, e) -> np.ndarray:
        """Axis or closed-form column `name` at cells (a, bt, d, e), arrays that broadcast."""
        if name == "V":
            return 3 * d - e
        if name == "V_parity":
            return 3 * d * d - e * e
        if name == "V_OR":
            return or_value(a, bt, d, e)
        if name == "V_A_fit":
            return adaptive_value(d, e, (a - bt) - 2 * bt)
        return {"alpha": a, "beta": bt, "delta": d, "eps": e}[name]

    def _chunk(self, lo: int, hi: int, names) -> tuple:
        """(grid indices, columns) of cells lo:hi; winner is a uint8 code into the labels.

        Computes the columns in `names`; with any code column, all three
        codes and the value columns they compare.
        """
        index = np.unravel_index(np.arange(lo, hi), self._shape)
        a, bt, d, e = cells = self._cells(ax[i] for ax, i in zip(self._axes, index))
        names = set(names)
        codes = not names.isdisjoint(_CODE_FIELDS)
        if codes:
            names |= {"V", *(_LABEL_COLUMNS[lb] for lb in self._protocols)}
        c = {name: self._value(name, *cells) for name in names.difference(_CODE_FIELDS)}
        if codes:
            entries = [  # the box entries times 4, each distinct one once
                1 + 2 * a + d, 1 - d, 1 - 2 * a + d,
                1 + a + bt + d, 1 + a - bt - d, 1 + bt - a - d, 1 - a - bt + d,
                1 + 2 * bt + e, 1 - e, 1 - 2 * bt + e,
            ]
            c["valid"] = np.minimum.reduce(entries) / 4.0 >= -VALIDITY_TOL
            stack = np.stack([c["V"]] + [c[_LABEL_COLUMNS[lb]] for lb in self._protocols])
            c["winner"] = stack.argmax(axis=0).astype(np.uint8)
            c["collapses_cc"] = c["valid"] & (stack.max(axis=0) > CC_COLLAPSE_THRESHOLD)
        return index, c

    def _text(self, name: str) -> np.ndarray | None:
        """Field `name` as a _Field table, or None if it is formatted per cell.

        A float column is tabled over its sub-grid, its broadcast shape on
        an open mesh, if that has fewer cells than the grid and at most
        SCAN_CHUNK.
        """
        ndim = len(self._shape)
        if name in _CODE_FIELDS:
            text = self._labels if name == "winner" else np.array(["false", "true"], dtype=object)
            return text.reshape((1,) * ndim + tuple(-1 if c == name else 1 for c in _CODE_FIELDS))
        probe = self._value(name, *self._mesh([2] * ndim)).shape
        sub = tuple(n if p > 1 else 1 for n, p in zip(self._shape, probe))
        if math.prod(sub) >= self._len or math.prod(sub) > SCAN_CHUNK:
            return None
        values = self._value(name, *self._mesh(sub)).ravel().tolist()
        return np.array([f"{v:.12g}" for v in values], dtype=object).reshape(sub + (1, 1, 1))

    def _fields(self) -> list:
        """The CSV row as _Fields, adjacent tables joined while within SCAN_CHUNK cells."""
        if self._layout is None:
            layout = [_Field((), None)]
            for name in CSV_HEADER.split(","):
                last, text = layout[-1], self._text(name)
                shapes = [t.shape for t in (last.table, text) if t is not None]
                if len(shapes) == 2 and math.prod(np.broadcast_shapes(*shapes)) <= SCAN_CHUNK:
                    layout[-1] = _Field(last.names + (name,), last.table + "," + text)
                else:
                    layout.append(_Field((name,), text))
            self._layout = layout[1:]
        return self._layout

    def write_csv(self, stream) -> None:
        """Header, then one line per cell, written chunk after chunk by one template."""
        fields = self._fields()
        names = [f.names[0] for f in fields if f.table is None] + list(_CODE_FIELDS)
        row = ",".join("%.12g" if f.table is None else "%s" for f in fields) + "\n"
        stream.write(CSV_HEADER + "\n")
        for lo, hi in self._bounds():
            index, c = self._chunk(lo, hi, names)
            coords = index + tuple(c[name].view(np.uint8) for name in _CODE_FIELDS)
            zero = np.zeros_like(index[0])
            flat = [None] * (len(fields) * (hi - lo))
            for j, f in enumerate(fields):
                if f.table is None:
                    col = c[f.names[0]]
                else:  # a table's length-1 axes are read at 0
                    col = f.table[tuple(i if n > 1 else zero for i, n in zip(coords, f.table.shape))]
                flat[j :: len(fields)] = col.tolist()
            stream.write(row * (hi - lo) % tuple(flat))


def _axis_range(name: str, spec) -> tuple:
    """(start, step, count) of a scalar axis (step None) or a (start, stop, step) range.

    count is a float taken from the quotient, inf where that overflows, so
    the grid budget is checked before any axis is built. A stop below the
    start by more than 1e-9 steps is an error.
    """
    scalar = np.isscalar(spec)
    values = [float(v) for v in ([spec] if scalar else spec)]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} axis values must be finite, got {spec!r}")
    if scalar:
        return values[0], None, 1.0
    start, stop, step = values
    if step <= 0:
        raise ValueError(f"{name} axis step must be positive, got {step}")
    quotient = (stop - start) / step + 1e-9
    if quotient < 0:
        raise ValueError(f"{name} axis stop {stop!r} lies below its start {start!r}")
    return start, step, math.floor(quotient) + 1.0 if quotient < math.inf else math.inf


def region_scan(grid: dict, protocols: Sequence[str] = ("PARITY", "OR")) -> RegionScanResult:
    """Sweep the symmetric box family over a parameter grid.

    `grid` maps "alpha", "beta", "delta", "eps" to a finite scalar or a
    (start, stop, step) range; omitting "beta" (or passing None) locks
    beta = alpha instead of forming a cross product. `protocols` lists the
    labels competing with the undistilled value for the winner column and
    the collapse flag, in tie-break order after "none": wirings PARITY 6666,
    OR eeee and adaptive A 668669 (V_A_fit, combination (alpha - beta) - 2*beta).

    Labels, axis names, axes and the grid budget are checked here, the
    budget before any axis is built. The returned result offers len(),
    column(name) and write_csv(stream); it computes cells a chunk at a time
    whenever they are read, and keeps none, cells ordered with alpha slowest
    and eps fastest.
    """
    for label in protocols:
        if label not in _LABEL_COLUMNS:
            raise UnknownKind(f"unknown protocol label {label!r}")
    for name in grid:
        if name not in ("alpha", "beta", "delta", "eps"):
            raise ValueError(f"grid has an unknown axis {name!r}")
    ranges = {}
    for name in ("alpha", "beta", "delta", "eps"):
        spec = grid.get(name)
        if spec is not None:
            ranges[name] = _axis_range(name, spec)
        elif name != "beta":
            raise ValueError(f"grid is missing the {name!r} axis")
    cells = math.prod(count for _, _, count in ranges.values())
    if cells > GRID_BUDGET:
        raise BudgetExceeded(f"{cells:.12g} grid cells exceed the {GRID_BUDGET} budget")
    axes = {"beta": None}
    for name, (start, step, count) in ranges.items():
        # a scalar keeps its sign: start + 0.0 would turn -0.0 into 0.0
        axes[name] = np.array([start]) if step is None else start + step * np.arange(int(count))
    return RegionScanResult(axes, tuple(protocols))


# ------------------------------------------------------------ reference tables


@dataclass(frozen=True)
class TableCheck:
    row: int
    column: str
    printed: str
    computed: float
    tolerance: float
    matches: bool


@dataclass(frozen=True)
class TableReport:
    which: int
    columns: tuple
    printed_rows: tuple
    computed_rows: tuple
    checks: tuple
    mismatches: tuple
    fitted_combinations: tuple


_TABLE1 = (
    ("delta", "eps", "a", "b", "c", "d", "V", "V_A"),
    ("1.00", "-0.70", "0.01", "0.01", "0.01", "0.01", "3.70", "3.8360"),
    ("1.00", "-0.70", "0.0", "0.0", "0.0", "0.0", "3.70", "3.8275"),
    ("0.92", "-0.22", "0.01", "0.01", "0.01", "0.01", "2.98", "2.9924"),
    ("0.92", "-0.22", "0.0", "0.0", "0.0", "0.0", "2.98", "2.9867"),
    ("0.917", "-0.22", "0.01", "0.01", "0.01", "0.01", "2.971", "2.97539"),
    ("0.917", "-0.22", "0.0", "0.0", "0.0", "0.0", "2.971", "2.96971"),
)

_TABLE2 = (
    ("eps_lo", "eps_hi", "alpha", "delta", "eps", "V", "V_parity", "V_OR", "V_A"),
    ("-0.04", "0.013", "0.26", "1.00", "0.01", "2.99", "2.9999", "3.00", "3.1112"),
    ("-0.20", "0.066", "0.30", "1.00", "0.01", "2.99", "2.9999", "3.04", "3.0914"),
    ("-0.30", "0.133", "0.35", "1.00", "0.01", "2.99", "2.9999", "3.09", "3.0667"),
    ("-0.20", "0.200", "0.40", "1.00", "0.01", "2.99", "2.9999", "3.14", "3.0419"),
    ("-0.10", "0.266", "0.45", "1.00", "0.01", "2.99", "2.9999", "3.19", "3.0172"),
    ("0.00", "0.333", "0.50", "1.00", "0.01", "2.99", "2.9999", "3.24", "2.9924"),
)

_TABLE3 = (
    ("alpha", "delta", "eps", "V", "V_parity", "V_A", "V_OR"),  # beta = alpha
    ("0.42", "0.99", "-0.16", "3.13", "2.9744", "3.101575", "3.2683"),
    ("0.41", "0.99", "-0.18", "3.15", "2.9676", "3.121425", "3.2735"),
    ("0.40", "0.99", "-0.20", "3.17", "2.9600", "3.141275", "3.2781"),
    ("0.39", "0.99", "-0.22", "3.19", "2.9516", "3.161125", "3.2821"),
    ("0.38", "0.99", "-0.24", "3.21", "2.9424", "3.180975", "3.2855"),
    ("0.37", "0.99", "-0.26", "3.23", "2.9324", "3.200825", "3.2883"),
    ("0.36", "0.99", "-0.28", "3.25", "2.9216", "3.220675", "3.2905"),
)


def _decimals(printed: str) -> int:
    return len(printed.split(".")[1]) if "." in printed else 0


def _check(row: int, column: str, printed: str, computed: float) -> TableCheck:
    tol = 10.0 ** (-_decimals(printed))
    return TableCheck(row, column, printed, computed, tol, abs(computed - float(printed)) < tol)


def _fitted_combination(v_a_printed: float, delta: float, eps: float) -> float:
    base = 11 * delta**2 + 2 * delta - 2 * eps * delta - 2 * eps - eps**2
    return (4 * v_a_printed - base) / (delta - eps)


def reproduce_tables(which: int, audit_adaptive: bool = False) -> TableReport:
    """Recompute one of the three frozen reference tables and diff it.

    Every computed column is checked against the printed value at its
    printed precision. Free closed-form parameters are reported per row as
    the fitted combination that reproduces the printed adaptive value; the
    computed adaptive value takes the combination b - a + 2 d from table 1's
    printed a, b, d, and -2*alpha (region_scan's at beta = alpha) in tables 2 and 3. With
    audit_adaptive=True, each row's box also gets an exact adaptive-class
    search, added to the computed rows as "V_search" (no printed
    counterpart).
    """
    tables = {1: _TABLE1, 2: _TABLE2, 3: _TABLE3}
    if which not in tables:
        raise UnknownKind(f"no reference table {which}")
    columns, *printed = tables[which]
    printed_rows = tuple(printed)

    checks: list[TableCheck] = []
    computed_rows = []
    fitted = []
    records = [dict(zip(columns, row)) for row in printed_rows]
    # every row's box: beta = alpha, and alpha = 0 in table 1
    params = [[float(r.get(k, 0)) for k in ("alpha", "alpha", "delta", "eps")] for r in records]
    fields = np.array([list(symmetric_box(*a).as_dict().values()) for a in params])
    p = require_valid_stack(boxes_from_fields(fields), "input box fails validation")
    distilled = {}
    if "alpha" in columns:  # every row's box, wired by PARITY and by OR as one stack each
        for column, proto in (("V_parity", parity_protocol(2, 2)), ("V_OR", or_protocol())):
            distilled[column] = chsh_values(wire_nonadaptive([p] * proto.m, proto))
    if audit_adaptive:  # each distinct row box searched once, all in one stack
        first = [params.index(a) for a in params]
        distinct = sorted(set(first))
        searched = dict(zip(distinct, adaptive_search_stack(p[distinct])))

    for i, rec in enumerate(records):
        delta, eps = float(rec["delta"]), float(rec["eps"])
        computed = {"V": 3 * delta - eps}
        alpha = params[i][0]
        computed.update((column, float(values[i])) for column, values in distilled.items())
        if "alpha" in rec:
            combination = -2 * alpha
        else:
            combination = float(rec["b"]) - float(rec["a"]) + 2.0 * float(rec["d"])
        if "eps_lo" in rec:
            computed["eps_lo"] = max(1 - 4 * alpha, 2 * alpha - 1)
            computed["eps_hi"] = (4 * alpha - 1) / 3
        computed["V_A"] = adaptive_value(delta, eps, combination)
        fitted.append(_fitted_combination(float(rec["V_A"]), delta, eps))
        if audit_adaptive:
            computed["V_search"] = searched[first[i]].best_value
        computed_rows.append(computed)
        checks.extend(
            _check(i, column, rec[column], computed[column])
            for column in columns
            if column in computed
        )

    all_checks = tuple(checks)
    return TableReport(
        which=which,
        columns=columns,
        printed_rows=printed_rows,
        computed_rows=tuple(computed_rows),
        checks=all_checks,
        mismatches=tuple(c for c in all_checks if not c.matches),
        fitted_combinations=tuple(fitted),
    )


def format_table_report(report: TableReport) -> str:
    lines = [f"reference table {report.which}"]
    for check in report.checks:
        status = "ok" if check.matches else "DIFF"
        lines.append(
            f"  row {check.row} {check.column}: printed {check.printed} "
            f"computed {check.computed:.12g} [{status}]"
        )
    for i, comb in enumerate(report.fitted_combinations):
        lines.append(f"  row {i} fitted free-parameter combination: {comb:.12g}")
    for i, computed in enumerate(report.computed_rows):
        if "V_search" in computed:
            lines.append(f"  row {i} adaptive-class search maximum: {computed['V_search']:.12g}")
    lines.append(f"  mismatches: {len(report.mismatches)}")
    return "\n".join(lines)
