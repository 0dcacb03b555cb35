"""Exhaustive protocol searches, parameter-plane scans, and reference tables.

Search classes
--------------
Three protocol classes are searched exactly (no heuristics, no sampling):

* non-adaptive input-free: every player applies one boolean table to her m
  outcome bits, the same table for both own-input values;
* non-adaptive input-dependent: one table per own-input value;
* adaptive two-copy: the AdaptiveTwoCopyProtocol class (4096 strategies per
  player, 4096^2 pairs).

All searches return the exact maximum over the class together with the
achieving protocol of smallest canonical encoding among those whose float
value equals the float maximum. The enumeration is algebraic: the two-player
classes share one chunked core that maximises sum_{x,y} K_xy[a_x, b_y] over
the players' per-input tables, with one kernel S(sum_x s_x W_x)S^T for the
input-free class, four S(s_xy W_xy)S^T for the input-dependent class and
four 64x64 branch-pair kernels for the adaptive one. The second player's
inputs never meet in one product, so her maxima are taken separately. Each
player's packed block is a sum of per-input codes on disjoint bits, so one
vectorised rule over those codes finds the smallest encoding. The
three-player class keeps its own einsum kernel. Worker chunks are fixed
independently of the thread count, so any `threads` value gives
bit-identical results.

Supported sizes: m <= 3 copies throughout (the protocol count doubles per
outcome bit; beyond three copies enumeration is out of scope), n in {2, 3}
players for input-free parity-bias boxes, n = 2 for everything else. The
protocol-pair budget is 2^32.

Parameter scans
---------------
region_scan sweeps the symmetric two-marginal family (marginals alpha on
input 0, beta on input 1, correlators (delta, delta, delta, eps)) and
reports, per grid cell: validity, the undistilled value V = 3*delta - eps,
the two-copy parity and OR values, the adaptive closed-form value, the
winning label, and whether the best value crosses the collapse threshold
4*sqrt(2/3) above which communication complexity becomes trivial. Values
are evaluated even at invalid cells; the `valid` flag marks them.

reproduce_tables recomputes the three reference tables this code base is
checked against and diffs every computed column against the frozen printed
values at the precision they were printed with (one mismatch class is
expected and documented: the third table's printed parity column).
"""

from __future__ import annotations

import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .boxes import (
    VALIDITY_TOL,
    BipartiteBox,
    box_from_correlators,
    chsh_value_of_box,
    validate_box,
)
from .errors import ArityMismatch, BudgetExceeded, InvalidBox, UnknownKind, VerificationFailed
from .wirings import (
    AdaptiveTwoCopyProtocol,
    AllcockParams,
    NonAdaptiveProtocol,
    apply_adaptive,
    apply_nonadaptive,
    apply_nonadaptive_xor,
    closed_form_values,
    or_value_simulated,
    symmetric_box,
)
from .xorboxes import MultipartiteXorBox

PROTOCOL_BUDGET = 1 << 32
GRID_BUDGET = 10_000_000
MAX_COPIES = 3

CC_COLLAPSE_THRESHOLD = 4.0 * math.sqrt(2.0 / 3.0)

# Cells one chunk of a two-player search adds up at once (16 MB of float64).
# Chunk bounds follow from the class alone, never from the thread count.
_CHUNK_CELLS = 1 << 21

_CHSH_SIGNS = (1.0, 1.0, 1.0, -1.0)


@dataclass(frozen=True)
class SearchResult:
    """Exact maximum of a protocol-class search.

    best_protocol is the canonical packed encoding (smallest among all
    achievers); decode it with NonAdaptiveProtocol.decode(n, m, enc) or
    AdaptiveTwoCopyProtocol.decode(enc) according to class_name.
    """

    best_value: float
    best_protocol: int
    protocols_examined: int
    class_name: str
    n: int
    m: int
    best_exact: Fraction | None = None


def _map_chunks(worker, chunks, threads: int) -> list:
    if threads <= 1:
        return [worker(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, chunks))


def _sign_matrix(m: int) -> np.ndarray:
    """S[g, s] = (-1)^(bit s of g): all 2^(2^m) boolean tables as sign rows."""
    size = 1 << m
    count = 1 << size
    g = np.arange(count, dtype=np.int64)[:, None]
    s = np.arange(size, dtype=np.int64)[None, :]
    return 1.0 - 2.0 * ((g >> s) & 1)


def _joint_weights(per_input: np.ndarray, m: int) -> list[np.ndarray]:
    """Per input pair, the 2^m x 2^m joint weight; per_input[row] is one copy's p(ab|xy)."""
    out = []
    for row in per_input:
        per_copy = row.reshape(2, 2)
        w = np.array([[1.0]])
        for _ in range(m):
            w = np.kron(w, per_copy)
        out.append(w)
    return out


def _input_weights_and_signs(box, m: int):
    """Split the box into per-input weight matrices plus game signs (n=2)."""
    if isinstance(box, BipartiteBox):
        report = validate_box(box)
        if not report.valid:
            raise InvalidBox(f"search input fails validation: {report.violations}")
        return _joint_weights(box.p, m), np.array(_CHSH_SIGNS)
    if isinstance(box, MultipartiteXorBox):
        if box.n != 2:
            raise ArityMismatch("per-input weights are a two-player construction")
        # the bipartite box with trivial marginals, rows in game order
        d = box.delta_array()[:, None]
        per_input = np.hstack([1 + d, 1 - d, 1 - d, 1 + d]) / 4.0
        return _joint_weights(per_input, m), box.game.signs().astype(float)
    raise TypeError(f"expected BipartiteBox or MultipartiteXorBox, got {type(box).__name__}")


def _check_budget(examined: int, m: int) -> None:
    if m < 1:
        raise ValueError(f"need at least one copy, got m={m}")
    if m > MAX_COPIES:
        raise BudgetExceeded(f"enumeration beyond {MAX_COPIES} copies is out of scope (m={m})")
    if examined > PROTOCOL_BUDGET:
        raise BudgetExceeded(f"{examined} protocols exceeds the 2^32 budget")


def _resimulate_nonadaptive(box, proto: NonAdaptiveProtocol) -> float:
    if isinstance(box, BipartiteBox):
        return chsh_value_of_box(apply_nonadaptive(box, proto))
    value, _ = apply_nonadaptive_xor(box, proto)
    return value


def _smallest_pair_code(r0, r1, best, codes0, codes1) -> np.ndarray:
    """Per row, the smallest codes0[b0] + codes1[b1] with r0[b0] + r1[b1] == best.

    A pair can round to best with an entry an ulp below its row maximum, so
    the first candidates of each input are checked as a pair, and rows
    where they fall short try every candidate pair.
    """
    c0 = (r0 + r1.max(-1)[:, None]) == best
    c1 = (r0.max(-1)[:, None] + r1) == best
    f0 = c0.argmax(-1)
    f1 = c1.argmax(-1)
    rows = np.arange(len(r0))
    code = codes0[f0] + codes1[f1]
    for i in np.flatnonzero(r0[rows, f0] + r1[rows, f1] != best):
        i0 = np.flatnonzero(c0[i])
        i1 = np.flatnonzero(c1[i])
        hit = (r0[i, i0][:, None] + r1[i, i1][None, :]) == best
        code[i] = (codes0[i0][:, None] + codes1[i1][None, :])[hit].min()
    return code


def _two_player_max(kernels, codes_a, codes_b, shift: int, threads: int):
    """Max of sum_{x,y} kernels[x][y][a_x, b_y] and its smallest packed key.

    a_x (b_y) is player A's (B's) table on own input x (y), with block code
    sum_x codes_a[x][a_x]; B's codes increase along the kernel columns. The
    key is (code_B << shift) + code_A, minimised over every choice whose
    float value equals the maximum.
    """
    rows = len(codes_a[0])
    per_row = math.prod(len(c) for c in codes_a[1:]) * max(len(c) for c in codes_b)
    step = max(1, _CHUNK_CELLS // per_row)
    chunks = [(i, min(i + step, rows)) for i in range(0, rows, step)]

    def worker(bounds):
        lo, hi = bounds
        values = []
        for y in range(len(codes_b)):
            v = kernels[0][y][lo:hi]  # [a_0, b_y]
            if len(kernels) == 2:
                v = v[:, None, :] + kernels[1][y][None, :, :]  # [a_0, a_1, b_y]
            values.append(v)
        total = values[0].max(-1)
        if len(values) == 2:
            total = total + values[1].max(-1)
        best = total.max()
        at = np.nonzero(total == best)
        code_a = sum(c[i] for c, i in zip(codes_a, (at[0] + lo,) + at[1:]))
        if len(values) == 1:
            # argmax returns the first maximum, the smallest code
            code_b = codes_b[0][values[0][at].argmax(-1)]
        else:
            code_b = _smallest_pair_code(values[0][at], values[1][at], best, *codes_b)
        return best, int(((code_b << shift) + code_a).min())

    results = _map_chunks(worker, chunks, threads)
    best = max(mx for mx, _ in results)
    return float(best), min(key for mx, key in results if mx == best)


def _search_input_free_three(xbox: MultipartiteXorBox, m: int, threads: int):
    from .fourier import weight_table

    size = 1 << m
    count = 1 << size
    smat = _sign_matrix(m)
    z = np.arange(size, dtype=np.int64)
    had = 1.0 - 2.0 * np.array(
        [[bin(zz & ss).count("1") & 1 for zz in range(size)] for ss in range(size)]
    )
    spectra = (smat @ had) / size  # [g, z]
    delta = xbox.delta_array()
    signs = xbox.game.signs()
    powers = delta[:, None] ** weight_table(m)[None, :]
    t_by_z = signs @ powers  # T_|z| per z
    chunk_rows = 16
    chunks = [(i, min(i + chunk_rows, count)) for i in range(0, count, chunk_rows)]

    def worker(bounds):
        lo, hi = bounds
        block = np.einsum(
            "az,bz,cz,z->abc", spectra[lo:hi], spectra, spectra, t_by_z, optimize=True
        )
        mx = block.max()
        # the third player owns the highest bits of the packing
        gs, hs, ks = np.nonzero(block == mx)
        key = ((code[ks] << (4 * size)) + (code[hs] << (2 * size)) + code[gs + lo]).min()
        return mx, int(key)

    tables = np.arange(count, dtype=np.int64)
    code = tables | tables << size
    results = _map_chunks(worker, chunks, threads)
    best = max(mx for mx, _ in results)
    return float(best), min(key for mx, key in results if mx == best)


def _exact_input_free_two(box, m: int) -> tuple[Fraction, int]:
    """Rational oracle over the n=2 input-free class, m <= 2: (max, packed achiever)."""
    if isinstance(box, BipartiteBox):
        per_input = [
            [[Fraction(float(box.p[row, (a << 1) | b])) for b in (0, 1)] for a in (0, 1)]
            for row in range(4)
        ]
        signs = [Fraction(int(s)) for s in (1, 1, 1, -1)]
    else:
        per_input = []
        for delta in box.delta:
            d = Fraction(float(delta))
            per_input.append(
                [[(1 + d) / 4, (1 - d) / 4], [(1 - d) / 4, (1 + d) / 4]]
            )
        signs = [Fraction(int(s)) for s in box.game.signs()]
    size = 1 << m
    count = 1 << size
    weights = []
    for px in per_input:
        w = {(0, 0): Fraction(1)}
        for _ in range(m):
            nxt = {}
            for (sa, sb), wt in w.items():
                for a in (0, 1):
                    for b in (0, 1):
                        nxt[(sa << 1 | a, sb << 1 | b)] = wt * px[a][b]
            w = nxt
        weights.append(w)
    sign_of = [[1 - 2 * ((g >> s) & 1) for s in range(size)] for g in range(count)]
    best = None
    packed = None
    for h in range(count):
        for g in range(count):
            total = Fraction(0)
            for sx, w in zip(signs, weights):
                acc = Fraction(0)
                for (sa, sb), wt in w.items():
                    acc += wt * (sign_of[g][sa] * sign_of[h][sb])
                total += sx * acc
            if best is None or total > best:
                best, packed = total, (g | g << size) | (h | h << size) << (2 * size)
    return best, packed


def enumerate_nonadaptive_max(
    box,
    m: int,
    input_dependent: bool = False,
    threads: int = 1,
    exact: bool = False,
) -> SearchResult:
    """Exact maximum value over a non-adaptive protocol class.

    `box` is a BipartiteBox (CHSH-style objective) or a MultipartiteXorBox
    (its game's objective); all m copies are identical. Ties are broken by
    the smallest canonical protocol encoding. With exact=True (n=2, m <= 2,
    input-free) the search is repeated in rational arithmetic and the
    rational result is returned, certifying the floating-point one.
    """
    n = 2 if isinstance(box, BipartiteBox) else box.n
    per_player_functions = 1 << (1 << m)
    if input_dependent:
        examined = per_player_functions ** (2 * n)
        class_name = "nonadaptive-input-dep"
    else:
        examined = per_player_functions**n
        class_name = "nonadaptive-input-free"
    _check_budget(examined, m)

    if input_dependent and n != 2:
        raise BudgetExceeded("input-dependent enumeration is implemented for two players")
    if n == 2:
        weights, signs = _input_weights_and_signs(box, m)
        size = 1 << m
        smat = _sign_matrix(m)
        tables = np.arange(1 << size, dtype=np.int64)
        if input_dependent:
            # per-input kernels with the game signs folded in, x-major
            k = [smat @ (s * w) @ smat.T for s, w in zip(signs, weights)]
            kernels = [[k[0], k[1]], [k[2], k[3]]]
            codes = (tables, tables << size)
        else:
            core = np.zeros((size, size))
            for s, w in zip(signs, weights):
                core = core + s * w
            kernels = [[(smat @ core) @ smat.T]]
            codes = (tables | tables << size,)
        value, packed = _two_player_max(kernels, codes, codes, 2 * size, threads)
    elif n == 3:
        if not isinstance(box, MultipartiteXorBox):
            raise ArityMismatch("three-player search needs a parity-bias box")
        value, packed = _search_input_free_three(box, m, threads)
    else:
        raise BudgetExceeded(f"enumeration for n={n} players is out of scope")

    if exact:
        if input_dependent or n != 2 or m > 2:
            raise ValueError("exact mode covers the two-player input-free class with m <= 2")
        frac, packed = _exact_input_free_two(box, m)
        exact_value = float(frac)
        if abs(exact_value - value) > 1e-9:
            raise VerificationFailed(
                f"rational oracle {exact_value} disagrees with float search {value}"
            )
        value = exact_value
        result = SearchResult(value, packed, examined, class_name, n, m, best_exact=frac)
    else:
        result = SearchResult(value, packed, examined, class_name, n, m)

    proto = NonAdaptiveProtocol.decode(n, m, result.best_protocol)
    replay = _resimulate_nonadaptive(box, proto)
    if not abs(replay - result.best_value) <= 1e-9:
        raise VerificationFailed(
            f"replay of the best protocol gives {replay!r}, search found {result.best_value!r}"
        )
    return result


# ------------------------------------------------------------------ adaptive


def _adaptive_kernel(box2: BipartiteBox) -> np.ndarray:
    """G[behA, behB]: expected output-sign product of the second box.

    A branch behavior is (u, t0, t1): the box-2 input bit and the output
    signs for box-2 outcome 0/1, indexed beh = u | bit0<<1 | bit1<<2 with
    sign t_o2 = (-1)^bit_o2.
    """
    g = np.zeros((8, 8))
    for beh_a in range(8):
        ua = beh_a & 1
        sa = (1 - 2 * ((beh_a >> 1) & 1), 1 - 2 * ((beh_a >> 2) & 1))
        for beh_b in range(8):
            ub = beh_b & 1
            sb = (1 - 2 * ((beh_b >> 1) & 1), 1 - 2 * ((beh_b >> 2) & 1))
            row = box2.p[(ua << 1) | ub]
            acc = 0.0
            for a2 in (0, 1):
                for b2 in (0, 1):
                    acc += sa[a2] * sb[b2] * row[(a2 << 1) | b2]
            g[beh_a, beh_b] = acc
    return g


def _adaptive_q_matrices(box1: BipartiteBox, g: np.ndarray, pairs: np.ndarray) -> list:
    """Q_xy[P_A, P_B], P = beh(o1=0)*8 + beh(o1=1) listed as in `pairs`, one per input."""
    first = pairs >> 3
    second = pairs & 7
    g00 = g[np.ix_(first, first)]
    g01 = g[np.ix_(first, second)]
    g10 = g[np.ix_(second, first)]
    g11 = g[np.ix_(second, second)]
    out = []
    for row in range(4):
        p = box1.p[row]
        out.append((p[0] * g00 + p[1] * g01) + (p[2] * g10 + p[3] * g11))
    return out


def _pack_adaptive_player(pair0: int, pair1: int) -> int:
    """12-bit block from the branch-pair behaviors ((v=0), (v=1))."""
    behs = (pair0 >> 3, pair0 & 7, pair1 >> 3, pair1 & 7)
    block = 0
    for branch, beh in enumerate(behs):
        block |= (beh & 1) << branch
        block |= ((beh >> 1) & 1) << (4 + 2 * branch)
        block |= ((beh >> 2) & 1) << (5 + 2 * branch)
    return block


def adaptive_search_max(box: BipartiteBox, threads: int = 1) -> SearchResult:
    """Exact maximum CHSH-style value over all adaptive two-copy wirings.

    Both copies are `box`. A player picks a branch pair per own input; her
    12-bit block is the sum of its codes on the disjoint bits {0,1,4-7}
    (input 0) and {2,3,8-11} (input 1), which order the 64 pairs alike. The
    two-player core runs on Q_xy built in that order, CHSH sign folded into
    Q_11, and covers the 4096^2 class with 64^3 tensors.
    """
    report = validate_box(box)
    if not report.valid:
        raise InvalidBox(f"search input fails validation: {report.violations}")
    code0 = np.array([_pack_adaptive_player(p, 0) for p in range(64)])
    pairs = np.argsort(code0)
    codes = (code0[pairs], np.array([_pack_adaptive_player(0, p) for p in pairs]))
    q = _adaptive_q_matrices(box, _adaptive_kernel(box), pairs)
    best, packed = _two_player_max([[q[0], q[1]], [q[2], -q[3]]], codes, codes, 12, threads)

    proto = AdaptiveTwoCopyProtocol.decode(packed)
    replay = chsh_value_of_box(apply_adaptive(box, box, proto))
    if not abs(replay - best) <= 1e-9:
        raise VerificationFailed(
            f"replay of the best protocol gives {replay!r}, search found {best!r}"
        )
    return SearchResult(best, packed, 4096 * 4096, "adaptive2", 2, 2)


# ---------------------------------------------------------------- region scan


class RegionRow(NamedTuple):
    alpha: float
    beta: float
    delta: float
    eps: float
    valid: bool
    V: float
    V_parity: float
    V_OR: float
    V_A_fit: float
    winner: str
    collapses_cc: bool


CSV_HEADER = "alpha,beta,delta,eps,valid,V,V_parity,V_OR,V_A_fit,winner,collapses_cc"

_PROTOCOL_LABELS = ("PARITY", "OR", "A")

# Cells computed, formatted and written at a time, so memory is O(chunk)
# whatever the grid. On a 10^6-cell scan, 1024-cell chunks were a third
# slower; 16384- and 65536-cell chunks were no faster and raised peak RSS by
# 12 and 58 MB.
SCAN_CHUNK = 4096


def _format_floats(col: np.ndarray) -> list:
    """`f"{v:.12g}"` of every value.

    A column with few distinct values (an axis, or V when delta is fixed) is
    formatted once per distinct bit pattern. Patterns, not values:
    deduplicating by value would merge -0.0 with 0.0, which print as "-0"
    and "0".
    """
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    if 2 * len(bits) > len(col):
        return [f"{v:.12g}" for v in col.tolist()]
    text = np.array([f"{v:.12g}" for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


class RegionScanResult(Sequence):
    """Lazy scan result; indexes like a sequence of RegionRow.

    Cells are computed on demand from the validated axes. write_csv streams
    the grid in SCAN_CHUNK-cell chunks and never holds it whole; column()
    and indexing compute every column once and cache them.
    """

    def __init__(self, axes: dict, protocols: tuple, allcock, threads: int) -> None:
        self._tracked_beta = axes["beta"] is None
        self._axes = [axes["alpha"]] + ([] if self._tracked_beta else [axes["beta"]])
        self._axes += [axes["delta"], axes["eps"]]
        self._shape = tuple(len(ax) for ax in self._axes)
        self._len = math.prod(self._shape)
        self._protocols = protocols
        self._labels = np.array(("none",) + protocols)
        self._allcock = allcock
        self._threads = threads
        self._columns: dict | None = None

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._len))]
        c = self._full_columns()
        return RegionRow(
            float(c["alpha"][i]),
            float(c["beta"][i]),
            float(c["delta"][i]),
            float(c["eps"][i]),
            bool(c["valid"][i]),
            float(c["V"][i]),
            float(c["V_parity"][i]),
            float(c["V_OR"][i]),
            float(c["V_A_fit"][i]),
            str(self._labels[c["winner"][i]]),
            bool(c["collapses_cc"][i]),
        )

    def column(self, name: str) -> np.ndarray:
        """One full column; "winner" holds the labels, not their codes."""
        col = self._full_columns()[name]
        return self._labels[col] if name == "winner" else col

    def _bounds(self) -> list:
        return [(i, min(i + SCAN_CHUNK, self._len)) for i in range(0, self._len, SCAN_CHUNK)]

    def _full_columns(self) -> dict:
        if self._columns is None:
            parts = _map_chunks(lambda b: self._scan_chunk(*b), self._bounds(), self._threads)
            self._columns = {
                name: np.concatenate([part[name] for part in parts]) for name in parts[0]
            }
        return self._columns

    def _scan_chunk(self, lo: int, hi: int) -> dict:
        """The 11 columns of cells lo:hi; winner is a uint8 code into the labels."""
        index = np.unravel_index(np.arange(lo, hi), self._shape)
        coords = [ax[i] for ax, i in zip(self._axes, index)]
        if self._tracked_beta:
            a, d, e = coords
            bt = a
        else:
            a, bt, d, e = coords
        entries = np.stack(
            [
                1 + 2 * a + d, 1 - d, 1 - d, 1 - 2 * a + d,
                1 + a + bt + d, 1 + a - bt - d, 1 + bt - a - d, 1 - a - bt + d,
                1 + 2 * bt + e, 1 - e, 1 - e, 1 - 2 * bt + e,
            ]
        ) / 4.0
        valid = entries.min(axis=0) >= -VALIDITY_TOL
        v_single = 3 * d - e
        v_parity = 3 * d * d - e * e
        p00_00 = (1 + 2 * a + d) / 4
        p00_01 = (1 + a + bt + d) / 4
        p00_11 = (1 + 2 * bt + e) / 4
        m0 = (1 + a) / 2
        m1 = (1 + bt) / 2
        e_00 = 4 * p00_00**2 - 4 * m0**2 + 1
        e_01 = 4 * p00_01**2 - 2 * m0**2 - 2 * m1**2 + 1
        e_11 = 4 * p00_11**2 - 4 * m1**2 + 1
        v_or = e_00 + 2 * e_01 - e_11
        allcock = self._allcock
        if allcock is None:
            comb = -2 * a
        elif isinstance(allcock, AllcockParams):
            comb = np.full_like(a, allcock.combination)
        else:
            comb = np.array([allcock(*cell).combination for cell in zip(a, bt, d, e)])
        v_a = 0.25 * (11 * d * d + 2 * d - 2 * e * d - 2 * e - e * e + comb * (d - e))
        by_label = {"PARITY": v_parity, "OR": v_or, "A": v_a}
        stack = np.stack([v_single] + [by_label[lb] for lb in self._protocols])
        return {
            "alpha": a,
            "beta": bt,
            "delta": d,
            "eps": e,
            "valid": valid,
            "V": v_single,
            "V_parity": v_parity,
            "V_OR": v_or,
            "V_A_fit": v_a,
            "winner": stack.argmax(axis=0).astype(np.uint8),
            "collapses_cc": valid & (stack.max(axis=0) > CC_COLLAPSE_THRESHOLD),
        }

    def _csv_chunk(self, bounds) -> str:
        """CSV rows of one chunk, built one column at a time."""
        c = self._scan_chunk(*bounds)
        fields = []
        for name, col in c.items():
            if col.dtype == bool:
                fields.append(np.where(col, "true", "false").tolist())
            elif name == "winner":
                fields.append(self._labels[col].tolist())
            else:
                fields.append(_format_floats(col))
        return "\n".join(map(",".join, zip(*fields))) + "\n"

    def write_csv(self, stream) -> None:
        """Header, then one line per cell; batches of `threads` chunks at a time."""
        stream.write(CSV_HEADER + "\n")
        bounds = self._bounds()
        for start in range(0, len(bounds), self._threads):
            batch = bounds[start : start + self._threads]
            for text in _map_chunks(self._csv_chunk, batch, self._threads):
                stream.write(text)

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def _axis(spec) -> np.ndarray:
    if np.isscalar(spec):
        return np.array([float(spec)])
    start, stop, step = (float(v) for v in spec)
    if step <= 0:
        raise ValueError(f"axis step must be positive, got {step}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(max(count, 1))


def region_scan(
    grid: dict,
    protocols: Sequence[str] = ("PARITY", "OR"),
    allcock: "AllcockParams | Callable | None" = None,
    threads: int = 1,
) -> RegionScanResult:
    """Sweep the symmetric box family over a parameter grid.

    `grid` maps "alpha", "beta", "delta", "eps" to a scalar or a
    (start, stop, step) range; omitting "beta" (or passing None) locks
    beta = alpha instead of forming a cross product. `protocols` lists the
    labels competing with the undistilled value for the winner column and
    the collapse flag, in tie-break order after "none". `allcock` fixes the
    adaptive closed form's free parameters: None uses the combination
    -2*alpha per cell, an AllcockParams applies everywhere, and a callable
    (alpha, beta, delta, eps) -> AllcockParams is evaluated per cell.

    Labels, axes and the grid budget are checked here; the cells are
    computed lazily by the returned result, cells ordered with alpha
    slowest and eps fastest.
    """
    for label in protocols:
        if label not in _PROTOCOL_LABELS:
            raise UnknownKind(f"unknown protocol label {label!r}")
    axes = {}
    for name in ("alpha", "beta", "delta", "eps"):
        spec = grid.get(name)
        if name == "beta" and spec is None:
            axes[name] = None
        elif spec is None:
            raise ValueError(f"grid is missing the {name!r} axis")
        else:
            axes[name] = _axis(spec)
    result = RegionScanResult(axes, tuple(protocols), allcock, threads)
    if len(result) > GRID_BUDGET:
        raise BudgetExceeded(f"{len(result)} grid cells exceed the {GRID_BUDGET} budget")
    return result


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
    # delta, eps, a, b, c, d, V, V_A
    ("1.00", "-0.70", "0.01", "0.01", "0.01", "0.01", "3.70", "3.8360"),
    ("1.00", "-0.70", "0.0", "0.0", "0.0", "0.0", "3.70", "3.8275"),
    ("0.92", "-0.22", "0.01", "0.01", "0.01", "0.01", "2.98", "2.9924"),
    ("0.92", "-0.22", "0.0", "0.0", "0.0", "0.0", "2.98", "2.9867"),
    ("0.917", "-0.22", "0.01", "0.01", "0.01", "0.01", "2.971", "2.97539"),
    ("0.917", "-0.22", "0.0", "0.0", "0.0", "0.0", "2.971", "2.96971"),
)

_TABLE2 = (
    # eps_lo, eps_hi, alpha, delta, eps, V, V_parity, V_OR, V_A
    ("-0.04", "0.013", "0.26", "1.00", "0.01", "2.99", "2.9999", "3.00", "3.1112"),
    ("-0.20", "0.066", "0.30", "1.00", "0.01", "2.99", "2.9999", "3.04", "3.0914"),
    ("-0.30", "0.133", "0.35", "1.00", "0.01", "2.99", "2.9999", "3.09", "3.0667"),
    ("-0.20", "0.200", "0.40", "1.00", "0.01", "2.99", "2.9999", "3.14", "3.0419"),
    ("-0.10", "0.266", "0.45", "1.00", "0.01", "2.99", "2.9999", "3.19", "3.0172"),
    ("0.00", "0.333", "0.50", "1.00", "0.01", "2.99", "2.9999", "3.24", "2.9924"),
)

_TABLE3 = (
    # alpha, delta, eps, V, V_parity, V_A, V_OR  (beta = alpha)
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


def _simulated_parity_value(alpha: float, beta: float, delta: float, eps: float) -> float:
    from .wirings import parity_protocol

    box = box_from_correlators(symmetric_box(alpha, beta, delta, eps))
    return chsh_value_of_box(apply_nonadaptive(box, parity_protocol(2, 2)))


def reproduce_tables(which: int, audit_adaptive: bool = False) -> TableReport:
    """Recompute one of the three frozen reference tables and diff it.

    Every computed column is checked against the printed value at its
    printed precision. Free closed-form parameters are reported per row as
    the fitted combination that reproduces the printed adaptive value. With
    audit_adaptive=True, each row's box also gets an exact adaptive-class
    search, added to the computed rows as "V_search" (no printed
    counterpart).
    """
    if which == 1:
        printed_rows = _TABLE1
        columns = ("delta", "eps", "a", "b", "c", "d", "V", "V_A")
    elif which == 2:
        printed_rows = _TABLE2
        columns = ("eps_lo", "eps_hi", "alpha", "delta", "eps", "V", "V_parity", "V_OR", "V_A")
    elif which == 3:
        printed_rows = _TABLE3
        columns = ("alpha", "delta", "eps", "V", "V_parity", "V_A", "V_OR")
    else:
        raise UnknownKind(f"no reference table {which}")

    checks: list[TableCheck] = []
    computed_rows = []
    fitted = []
    search_cache: dict = {}

    def audited(alpha, beta, delta, eps):
        key = (alpha, beta, delta, eps)
        if key not in search_cache:
            box = box_from_correlators(symmetric_box(alpha, beta, delta, eps))
            search_cache[key] = adaptive_search_max(box).best_value
        return search_cache[key]

    for i, row in enumerate(printed_rows):
        rec = dict(zip(columns, row))
        delta, eps = float(rec["delta"]), float(rec["eps"])
        computed = {"V": 3 * delta - eps}
        if which == 1:
            alpha = 0.0
            params = AllcockParams(
                float(rec["a"]), float(rec["b"]), float(rec["c"]), float(rec["d"])
            )
        else:
            alpha = float(rec["alpha"])
            params = AllcockParams(a=2 * alpha)
            computed["V_parity"] = _simulated_parity_value(alpha, alpha, delta, eps)
            computed["V_OR"] = or_value_simulated(alpha, alpha, delta, eps)
            if which == 2:
                computed["eps_lo"] = max(1 - 4 * alpha, 2 * alpha - 1)
                computed["eps_hi"] = (4 * alpha - 1) / 3
        computed["V_A"] = closed_form_values(alpha, alpha, delta, eps, params).v_a
        fitted.append(_fitted_combination(float(rec["V_A"]), delta, eps))
        if audit_adaptive:
            computed["V_search"] = audited(alpha, alpha, delta, eps)
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
        if comb is not None:
            lines.append(f"  row {i} fitted free-parameter combination: {comb:.12g}")
    for i, computed in enumerate(report.computed_rows):
        if "V_search" in computed:
            lines.append(f"  row {i} adaptive-class search maximum: {computed['V_search']:.12g}")
    lines.append(f"  mismatches: {len(report.mismatches)}")
    return "\n".join(lines)
