"""Exact reference grid: the searches against a brute force in integers.

The brute force evaluates every protocol of a class in Python integers on
the canonical box (canonical_fractions), scaled to one power-of-two
denominator, and
keeps the smallest canonical encoding among the exact maximisers. Each
table choice's value is a full contraction of the joint weights with the
players' signs, so nothing in it relies on a best-response argument.
"""

import itertools
from fractions import Fraction

import numpy as np

import nlbd.search as search
from nlbd.boxes import BipartiteBox, box_from_correlators
from nlbd.search import enumerate_nonadaptive_max
from nlbd.wirings import (
    AdaptiveTwoCopyProtocol,
    NonAdaptiveProtocol,
    symmetric_box,
    wire_adaptive,
    wire_nonadaptive,
)
from nlbd.xorboxes import MultipartiteXorBox, XorGame


def canonical_fractions(p):
    """The canonical box of p[4, 4] in Fractions: the box of its correlator form.

    The fields are summed exactly from p's binary floats, the marginals as
    means over the other player's input, each clipped to [-1, 1]; then
    p(ab|xy) = (1 + (-1)^a A_x + (-1)^b B_y + (-1)^(a xor b) E_xy) / 4.
    """
    q = [[Fraction(float(v)) for v in row] for row in p]
    clip = lambda v: min(max(v, Fraction(-1)), Fraction(1))  # noqa: E731
    ea = [r[0] + r[1] - r[2] - r[3] for r in q]
    eb = [r[0] - r[1] + r[2] - r[3] for r in q]
    alice = [clip((ea[2 * x] + ea[2 * x + 1]) / 2) for x in (0, 1)]
    bob = [clip((eb[y] + eb[2 + y]) / 2) for y in (0, 1)]
    corr = [clip(r[0] - r[1] - r[2] + r[3]) for r in q]
    return np.array([
        [(1 + sa * alice[xy >> 1] + sb * bob[xy & 1] + sa * sb * corr[xy]) / 4
         for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
        for xy in range(4)
    ], dtype=object)


def _copies(box):
    """Game signs and one copy's weights per input, as Fractions over joint outcomes."""
    if isinstance(box, BipartiteBox):
        return [1, 1, 1, -1], canonical_fractions(box.p).tolist()
    n = box.n
    parity = [bin(a).count("1") % 2 for a in range(1 << n)]
    weights = [
        [(1 + (-1) ** odd * Fraction(float(d))) / 2**n for odd in parity] for d in box.delta
    ]
    return [(-1) ** f for f in box.game.f], weights


def _joint_weights(copy, n, m, den):
    """den^m * W[s_1, ..., s_n]: the product over copies, first copy most significant."""
    size = 1 << m
    w = np.empty((size,) * n, dtype=object)
    for strings in itertools.product(range(size), repeat=n):
        weight = 1
        for c in range(m):
            outcome = 0
            for s in strings:
                outcome = outcome << 1 | (s >> (m - 1 - c)) & 1
            weight *= int(copy[outcome] * den)
        w[strings] = weight
    return w


def _table_values(w):
    """C[t_1, ..., t_n] = sum_s w[s] prod_j (-1)^(bit s_j of t_j), every table choice."""
    size = w.shape[0]
    signs = np.array(
        [[(-1) ** ((t >> s) & 1) for t in range(1 << size)] for s in range(size)], dtype=object
    )
    for _ in range(w.ndim):
        w = np.tensordot(w, signs, axes=([0], [0]))
    return w


def brute_force(box, m, input_dependent=False):
    """(exact maximum, smallest maximising encoding) over the class."""
    signs, copies = _copies(box)
    n = len(signs).bit_length() - 1
    size = 1 << m
    den = max(f.denominator for row in copies for f in row)
    weights = [s * _joint_weights(copy, n, m, den) for s, copy in zip(signs, copies)]
    if input_dependent:
        c = [_table_values(w) for w in weights]
        # value[g0, g1, h0, h1]: player A's table per input, then B's
        value = (c[0][:, None, :, None] + c[1][:, None, None, :]
                 + c[2][None, :, :, None] + c[3][None, :, None, :])
        tables = [((g0, g1), (h0, h1)) for g0, g1, h0, h1 in np.argwhere(value == value.max())]
    else:
        value = _table_values(sum(weights))
        tables = [tuple((t, t) for t in choice) for choice in np.argwhere(value == value.max())]
    key = min(
        sum((int(t0) | int(t1) << size) << (2 * size * j) for j, (t0, t1) in enumerate(choice))
        for choice in tables
    )
    return Fraction(int(value.max()), den**m), key


def _grid_boxes():
    rng = np.random.default_rng(41)
    off_grid = []
    while len(off_grid) < 2:
        params = rng.uniform(-1, 1, 4)
        box = box_from_correlators(symmetric_box(*params))
        if box.p.min() >= 0.0:
            off_grid.append(box)
    pr = box_from_correlators(symmetric_box(0.0, 0.0, 1.0, -1.0)).p.copy()
    pr[0, 1] = 1e-200  # m = 2 products of this entry underflow
    game3 = XorGame.from_predicate(3, lambda bits: (bits[0] | bits[1]) ^ bits[2])
    return {
        "kept": box_from_correlators(symmetric_box(0.4, 0.35, 0.75, -0.2)),
        "496": box_from_correlators(symmetric_box(
            0.20650028770101136, 0.28021490780095504, -0.1352018836223936, 0.7738648175080272)),
        "seeded0": off_grid[0],
        "seeded1": off_grid[1],
        "chsh": MultipartiteXorBox(XorGame.chsh(), (0.91, 0.83, 0.77, -0.69)),
        "uniform": box_from_correlators(symmetric_box(0.0, 0.0, 0.0, 0.0)),
        "underflow": BipartiteBox(pr),
        "xor3": MultipartiteXorBox(game3, tuple(rng.uniform(-1, 1, 8))),
        "uniform3": MultipartiteXorBox(game3, (0.0,) * 8),
    }


def test_searches_match_the_exact_brute_force():
    mismatches = []
    for name, box in _grid_boxes().items():
        dependence = (False,) if name.endswith("3") else (False, True)
        for m, dep in itertools.product((1, 2), dependence):
            exact, key = brute_force(box, m, dep)
            r = enumerate_nonadaptive_max(box, m, input_dependent=dep)
            if (r.best_value, r.best_protocol, r.best_exact) != (float(exact), key, exact):
                mismatches.append((name, m, dep, r.best_protocol, key))
    assert mismatches == []


def best_response_reference(box, m, input_dependent=False):
    """(exact maximum, smallest maximising encoding) with the last player answering.

    Every table choice of the non-last players (player A's two tables, or
    the first and middle players' one each) is contracted with the joint
    weights in Python integers, with no float window and no symmetry. The
    last player then takes her closed-form best response on each input:
    sum_s |v_s|, with bit s set exactly where v_s < 0 (her smallest code).
    """
    signs, copies = _copies(box)
    n = len(signs).bit_length() - 1
    size = 1 << m
    den = max(f.denominator for row in copies for f in row)
    weights = [s * _joint_weights(copy, n, m, den) for s, copy in zip(signs, copies)]
    tables = np.arange(1 << size)
    sign = np.array([[(-1) ** ((t >> s) & 1) for t in range(1 << size)] for s in range(size)],
                    dtype=object)
    slot_bits = np.arange(size)[None, :, None]

    def code(t):  # one table on both inputs
        return t | t << size

    if input_dependent:
        # c[2x + y][s_B, a_x]
        c = [np.tensordot(w, sign, axes=([0], [0])) for w in weights]
        rows = (
            (np.stack([c[y][:, a0, None] + c[2 + y] for y in (0, 1)]), a0 | tables << size, 0)
            for a0 in tables
        )
    else:
        # d[s_1, s_last, t_middle]
        d = np.tensordot(sum(weights), sign, axes=([1], [0]))
        rows = (
            (np.tensordot(sign[:, t1], d, 1)[None], code(t1) | code(tables) << 2 * size, 1)
            for t1 in tables
        )
    best, key = None, None
    for v, others, same in rows:  # v[branch, s, table]; same: one table on both inputs
        value = np.abs(v).sum((0, 1))
        bits = ((v < 0).astype(np.int64) << slot_bits).sum(1)
        last = code(bits[0]) if same else bits[0] | bits[1] << size
        keys = others | last << 2 * size * (n - 1)
        top = value.max()
        if best is None or top > best:
            best, key = top, keys[value == top].min()
        elif top == best:
            key = min(key, keys[value == top].min())
    return Fraction(int(best), den**m), int(key)


def test_three_copy_searches_match_the_best_response_reference():
    # S_3 first permutes copies at m = 3, where the brute force above is out of reach
    boxes = _grid_boxes()
    mismatches = []
    # the reference's best-response step against the full contraction, where both run
    for name, box in boxes.items():
        for m, dep in itertools.product((1, 2), (False,) if name.endswith("3") else (True,)):
            if best_response_reference(box, m, dep) != brute_force(box, m, dep):
                mismatches.append((name, m))
    # seeded1's smallest maximising key lies off the orbit representatives
    for name in ("kept", "496", "seeded1", "chsh", "uniform", "xor3", "uniform3"):
        dep = not name.endswith("3")
        exact, key = best_response_reference(boxes[name], 3, dep)
        r = enumerate_nonadaptive_max(boxes[name], 3, input_dependent=dep)
        if (r.best_value, r.best_protocol, r.best_exact) != (float(exact), key, exact):
            mismatches.append((name, r.best_protocol, key))
    assert mismatches == []


def _width_box(k):
    """A nonlocal box on the 1/16 grid with each entry of row 00 moved by 2^-k: den = 2^k."""
    p = box_from_correlators(symmetric_box(0.0, 0.0, 0.75, -0.75)).p.copy()
    p[0] += np.array([1, -1, -1, 1]) * 2.0**-k
    return BipartiteBox(p)


def _raw_chsh(q):
    return sum(s * (q[xy, 0] - q[xy, 1] - q[xy, 2] + q[xy, 3]) for xy, s in enumerate((1, 1, 1, -1)))


def test_integer_width_on_either_side_of_the_line(monkeypatch):
    """Boxes on each side of l1 = 2^62, where a silent int64 overflow would show.

    One copy's rows are integers over den = 2^k, each summing to den, so
    l1 = 4 * den^m: m = 2 crosses the line between den 2^29 and 2^30, m = 3
    between 2^19 and 2^20. The adaptive search's L * R = 4 * den^2 crosses
    it between 2^29 and 2^30 too; den 2^34, 2^23 and 2^40 lie far beyond,
    where int64 sums would wrap. The integers are int64 below the line and
    Python ints at it, and every result is the brute force's (m = 2), the
    best-response reference's (m = 3, input-dependent) or its printed
    protocol's replay in Fractions.
    """
    mismatches = []
    for m, k in ((2, 29), (2, 30), (2, 34), (3, 19), (3, 20), (3, 23)):
        box = _width_box(k)
        _, ints, index, scale, l1 = search._copy_weights(box, m)
        ints = [w[index] for w in ints]
        assert (scale, l1) == (2 ** (k * m), 4 * scale)
        wide = l1 >= 1 << 62
        assert wide == (k not in (29, 19))
        assert all(w.dtype == (object if wide else np.int64) for w in ints)
        exact = canonical_fractions(box.p)
        for dep in (False, True):
            r = enumerate_nonadaptive_max(box, m, input_dependent=dep)
            if m == 2:
                want = brute_force(box, m, dep)
            elif dep:
                want = best_response_reference(box, m, dep)
            else:
                proto = NonAdaptiveProtocol.decode(2, m, r.best_protocol)
                want = _raw_chsh(wire_nonadaptive([exact] * m, proto)), r.best_protocol
            if (r.best_exact, r.best_protocol) != want:
                mismatches.append((m, k, dep, r.best_protocol))

    real_kernels, widths = search._adaptive_kernels, []

    def recording_kernels(p, keys):
        widths.append(p.dtype)
        return real_kernels(p, keys)

    monkeypatch.setattr(search, "_adaptive_kernels", recording_kernels)
    for k in (29, 30, 40):
        box = _width_box(k)
        widths.clear()
        (r,) = search.adaptive_search_stack(box.p[None])
        # the float pass's kernels, then the exact pass's
        assert set(widths) == {np.dtype(float), np.dtype(np.int64 if k == 29 else object)}
        exact = canonical_fractions(box.p)
        proto = AdaptiveTwoCopyProtocol.decode(r.best_protocol)
        if r.best_exact != _raw_chsh(wire_adaptive(exact, exact, proto)):
            mismatches.append(("adaptive", k, r.best_protocol))
    assert mismatches == []
