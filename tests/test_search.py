"""Exhaustive-search, region-scan, and reference-table tests.

The searches are exact, so most expectations here are equalities at float
tolerance: closed-form values for named protocols, the proven input-free
characterization max_k |T_k|, and frozen reference numbers.
"""

import functools
import hashlib
import io
import itertools
import math
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import nlbd.search as search_module
from nlbd.boxes import (
    BipartiteBox,
    box_from_correlators,
    boxes_from_fields,
    chsh_value_of_box,
    make_named_box,
)
from nlbd.cli import main as cli_main
from nlbd.errors import BudgetExceeded, InvalidBox, UnknownKind
from nlbd.fourier import (
    PmOutputFunction,
    nonadaptive_value_fourier,
    parity_bound,
    walsh_transform,
)
from nlbd.search import (
    CC_COLLAPSE_THRESHOLD,
    CSV_HEADER,
    SCAN_CHUNK,
    RegionScanResult,
    adaptive_search_max,
    adaptive_search_stack,
    enumerate_nonadaptive_max,
    format_table_report,
    region_scan,
    reproduce_tables,
)
from nlbd.wirings import (
    AdaptiveTwoCopyProtocol,
    NonAdaptiveProtocol,
    adaptive_value,
    apply_adaptive,
    apply_nonadaptive,
    bs_output_box,
    or_protocol,
    parity_protocol,
    symmetric_box,
    wire_adaptive,
    wire_nonadaptive,
)
from nlbd.xorboxes import MultipartiteXorBox, XorGame, simulate_nonadaptive_xor
from test_exact_grid import canonical_fractions


def random_symmetric_params(rng):
    """Rejection-sample (alpha, beta, delta, eps) giving a valid box."""
    while True:
        alpha, beta = rng.uniform(-1, 1, 2)
        delta, eps = rng.uniform(-1, 1, 2)
        entries = [
            1 + 2 * alpha + delta, 1 - delta, 1 - 2 * alpha + delta,
            1 + alpha + beta + delta, 1 + alpha - beta - delta,
            1 - alpha + beta - delta, 1 - alpha - beta + delta,
            1 + 2 * beta + eps, 1 - eps, 1 - 2 * beta + eps,
        ]
        if min(entries) >= 0.0:
            return alpha, beta, delta, eps


def random_valid_box(rng):
    return box_from_correlators(symmetric_box(*random_symmetric_params(rng)))


def test_collapse_threshold_value():
    assert CC_COLLAPSE_THRESHOLD == pytest.approx(4 * math.sqrt(2 / 3), abs=1e-15)
    assert CC_COLLAPSE_THRESHOLD == pytest.approx(3.265986323710904, abs=1e-12)


def test_parity_is_input_free_optimum_on_chsh_deltas():
    xb = MultipartiteXorBox(XorGame.chsh(), (1.0, 1.0, 1.0, 0.3))
    r = enumerate_nonadaptive_max(xb, 2)
    assert r.best_value == pytest.approx(2.91, abs=1e-12)
    # the only achievers are parity on both sides and its double flip;
    # parity has the smaller packed encoding
    assert r.best_protocol == 0x6666
    assert r.protocols_examined == 256
    assert r.class_name == "nonadaptive-input-free"
    assert (r.n, r.m) == (2, 2)


def test_or_value_is_the_input_free_optimum_on_correlated_box():
    box = box_from_correlators(make_named_box("correlated", alpha=0.5, eps=0.01))
    r = enumerate_nonadaptive_max(box, 2)
    assert r.best_value == pytest.approx(3.239975, abs=1e-9)
    # canonical achiever is NOR on both sides (OR with both outputs
    # flipped, which preserves every correlator)
    assert r.best_protocol == 0x1111
    proto = NonAdaptiveProtocol.decode(2, 2, r.best_protocol)
    assert proto.is_input_free()
    assert chsh_value_of_box(apply_nonadaptive(box, proto)) == pytest.approx(
        r.best_value, abs=1e-12
    )


def test_single_copy_search_recovers_box_value():
    box = box_from_correlators(make_named_box("correlated", alpha=0.5, eps=0.01))
    r = enumerate_nonadaptive_max(box, 1)
    # identity and double-flip both give the box's own value 2.99; the
    # flip pair packs smaller
    assert r.best_value == pytest.approx(2.99, abs=1e-12)
    assert r.best_protocol == 0x55


def test_input_free_optimum_is_max_abs_tk():
    """Proven characterization: best over input-free protocols = max_k |T_k|.

    T_k = sum_x (-1)^f(x) delta_x^k, 0 <= k <= m (k = 0 is the constant
    protocol, k >= 1 parity over k of the m copies, up to output flips).
    """
    rng = np.random.default_rng(11)
    for n, m, trials in ((2, 1, 30), (2, 2, 30), (2, 3, 10), (3, 1, 10), (3, 2, 10)):
        game = XorGame.chsh() if n == 2 else XorGame.from_predicate(
            3, lambda bits: (bits[0] & bits[1]) ^ bits[2]
        )
        for _ in range(trials):
            d = rng.uniform(-1, 1, 1 << n)
            xb = MultipartiteXorBox(game, tuple(d))
            signs = game.signs()
            expect = max(abs(float(signs @ d**k)) for k in range(m + 1))
            r = enumerate_nonadaptive_max(xb, m)
            assert r.best_value == pytest.approx(expect, abs=1e-9), (n, m, d)


def test_parity_bound_attained_in_distillation_regime():
    """Where |T_1| exceeds |T_0|, the class optimum equals the k>=1 bound."""
    rng = np.random.default_rng(23)
    game = XorGame.chsh()
    for _ in range(40):
        u = rng.uniform(0.55, 1.0, 4)
        d = tuple(s * ui for s, ui in zip((1, 1, 1, -1), u))
        xb = MultipartiteXorBox(game, d)
        bound = parity_bound(game, d, 2)
        r = enumerate_nonadaptive_max(xb, 2)
        assert r.best_value <= bound.value + 1e-9
        assert r.best_value == pytest.approx(bound.value, abs=1e-9)


def test_xor_invariant_sweep():
    """Relations every exact answer satisfies, on 40 seeded XOR boxes.

    Exact m-monotonicity; input-free <= input-dependent (n = 2, m <= 2);
    the printed protocol's Fourier value is the class maximum; and the
    maximum is parity_bound wherever the bound reaches |T_0|.
    """
    rng = random.Random(11)
    bound_applied = []
    for _ in range(40):
        n = rng.choice((2, 3))
        game = XorGame(n, tuple(rng.getrandbits(1) for _ in range(1 << n)))
        box = MultipartiteXorBox(game, tuple(rng.uniform(-1, 1) for _ in range(1 << n)))
        t0 = abs(float(game.signs().sum()))
        free = [enumerate_nonadaptive_max(box, m) for m in (1, 2, 3)]
        for low, high in zip(free, free[1:]):
            assert low.best_exact <= high.best_exact
        for m, r in enumerate(free, 1):
            proto = NonAdaptiveProtocol.decode(n, m, r.best_protocol)
            assert proto.is_input_free()
            spectra = [walsh_transform(PmOutputFunction.from_bits(m, t)) for t, _ in proto.tables]
            value = nonadaptive_value_fourier(spectra, game, box.delta)
            assert value == pytest.approx(r.best_value, abs=1e-9)
            bound = parity_bound(game, box.delta, m)
            if bound.value >= t0:
                assert r.best_value == pytest.approx(bound.value, abs=1e-9)
                bound_applied.append((n, m))
        if n == 2:
            for m in (1, 2):
                dep = enumerate_nonadaptive_max(box, m, input_dependent=True)
                assert free[m - 1].best_exact <= dep.best_exact
    assert (3, 3) in bound_applied


def test_xor_input_free_class_follows_the_parity_theorem():
    """The input-free XOR class on 1,020 seeded (game, m) searches, n = 2, 3, m = 1-3.

    Value: V = sum_z (prod_j fhat^j_z) T_|z| with T_k = sum_x (-1)^f(x)
    delta_x^k, and Cauchy-Schwarz with Parseval gives |V| <= M = max over
    k = 0..m of |T_k|, which parity over k copies reaches: best_exact is M,
    computed here in Fractions.

    Key: the smallest encoding among the parity-type protocols, every
    player applying one character chi_z (one z for all, |T_|z|| = M) or its
    complement, the complements' parity odd exactly where T_|z| < 0; 0 when
    M = 0, where every protocol ties. For n >= 3, equality forces every
    player's table to be such a character, so this is the rule. For n = 2
    equality forces only fhat^1 = +-fhat^2 on the levels that reach M, and
    a non-parity pair can tie there (majority of 3 copies where T_1 = T_3):
    at n = 2 the rule is evidence, not proof.

    Biases are drawn per game: 40% on the 1/32 grid, 15% in {0, +-1},
    where levels tie, and 45% uniform.
    """
    rng = random.Random(2301)
    failures = []
    for _ in range(340):
        n = rng.choice((2, 3))
        game = XorGame(n, tuple(rng.getrandbits(1) for _ in range(1 << n)))
        kind = rng.random()
        if kind < 0.4:
            delta = tuple(rng.randint(-32, 32) / 32 for _ in range(1 << n))
        elif kind < 0.55:
            delta = tuple(float(rng.choice((-1, 0, 1))) for _ in range(1 << n))
        else:
            delta = tuple(rng.uniform(-1, 1) for _ in range(1 << n))
        signs = [1 - 2 * f for f in game.f]
        for m in (1, 2, 3):
            size = 1 << m
            t = [sum(s * Fraction(d) ** k for s, d in zip(signs, delta)) for k in range(m + 1)]
            top = max(map(abs, t))
            # chi_z's output bit on outcome string s is the parity of z & s
            char = [sum((bin(z & s).count("1") & 1) << s for s in range(size)) for z in range(size)]
            full = (1 << size) - 1
            # player j's table, complemented where bit j of c is set, on both inputs
            keys = [
                sum((char[z] ^ full * (c >> j & 1)) * (1 + (1 << size)) << 2 * size * j
                    for j in range(n))
                for z in range(size) if abs(t[bin(z).count("1")]) == top
                for c in range(1 << n) if bin(c).count("1") % 2 == (t[bin(z).count("1")] < 0)
            ]
            r = enumerate_nonadaptive_max(MultipartiteXorBox(game, delta), m)
            if (r.best_exact, r.best_protocol) != (top, min(keys) if top else 0):
                failures.append((game.f, delta, m, r.best_exact, r.best_protocol, top, min(keys)))
    assert failures == []


def seeded_boxes(rng, count):
    """count valid boxes p[count, 4, 4], a quarter of each kind: general 8-field,
    symmetric with beta free, symmetric with beta = alpha, trivial marginals."""
    kinds = [[] for _ in range(4)]
    while min(map(len, kinds)) < count // 4:
        f = rng.uniform(-1, 1, 8)
        a, b, d, e = f[:4]
        layouts = (f, [a, b, a, b, d, d, d, e], [a, a, a, a, d, d, d, e], [0, 0, 0, 0, *f[4:]])
        for kind, fields in zip(kinds, layouts):
            p = boxes_from_fields(np.array(fields, dtype=float))
            if len(kind) < count // 4 and p.min() >= 0:
                kind.append(p)
    return np.array([p for kind in kinds for p in kind])


def test_adaptive_invariant_sweep():
    """Relations every exact adaptive answer satisfies, on 200 seeded boxes.

    Swapping the players or flipping both outputs keeps the class maximum;
    input-dependent m = 2 <= adaptive; and on beta = alpha boxes the scan's
    closed form V_A_fit never exceeds the adaptive maximum.
    """
    p = seeded_boxes(np.random.default_rng(2101), 200)
    swap = np.ix_([0, 2, 1, 3], [0, 2, 1, 3])
    results = adaptive_search_stack(np.concatenate([p, p[:, swap[0], swap[1]], p[:, :, ::-1]]))
    best, swapped, flipped = (results[k * len(p) : (k + 1) * len(p)] for k in range(3))
    for q, r, rs, rf in zip(p, best, swapped, flipped):
        assert r.best_exact == rs.best_exact == rf.best_exact
        dep = enumerate_nonadaptive_max(BipartiteBox(q), 2, input_dependent=True)
        assert dep.best_exact <= r.best_exact
    # the third quarter holds the beta = alpha boxes: fields (a, a, a, a, d, d, d, e)
    for q, r in zip(p[100:150], best[100:150]):
        alpha, delta, eps = q[0] @ [1, 1, -1, -1], q[0] @ [1, -1, -1, 1], q[3] @ [1, -1, -1, 1]
        assert adaptive_value(delta, eps, -2 * alpha) <= r.best_value + 1e-12


def vertex_mixtures(rng, count):
    """count valid boxes p[count, 4, 4] mixed from the 24 no-signalling vertices:
    the 16 deterministic boxes and the 8 PR boxes."""
    local = [[a0, a1, b0, b1, a0 * b0, a0 * b1, a1 * b0, a1 * b1]
             for a0, a1, b0, b1 in itertools.product((-1, 1), repeat=4)]
    pr = [[0, 0, 0, 0, s, t, u, -s * t * u] for s, t, u in itertools.product((-1, 1), repeat=3)]
    vertices = boxes_from_fields(np.array(local + pr, dtype=float))
    return np.tensordot(rng.dirichlet(np.full(24, 0.3), count), vertices, 1)


NONADAPTIVE_CLASSES = ((1, False), (2, False), (3, False), (1, True), (2, True))


@functools.cache
def nonadaptive_sweep():
    """best_exact per class of 120 seeded boxes, as given, with the players
    swapped and with both outputs flipped: [box][variant][class].

    A third each: vertex mixtures, symmetric with beta free, trivial marginals.
    """
    p = seeded_boxes(np.random.default_rng(2206), 160)
    p = np.concatenate([vertex_mixtures(np.random.default_rng(2207), 40), p[40:80], p[120:]])
    s = np.ix_([0, 2, 1, 3], [0, 2, 1, 3])
    return [
        [[enumerate_nonadaptive_max(BipartiteBox(v), m, dep).best_exact
          for m, dep in NONADAPTIVE_CLASSES] for v in (q, q[s], q[:, ::-1])]
        for q in p
    ]


def test_nonadaptive_invariant_sweep():
    """Relations every exact non-adaptive answer satisfies, on 120 seeded boxes.

    Swapping the players or flipping both outputs keeps every class maximum
    (input-free m = 1-3, input-dependent m = 1-2), and input-free <=
    input-dependent at m = 1 and 2.
    """
    for best, swapped, flipped in nonadaptive_sweep():
        assert best == swapped == flipped
        free1, free2, _, dep1, dep2 = best
        assert free1 <= dep1 and free2 <= dep2


def test_nonadaptive_value_grows_with_copies():
    for (free1, free2, free3, dep1, dep2), _, _ in nonadaptive_sweep():
        assert free1 <= free2 <= free3 and dep1 <= dep2


def test_scan_adaptive_label_stays_within_the_adaptive_class_with_beta_free():
    alpha, beta, delta, eps = (-0.45042068329104357, -0.34369555675784724,
                               0.8828544290515927, -0.2201095729648479)
    scan = region_scan({"alpha": alpha, "beta": beta, "delta": delta, "eps": eps},
                       ("PARITY", "OR", "A"))
    box = box_from_correlators(symmetric_box(alpha, beta, delta, eps))
    exact = adaptive_search_max(box).best_value
    assert exact == pytest.approx(2.94008356384, abs=1e-11)
    assert list(scan.column("winner")) == ["A"]
    assert scan.column("V_A_fit")[0] <= exact


def _exact_symmetric_box(alpha, beta, delta, eps):
    """p[xy, ab] of the symmetric family, in the arithmetic of its parameters."""
    bias, corr = (alpha, beta), (delta, delta, delta, eps)
    return np.array([
        [(1 + sa * bias[xy >> 1] + sb * bias[xy & 1] + sa * sb * corr[xy]) / 4
         for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
        for xy in range(4)
    ], dtype=object)


def test_scan_labels_are_the_values_of_their_wirings():
    """Each scan label's closed form is the value polynomial of the wiring it names.

    PARITY is 6666, OR eeee and A the adaptive wiring 668669. Each wired value
    and each closed form is a quadratic in (alpha, beta, delta, eps), so agreeing
    exactly at 15 points unisolvent for quadratics (0, h e_i, 2h e_i and
    h (e_i + e_j), h = 1/8) makes them one polynomial. The points are dyadic,
    so the scan's float closed forms are exact there.
    """
    assert NonAdaptiveProtocol.decode(2, 2, 0x6666) == parity_protocol(2, 2)
    assert NonAdaptiveProtocol.decode(2, 2, 0xEEEE) == or_protocol()
    adaptive = AdaptiveTwoCopyProtocol.decode(0x668669)
    wirings = {
        "V_parity": lambda q: wire_nonadaptive([q, q], parity_protocol(2, 2)),
        "V_OR": lambda q: wire_nonadaptive([q, q], or_protocol()),
        "V_A_fit": lambda q: wire_adaptive(q, q, adaptive),
    }
    axes = range(4)
    steps = [()] + [(i,) for i in axes] + [(i, i) for i in axes]
    steps += list(itertools.combinations(axes, 2))
    assert len(steps) == 15
    for step in steps:
        point = [Fraction(step.count(i), 8) for i in axes]
        q = _exact_symmetric_box(*point)
        floats = [float(v) for v in point]
        assert np.array_equal(q.astype(float), box_from_correlators(symmetric_box(*floats)).p)
        grid = dict(zip(("alpha", "beta", "delta", "eps"), floats))
        scan = region_scan(grid, ("PARITY", "OR", "A"))
        for column, wire in wirings.items():
            assert _raw_chsh(wire(q)) == Fraction(scan.column(column)[0]), (column, point)


def _special_boxes():
    """The kept box, two boxes with a 1e-200 entry, and the uniform box (every row ties)."""
    pr = np.array([[0.5, 0, 0, 0.5]] * 3 + [[0, 0.5, 0.5, 0]])
    deterministic = np.array([[1.0, 0, 0, 0]] * 4)
    pr[0, 1] = deterministic[3, 3] = 1e-200
    kept = box_from_correlators(symmetric_box(0.4, 0.35, 0.75, -0.2)).p
    return np.array([kept, pr, deterministic, np.full((4, 4), 0.25)])


def test_stack_search_equals_one_box_searches():
    # each result of a stack is the one its box gives alone, in any order and stack size
    p = np.concatenate([_special_boxes(), seeded_boxes(np.random.default_rng(2102), 60)])
    alone = [adaptive_search_max(BipartiteBox(q)) for q in p]
    assert alone[0].best_protocol == PINNED_RESULTS["adaptive-kept"][1]
    rng = random.Random(2103)
    for size in (3, 7, 64):
        order = list(range(len(p)))
        rng.shuffle(order)
        for lo in range(0, len(order), size):
            chunk = order[lo : lo + size]
            assert adaptive_search_stack(p[chunk]) == [alone[i] for i in chunk]
    assert adaptive_search_stack(np.empty((0, 4, 4))) == []
    with pytest.raises(InvalidBox):
        adaptive_search_stack(np.stack([p[0], np.full((4, 4), 0.3)]))
    with pytest.raises(ValueError):
        adaptive_search_stack(p[0])


def local_boxes(count):
    """count seeded valid boxes p[count, 4, 4] whose canonical box is local.

    Half are mixtures of the 24 no-signalling vertices (PR boxes included,
    so some lie near the CHSH bound); half are symmetric boxes on the 1/8
    grid, where entries reach 0 and the bound is met exactly.
    """
    rng = np.random.default_rng(3001)
    mixtures = vertex_mixtures(rng, 4 * count)
    grid = rng.integers(-8, 9, (8 * count, 4)) / 8
    grid = boxes_from_fields(grid[:, [0, 1, 0, 1, 2, 2, 2, 3]])
    grid = grid[grid.min((1, 2)) >= 0]
    half = [q[search_module._canonical(q)[2]][: count // 2] for q in (mixtures, grid)]
    assert [len(q) for q in half] == [count // 2] * 2
    return np.concatenate(half)


def test_local_boxes_take_the_closed_form(monkeypatch):
    """On a local canonical box every class maximum is exactly 2, with key 0.

    No wiring of a local box is nonlocal, and the constant protocol, key 0,
    reaches 2 (Fine's theorem gives locality from the CHSH inequalities).
    The closed form equals the enumeration, run with the locality test
    off, on 200 seeded local boxes per class at m <= 2 and in the adaptive
    class, and on 50 at m = 3.
    """
    p = local_boxes(200)
    calls = [(m, dep, p if m < 3 else p[::4]) for m in (1, 2, 3) for dep in (False, True)]

    def search():
        return adaptive_search_stack(p) + [
            enumerate_nonadaptive_max(BipartiteBox(q), m, dep) for m, dep, qs in calls for q in qs
        ]

    closed = search()
    assert len(closed) == 200 * 5 + 50 * 2
    assert {(r.best_value, r.best_protocol, r.best_exact) for r in closed} == {(2.0, 0, 2)}
    _enumerate_local_boxes(monkeypatch)
    assert search() == closed


def test_only_nonlocal_boxes_reach_the_engine(monkeypatch):
    # a stack hands the engine its nonlocal boxes, in one call, and each
    # result is the one its box gives alone
    searched = []
    real = search_module._best_response_max

    def spy(block, grid, exact_rows, scales, errs, orbit):
        searched.append(len(scales))
        return real(block, grid, exact_rows, scales, errs, orbit)

    monkeypatch.setattr(search_module, "_best_response_max", spy)
    local = local_boxes(4)
    nonlocal_ = _special_boxes()[:2]  # the kept box and a PR box
    mixed = np.stack([local[0], nonlocal_[0], local[1], local[2], nonlocal_[1], local[3]])
    results = adaptive_search_stack(mixed)
    assert searched == [2]
    assert results == [adaptive_search_max(BipartiteBox(q)) for q in mixed]
    assert searched == [2, 1, 1]  # the one-box calls: only the nonlocal two
    searched.clear()
    assert adaptive_search_stack(local) == [adaptive_search_max(BipartiteBox(q)) for q in local]
    for q in np.concatenate([local, nonlocal_]):
        for m, dep in ((1, False), (2, True), (3, False)):
            enumerate_nonadaptive_max(BipartiteBox(q), m, dep)
    assert searched == [1] * 3 * len(nonlocal_)


def _raw_chsh(q):
    """CHSH value of a box p[xy, ab] from its raw entries, in their own arithmetic."""
    return sum(s * (q[xy, 0] - q[xy, 1] - q[xy, 2] + q[xy, 3])
               for xy, s in enumerate((1, 1, 1, -1)))


def test_printed_protocol_replays_best_exact_on_fractions():
    """Wired on the canonical box in Fractions, the printed protocol's CHSH value is best_exact."""
    p = seeded_boxes(np.random.default_rng(2104), 40)
    for q, r in zip(p, adaptive_search_stack(p)):
        exact = canonical_fractions(q)
        proto = AdaptiveTwoCopyProtocol.decode(r.best_protocol)
        assert _raw_chsh(wire_adaptive(exact, exact, proto)) == r.best_exact
        for m, dep in ((3, False), (2, True)):
            r = enumerate_nonadaptive_max(BipartiteBox(q), m, input_dependent=dep)
            proto = NonAdaptiveProtocol.decode(2, m, r.best_protocol)
            assert _raw_chsh(wire_nonadaptive([exact] * m, proto)) == r.best_exact


def test_input_dependent_at_least_input_free():
    rng = np.random.default_rng(5)
    for _ in range(15):
        box = random_valid_box(rng)
        free = enumerate_nonadaptive_max(box, 2)
        dep = enumerate_nonadaptive_max(box, 2, input_dependent=True)
        assert dep.best_value >= free.best_value - 1e-12
        assert dep.class_name == "nonadaptive-input-dep"
        assert dep.protocols_examined == 65536


def test_input_dependent_packing_and_replay():
    box = box_from_correlators(symmetric_box(0.05, 0.05, 0.9, 0.1))
    r = enumerate_nonadaptive_max(box, 3, input_dependent=True)
    assert r.protocols_examined == 1 << 32
    proto = NonAdaptiveProtocol.decode(2, 3, r.best_protocol)
    assert chsh_value_of_box(apply_nonadaptive(box, proto)) == pytest.approx(
        r.best_value, abs=1e-9
    )
    # this box gains nothing over using copy 1 as-is
    assert r.best_value == pytest.approx(3 * 0.9 - 0.1, abs=1e-12)


def test_exact_mode_certifies_float_search():
    rng = np.random.default_rng(17)
    for m in (1, 2):
        for _ in range(5):
            box = random_valid_box(rng)
            floatr = enumerate_nonadaptive_max(box, m)
            exactr = enumerate_nonadaptive_max(box, m)
            assert exactr.best_exact is not None
            assert float(exactr.best_exact) == exactr.best_value
            assert exactr.best_value == pytest.approx(floatr.best_value, abs=1e-12)
            assert exactr.best_protocol == floatr.best_protocol


def test_every_class_fills_best_exact():
    box = box_from_correlators(make_named_box("isotropic", delta=0.9))
    game3 = XorGame.from_predicate(3, lambda bits: (bits[0] & bits[1]) ^ bits[2])
    xb3 = MultipartiteXorBox(game3, (0.5, 0.5, 0.5, -0.5, 0.5, 0.5, 0.5, -0.25))
    results = [
        enumerate_nonadaptive_max(box, 3),
        enumerate_nonadaptive_max(box, 2, input_dependent=True),
        enumerate_nonadaptive_max(xb3, 2),
        adaptive_search_max(box),
    ]
    for r in results:
        assert isinstance(r.best_exact, Fraction)
        assert float(r.best_exact) == r.best_value


def test_search_budgets():
    box = box_from_correlators(make_named_box("isotropic", delta=1.0))
    with pytest.raises(BudgetExceeded):
        enumerate_nonadaptive_max(box, 4)
    xb4 = MultipartiteXorBox(
        XorGame.from_predicate(4, lambda bits: all(bits)), (0.5,) * 16
    )
    with pytest.raises(BudgetExceeded):
        enumerate_nonadaptive_max(xb4, 2)
    xb3 = MultipartiteXorBox(
        XorGame.from_predicate(3, lambda bits: all(bits)), (0.5,) * 8
    )
    with pytest.raises(BudgetExceeded):
        enumerate_nonadaptive_max(xb3, 1, input_dependent=True)


def _fraction_weights(rows, signs, n: int, m: int):
    """Exact s_x * W_x * scale by Fractions: the construction _copy_weights must equal."""
    den = max(f.denominator for row in rows for f in row)
    out = []
    for sign, row in zip(signs, rows):
        w = np.empty((1 << m,) * n, dtype=object)
        for idx in itertools.product(range(1 << m), repeat=n):
            v = Fraction(sign)
            for shift in range(m - 1, -1, -1):  # first copy most significant
                v *= row[sum(((i >> shift) & 1) << (n - 1 - j) for j, i in enumerate(idx))]
            w[idx] = v * den**m
        out.append(w)
    return out, den**m


def _weight_cases():
    rng = np.random.default_rng(83)
    tiny = 2.0**-1000
    bipartite = []
    while len(bipartite) < 3:  # nonlocal boxes: a local one takes the closed form
        box = random_valid_box(rng)
        if chsh_value_of_box(box) > 2:
            bipartite.append(box)
    # PR boxes; with tiny entries, the canonical box has entries 2 * tiny
    for row in ([0.5, 0.0, 0.0, 0.5], [0.5, tiny, 3 * tiny, 0.5]):
        bipartite.append(BipartiteBox(np.array([row] * 3 + [row[1::-1] + row[:1:-1]])))
    for box in bipartite:
        yield box, canonical_fractions(box.p).tolist(), (1, 1, 1, -1)
    chsh = XorGame.chsh()
    game3 = XorGame.from_predicate(3, lambda x: (x[0] & x[1]) ^ x[2])
    for game, delta in [
        (chsh, tuple(rng.uniform(-1, 1, 4))),
        (chsh, (0.0, tiny, -tiny, 1.0)),
        (chsh, (1.0, 1.0, 1.0, -1.0)),  # every weight is 0 or 1/2: the scale reduces
        (game3, tuple(rng.uniform(-1, 1, 8))),
        (game3, (0.0, -1.0, 2.0**-1074, 0.75, -tiny, tiny * 1.5, 0.5, -0.0)),
    ]:
        box = MultipartiteXorBox(game, delta)
        n = game.n
        even = [1 - 2 * (bin(a).count("1") & 1) for a in range(1 << n)]
        rows = [[(1 + e * Fraction(d)) / (1 << n) for e in even] for d in delta]
        yield box, rows, [1 - 2 * f for f in game.f]


def test_copy_weights_equal_the_fraction_construction():
    for box, rows, signs in _weight_cases():
        xor = isinstance(box, MultipartiteXorBox)
        n = box.n if xor else 2
        for m in (1, 2, 3) if xor else (1, 2):
            floats, ints, index, scale, l1 = search_module._copy_weights(box, m)
            # one weight per class string: the output parities of an XOR box
            assert [w.shape for w in floats + ints] == [((2 if xor else 4) ** m,)] * 2 * len(rows)
            floats, ints = [w[index] for w in floats], [w[index] for w in ints]
            want, want_scale = _fraction_weights(rows, signs, n, m)
            assert scale == want_scale
            assert l1 == sum(abs(v) for w in want for v in w.flat)
            for got, expected in zip(ints, want):
                assert got.shape == expected.shape
                # int64 below the width line, Python ints at or above it
                wide = l1 >= 1 << 62
                assert got.dtype == (object if wide else np.int64)
                assert all(type(v) is int for v in got.flat) or not wide
                assert [int(v) for v in got.flat] == list(expected.flat)
            if m == 1:
                for got, expected in zip(floats, want):
                    assert [float(v) for v in got.flat] == [float(v / scale) for v in expected.flat]


def test_class_index_maps_each_outcome_tuple_to_its_class_string():
    for n, m in itertools.product((2, 3), (1, 2, 3)):
        for k in (2, 1 << n):
            index = search_module._class_index(n, m, k)
            assert index is search_module._class_index(n, m, k)  # cached, so shared
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[(0,) * n] = 1
            assert index.shape == (1 << m,) * n
            for idx in itertools.product(range(1 << m), repeat=n):
                string = 0
                for shift in range(m - 1, -1, -1):  # first copy most significant
                    output = sum(((i >> shift) & 1) << (n - 1 - j) for j, i in enumerate(idx))
                    string = string * k + (output if k > 2 else bin(output).count("1") & 1)
                assert index[idx] == string


def test_sign_matrix_is_cached_read_only():
    for m in (1, 2, 3):
        smat = search_module._sign_matrix(m)
        assert smat is search_module._sign_matrix(m)  # cached, so shared
        assert not smat.flags.writeable
        assert smat.tolist() == [[(-1) ** (g >> s & 1) for s in range(1 << m)]
                                 for g in range(1 << (1 << m))]


def test_dyadic_parts_equal_the_fraction_construction():
    # per leading index, Python ints over the smallest power-of-two denominator,
    # on the adaptive search's stacks and on signed, subnormal and zero entries
    rng = np.random.default_rng(2205)
    odd = rng.uniform(-4, 4, (6, 3)) * 2.0 ** rng.integers(-1070, 40, (6, 3))
    odd[0] = [2.0**-1074, -0.0, -3.0]
    odd[1] = 0.0
    odd[2] = [2.0**60, -(2.0**40), 8.0]
    for x in (_special_boxes(), seeded_boxes(rng, 40), odd):
        ints, dens = search_module._dyadic(x)
        assert ints.shape == x.shape and len(dens) == len(x)
        for row, got, den in zip(x, ints, dens):
            exact = [Fraction(v) for v in row.flat]
            assert den == max(f.denominator for f in exact)
            assert all(type(v) is int for v in got.flat)
            assert [Fraction(v, den) for v in got.flat] == exact


def test_search_rejects_invalid_box():
    bad = box_from_correlators(symmetric_box(0.3, 0.1, 0.9, -0.2))
    with pytest.raises(InvalidBox):
        enumerate_nonadaptive_max(bad, 2)
    with pytest.raises(InvalidBox):
        adaptive_search_max(bad)


def test_adaptive_search_reference_boxes():
    expectations = (
        (1.0, -0.70, 3.8275),
        (0.92, -0.22, 2.9867),
        (0.917, -0.22, 2.9710),  # plain identity is the class optimum here
    )
    for delta, eps, value in expectations:
        box = box_from_correlators(symmetric_box(0.0, 0.0, delta, eps))
        r = adaptive_search_max(box)
        assert r.best_value == pytest.approx(value, abs=1e-9), (delta, eps)
        assert r.class_name == "adaptive2"
        assert r.protocols_examined == 4096 * 4096
        proto = AdaptiveTwoCopyProtocol.decode(r.best_protocol)
        assert chsh_value_of_box(apply_adaptive(box, box, proto)) == pytest.approx(
            r.best_value, abs=1e-9
        )


def test_adaptive_search_dominates_named_wirings():
    rng = np.random.default_rng(3)
    for _ in range(6):
        box = random_valid_box(rng)
        r = adaptive_search_max(box)
        assert r.best_value >= chsh_value_of_box(box) - 1e-12
    for delta in (0.75, 0.9):
        box = box_from_correlators(make_named_box("isotropic", delta=delta))
        r = adaptive_search_max(box)
        assert r.best_value >= chsh_value_of_box(bs_output_box(delta)) - 1e-12


def test_adaptive_uniform_box_reaches_only_local_bound():
    # constant wirings output deterministically, so the best value over the
    # class on the uniform box is the local bound 2, achieved at encoding 0
    box = box_from_correlators(symmetric_box(0.0, 0.0, 0.0, 0.0))
    r = adaptive_search_max(box)
    assert r.best_value == pytest.approx(2.0, abs=1e-12)
    assert r.best_protocol == 0


def test_region_scan_or_window_at_alpha_half():
    scan = region_scan({"alpha": 0.5, "delta": 1.0, "eps": (-0.10, 0.40, 0.0005)})
    eps = scan.column("eps")
    mask = (scan.column("winner") == "OR") & scan.column("valid")
    assert abs(eps[mask].min() - 0.0) < 1e-9
    assert abs(eps[mask].max() - 1 / 3) < 1e-3
    # below the validity bound eps = 2 alpha - 1 = 0 every cell is invalid
    assert not scan.column("valid")[eps < -1e-9].any()


def test_region_scan_parity_wins_on_trivial_marginals():
    scan = region_scan({"alpha": 0.0, "delta": 1.0, "eps": (-0.495, 0.895, 0.01)})
    eps = scan.column("eps")
    winner = scan.column("winner")
    assert scan.column("valid").all()
    assert (winner[eps > 0] == "PARITY").all()
    assert (winner[eps < 0] == "none").all()


def _cell(scan, i: int) -> dict:
    """Every column of the scan at cell i."""
    return {name: scan.column(name)[i] for name in CSV_HEADER.split(",")}


def test_region_scan_columns_match_closed_forms():
    scan = region_scan(
        {
            "alpha": (0.0, 0.2, 0.05),
            "beta": (0.0, 0.3, 0.1),
            "delta": (0.5, 0.9, 0.2),
            "eps": (-0.2, 0.2, 0.1),
        }
    )
    assert len(scan) == 5 * 4 * 3 * 5
    c = {name: scan.column(name) for name in CSV_HEADER.split(",")}
    valid = np.flatnonzero(c["valid"])
    assert len(valid) > 100
    for i in valid:
        alpha, beta, delta, eps = (float(c[name][i]) for name in ("alpha", "beta", "delta", "eps"))
        box = box_from_correlators(symmetric_box(alpha, beta, delta, eps))
        replayed_or = chsh_value_of_box(apply_nonadaptive(box, or_protocol()))
        replayed_parity = chsh_value_of_box(apply_nonadaptive(box, parity_protocol(2, 2)))
        assert c["V_OR"][i] == pytest.approx(replayed_or, abs=1e-12)
        assert c["V_parity"][i] == pytest.approx(replayed_parity, abs=1e-12)
        assert c["V"][i] == pytest.approx(3 * delta - eps, abs=1e-12)
    # the first row of the third reference table, at its printed precision
    cell = _cell(region_scan({"alpha": 0.42, "delta": 0.99, "eps": -0.16}), 0)
    assert f"{cell['V_A_fit']:.6f}" == "3.101575"
    assert f"{cell['V_OR']:.4f}" == "3.2683"


def test_region_scan_collapse_flag_requires_validity():
    cell = _cell(region_scan({"alpha": 0.5, "delta": 1.0, "eps": -0.1}), 0)
    assert not cell["valid"] and cell["V_OR"] > CC_COLLAPSE_THRESHOLD
    assert not cell["collapses_cc"]
    cell2 = _cell(region_scan({"alpha": 0.42, "delta": 0.99, "eps": -0.16}), 0)
    assert cell2["valid"] and cell2["V_OR"] > CC_COLLAPSE_THRESHOLD
    assert cell2["collapses_cc"]
    assert cell2["winner"] == "OR"


def test_region_scan_winner_can_be_adaptive_label():
    scan = region_scan(
        {"alpha": 0.26, "delta": 1.0, "eps": 0.01}, protocols=("PARITY", "OR", "A")
    )
    assert scan.column("winner")[0] == "A"


def test_region_scan_csv_format():
    scan = region_scan({"alpha": 0.5, "delta": 1.0, "eps": (0.0, 0.01, 0.005)})
    text = to_csv(scan)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(scan)
    fields = lines[1].split(",")
    assert len(fields) == 11
    assert fields[4] in ("true", "false") and fields[10] in ("true", "false")


def test_region_scan_errors():
    with pytest.raises(UnknownKind):
        region_scan({"alpha": 0.5, "delta": 1.0, "eps": 0.0}, protocols=("XOR",))
    with pytest.raises(ValueError):
        region_scan({"alpha": 0.5, "eps": 0.0})
    # a misspelt "beta" would otherwise leave beta tracking alpha
    with pytest.raises(ValueError, match="^grid has an unknown axis 'betta'$"):
        region_scan({"alpha": (0.0, 0.2, 0.1), "eps": 0.0, "delta": 0.9, "betta": 0.3})
    with pytest.raises(BudgetExceeded):
        region_scan(
            {"alpha": (0.0, 1.0, 1e-4), "delta": 1.0, "eps": (-1.0, 1.0, 1e-4)}
        )
    # the budget is checked before any axis is built, and a length whose
    # quotient overflows to inf is over it
    for alpha in [(0.0, 1.0, 1e-12), (0.0, 1e308, 1e-308)]:
        with pytest.raises(BudgetExceeded):
            region_scan({"alpha": alpha, "delta": 1.0, "eps": 0.0})
    for alpha in [math.inf, math.nan, (0.0, 1.0, math.inf), (0.0, math.inf, 0.1),
                  (math.nan, 1.0, 0.1), (0.0, 1.0, math.nan)]:
        with pytest.raises(ValueError):
            region_scan({"alpha": alpha, "delta": 1.0, "eps": 0.0})


def test_region_scan_rejects_a_reversed_range():
    # a stop below the start by more than 1e-9 steps names its axis; start == stop
    # and a stop inside the slack keep one cell
    for name in ("alpha", "beta", "delta", "eps"):
        grid = {"alpha": 0.25, "delta": 1.0, "eps": 0.0, name: (0.5, 0.0, 0.1)}
        with pytest.raises(ValueError, match=f"^{name} axis stop 0.0 lies below its start 0.5$"):
            region_scan(grid)
    for stop in (0.5, 0.5 - 0.5e-10, 0.5 - 0.1 * 0.9e-9):
        scan = region_scan({"alpha": (0.5, stop, 0.1), "delta": 1.0, "eps": 0.0})
        assert scan.column("alpha").tolist() == [0.5]
    with pytest.raises(ValueError, match="^eps axis stop"):
        region_scan({"alpha": 0.5, "delta": 1.0, "eps": (0.0, -0.1 * 1.1e-9, 0.1)})


# ------------------------------------------------- streamed CSV byte identity


def to_csv(scan) -> str:
    """The whole CSV that write_csv streams, as one string."""
    buf = io.StringIO()
    scan.write_csv(buf)
    return buf.getvalue()


def reference_csv(scan) -> str:
    """The row-wise f-string writer the streamed one replaced, kept as the reference."""
    c = {name: scan.column(name) for name in CSV_HEADER.split(",")}
    lines = [CSV_HEADER + "\n"]
    for i in range(len(scan)):
        lines.append(
            f"{c['alpha'][i]:.12g},{c['beta'][i]:.12g},{c['delta'][i]:.12g},"
            f"{c['eps'][i]:.12g},{'true' if c['valid'][i] else 'false'},"
            f"{c['V'][i]:.12g},{c['V_parity'][i]:.12g},{c['V_OR'][i]:.12g},"
            f"{c['V_A_fit'][i]:.12g},{c['winner'][i]},"
            f"{'true' if c['collapses_cc'][i] else 'false'}\n"
        )
    return "".join(lines)


PLANE_GRID = {"alpha": (0.0, 0.5, 0.01), "delta": 0.93, "eps": (-1.0, 1.0, 0.01)}
CUBE_GRID = {
    "alpha": (0.0, 0.48, 0.024),
    "beta": (0.01, 0.49, 0.024),
    "delta": (0.88, 0.98, 0.02),
    "eps": (-1.0, 0.9, 0.095),
}
SIGNED_ZERO_GRID = {
    "alpha": (-0.5, 0.5, 0.25), "beta": -0.0, "delta": (-0.0, 0.0, 1.0), "eps": (-1.0, 1.0, 0.5)
}
# the shape of the benchmark's plane: tracked beta, fixed delta, 201 x 501 cells
BENCH_PLANE_GRID = {"alpha": (0.013, 0.513, 0.0025), "delta": 0.9, "eps": (-0.987, 0.963, 0.0039)}
FOUR_D_GRID = {
    "alpha": (-0.3, 0.45, 0.05),
    "beta": (0.1, 0.5, 0.08),
    "delta": (-0.2, 1.0, 0.3),
    "eps": (-1.0, 0.4, 0.07),
}


@pytest.mark.parametrize(
    "grid, protocols, rows, digest",
    [
        # SHA-256 of the CSV the row-wise writer printed for these grids
        (PLANE_GRID, ("PARITY", "OR"), 10251,
         "74d8a8276d94b2cfc31f1f2744649a6c790527f3a2ff0a6ae08c69b3acafaa33"),
        (CUBE_GRID, ("PARITY", "OR", "A"), 55566,
         "586080a4171b6ecc5e6b98758086327cfa3384158a18f8160c675fd4c16757f2"),
        (SIGNED_ZERO_GRID, ("A",), 25,
         "a846fa194d37a64814c63504ebd2853897b718d3464f714b086202cf0bb7c9db"),
        # SHA-256 of the CSV the per-chunk writer printed before the text tables
        (BENCH_PLANE_GRID, ("PARITY", "OR", "A"), 100701,
         "d308ee62408850a90f8551a69943b0cc9721be8af54be8e1653e216679b1161e"),
        # SHA-256 of the CSV the row-wise writer printed
        (FOUR_D_GRID, ("A", "PARITY"), 10080,
         "18798db18509ed02fe220a27a4acfc3a653a50056c48cbea9da3f016d8351493"),
    ],
    ids=["plane", "cube", "signed-zero", "bench-plane", "4d"],
)
def test_region_scan_csv_bytes_match_row_wise_writer(grid, protocols, rows, digest):
    scan = region_scan(grid, protocols=protocols)
    text = to_csv(scan)
    assert len(scan) == rows
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # the row-wise writer takes about a second on the 100,701-row plane;
    # its digest alone guards it
    if rows < 100_000:
        assert text == reference_csv(scan)


def _plane(alpha_count: int, eps_count: int) -> dict:
    # binary-exact steps, so the axis lengths are exactly the counts
    return {
        "alpha": (0.0, (alpha_count - 1) / 256, 1 / 256),
        "delta": 0.96875,
        "eps": (-1.0, -1.0 + (eps_count - 1) / 128, 1 / 128),
    }


@pytest.mark.parametrize("alpha_count, eps_count", [(63, 65), (64, 64), (17, 241)])
def test_region_scan_csv_across_the_chunk_edge(alpha_count, eps_count):
    scan = region_scan(_plane(alpha_count, eps_count), protocols=("PARITY", "OR", "A"))
    assert len(scan) - SCAN_CHUNK in (-1, 0, 1)
    assert to_csv(scan) == reference_csv(scan)


SPANNING_4D_GRID = {
    "alpha": (0.1, 0.4, 0.05), "beta": (0.0, 0.45, 0.05), "delta": (0.7, 1.0, 0.1),
    "eps": (-0.5, 0.5, 0.025),
}


def test_region_scan_csv_4d_grid_spanning_chunks():
    scan = region_scan(SPANNING_4D_GRID, protocols=("OR", "A"))
    assert len(scan) > 2 * SCAN_CHUNK
    assert to_csv(scan) == reference_csv(scan)


@pytest.mark.parametrize("grid", [_plane(64, 129), SPANNING_4D_GRID], ids=["tracked-beta", "free-beta"])
def test_region_scan_column_matches_rows(grid):
    # each column, computed alone chunk by chunk, against every row computed at once
    scan = region_scan(grid, protocols=("PARITY", "OR", "A"))
    assert len(scan) > 2 * SCAN_CHUNK
    names = CSV_HEADER.split(",")
    rows = scan._chunk(0, len(scan), names)[1]
    rows["winner"] = scan._labels[rows["winner"]].astype(str)
    for name in names:
        assert scan.column(name).tolist() == rows[name].tolist(), name


# per-cell columns at 0.0, -0.0 and below 1e-4, where %g prints an exponent;
# V_A_fit, on (alpha, delta, eps), spans more than SCAN_CHUNK cells of the
# 4-D grid, so it is formatted per cell there too
EDGE_4D_GRID = {
    "alpha": (0.0, 2**-14, 2**-16), "beta": (0.0, 2**-16, 2**-16), "delta": (-1.0, 0.0, 0.5),
    "eps": (-2.0, 0.25, 2**-7),
}
EDGE_PLANE_GRID = {"alpha": 0.25, "delta": -0.0, "eps": (-(2**-13), 2**-13, 2**-15)}


@pytest.mark.parametrize(
    "grid, hits",
    [
        # alpha = beta = 0, delta = eps = -1 gives V_OR = 0; V_A_fit is
        # -alpha at delta = 0, eps = -2
        (EDGE_4D_GRID, {"V_OR": {"0", "e-"}, "V_A_fit": {"0", "e-"}}),
        # V = 3 * -0.0 - 0.0 is -0.0; eps steps of 2^-15
        (EDGE_PLANE_GRID, {"eps": {"0", "e-"}, "V": {"-0", "e-"}, "V_parity": {"0", "e-"},
                           "V_OR": {"0", "e-"}, "V_A_fit": {"0", "e-"}}),
    ],
    ids=["4d", "plane"],
)
def test_region_scan_csv_per_cell_zeros_and_exponents(grid, hits):
    scan = region_scan(grid, protocols=("PARITY", "OR", "A"))
    assert not _tabled(scan) & set(hits)
    text = to_csv(scan)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    for name, kinds in hits.items():
        printed = {row[CSV_HEADER.split(",").index(name)] for row in rows}
        found = {k for k in ("0", "-0") if k in printed}
        if any("e-" in v for v in printed):
            found.add("e-")
        assert found == kinds, name
    assert text == reference_csv(scan)


def _tabled(scan) -> set:
    return {name for field in scan._fields() if field.table is not None for name in field.names}


def test_signed_zeros_print_apart():
    # at delta = -0.0 and eps = 0.0, V = 3 * -0.0 - 0.0 is -0.0 and V_parity
    # = 0.0 - 0.0 is 0.0; deduplicating by value would print one for both
    for alpha in [(0.0, 0.5, 0.25), 0.0]:
        scan = region_scan({"alpha": alpha, "delta": -0.0, "eps": (-0.5, 0.5, 0.5)})
        # V depends on (delta, eps): a table when alpha varies, per cell when not
        assert ("V" in _tabled(scan)) == isinstance(alpha, tuple)
        text = to_csv(scan)
        rows = [line.split(",") for line in text.splitlines()[1:] if line.split(",")[3] == "0"]
        assert len(rows) == len(scan) // 3
        assert all(row[2] == "-0" and row[5] == "-0" and row[6] == "0" for row in rows)
        assert text == reference_csv(scan)


def test_region_scan_csv_signed_zero_scalars():
    scan = region_scan({"alpha": -0.0, "delta": 1.0, "eps": -0.0})
    text = to_csv(scan)
    assert text.splitlines()[1].startswith("-0,-0,1,-0,")
    assert text == reference_csv(scan)


@pytest.mark.parametrize(
    "protocols",
    [p for k in range(4) for p in itertools.permutations(("PARITY", "OR", "A"), k)],
    ids=lambda p: ",".join(p) or "none",
)
def test_region_scan_csv_every_protocol_list(protocols):
    scan = region_scan(
        {"alpha": (0.2, 0.5, 0.02), "delta": (0.9, 1.0, 0.05), "eps": (-0.4, 0.4, 0.02)},
        protocols=protocols,
    )
    assert set(scan.column("winner")) <= {"none", *protocols}
    assert to_csv(scan) == reference_csv(scan)


def test_region_scan_write_csv_streams_fixed_chunks(monkeypatch):
    seen = []
    original = RegionScanResult._chunk

    def recording(self, lo, hi, *args):
        seen.append((lo, hi))
        return original(self, lo, hi, *args)

    monkeypatch.setattr(RegionScanResult, "_chunk", recording)
    scan = region_scan(_plane(64, 129))
    scan.write_csv(io.StringIO())
    assert seen == [(lo, min(lo + SCAN_CHUNK, len(scan))) for lo in range(0, len(scan), SCAN_CHUNK)]


def _arrays(value):
    """Every numpy array reachable from an object's attributes, lists, tuples and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif hasattr(value, "__dict__"):
        yield from _arrays(vars(value))


class _Stop(Exception):
    pass


def test_region_scan_keeps_no_array_above_scan_chunk_cells():
    # 1001 x 2 x 1001 cells: alpha with eps, and V_A_fit on (alpha, delta,
    # eps), each span more cells than a table may hold and fewer than the grid
    grid = {"alpha": (0.0, 0.5, 0.0005), "beta": (0.0, 0.5, 0.5), "delta": 1.0,
            "eps": (-1.0, 1.0, 0.002)}
    scan = region_scan(grid)
    assert len(scan) == 2_004_002

    class Watch(io.StringIO):
        writes = 0

        def write(self, text):
            sizes = [a.size for a in _arrays(scan)]
            assert sizes and max(sizes) <= SCAN_CHUNK
            Watch.writes += 1
            if Watch.writes == 4:
                raise _Stop
            return super().write(text)

    with pytest.raises(_Stop):
        scan.write_csv(Watch())
    # V_OR and V_A_fit are formatted per cell
    assert _tabled(scan) == {"alpha", "beta", "delta", "eps", "valid", "V", "V_parity",
                             "winner", "collapses_cc"}
    # column() reads through the chunk kernel and keeps nothing
    assert scan.column("eps")[-1] == pytest.approx(1.0)
    scan.column("V_OR")
    assert max(a.size for a in _arrays(scan)) <= SCAN_CHUNK


# ---------------------------------------------------------- the %.12g formatter


def _printed(values) -> list:
    """_g12 of values as one bytes object per value, NUL padding dropped."""
    rows = search_module._g12(values)
    assert rows.shape == (len(values), 20) and rows.dtype == np.uint8
    return rows.view("S20").ravel().tolist()


def _g12_cases() -> np.ndarray:
    tens = 10.0 ** np.arange(-20, 25)
    # exact binary halves of a 12th digit: q * 2^(e - 12) with q odd is
    # q * 5^(11 - e) / 2 units of its 12th digit; q runs over decade e
    halves = []
    for e in range(-4, 12):
        lo, hi = (math.ceil(Fraction(10) ** k * 2 ** (12 - e)) for k in (e, e + 1))
        halves += [math.ldexp(q, e - 12) for q in range(lo | 1, hi, 2 * max(1, (hi - lo) // 500))]
    # just below the next decade: rounds up to 10^(e+1) or stays at 12 nines
    carries = [(10 - 5e-12) * 10.0**e for e in range(-6, 14)] + [9.9999999999995, 999999999999.5]
    edges = [1e-4, 1e12, 0.0, math.inf, math.nan, 5e-324, 1e308, 1.23456789012e-308]
    named = np.array([*tens, *halves, *carries, *edges])
    named = np.concatenate([named, np.nextafter(named, 0), np.nextafter(named, math.inf)])
    return np.concatenate([named, -named])


def test_g12_prints_named_cases_as_percent_g():
    values = _g12_cases()
    assert _printed(values) == [b"%.12g" % v for v in values.tolist()]
    assert _printed(np.array([-1.23456789012e-308])) == [b"-1.23456789012e-308"]  # 19 bytes
    assert _printed(np.array([0.0, -0.0, -math.inf, math.nan])) == [b"0", b"-0", b"-inf", b"nan"]


def test_g12_prints_a_million_seeded_floats_as_percent_g():
    rng = np.random.default_rng(2901)
    n = 1 << 18
    blocks = [
        rng.integers(-(2**63), 2**63 - 1, n).view(np.float64),  # any bit pattern
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6, 14, n),  # every decade of the fast path
        rng.integers(10**12, 10**13, n) / 10.0 ** rng.integers(0, 18, n),  # 13-digit decimals
        rng.uniform(-4, 4, n),  # scan-sized values
    ]
    for values in blocks:
        for part in np.array_split(values, 8):
            assert _printed(part) == [b"%.12g" % v for v in part.tolist()]


def test_g12_falls_back_value_by_value_only_at_the_edges(monkeypatch):
    # the fast path must carry the scan's per-cell floats: a formatter that
    # sends them all through the per-value fallback would still print the
    # right bytes, so the fallback's calls are counted
    calls = []
    fallback = search_module._g12_fallback
    monkeypatch.setattr(search_module, "_g12_fallback", lambda v: calls.append(v) or fallback(v))
    scan = region_scan(BENCH_PLANE_GRID, protocols=("PARITY", "OR", "A"))
    for name in ("V_OR", "V_A_fit"):
        values = scan.column(name)
        assert _printed(values) == [b"%.12g" % v for v in values.tolist()]
    assert len(calls) < 0.001 * 2 * len(scan)
    calls.clear()  # and the patched helper is the one _g12 calls
    _printed(np.array([0.0, 1e-5, 0.5, 1e12, math.inf]))
    assert calls == [0.0, 1e-5, 1e12, math.inf]


HUGE_AXES_ARGV = ["scan", "--alpha", "0:1e200:1e200", "--delta", "1e200", "--eps=-1e200", "--out", "-"]


def test_scan_on_huge_finite_axes_prints_no_warnings():
    # 1e200^2 overflows and inf - inf is nan: the CSV prints them, and
    # numpy warns about none of them
    scan = region_scan({"alpha": (0.0, 1e200, 1e200), "delta": 1e200, "eps": -1e200})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = to_csv(scan)
    assert text == reference_csv(scan)
    assert text.splitlines()[1] == "0,0,1e+200,-1e+200,false,4e+200,nan,nan,nan,PARITY,false"
    proc = subprocess.run([sys.executable, "-m", "nlbd.cli", *HUGE_AXES_ARGV],
                          capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, text, "")


def test_scan_cli_threads_print_same_bytes(capsys):
    argv = ["scan", "--alpha", "0:0.5:0.01", "--eps=-1:1:0.01", "--delta", "0.9:1:0.05",
            "--protocols", "PARITY,OR,A", "--out", "-"]
    printed = []
    for threads in ("1", "2", "3"):
        assert cli_main(argv + ["--threads", threads]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        printed.append(captured.out)
    assert len(printed[0].splitlines()) == 1 + 51 * 201 * 3
    assert printed[1] == printed[0] and printed[2] == printed[0]


def test_reference_table_one():
    rep = reproduce_tables(1)
    assert len(rep.checks) == 12
    assert rep.mismatches == ()
    assert rep.fitted_combinations[0] == pytest.approx(0.02, abs=1e-9)
    assert rep.fitted_combinations[1] == pytest.approx(0.0, abs=1e-9)


def test_reference_table_two():
    rep = reproduce_tables(2)
    assert len(rep.checks) == 36
    assert rep.mismatches == ()
    for comb, row in zip(rep.fitted_combinations, rep.printed_rows):
        # fitted combination tracks -2 alpha up to the printing precision:
        # a V_A rounding of 1e-4 moves the fit by 4e-4/(delta - eps)
        assert comb == pytest.approx(-2 * float(row[2]), abs=5e-4)


def test_reference_table_three_flags_only_the_parity_column():
    rep = reproduce_tables(3)
    assert [(c.row, c.column) for c in rep.mismatches] == [
        (i, "V_parity") for i in range(7)
    ]
    for check in rep.checks:
        if check.column != "V_parity":
            assert check.matches, check
    for comb, row in zip(rep.fitted_combinations, rep.printed_rows):
        assert comb == pytest.approx(-2 * float(row[0]), abs=1e-9)
    report = format_table_report(rep)
    assert report.count("[DIFF]") == 7
    assert "mismatches: 7" in report


def test_reference_table_audit_adds_search_column():
    rep = reproduce_tables(1, audit_adaptive=True)
    values = [row["V_search"] for row in rep.computed_rows]
    assert values[1] == pytest.approx(3.8275, abs=1e-9)
    assert values[3] == pytest.approx(2.9867, abs=1e-9)
    assert values[5] == pytest.approx(2.9710, abs=1e-9)
    # identical boxes share one search, the free parameters do not matter
    assert values[0] == values[1]
    report = format_table_report(rep)
    assert "adaptive-class search maximum" in report


def test_reference_table_unknown_index():
    with pytest.raises(UnknownKind):
        reproduce_tables(4)


def _pinned_cases():
    """(id, search call) for every search class on a fixed list of boxes."""
    rng = np.random.default_rng(12)
    seeded = [box_from_correlators(symmetric_box(*random_symmetric_params(rng))) for _ in range(2)]
    chsh_deltas = (0.91, 0.83, 0.77, -0.69)
    chsh_xor = MultipartiteXorBox(XorGame.chsh(), chsh_deltas)
    # the same parity biases as a bipartite box with trivial marginals
    chsh_box = BipartiteBox(np.array([[1 + d, 1 - d, 1 - d, 1 + d] for d in chsh_deltas]) / 4)
    uniform = box_from_correlators(symmetric_box(0.0, 0.0, 0.0, 0.0))
    kept = box_from_correlators(symmetric_box(0.4, 0.35, 0.75, -0.2))
    two_player = {"seeded0": seeded[0], "seeded1": seeded[1], "chsh": chsh_xor,
                  "uniform": uniform, "kept": kept}
    game3 = XorGame.from_predicate(3, lambda bits: (bits[0] & bits[1]) ^ bits[2])
    three_player = {"xor3": MultipartiteXorBox(game3, tuple(rng.uniform(-1, 1, 8))),
                    "uniform3": MultipartiteXorBox(game3, (0.0,) * 8)}
    cases = []
    for name, box in two_player.items():
        for m in (1, 2, 3):
            cases.append((f"free-{name}-m{m}", lambda b=box, m=m: enumerate_nonadaptive_max(b, m)))
            if m < 3 or name in ("seeded0", "uniform"):
                cases.append((f"dep-{name}-m{m}", lambda b=box, m=m: enumerate_nonadaptive_max(
                    b, m, input_dependent=True)))
        bip = chsh_box if name == "chsh" else box
        cases.append((f"adaptive-{name}", lambda b=bip: adaptive_search_max(b)))
    for name, box in three_player.items():
        for m in (1, 2, 3):
            cases.append((f"free-{name}-m{m}", lambda b=box, m=m: enumerate_nonadaptive_max(b, m)))
    return cases


def _pinned_results():
    return {key: (r.best_value.hex(), r.best_protocol)
            for key, r in ((key, call()) for key, call in _pinned_cases())}


# best_value.hex() and best_protocol of every case: the correctly rounded
# exact maximum and the smallest exact maximiser, on the canonical box
PINNED_RESULTS = {
    "free-seeded0-m1": ("0x1.0000000000000p+1", 0x0),
    "dep-seeded0-m1": ("0x1.0000000000000p+1", 0x0),
    "free-seeded0-m2": ("0x1.0000000000000p+1", 0x0),
    "dep-seeded0-m2": ("0x1.0000000000000p+1", 0x0),
    "free-seeded0-m3": ("0x1.0000000000000p+1", 0x0),
    "dep-seeded0-m3": ("0x1.0000000000000p+1", 0x0),
    "adaptive-seeded0": ("0x1.0000000000000p+1", 0x0),
    "free-seeded1-m1": ("0x1.6f8437315c57fp+1", 0x55),
    "dep-seeded1-m1": ("0x1.6f8437315c57fp+1", 0x55),
    "free-seeded1-m2": ("0x1.6f8437315c57fp+1", 0x3333),
    "dep-seeded1-m2": ("0x1.6f8437315c57fp+1", 0x3333),
    "free-seeded1-m3": ("0x1.6f8437315c57fp+1", 0xf0f0f0f),
    "adaptive-seeded1": ("0x1.6f8437315c57fp+1", 0x330330),
    "free-chsh-m1": ("0x1.999999999999ap+1", 0x55),
    "dep-chsh-m1": ("0x1.999999999999ap+1", 0x55),
    "free-chsh-m2": ("0x1.999999999999ap+1", 0x3333),
    "dep-chsh-m2": ("0x1.999999999999ap+1", 0x3333),
    "free-chsh-m3": ("0x1.999999999999ap+1", 0xf0f0f0f),
    "adaptive-chsh": ("0x1.999999999999ap+1", 0x330330),
    "free-uniform-m1": ("0x1.0000000000000p+1", 0x0),
    "dep-uniform-m1": ("0x1.0000000000000p+1", 0x0),
    "free-uniform-m2": ("0x1.0000000000000p+1", 0x0),
    "dep-uniform-m2": ("0x1.0000000000000p+1", 0x0),
    "free-uniform-m3": ("0x1.0000000000000p+1", 0x0),
    "dep-uniform-m3": ("0x1.0000000000000p+1", 0x0),
    "adaptive-uniform": ("0x1.0000000000000p+1", 0x0),
    "free-kept-m1": ("0x1.3999999999999p+1", 0x55),
    "dep-kept-m1": ("0x1.3999999999999p+1", 0x55),
    "free-kept-m2": ("0x1.3999999999999p+1", 0x3333),
    "dep-kept-m2": ("0x1.3999999999999p+1", 0x3333),
    "free-kept-m3": ("0x1.3999999999999p+1", 0xf0f0f0f),
    "adaptive-kept": ("0x1.3999999999999p+1", 0x330330),
    "free-xor3-m1": ("0x1.1152cae186f28p+1", 0x555),
    "free-xor3-m2": ("0x1.1152cae186f28p+1", 0x333333),
    "free-xor3-m3": ("0x1.1152cae186f28p+1", 0xf0f0f0f0f0f),
    "free-uniform3-m1": ("0x0.0p+0", 0x0),
    "free-uniform3-m2": ("0x0.0p+0", 0x0),
    # every one of the 65,536 first-stage rows ties at 0
    "free-uniform3-m3": ("0x0.0p+0", 0x0),
}


def test_search_results_pinned():
    assert _pinned_results() == PINNED_RESULTS


def _adaptive_value_exact(p, packed):
    """CHSH value of an adaptive wiring on two copies of box p[xy][ab], in Fractions."""
    proto = AdaptiveTwoCopyProtocol.decode(packed)
    total = Fraction(0)
    for x, y, a1, b1, a2, b2 in itertools.product((0, 1), repeat=6):
        u, w = proto.box2map_a[2 * x + a1], proto.box2map_b[2 * y + b1]
        a = proto.outmap_a[4 * x + 2 * a1 + a2]
        b = proto.outmap_b[4 * y + 2 * b1 + b2]
        weight = p[2 * x + y][2 * a1 + b1] * p[2 * u + w][2 * a2 + b2]
        total += weight if a ^ b == x & y else -weight
    return total


def test_adaptive_pins_are_exact_maximisers():
    # the pinned protocols replay to the exact maximum on the canonical box, where
    # 0x33033f and 0x33f33f tie with them exactly; on the raw entries, whose rows
    # need not sum to 1, the three differ
    rng = np.random.default_rng(12)
    seeded1 = [random_valid_box(rng) for _ in range(2)][1]
    kept = box_from_correlators(symmetric_box(0.4, 0.35, 0.75, -0.2))
    for box, pinned in ((seeded1, PINNED_RESULTS["adaptive-seeded1"][1]),
                        (kept, PINNED_RESULTS["adaptive-kept"][1])):
        r = adaptive_search_max(box)
        assert r.best_protocol == pinned == 0x330330
        canonical, raw = canonical_fractions(box.p), [[Fraction(v) for v in row] for row in box.p]
        for key in (pinned, 0x33033F, 0x33F33F):
            assert _adaptive_value_exact(canonical, key) == r.best_exact
        assert len({_adaptive_value_exact(raw, key) for key in (0x330330, 0x33033F, 0x33F33F)}) > 1


def _float_and_exact_stages(call, monkeypatch):
    """The two passes, the scale and the rounding bound a search call hands its engine.

    The locality test is off, so a local box reaches the engine too.
    """
    seen = {}
    real = search_module._best_response_max
    _enumerate_local_boxes(monkeypatch)

    def spy(block, grid, exact_rows, scales, errs, *orbit):
        [scale], [err] = scales, errs  # every call searches a stack of one box
        seen.update(block=block, grid=grid, exact_rows=exact_rows, scale=scale, err=err)
        return real(block, grid, exact_rows, scales, errs, *orbit)

    monkeypatch.setattr(search_module, "_best_response_max", spy)
    call()
    return seen


def _rounding_cases():
    rng = np.random.default_rng(41)
    boxes = {
        # the two boxes on which float tie-breaks once printed wrong protocols
        "kept": box_from_correlators(symmetric_box(0.4, 0.35, 0.75, -0.2)),
        "dep-fault": box_from_correlators(symmetric_box(
            0.20650028770101136, 0.28021490780095504, -0.1352018836223936, 0.7738648175080272)),
        "seeded": random_valid_box(rng),
    }
    cases = []
    for name, box in boxes.items():
        for m in (1, 2):
            cases.append((f"free-{name}-m{m}", lambda b=box, m=m: enumerate_nonadaptive_max(b, m)))
            cases.append((f"dep-{name}-m{m}", lambda b=box, m=m: enumerate_nonadaptive_max(
                b, m, input_dependent=True)))
        cases.append((f"adaptive-{name}", lambda b=box: adaptive_search_max(b)))
    game3 = XorGame.from_predicate(3, lambda bits: (bits[0] & bits[1]) ^ bits[2])
    xb3 = MultipartiteXorBox(game3, tuple(rng.uniform(-1, 1, 8)))
    for m in (1, 2):
        cases.append((f"free-xor3-m{m}", lambda m=m: enumerate_nonadaptive_max(xb3, m)))
    return cases


@pytest.mark.parametrize("call", [pytest.param(c, id=name) for name, c in _rounding_cases()])
def test_every_row_float_total_within_rounding_bound(call, monkeypatch):
    # the candidate window is sound only if the bound holds on every row,
    # not just on the maximisers the pins see
    stage = _float_and_exact_stages(call, monkeypatch)
    seconds, first = stage["grid"]
    approx = stage["block"](seconds).ravel()
    # position a + i * first of the float pass's grid is row a + seconds[i] * first
    rows = (np.arange(first) + first * seconds[:, None]).ravel()
    totals, _ = stage["exact_rows"](rows)
    assert len(approx) == len(totals) == len(seconds) * first
    gap = max(abs(Fraction(a) - Fraction(int(t), stage["scale"]))
              for a, t in zip(approx.tolist(), totals.tolist()))
    assert gap <= stage["err"] < 1e-12


def _enumerate_local_boxes(monkeypatch):
    """Switch off the search's locality test: every box goes through the enumeration."""
    real = search_module._canonical
    monkeypatch.setattr(search_module, "_canonical",
                        lambda p: real(p)[:2] + (np.zeros(len(p), dtype=bool),))


def _moved(table, order):
    """table with the copies of its outcome strings reordered: copy order[c] becomes copy c."""
    m = len(order)
    return tuple(
        table[sum((s >> (m - 1 - order[c]) & 1) << (m - 1 - c) for c in range(m))]
        for s in range(1 << m)
    )


def _symmetry_cases():
    """(replay, n) for 10 seeded bipartite boxes with nontrivial marginals and 10 XOR games."""
    rng = np.random.default_rng(18)
    cases = []
    while len(cases) < 10:
        params = random_symmetric_params(rng)
        if min(abs(params[0]), abs(params[1])) > 0.05:
            box = box_from_correlators(symmetric_box(*params))
            cases.append((lambda t, m, b=box: chsh_value_of_box(
                apply_nonadaptive(b, NonAdaptiveProtocol(2, m, t))), 2))
    for _ in range(10):
        game = XorGame(3, tuple(int(f) for f in rng.integers(0, 2, 8)))
        box = MultipartiteXorBox(game, tuple(rng.uniform(-1, 1, 8)))
        cases.append((lambda t, m, b=box: simulate_nonadaptive_xor(b, t, m)[0], 3))
    return cases, rng


def test_value_is_invariant_under_the_search_quotient_group():
    # the orbit quotient of the float pass is exact only if these hold on every box
    cases, rng = _symmetry_cases()
    moved_a0 = []
    for (replay, n), m in itertools.product(cases, (2, 3)):
        size = 1 << m
        tables = tuple(tuple(tuple(int(b) for b in rng.integers(0, 2, size)) for _ in range(2))
                       for _ in range(n))
        value = replay(tables, m)
        for order in itertools.permutations(range(m)):
            permuted = tuple(tuple(_moved(t, order) for t in pair) for pair in tables)
            assert abs(replay(permuted, m) - value) <= 1e-12
        flip = lambda pair: tuple(tuple(1 - b for b in t) for t in pair)  # noqa: E731
        for j in range(n - 1):
            flipped = tuple(
                flip(pair) if k in (j, n - 1) else pair for k, pair in enumerate(tables)
            )
            assert abs(replay(flipped, m) - value) <= 1e-12
        if n == 2:
            only_a0 = ((flip(tables[0])[0], tables[0][1]), tables[1])
            moved_a0.append(abs(replay(only_a0, m) - value))
    # a wider group would not be: one of A's tables alone moves the value
    assert max(moved_a0) > 1e-6


def test_adaptive_value_is_invariant_under_the_search_quotient(monkeypatch):
    # the adaptive float pass runs A's input-1 pair over one of P_A, P_A ^ 54 only;
    # that is exact only if complementing her final output on both inputs, with
    # B's output complemented too, fixes the value on every box
    rng = np.random.default_rng(21)
    flip = lambda bits: tuple(1 - b for b in bits)  # noqa: E731
    moved_one_input = []
    for q in seeded_boxes(rng, 12):
        box = BipartiteBox(q)
        replay = lambda proto: chsh_value_of_box(apply_adaptive(box, box, proto))  # noqa: E731
        for packed in rng.integers(0, 1 << 24, size=4):
            proto = AdaptiveTwoCopyProtocol.decode(int(packed))
            a_both, a_one = flip(proto.outmap_a), flip(proto.outmap_a[:4]) + proto.outmap_a[4:]
            both, one = (AdaptiveTwoCopyProtocol(proto.box2map_a, outmap_a,
                                                 proto.box2map_b, flip(proto.outmap_b))
                         for outmap_a in (a_both, a_one))
            assert abs(replay(both) - replay(proto)) <= 1e-12
            moved_one_input.append(abs(replay(one) - replay(proto)))
    # a wider group would not be: complementing her output on one input alone moves the value
    assert max(moved_one_input) > 1e-6
    # the float pass's second axis holds 32 representatives, one per orbit of P_A ^ 54
    stage = _float_and_exact_stages(lambda: adaptive_search_max(box), monkeypatch)
    reps, first = stage["grid"]
    assert (len(reps), first) == (32, 64)
    assert sorted(set(reps) | set(reps ^ 54)) == list(range(64))


def test_orbit_representatives_under_copy_permutation_and_complement():
    counts = []
    for m in (1, 2, 3):
        moved, reps = search_module._copy_symmetry(m)
        size = 1 << m
        as_tables = [tuple(t >> s & 1 for s in range(size)) for t in range(1 << size)]
        expected = {tuple(sum(b << s for s, b in enumerate(_moved(t, order))) for t in as_tables)
                    for order in itertools.permutations(range(m))}
        assert set(map(tuple, moved.tolist())) == expected
        counts.append(len(reps))
    assert counts == [2, 6, 40]
