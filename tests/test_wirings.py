"""Tests for protocol application: exact enumeration, encodings, closed forms."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from nlbd.boxes import (
    BipartiteBox,
    CorrelatorForm,
    box_breaches,
    box_from_correlators,
    boxes_from_fields,
    chsh_value_of_box,
    correlators_from_box,
    make_named_box,
    require_valid_stack,
    validate_box,
)
import nlbd.wirings
from nlbd.errors import ArityMismatch, FormatError, InvalidBox, VerificationFailed
from nlbd.search import reproduce_tables
from nlbd.wirings import (
    AdaptiveTwoCopyProtocol,
    NonAdaptiveProtocol,
    adaptive_value,
    apply_adaptive,
    apply_nonadaptive,
    bs_output_box,
    bs_wiring,
    identity_wiring,
    or_protocol,
    or_value,
    pack_adaptive_player,
    parity_as_adaptive,
    parity_protocol,
    symmetric_box,
    wire_adaptive,
    wire_nonadaptive,
)
from nlbd.xorboxes import MultipartiteXorBox, XorGame, simulate_nonadaptive_xor


def random_valid_forms(rng, count):
    out = []
    while len(out) < count:
        vals = rng.uniform(-1.0, 1.0, size=8)
        form = CorrelatorForm(*vals)
        box = box_from_correlators(form)
        if np.all(box.p >= 0.0):
            out.append(form)
    return out


def random_symmetric_params(rng, count):
    out = []
    while len(out) < count:
        alpha, beta, delta, eps = rng.uniform(-1.0, 1.0, size=4)
        box = box_from_correlators(symmetric_box(alpha, beta, delta, eps))
        if np.all(box.p >= 0.0):
            out.append((alpha, beta, delta, eps))
    return out


# ---------------------------------------------------------------- encodings


def test_parity_protocol_encoding():
    proto = parity_protocol(2, 2)
    assert proto.encode() == 0x6666
    assert NonAdaptiveProtocol.decode(2, 2, 0x6666) == proto
    assert proto.is_input_free()


def test_or_protocol_encoding():
    proto = or_protocol()
    assert proto.encode() == 0xEEEE
    assert NonAdaptiveProtocol.decode(2, 2, 0xEEEE) == proto


def test_nonadaptive_encoding_roundtrip():
    rng = np.random.default_rng(7)
    for n, m in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        bits = n * 2 * (1 << m)
        for _ in range(20):
            packed = int(rng.integers(0, 1 << bits))
            proto = NonAdaptiveProtocol.decode(n, m, packed)
            assert proto.encode() == packed
            assert proto.encoding_bits == bits


def test_nonadaptive_decode_rejects_out_of_range():
    with pytest.raises(FormatError):
        NonAdaptiveProtocol.decode(2, 1, 1 << 8)
    with pytest.raises(FormatError):
        NonAdaptiveProtocol.decode(2, 2, -1)


def test_adaptive_encoding_roundtrip():
    assert identity_wiring().encode() == 0xCCCCCC
    assert bs_wiring().encode() == 0x668668
    rng = np.random.default_rng(11)
    for _ in range(50):
        packed = int(rng.integers(0, 1 << 24))
        proto = AdaptiveTwoCopyProtocol.decode(packed)
        assert proto.encode() == packed
    with pytest.raises(FormatError):
        AdaptiveTwoCopyProtocol.decode(1 << 24)


def test_adaptive_layout_is_the_behaviour_packing_per_player():
    # behaviour k of a player is u | F(o2=0) << 1 | F(o2=1) << 2 on branch k = v*2 + o1;
    # the players' 12-bit blocks are independent, so each is covered on its own
    zero = ((0,) * 4, (0,) * 8)
    for behaviours in itertools.product(range(8), repeat=4):
        maps = (
            tuple(beh & 1 for beh in behaviours),
            tuple(beh >> i & 1 for beh in behaviours for i in (1, 2)),
        )
        block = pack_adaptive_player(behaviours)
        for proto, packed in (
            (AdaptiveTwoCopyProtocol(*maps, *zero), block),
            (AdaptiveTwoCopyProtocol(*zero, *maps), block << 12),
        ):
            assert proto.encode() == packed
            assert AdaptiveTwoCopyProtocol.decode(packed) == proto


def test_protocol_table_validation():
    with pytest.raises(ValueError):
        NonAdaptiveProtocol(2, 2, (((0, 1), (0, 1)),) * 2)  # tables too short
    with pytest.raises(ValueError):
        AdaptiveTwoCopyProtocol((0, 0, 0, 2), (0,) * 8, (0,) * 4, (0,) * 8)
    with pytest.raises(ValueError, match="outmap_b must hold 8 bits"):
        AdaptiveTwoCopyProtocol((0,) * 4, (0,) * 8, (0,) * 4, (0,) * 7 + (2,))


@pytest.mark.parametrize("entry", [2, -1, 0.5, None, "1", float("nan"), [0], np.array([0, 1])])
def test_non_bit_table_entries_are_rejected(entry):
    # unhashable entries included: each one is refused as a non-bit
    table = (0, 1, 1, entry)
    with pytest.raises(ValueError, match="^table entries must be bits$"):
        NonAdaptiveProtocol(2, 2, (((0,) * 4, (0,) * 4), ((0,) * 4, table)))


def test_adaptive_maps_of_the_wrong_length_are_rejected():
    # five bits in box2map_a would shift every later map by one bit: 0x1fe0 on encode
    with pytest.raises(ValueError, match=r"box2map_a must hold 4 bits, got \(0, 0, 0, 0, 0\)"):
        AdaptiveTwoCopyProtocol((0,) * 5, (1,) * 8, (0,) * 4, (0,) * 8)
    sizes = (4, 8, 4, 8)
    for field, name in enumerate(("box2map_a", "outmap_a", "box2map_b", "outmap_b")):
        for wrong in (0, sizes[field] - 1, sizes[field] + 1):
            maps = [(0,) * (wrong if i == field else size) for i, size in enumerate(sizes)]
            with pytest.raises(ValueError, match=f"{name} must hold {sizes[field]} bits"):
                AdaptiveTwoCopyProtocol(*maps)


# ------------------------------------------------------- non-adaptive apply


def test_parity_on_correlated_boxes():
    box = box_from_correlators(make_named_box("correlated", alpha=0.5, eps=0.01))
    distilled = apply_nonadaptive(box, parity_protocol(2, 2))
    assert chsh_value_of_box(distilled) == pytest.approx(2.9999, abs=1e-12)


def test_parity_value_formula_on_correlated_family():
    for alpha, eps in [(0.5, 0.01), (0.3, 0.2), (0.45, 0.33)]:
        box = box_from_correlators(make_named_box("correlated", alpha=alpha, eps=eps))
        distilled = apply_nonadaptive(box, parity_protocol(2, 2))
        assert chsh_value_of_box(distilled) == pytest.approx(3 - eps**2, abs=1e-12)


def test_or_on_correlated_boxes():
    box = box_from_correlators(make_named_box("correlated", alpha=0.5, eps=0.01))
    distilled = apply_nonadaptive(box, or_protocol())
    assert chsh_value_of_box(distilled) == pytest.approx(3.239975, abs=1e-9)
    form = correlators_from_box(distilled)
    assert form.eps == pytest.approx(-0.239975, abs=1e-9)


def test_or_on_pr_boxes():
    pr = box_from_correlators(make_named_box("isotropic", delta=1.0))
    distilled = apply_nonadaptive(pr, or_protocol())
    form = correlators_from_box(distilled)
    assert (form.d1, form.d2, form.d3) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    assert form.eps == pytest.approx(0.0, abs=1e-12)
    assert chsh_value_of_box(distilled) == pytest.approx(3.0, abs=1e-12)


def test_or_on_symmetric_table_point():
    box = box_from_correlators(symmetric_box(0.42, 0.42, 0.99, -0.16))
    value = chsh_value_of_box(apply_nonadaptive(box, or_protocol()))
    assert value == pytest.approx(3.268275, abs=1e-9)


def test_or_equals_parity_on_deterministic_box():
    # All four correlators +1 with matching marginals: outcomes are always
    # (0,0), so both OR and XOR of two zero bits give zero. (On a generic
    # deterministic box the two protocols differ.)
    det = BipartiteBox(np.array([[1.0, 0, 0, 0]] * 4))
    a = apply_nonadaptive(det, or_protocol())
    b = apply_nonadaptive(det, parity_protocol(2, 2))
    assert np.allclose(a.p, b.p, atol=0)
    assert np.allclose(a.p, det.p, atol=0)


def test_parity_multiplies_all_correlators():
    rng = np.random.default_rng(23)
    forms = random_valid_forms(rng, 6)
    for m in (2, 3):
        for i in range(0, len(forms) - m + 1, m):
            batch = forms[i : i + m]
            boxes = [box_from_correlators(f) for f in batch]
            distilled = apply_nonadaptive(boxes, parity_protocol(2, m))
            got = correlators_from_box(distilled)
            arr = np.array([list(f.as_dict().values()) for f in batch])
            expect = arr.prod(axis=0)
            assert np.allclose(list(got.as_dict().values()), expect, atol=1e-12)


def test_nonadaptive_output_is_valid_box():
    rng = np.random.default_rng(31)
    forms = random_valid_forms(rng, 10)
    for form in forms:
        box = box_from_correlators(form)
        packed = int(rng.integers(0, 1 << 16))
        proto = NonAdaptiveProtocol.decode(2, 2, packed)
        distilled = apply_nonadaptive(box, proto)  # assertion inside
        assert np.all(distilled.p >= -1e-15)


def reference_nonadaptive(boxes, proto):
    """Distillate of a non-adaptive wiring, one joint outcome tuple at a time.

    Copy c's outcome bits sit at position m-1-c of each player's string
    (first copy most significant), as the protocol encoding documents.
    """
    m = proto.m
    out = np.zeros((4, 4))
    for x, y in itertools.product((0, 1), repeat=2):
        row = 2 * x + y
        for joint in itertools.product(range(4), repeat=m):  # (a_c << 1) | b_c per copy
            weight = 1.0
            for box, ab in zip(boxes, joint):
                weight *= box.p[row, ab]
            s_a = sum((ab >> 1) << (m - 1 - c) for c, ab in enumerate(joint))
            s_b = sum((ab & 1) << (m - 1 - c) for c, ab in enumerate(joint))
            a, b = proto.tables[0][x][s_a], proto.tables[1][y][s_b]
            out[row, 2 * a + b] += weight
    return out


def test_nonadaptive_matches_outcome_by_outcome_reference():
    rng = np.random.default_rng(67)
    pool = [box_from_correlators(symmetric_box(*params))
            for params in random_symmetric_params(rng, 4)]
    pool.append(box_from_correlators(make_named_box("isotropic", delta=1.0)))
    pool += [box_from_correlators(form) for form in random_valid_forms(rng, 3)]
    for m in (1, 2, 3, 4):
        for _ in range(6):
            boxes = [pool[i] for i in rng.choice(len(pool), size=m, replace=False)]
            bits = rng.integers(0, 2, size=4 << m)
            packed = sum(int(bit) << i for i, bit in enumerate(bits))
            for proto in (NonAdaptiveProtocol.decode(2, m, packed), parity_protocol(2, m)):
                got = apply_nonadaptive(boxes, proto).p
                assert np.allclose(got, reference_nonadaptive(boxes, proto), rtol=0, atol=1e-13)
    for first, second in itertools.permutations(pool[3:6], 2):
        got = apply_nonadaptive([first, second], or_protocol()).p
        expect = reference_nonadaptive([first, second], or_protocol())
        assert np.allclose(got, expect, rtol=0, atol=1e-13)


def test_parity_distillate_at_twelve_copies():
    # 4^12 joint outcomes per input; the sum is taken copy by copy
    alpha, beta, delta, eps = 0.3, 0.35, 0.95, -0.2
    box = box_from_correlators(symmetric_box(alpha, beta, delta, eps))
    distilled = apply_nonadaptive(box, parity_protocol(2, 12))
    assert chsh_value_of_box(distilled) == pytest.approx(3 * delta**12 - eps**12, abs=1e-12)


def record_checks(monkeypatch):
    """The checks the wirings module runs: an input box's id, an output stack's bytes."""
    calls = []
    real_box, real_stack = nlbd.wirings.require_valid, nlbd.wirings.require_valid_stack
    monkeypatch.setattr(
        nlbd.wirings,
        "require_valid",
        lambda b, *args, **kw: calls.append(id(b)) or real_box(b, *args, **kw),
    )
    monkeypatch.setattr(
        nlbd.wirings,
        "require_valid_stack",
        lambda p, *args, **kw: calls.append(p.tobytes()) or real_stack(p, *args, **kw),
    )
    return calls


def test_apply_nonadaptive_validates_each_distinct_box_once(monkeypatch):
    calls = record_checks(monkeypatch)
    box = box_from_correlators(make_named_box("isotropic", delta=0.7))
    other = box_from_correlators(make_named_box("isotropic", delta=0.9))
    result = apply_nonadaptive(box, parity_protocol(2, 5))
    assert calls == [id(box), result.p.tobytes()]  # the output is checked once too
    calls.clear()
    result = apply_nonadaptive([box, other, box], parity_protocol(2, 3))
    assert calls == [id(box), id(other), result.p.tobytes()]
    p = np.full((4, 4), 0.25)
    p[0] = [0.5, 0.5, 0.25, -0.25]
    with pytest.raises(InvalidBox, match="input box fails validation"):
        apply_nonadaptive([box, BipartiteBox(p), box], parity_protocol(2, 3))


def test_apply_nonadaptive_arity_errors():
    box = box_from_correlators(make_named_box("isotropic", delta=0.5))
    with pytest.raises(ArityMismatch):
        apply_nonadaptive([box], or_protocol())
    proto3 = parity_protocol(3, 2)
    with pytest.raises(ArityMismatch):
        apply_nonadaptive(box, proto3)


def test_apply_nonadaptive_rejects_invalid_box():
    p = np.full((4, 4), 0.25)
    p[0] = [0.5, 0.5, 0.25, -0.25]
    with pytest.raises(InvalidBox):
        apply_nonadaptive(BipartiteBox(p), parity_protocol(2, 2))


def test_apply_nonadaptive_xor_adapter():
    # a protocol's bit tuples go straight into the XOR oracle
    game = XorGame.chsh()
    xbox = MultipartiteXorBox(game, (1.0, 1.0, 1.0, 0.3))
    value, _ = simulate_nonadaptive_xor(xbox, parity_protocol(2, 2).tables, 2)
    assert value == pytest.approx(3 - 0.09, abs=1e-12)
    with pytest.raises(ArityMismatch):
        simulate_nonadaptive_xor(xbox, parity_protocol(3, 2).tables, 2)


# ----------------------------------------------------------- adaptive apply


def test_identity_wiring_returns_first_box():
    rng = np.random.default_rng(43)
    for form in random_valid_forms(rng, 5):
        box1 = box_from_correlators(form)
        box2 = box_from_correlators(make_named_box("isotropic", delta=0.7))
        result = apply_adaptive(box1, box2, identity_wiring())
        assert np.allclose(result.p, box1.p, atol=1e-15)


def test_parity_as_adaptive_matches_nonadaptive():
    rng = np.random.default_rng(47)
    for form in random_valid_forms(rng, 5):
        box = box_from_correlators(form)
        via_adaptive = apply_adaptive(box, box, parity_as_adaptive())
        via_nonadaptive = apply_nonadaptive(box, parity_protocol(2, 2))
        assert np.allclose(via_adaptive.p, via_nonadaptive.p, atol=1e-12)


def test_bs_wiring_reproduces_reference_matrix():
    for delta in (0.0, 0.3, 0.7, 1.0):
        box = box_from_correlators(make_named_box("isotropic", delta=delta))
        result = apply_adaptive(box, box, bs_wiring())
        assert np.allclose(result.p, bs_output_box(delta).p, atol=1e-12)


def test_adaptive_output_is_valid_box():
    rng = np.random.default_rng(53)
    forms = random_valid_forms(rng, 6)
    for i in range(0, 6, 2):
        box1 = box_from_correlators(forms[i])
        box2 = box_from_correlators(forms[i + 1])
        packed = int(rng.integers(0, 1 << 24))
        proto = AdaptiveTwoCopyProtocol.decode(packed)
        result = apply_adaptive(box1, box2, proto)  # assertion inside
        assert np.all(result.p >= -1e-15)


def reference_adaptive(box1, box2, proto):
    """Adaptive distillate, one intermediate outcome (a1, b1, a2, b2) at a time.

    Each output cell adds its products in loop order, the order the library
    kernel must keep for its bytes to match.
    """
    out = np.zeros((4, 4))
    for row in range(4):
        x, y = row >> 1, row & 1
        for a1 in (0, 1):
            for b1 in (0, 1):
                w1 = box1.p[row, (a1 << 1) | b1]
                if w1 == 0.0:
                    continue
                u = proto.box2map_a[x * 2 + a1]
                v = proto.box2map_b[y * 2 + b1]
                row2 = (u << 1) | v
                for a2 in (0, 1):
                    for b2 in (0, 1):
                        w2 = box2.p[row2, (a2 << 1) | b2]
                        a = proto.outmap_a[x * 4 + a1 * 2 + a2]
                        b = proto.outmap_b[y * 4 + b1 * 2 + b2]
                        out[row, (a << 1) | b] += w1 * w2
    return out


def kernel_pool(rng):
    """Valid boxes for the kernel tests: random forms, the PR box, a deterministic box."""
    pool = [box_from_correlators(form) for form in random_valid_forms(rng, 24)]
    pool.append(box_from_correlators(make_named_box("isotropic", delta=1.0)))
    pool.append(box_from_correlators(make_named_box("correlated", alpha=1.0, eps=1.0)))
    return pool


def test_adaptive_kernel_is_bit_identical_to_the_loop():
    rng = np.random.default_rng(1901)
    pool = kernel_pool(rng)
    encodings = [0, 0xFFFFFF, bs_wiring().encode(), identity_wiring().encode()]
    encodings += [int(e) for e in rng.integers(0, 1 << 24, size=300)]
    for packed in encodings:
        proto = AdaptiveTwoCopyProtocol.decode(packed)
        first, second = (pool[int(i)] for i in rng.integers(0, len(pool), size=2))
        expect = reference_adaptive(first, second, proto)
        assert apply_adaptive(first, second, proto).p.tobytes() == expect.tobytes()
    # a stack with two leading axes: every box equals its own single call
    proto = AdaptiveTwoCopyProtocol.decode(0xA6A3A4)
    ones, twos = (np.stack([pool[i].p for i in order]).reshape(2, 3, 4, 4)
                  for order in (range(6), range(6, 12)))
    stacked = wire_adaptive(ones, twos, proto)
    for i, j in itertools.product(range(2), range(3)):
        expect = reference_adaptive(BipartiteBox(ones[i, j]), BipartiteBox(twos[i, j]), proto)
        assert stacked[i, j].tobytes() == expect.tobytes()
    # a stack whose boxes each take their own protocol, in flattened box order
    protos = [AdaptiveTwoCopyProtocol.decode(int(e)) for e in rng.integers(0, 1 << 24, size=6)]
    stacked = wire_adaptive(ones, twos, protos).reshape(6, 4, 4)
    for k, (one, two) in enumerate(zip(ones.reshape(6, 4, 4), twos.reshape(6, 4, 4))):
        expect = reference_adaptive(BipartiteBox(one), BipartiteBox(two), protos[k])
        assert stacked[k].tobytes() == expect.tobytes()


def test_nonadaptive_kernel_stack_matches_single_calls():
    rng = np.random.default_rng(1902)
    pool = kernel_pool(rng)
    for m in range(1, 11):
        # parity and two seeded tables: 4 << m table bits are 1 << (m - 1) bytes
        protos = [parity_protocol(2, m)] + [
            NonAdaptiveProtocol.decode(2, m, int.from_bytes(rng.bytes(1 << (m - 1)), "little"))
            for _ in range(2)
        ]
        if m == 2:
            protos.append(or_protocol())
        for proto in protos:
            picks = rng.integers(0, len(pool), size=(5, m))
            stacks = [np.stack([pool[i].p for i in picks[:, c]]) for c in range(m)]
            stacked = wire_nonadaptive(stacks, proto)
            assert stacked.shape == (5, 4, 4)
            for k, row in enumerate(picks):
                single = apply_nonadaptive([pool[i] for i in row], proto)
                assert stacked[k].tobytes() == single.p.tobytes()


def test_validity_of_a_stack_equals_the_per_box_reports():
    uniform = np.full((4, 4), 0.25)
    broken = [uniform.copy() for _ in range(6)]
    broken[0][1, 2] = np.nan  # nan entry
    broken[1][0] = [0.5, 0.5, 0.25, -0.25]  # negative entry
    broken[2][3] = [0.3, 0.3, 0.3, 0.3]  # row sums to 1.2
    broken[3][1] = [1.0, 0.0, 0.0, 0.0]  # Alice's marginal on x=0 depends on y
    broken[4][2] = [0.25 + 1e-10, 0.25, 0.25, 0.25 - 1e-10]  # inside the tolerance
    rng = np.random.default_rng(1903)
    valid = [box_from_correlators(form).p for form in random_valid_forms(rng, 4)]
    stack = np.stack(broken + valid)
    reports = [validate_box(BipartiteBox(p)) for p in stack]
    assert [r.valid for r in reports] == [False] * 4 + [True] * 6
    breaches = box_breaches(stack.reshape(2, 5, 4, 4)).reshape(10, 4)
    for p, row in zip(stack, breaches):
        assert row.tobytes() == box_breaches(p).tobytes()
    # the stack raises the first invalid box's report, as require_valid would
    for first in range(4):
        with pytest.raises(VerificationFailed) as raised:
            require_valid_stack(stack[first:], "wiring", VerificationFailed)
        assert str(raised.value) == f"wiring: {reports[first].violations}"
    passing = stack[4:]
    assert require_valid_stack(passing, "unused") is passing


def test_fields_kernel_matches_single_boxes():
    rng = np.random.default_rng(1904)
    fields = rng.uniform(-1.0, 1.0, size=(3, 50, 8))
    stacked = boxes_from_fields(fields)
    for form_fields, p in zip(fields.reshape(-1, 8), stacked.reshape(-1, 4, 4)):
        assert box_from_correlators(CorrelatorForm(*form_fields)).p.tobytes() == p.tobytes()


def test_apply_adaptive_validates_each_distinct_box_once(monkeypatch):
    calls = record_checks(monkeypatch)
    box = box_from_correlators(make_named_box("isotropic", delta=0.7))
    other = box_from_correlators(make_named_box("isotropic", delta=0.9))
    result = apply_adaptive(box, box, bs_wiring())
    assert calls == [id(box), result.p.tobytes()]
    calls.clear()
    result = apply_adaptive(box, other, bs_wiring())
    assert calls == [id(box), id(other), result.p.tobytes()]


def test_each_kernel_checks_the_box_it_returns():
    # row 00 sums to 1 + 9.6e-10, inside the tolerance; two copies take it past
    p = np.array([[0.40000000024, 0.10000000024, 0.10000000024, 0.40000000024]]
                 + [[0.4, 0.1, 0.1, 0.4]] * 2 + [[0.1, 0.4, 0.4, 0.1]])
    assert validate_box(BipartiteBox(p)).valid
    uniform = np.full((4, 4), 0.25)
    for wire, kind in (
        (lambda q: wire_nonadaptive([q, q], parity_protocol(2, 2)), "non-adaptive"),
        (lambda q: wire_adaptive(q, q, bs_wiring()), "adaptive"),
    ):
        for q in (p, np.stack([uniform, p])):  # alone, and second in a stack
            with pytest.raises(VerificationFailed) as raised:
                wire(q)
            message = f"{kind} wiring produced an invalid box: (('normalization', "
            assert str(raised.value).startswith(message)


# --------------------------------------------------------- reference boxes


def test_bs_output_box_endpoints():
    assert np.allclose(
        bs_output_box(1.0).p,
        box_from_correlators(make_named_box("isotropic", delta=1.0)).p,
        atol=0,
    )
    assert np.allclose(bs_output_box(0.0).p, np.full((4, 4), 0.25), atol=0)
    mid = bs_output_box(0.5)
    form = correlators_from_box(mid)
    assert form.eps == pytest.approx(-0.375, abs=1e-15)
    assert chsh_value_of_box(mid) == pytest.approx(1.125, abs=1e-15)
    with pytest.raises(ValueError):
        bs_output_box(1.5)


# ------------------------------------------------------------- closed forms


def test_closed_form_or_at_table_points():
    assert or_value(0.42, 0.42, 0.99, -0.16) == pytest.approx(3.268275, abs=1e-12)
    assert or_value(0.43, 0.44, 0.99, 0.28) == pytest.approx(2.864225, abs=1e-12)


def test_or_value_is_free_of_bobs_input_one_marginal():
    # m1 = ((1 + beta) / 2)^2 cancels: or_value equals the m1-free closed form exactly
    rng = random.Random(2901)
    for _ in range(200):
        alpha, beta, delta, eps = (Fraction(rng.randint(-64, 64), rng.randint(1, 64)) for _ in range(4))
        m0 = ((1 + alpha) / 2) ** 2
        e_00 = 4 * ((1 + 2 * alpha + delta) / 4) ** 2 - 4 * m0 + 1
        e_01 = 4 * ((1 + alpha + beta + delta) / 4) ** 2 - 2 * m0 + 1
        e_11 = 4 * ((1 + 2 * beta + eps) / 4) ** 2 + 1
        assert or_value(alpha, beta, delta, eps) == e_00 + 2 * e_01 - e_11


def test_closed_form_adaptive_at_table_point():
    # delta=1, eps=-0.7 with all free parameters zero.
    assert adaptive_value(1.0, -0.7, 0.0) == pytest.approx(3.8275, abs=1e-12)
    # Table 1 prints a = b = c = d = 0.01 beside 3.8360: the free parameters
    # enter only through b - a + 2d = 0.02, which the printed value fits.
    combination = 0.01 - 0.01 + 2.0 * 0.01
    assert adaptive_value(1.0, -0.7, combination) == pytest.approx(3.8360, abs=1e-12)
    assert reproduce_tables(1).fitted_combinations[0] == pytest.approx(combination, abs=1e-12)


def or_value_simulated(alpha, beta, delta, eps) -> float:
    """Simulated OR-protocol value on a symmetric box (exact enumeration)."""
    box = box_from_correlators(symmetric_box(alpha, beta, delta, eps))
    return chsh_value_of_box(apply_nonadaptive(box, or_protocol()))


def test_or_closed_form_matches_simulation():
    rng = np.random.default_rng(61)
    for alpha, beta, delta, eps in random_symmetric_params(rng, 200):
        sim = or_value_simulated(alpha, beta, delta, eps)
        closed = or_value(alpha, beta, delta, eps)
        assert sim == pytest.approx(closed, abs=1e-9)
