"""Output checks for the benchmark's operations.

Every check takes the text an operation printed and the inputs the
benchmark generated for it, and raises CheckFailed when the output is wrong.
The checks compare against computations made apart from the code path that
produced the output (replays through the wiring simulators, the benchmark's
own rational brute force, closed forms, independent Walsh transforms) or
against properties the method must have (a class maximum is at least every
member's value).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from nlbd.boxes import (
    BipartiteBox,
    CorrelatorForm,
    box_from_correlators,
    chsh_value_of_box,
    make_named_box,
    validate_box,
)
from nlbd.fileio import format_protocol, parse_protocol
from nlbd.fourier import (
    PmOutputFunction,
    nonadaptive_value_fourier,
    parity_bound,
    walsh_transform,
)
from nlbd.wirings import (
    AdaptiveTwoCopyProtocol,
    NonAdaptiveProtocol,
    apply_adaptive,
    apply_nonadaptive,
    bs_wiring,
    identity_wiring,
    or_protocol,
    parity_as_adaptive,
    parity_protocol,
)
from nlbd.xorboxes import MultipartiteXorBox, parity_distill_value, simulate_nonadaptive_xor

VALUE_TOL = 1e-9  # printed values carry 12 significant digits
ORACLE_TOL = 1e-10  # enumeration noise at 2^20 tuples stays below 5e-12
SEARCH_SAMPLE = 24  # random class members compared with each search maximum
SCAN_SAMPLE = 48  # CSV rows recomputed per scan
COLLAPSE_THRESHOLD = 4.0 * math.sqrt(2.0 / 3.0)
CSV_HEADER = "alpha,beta,delta,eps,valid,V,V_parity,V_OR,V_A_fit,winner,collapses_cc"


class CheckFailed(Exception):
    """An operation's output contradicts an independent computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def parse_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


# --------------------------------------------------------------------- search


@dataclass(frozen=True)
class SearchCase:
    """One search op: the box as the program parses it and the class searched."""

    box: object  # BipartiteBox or MultipartiteXorBox
    kind: str  # "input-free", "input-dep" or "adaptive"
    m: int
    sample_seed: int

    @property
    def n(self) -> int:
        return getattr(self.box, "n", 2)

    @property
    def class_name(self) -> str:
        return {
            "input-free": "nonadaptive-input-free",
            "input-dep": "nonadaptive-input-dep",
            "adaptive": "adaptive2",
        }[self.kind]

    @property
    def class_size(self) -> int:
        if self.kind == "adaptive":
            return 1 << 24
        tables_per_player = 2 if self.kind == "input-dep" else 1
        return 1 << ((1 << self.m) * tables_per_player * self.n)

    @property
    def exact_tie_break(self) -> bool:
        return self.kind == "input-free" and self.n == 2 and self.m <= 2


def protocol_value(box, proto) -> float:
    """Value of a protocol on identical copies of box, by exact enumeration."""
    if isinstance(proto, AdaptiveTwoCopyProtocol):
        return chsh_value_of_box(apply_adaptive(box, box, proto))
    if isinstance(box, MultipartiteXorBox):
        tables = [
            [np.array(proto.tables[j][v], dtype=np.int64) for v in (0, 1)]
            for j in range(proto.n)
        ]
        return simulate_nonadaptive_xor(box, tables, proto.m)[0]
    return chsh_value_of_box(apply_nonadaptive(box, proto))


def _input_free(n: int, m: int, table: tuple[int, ...]) -> NonAdaptiveProtocol:
    return NonAdaptiveProtocol(n, m, tuple(((table, table),) * n))


def _baselines(case: SearchCase) -> dict[str, object]:
    n, m = case.n, case.m
    or_table = tuple(1 if s else 0 for s in range(1 << m))
    out = {"PARITY": parity_protocol(n, m), "OR": _input_free(n, m, or_table)}
    if case.kind == "adaptive":
        out["OR"] = or_protocol()
        out["bs_wiring"] = bs_wiring()
        out["identity_wiring"] = identity_wiring()
        out["parity_as_adaptive"] = parity_as_adaptive()
    return out


def _random_member(case: SearchCase, rng: random.Random):
    if case.kind == "adaptive":
        return AdaptiveTwoCopyProtocol.decode(rng.getrandbits(24))
    size = 1 << case.m
    if case.kind == "input-dep":
        return NonAdaptiveProtocol.decode(case.n, case.m, rng.getrandbits(2 * size * case.n))
    tables = []
    for _ in range(case.n):
        t = tuple(rng.getrandbits(1) for _ in range(size))
        tables.append((t, t))
    return NonAdaptiveProtocol(case.n, case.m, tuple(tables))


def _xor_powers(box: MultipartiteXorBox, m: int) -> list[float]:
    """T_k = sum_x (-1)^f(x) delta_x^k for k = 0..m."""
    signs = [1 - 2 * bit for bit in box.game.f]
    return [sum(s * d**k for s, d in zip(signs, box.delta)) for k in range(m + 1)]


def exact_input_free_two(box, m: int) -> tuple[Fraction, int]:
    """Exact maximum and smallest maximising encoding, two players, m <= 2.

    Brute force over every pair of output tables in rational arithmetic on
    the box's binary floats.
    """
    size = 1 << m
    count = 1 << size
    if isinstance(box, MultipartiteXorBox):
        signs = [1 - 2 * bit for bit in box.game.f]
        per_input = []
        for d in box.delta:
            even, odd = (1 + Fraction(d)) / 4, (1 - Fraction(d)) / 4
            per_input.append(((even, odd), (odd, even)))
    else:
        signs = [1, 1, 1, -1]
        per_input = [
            tuple(tuple(Fraction(float(box.p[row, (a << 1) | b])) for b in (0, 1)) for a in (0, 1))
            for row in range(4)
        ]
    # weights[x][sa][sb]: joint weight of the outcome strings over m copies,
    # first copy most significant.
    weights = []
    for px in per_input:
        w = [[Fraction(1)]]
        for _ in range(m):
            w = [
                [w[sa >> 1][sb >> 1] * px[sa & 1][sb & 1] for sb in range(2 * len(w))]
                for sa in range(2 * len(w))
            ]
        weights.append(w)
    sign_rows = [[1 - 2 * ((t >> s) & 1) for s in range(size)] for t in range(count)]
    # partial[g][sb] = sum_x sign_x sum_sa w_x[sa][sb] (-1)^g(sa) is shared by
    # every second-player table h.
    partial = []
    for g in range(count):
        row = [Fraction(0)] * size
        for sx, w in zip(signs, weights):
            for sb in range(size):
                row[sb] += sx * sum(w[sa][sb] * sign_rows[g][sa] for sa in range(size))
        partial.append(row)
    best, best_key = None, None
    for h in range(count):  # the second player owns the higher bits
        for g in range(count):
            value = sum(partial[g][sb] * sign_rows[h][sb] for sb in range(size))
            if best is None or value > best:
                best, best_key = value, (g, h)
    g, h = best_key
    width = size
    encoding = (g | (g << width)) | ((h | (h << width)) << (2 * width))
    return best, encoding


def check_search(text: str, case: SearchCase) -> None:
    fields = parse_fields(text)
    for key in ("class", "n", "m", "protocols_examined", "best_value", "best_protocol"):
        _require(key in fields, f"search output lacks {key}=")
    _require(fields["class"] == case.class_name, f"class {fields['class']} != {case.class_name}")
    _require(int(fields["n"]) == case.n and int(fields["m"]) == case.m, "wrong n or m")
    examined = int(fields["protocols_examined"])
    _require(examined == case.class_size, f"examined {examined}, class has {case.class_size}")
    best = float(fields["best_value"])
    proto = parse_protocol(fields["best_protocol"])
    if case.kind == "input-free":
        _require(proto.is_input_free(), "input-free search printed an input-dependent protocol")

    replay = protocol_value(case.box, proto)
    _require(abs(replay - best) <= VALUE_TOL, f"replay {replay!r} != best_value {best!r}")
    for name, baseline in _baselines(case).items():
        value = protocol_value(case.box, baseline)
        _require(best >= value - VALUE_TOL, f"{name} reaches {value!r} > best_value {best!r}")
    rng = random.Random(case.sample_seed)
    for _ in range(SEARCH_SAMPLE):
        member = _random_member(case, rng)
        value = protocol_value(case.box, member)
        _require(
            value <= best + VALUE_TOL,
            f"{format_protocol(member)} reaches {value!r} > best_value {best!r}",
        )

    if isinstance(case.box, MultipartiteXorBox) and case.kind == "input-free":
        powers = _xor_powers(case.box, case.m)
        own = max(abs(t) for t in powers[1:])
        bound = parity_bound(case.box.game, case.box.delta, case.m).value
        _require(abs(bound - own) <= 1e-12, f"parity_bound {bound!r} != max|T_k| {own!r}")
        if own >= abs(powers[0]):
            _require(abs(best - bound) <= VALUE_TOL, f"best_value {best!r} != bound {bound!r}")

    if case.exact_tie_break:
        exact, encoding = exact_input_free_two(case.box, case.m)
        _require(abs(float(exact) - best) <= VALUE_TOL, f"exact maximum {float(exact)!r}")
        _require(
            proto.encode() == encoding,
            f"printed {proto.encode():#x}, smallest exact maximiser is {encoding:#x}",
        )


# ----------------------------------------------------------------------- scan


@dataclass(frozen=True)
class Axis:
    start: float
    step: float
    count: int

    def value(self, k: int) -> float:
        return self.start + self.step * k


@dataclass(frozen=True)
class ScanCase:
    """One scan op: its axes (beta None when it tracks alpha) and protocols."""

    alpha: Axis
    beta: Axis | None
    delta: Axis
    eps: Axis
    protocols: tuple[str, ...]
    sample_seed: int

    @property
    def axes(self) -> list[Axis]:
        return [self.alpha] + ([] if self.beta is None else [self.beta]) + [self.delta, self.eps]

    @property
    def rows(self) -> int:
        return math.prod(axis.count for axis in self.axes)


def _symmetric(alpha: float, beta: float, delta: float, eps: float) -> BipartiteBox:
    return box_from_correlators(CorrelatorForm(alpha, beta, alpha, beta, delta, delta, delta, eps))


def check_scan_row(fields: list[str], index: int, case: ScanCase) -> None:
    _require(len(fields) == 11, f"row {index} has {len(fields)} fields")
    alpha, beta, delta, eps = (float(v) for v in fields[:4])
    valid, collapses = fields[4], fields[10]
    v, v_parity, v_or, v_a = (float(x) for x in fields[5:9])
    winner = fields[9]
    _require(valid in ("true", "false") and collapses in ("true", "false"), f"row {index}: flags")

    coords = {}
    rest = index
    names = ["alpha"] + ([] if case.beta is None else ["beta"]) + ["delta", "eps"]
    for name, axis in reversed(list(zip(names, case.axes))):
        rest, k = divmod(rest, axis.count)
        coords[name] = axis.value(k)
    coords.setdefault("beta", coords["alpha"])
    for name, got in zip(("alpha", "beta", "delta", "eps"), (alpha, beta, delta, eps)):
        _require(abs(got - coords[name]) <= VALUE_TOL, f"row {index}: {name}={got!r} off grid")

    box = _symmetric(alpha, beta, delta, eps)
    is_valid = validate_box(box).valid
    _require((valid == "true") == is_valid, f"row {index}: valid={valid}, validate_box says {is_valid}")
    _require(abs(v - (3 * delta - eps)) <= VALUE_TOL, f"row {index}: V={v!r}")
    if is_valid:
        parity = chsh_value_of_box(apply_nonadaptive(box, parity_protocol(2, 2)))
        or_value = chsh_value_of_box(apply_nonadaptive(box, or_protocol()))
        _require(abs(v_parity - parity) <= VALUE_TOL, f"row {index}: V_parity={v_parity!r}")
        _require(abs(v_or - or_value) <= VALUE_TOL, f"row {index}: V_OR={v_or!r}")

    by_label = {"none": v, "PARITY": v_parity, "OR": v_or, "A": v_a}
    competing = {label: by_label[label] for label in ("none",) + case.protocols}
    _require(winner in competing, f"row {index}: winner {winner!r} is not competing")
    top = max(competing.values())
    _require(competing[winner] >= top - VALUE_TOL, f"row {index}: winner {winner} is not the max")
    if abs(top - COLLAPSE_THRESHOLD) > VALUE_TOL:
        expected = is_valid and top > COLLAPSE_THRESHOLD
        _require((collapses == "true") == expected, f"row {index}: collapses_cc={collapses}")


def check_scan_csv(lines: Iterable[str], case: ScanCase) -> None:
    """Stream the CSV once: count rows, recompute a seeded sample of them."""
    rng = random.Random(case.sample_seed)
    wanted = {0, case.rows - 1} | {rng.randrange(case.rows) for _ in range(SCAN_SAMPLE)}
    it = iter(lines)
    header = next(it, "").rstrip("\n")
    _require(header == CSV_HEADER, f"CSV header {header!r}")
    count = 0
    for index, line in enumerate(it):
        count += 1
        if index in wanted:
            check_scan_row(line.rstrip("\n").split(","), index, case)
    _require(count == case.rows, f"{count} CSV rows, axes give {case.rows}")


# --------------------------------------------------------------------- oracle


def format_floats(**values) -> str:
    """One key=value line per entry; floats in repr form, which round-trips."""
    lines = []
    for key, value in values.items():
        if isinstance(value, (list, tuple, np.ndarray)):
            lines.append(f"{key}=" + ",".join(repr(float(v)) for v in value))
        else:
            lines.append(f"{key}={value!r}")
    return "\n".join(lines) + "\n"


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def check_parity_oracle(text: str, box: MultipartiteXorBox, m: int) -> None:
    got = _floats(parse_fields(text)["delta"])
    _require(len(got) == len(box.delta), "wrong number of biases")
    for x, (new, old) in enumerate(zip(got, box.delta)):
        _require(abs(new - old**m) <= ORACLE_TOL, f"input {x}: bias {new!r} != delta^m {old**m!r}")
    signs = [1 - 2 * bit for bit in box.game.f]
    value = sum(s * d for s, d in zip(signs, got))
    closed = parity_distill_value(box, m)
    _require(abs(value - closed) <= ORACLE_TOL, f"value {value!r} != closed form {closed!r}")


def _spectra(tables: list[list[int]], m: int):
    return [walsh_transform(PmOutputFunction.from_bits(m, t)) for t in tables]


def check_nonadaptive_oracle(text: str, box: MultipartiteXorBox, tables, m: int) -> None:
    fields = parse_fields(text)
    value, bias = float(fields["value"]), _floats(fields["bias"])
    signs = [1 - 2 * bit for bit in box.game.f]
    _require(all(-1.0 - 1e-12 <= b <= 1.0 + 1e-12 for b in bias), "bias outside [-1, 1]")
    total = sum(s * b for s, b in zip(signs, bias))
    _require(abs(total - value) <= 1e-12, f"value {value!r} != signed bias sum {total!r}")
    fourier = nonadaptive_value_fourier(_spectra(tables, m), box.game, box.delta)
    _require(abs(value - fourier) <= ORACLE_TOL, f"value {value!r} != Fourier value {fourier!r}")


def _hadamard_value(box: MultipartiteXorBox, tables, m: int) -> float:
    """V = sum_z prod_j fhat_j(z) T_|z| with a dense Walsh-Hadamard matrix."""
    size = 1 << m
    z = np.arange(size)
    dots = np.array([[bin(a & b).count("1") & 1 for b in z] for a in z])
    had = 1.0 - 2.0 * dots
    prod = np.ones(size)
    for t in tables:
        prod *= had @ (1.0 - 2.0 * np.asarray(t, dtype=float)) / size
    powers = _xor_powers(box, m)
    weight = np.array([bin(int(k)).count("1") for k in z])
    return float(prod @ np.array(powers)[weight])


def check_fourier(text: str, box: MultipartiteXorBox, tables, m: int) -> None:
    fields = parse_fields(text)
    value, bound, k = float(fields["value"]), float(fields["bound"]), int(fields["k"])
    own = _hadamard_value(box, tables, m)
    _require(abs(value - own) <= ORACLE_TOL, f"Fourier value {value!r} != {own!r}")
    powers = [abs(t) for t in _xor_powers(box, m)]
    best_k = max(range(1, m + 1), key=lambda j: (powers[j], -j))
    _require(abs(bound - powers[best_k]) <= 1e-12, f"bound {bound!r} != {powers[best_k]!r}")
    _require(k == best_k, f"bound attained at k={k}, expected {best_k}")
    _require(value <= max(bound, powers[0]) + ORACLE_TOL, "protocol value exceeds the bound")


def check_distill(text: str, delta: float, eps: float, m: int) -> None:
    value = float(text.splitlines()[0])
    closed = 3 * delta**m - eps**m
    _require(abs(value - closed) <= VALUE_TOL, f"parity value {value!r} != 3d^m - e^m {closed!r}")


# Reference-table rows as (delta, eps), in printed order.
TABLE_ROWS = {
    1: [(1.0, -0.7), (1.0, -0.7), (0.92, -0.22), (0.92, -0.22), (0.917, -0.22), (0.917, -0.22)],
    2: [(1.0, 0.01)] * 6,
    3: [(0.99, e) for e in (-0.16, -0.18, -0.2, -0.22, -0.24, -0.26, -0.28)],
}


def check_table(text: str, which: int) -> None:
    rows = TABLE_ROWS[which]
    lines = text.splitlines()
    _require(lines and lines[0] == f"reference table {which}", "missing table header")
    computed: dict[tuple[int, str], float] = {}
    searched: dict[int, float] = {}
    mismatches = None
    for line in lines[1:]:
        words = line.split()
        if words[:1] == ["row"] and words[3:4] == ["printed"]:
            computed[(int(words[1]), words[2].rstrip(":"))] = float(words[6])
        elif words[:1] == ["row"] and "adaptive-class" in words:
            searched[int(words[1])] = float(words[-1])
        elif words[:1] == ["mismatches:"]:
            mismatches = int(words[1])
    _require(mismatches is not None, "missing mismatch count")
    if which in (1, 2):
        _require(mismatches == 0, f"table {which} has {mismatches} mismatches")
    _require(sorted(searched) == list(range(len(rows))), "audit rows missing")
    for i, (delta, eps) in enumerate(rows):
        floor = 3 * delta - eps
        if which == 3:
            closed = 3 * delta**2 - eps**2
            got = computed.get((i, "V_parity"))
            _require(got is not None and abs(got - closed) <= VALUE_TOL, f"row {i}: V_parity {got!r}")
            floor = max(floor, closed)
        _require(searched[i] >= floor - VALUE_TOL, f"row {i}: search maximum {searched[i]!r}")


def check_equiv(text: str, proto: AdaptiveTwoCopyProtocol, delta: float) -> None:
    lines = text.splitlines()
    _require(lines and lines[0] == format_protocol(proto), "equiv printed another wiring")
    boxes = []
    fields = {}
    for line in lines:
        label, _, rest = line.partition(": ")
        if label in ("box1", "box2"):
            values = dict(pair.split("=") for pair in rest.split())
            boxes.append(box_from_correlators(CorrelatorForm(**{k: float(v) for k, v in values.items()})))
        else:
            fields.update(parse_fields(line))
    _require(len(boxes) == 2, "equiv printed no box pair")
    for key in ("certificate_max_deviation", "certificate_p00_deviation"):
        _require(float(fields[key]) <= VALUE_TOL, f"{key}={fields[key]}")
    iso = box_from_correlators(make_named_box("isotropic", delta=delta))
    reference = apply_adaptive(iso, iso, proto)
    rebuilt = apply_nonadaptive(boxes, parity_protocol(2, 2))
    gap = float(np.abs(rebuilt.p - reference.p).max())
    _require(gap <= VALUE_TOL, f"parity over the two boxes misses the wiring by {gap:.3g}")
