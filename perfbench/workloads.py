"""The benchmark's workloads: inputs made from the seed, timed ops, checks.

A workload is a fixed list of operations, one round. ``build`` writes the
round's input files and returns its ops; every op is a call into nlbd (the
CLI's ``main`` where a verb exists, the library otherwise) plus the check
that judges its output. The number and sizes of the ops do not depend on the
seed, only their parameters do, so every seed does the same amount of work.
"""

from __future__ import annotations

import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import nlbd.cli
from nlbd import fourier, xorboxes
from nlbd.fileio import read_box_file
from nlbd.wirings import (
    AdaptiveTwoCopyProtocol,
    bs_wiring,
    identity_wiring,
    parity_as_adaptive,
)
from nlbd.xorboxes import MultipartiteXorBox, XorGame

import checks
from checks import Axis, CheckFailed, ScanCase, SearchCase

# Kept faults: ops that fail on today's program, on inputs fixed apart from
# the seed. Each is counted as a failed op until the program is mended.
FAULT_TIE_BREAK = "float tie-break prints a larger encoding than the exact maximiser"
FAULT_NEGATIVE_TOKEN = "argparse rejects a negative range given as its own token"
TIE_BREAK_BOX = (0.4, 0.35, 0.75, -0.2)  # symmetric(alpha, beta, delta, eps)
NEGATIVE_TOKEN_ARGV = ["scan", "--alpha", "0:0.5:0.1", "--eps", "-1:1:0.5", "--out", "-"]


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str = ""
    digest: str = ""  # hash of the op's output file, taken after timing


@dataclass
class Op:
    name: str
    call: Callable[[], Outcome]
    check: Callable[[Outcome], None]
    work: int = 0
    fault: str | None = None
    out_file: Path | None = None
    argv: list[str] | None = None  # set on ops driven through the CLI
    case: object = None  # the inputs a search or scan check compares against


def run_cli(argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = nlbd.cli.main(argv)
    return Outcome(code, out.getvalue(), err.getvalue())


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _succeeded(outcome: Outcome) -> None:
    if outcome.code != 0:
        raise CheckFailed(f"exit {outcome.code}: {outcome.stderr.strip()}")


def _cli_op(name, argv, check, work=0, fault=None, out_file=None, case=None) -> Op:
    def judged(outcome: Outcome) -> None:
        _succeeded(outcome)
        check(outcome)

    return Op(name, lambda: run_cli(argv), judged, work, fault, out_file, argv, case)


def _lib_op(name, call, check, work=0) -> Op:
    return Op(name, lambda: Outcome(0, call()), lambda outcome: check(outcome.stdout), work)


# ------------------------------------------------------------------ box files


def _fmt(value: float) -> str:
    return repr(float(value))


def correlators_text(alpha, beta, gamma, omega, d1, d2, d3, eps) -> str:
    values = dict(alpha=alpha, beta=beta, gamma=gamma, omega=omega, d1=d1, d2=d2, d3=d3, eps=eps)
    return "kind=correlators\n" + "".join(f"{k}={_fmt(v)}\n" for k, v in values.items())


def symmetric_text(alpha, beta, delta, eps) -> str:
    return correlators_text(alpha, beta, alpha, beta, delta, delta, delta, eps)


def xor_text(f: tuple[int, ...], delta: tuple[float, ...]) -> str:
    n = len(f).bit_length() - 1
    bits = "".join(str(b) for b in f)
    return f"kind=xor\nn={n}\nf={bits}\ndelta={','.join(_fmt(d) for d in delta)}\n"


def symmetric_min_entry(alpha, beta, delta, eps) -> float:
    """Smallest p(ab|xy) of the symmetric box, from the correlator decomposition."""
    marginal = (alpha, beta)
    worst = 1.0
    for x in (0, 1):
        for y in (0, 1):
            corr = eps if x and y else delta
            for sa in (1, -1):
                for sb in (1, -1):
                    entry = (1 + sa * marginal[x] + sb * marginal[y] + sa * sb * corr) / 4
                    worst = min(worst, entry)
    return worst


def random_symmetric(rng: random.Random, dyadic: bool = False) -> tuple[float, ...]:
    """A valid symmetric box with nontrivial marginals (the OR regime).

    Dyadic boxes take every parameter on a 1/32 grid, so the searches'
    float arithmetic on them is exact.
    """
    while True:
        if dyadic:
            params = (
                rng.randrange(6, 16) / 32,
                rng.randrange(6, 16) / 32,
                rng.randrange(24, 33) / 32,
                rng.randrange(-16, 4) / 32,
            )
        else:
            params = (
                rng.uniform(0.2, 0.45),
                rng.uniform(0.2, 0.45),
                rng.uniform(0.75, 1.0),
                rng.uniform(-0.5, 0.1),
            )
        if symmetric_min_entry(*params) >= 1e-3:
            return params


def random_chsh_deltas(rng: random.Random, dyadic: bool = False) -> tuple[float, ...]:
    """Biases of a trivial-marginal CHSH box (the PARITY regime)."""
    if dyadic:
        mags = [rng.randrange(16, 33) / 32 for _ in range(4)]
    else:
        mags = [rng.uniform(0.5, 1.0) for _ in range(4)]
    return (mags[0], mags[1], mags[2], -mags[3])


def random_xor3(rng: random.Random) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """A three-player XOR game and biases that mostly agree with it."""
    while True:
        f = tuple(rng.getrandbits(1) for _ in range(8))
        if 0 < sum(f) < 8:
            break
    delta = []
    for bit in f:
        sign = 1 - 2 * bit
        if rng.random() < 0.2:
            sign = -sign
        delta.append(sign * rng.uniform(0.5, 1.0))
    return f, tuple(delta)


# -------------------------------------------------------------------- search


def _search_op(name, path: Path, kind: str, m: int, rng, fault=None) -> Op:
    box = read_box_file(path)
    case = SearchCase(box, kind, m, rng.getrandbits(32))
    if kind == "adaptive":
        argv = ["search", "--class", "adaptive", str(path)]
    else:
        argv = ["search", "--class", "nonadaptive", "--m", str(m)]
        argv += ["--input-dependent"] if kind == "input-dep" else []
        argv.append(str(path))
    check = lambda o: checks.check_search(o.stdout, case)  # noqa: E731
    return _cli_op(name, argv, check, case.class_size, fault, case=case)


def build_search(rng: random.Random, workdir: Path) -> list[Op]:
    ops: list[Op] = []

    def box_file(name: str, text: str) -> Path:
        path = workdir / f"{name}.box"
        path.write_text(text, encoding="utf-8")
        return path

    def add(name, text, kind, m, fault=None):
        ops.append(_search_op(name, box_file(name, text), kind, m, rng, fault))

    chsh = (0, 0, 0, 1)
    for i in range(2):
        add(f"dep3-sym{i}", symmetric_text(*random_symmetric(rng)), "input-dep", 3)
        add(f"dep3-xor{i}", xor_text(chsh, random_chsh_deltas(rng)), "input-dep", 3)
    for i in range(3):
        add(f"adaptive-sym{i}", symmetric_text(*random_symmetric(rng)), "adaptive", 2)
    for i in range(2):
        d = random_chsh_deltas(rng)
        add(f"adaptive-triv{i}", correlators_text(0, 0, 0, 0, *d[:3], -d[3]), "adaptive", 2)
    for i in range(4):
        add(f"free3-xor{i}", xor_text(*random_xor3(rng)), "input-free", 3)
    for i in range(2):
        add(f"free2m3-sym{i}", symmetric_text(*random_symmetric(rng)), "input-free", 3)
        add(f"free2m3-xor{i}", xor_text(chsh, random_chsh_deltas(rng)), "input-free", 3)
    for i in range(4):
        add(f"free2m2-sym{i}", symmetric_text(*random_symmetric(rng, True)), "input-free", 2)
    for i in range(2):
        add(f"free2m2-xor{i}", xor_text(chsh, random_chsh_deltas(rng, True)), "input-free", 2)
    add("free2m2-tiebreak", symmetric_text(*TIE_BREAK_BOX), "input-free", 2, FAULT_TIE_BREAK)
    return ops


# ---------------------------------------------------------------------- scan


def _axis_text(axis: Axis) -> str:
    if axis.count == 1:
        return _fmt(axis.start)
    stop = round(axis.start + axis.step * (axis.count - 1), 9)
    return f"{_fmt(axis.start)}:{_fmt(stop)}:{_fmt(axis.step)}"


def _scan_op(name: str, case: ScanCase, out: Path) -> Op:
    argv = ["scan", "--alpha", _axis_text(case.alpha)]
    if case.beta is not None:
        argv += ["--beta", _axis_text(case.beta)]
    argv += ["--delta", _axis_text(case.delta), f"--eps={_axis_text(case.eps)}"]
    argv += ["--protocols", ",".join(case.protocols), "--out", str(out)]

    def check(outcome: Outcome) -> None:
        expected = f"wrote {case.rows} rows to {out}"
        if outcome.stdout.strip() != expected:
            raise CheckFailed(f"scan printed {outcome.stdout.strip()!r}")
        with open(out, encoding="utf-8") as stream:
            checks.check_scan_csv(stream, case)

    return _cli_op(name, argv, check, case.rows, out_file=out, case=case)


def _negative_token_op(rng: random.Random) -> Op:
    case = ScanCase(
        Axis(0.0, 0.1, 6), None, Axis(1.0, 0.0, 1), Axis(-1.0, 0.5, 5), ("PARITY", "OR"),
        rng.getrandbits(32),
    )

    def check(outcome: Outcome) -> None:
        checks.check_scan_csv(io.StringIO(outcome.stdout), case)

    return _cli_op(
        "scan-negative-token", NEGATIVE_TOKEN_ARGV, check, case.rows, FAULT_NEGATIVE_TOKEN, case=case
    )


def build_scan(rng: random.Random, workdir: Path) -> list[Op]:
    def start(low: float, steps: int) -> float:
        return round(low + rng.randrange(0, steps) / 1000, 3)

    protocols = ("PARITY", "OR", "A")
    plane = ScanCase(
        alpha=Axis(start(0, 50), 0.0025, 201),
        beta=None,
        delta=Axis(start(0.85, 151), 0.0, 1),
        eps=Axis(start(-1, 40), 0.0039, 501),
        protocols=protocols,
        sample_seed=rng.getrandbits(32),
    )
    cube = ScanCase(
        alpha=Axis(start(0, 20), 0.024, 21),
        beta=Axis(start(0, 20), 0.024, 21),
        delta=Axis(start(0.88, 20), 0.02, 6),
        eps=Axis(start(-1, 40), 0.095, 21),
        protocols=protocols,
        sample_seed=rng.getrandbits(32),
    )
    return [
        _scan_op("scan-plane", plane, workdir / "plane.csv"),
        _scan_op("scan-4d", cube, workdir / "cube.csv"),
        _negative_token_op(rng),
    ]


# -------------------------------------------------------------------- oracle

# Adaptive wirings whose affine factorization succeeds (None: the CLI default).
EQUIV_WIRINGS = (None, parity_as_adaptive().encode(), identity_wiring().encode(), 0x33333C, 0x064C64)


def _random_tables(rng: random.Random, n: int, m: int) -> list[list[int]]:
    return [[rng.getrandbits(1) for _ in range(1 << m)] for _ in range(n)]


def _parity_oracle_op(name: str, box: MultipartiteXorBox, m: int) -> Op:
    def call() -> str:
        return checks.format_floats(delta=xorboxes.simulate_parity(box, m).delta)

    work = (1 << (box.n * m)) << box.n
    return _lib_op(name, call, lambda text: checks.check_parity_oracle(text, box, m), work)


def _nonadaptive_oracle_op(name: str, box: MultipartiteXorBox, tables, m: int) -> Op:
    arrays = [[np.array(t, dtype=np.int64)] * 2 for t in tables]

    def call() -> str:
        value, bias = xorboxes.simulate_nonadaptive_xor(box, arrays, m)
        return checks.format_floats(value=value, bias=bias)

    work = (1 << (box.n * m)) << box.n
    check = lambda text: checks.check_nonadaptive_oracle(text, box, tables, m)  # noqa: E731
    return _lib_op(name, call, check, work)


def _fourier_op(name: str, box: MultipartiteXorBox, tables, m: int) -> Op:
    def call() -> str:
        spectra = [fourier.walsh_transform(fourier.PmOutputFunction.from_bits(m, t)) for t in tables]
        value = fourier.nonadaptive_value_fourier(spectra, box.game, box.delta)
        bound = fourier.parity_bound(box.game, box.delta, m)
        return checks.format_floats(value=value, bound=bound.value, k=bound.k)

    return _lib_op(name, call, lambda text: checks.check_fourier(text, box, tables, m))


def build_oracle(rng: random.Random, workdir: Path) -> list[Op]:
    chsh = XorGame.chsh()
    ops = [
        _parity_oracle_op("parity-n2m10", MultipartiteXorBox(chsh, random_chsh_deltas(rng)), 10),
    ]
    f, delta = random_xor3(rng)
    ops.append(_parity_oracle_op("parity-n3m6", MultipartiteXorBox(XorGame(3, f), delta), 6))

    box2 = MultipartiteXorBox(chsh, random_chsh_deltas(rng))
    tables2 = _random_tables(rng, 2, 9)
    f, delta = random_xor3(rng)
    box3 = MultipartiteXorBox(XorGame(3, f), delta)
    tables3 = _random_tables(rng, 3, 6)
    ops += [
        _nonadaptive_oracle_op("nonadaptive-n2m9", box2, tables2, 9),
        _nonadaptive_oracle_op("nonadaptive-n3m6", box3, tables3, 6),
        _fourier_op("fourier-n2m9", box2, tables2, 9),
        _fourier_op("fourier-n3m6", box3, tables3, 6),
    ]

    for m in (6, 8, 10):
        alpha, beta, delta_, eps = random_symmetric(rng)
        path = workdir / f"distill{m}.box"
        path.write_text(symmetric_text(alpha, beta, delta_, eps), encoding="utf-8")
        argv = ["distill", "--protocol", "parity", "--copies", str(m), str(path)]
        check = lambda o, d=delta_, e=eps, m=m: checks.check_distill(o.stdout, d, e, m)  # noqa: E731
        ops.append(_cli_op(f"distill-m{m}", argv, check, (4**m) * 4))

    for which in (1, 2, 3):
        argv = ["tables", "--which", str(which), "--audit"]
        check = lambda o, w=which: checks.check_table(o.stdout, w)  # noqa: E731
        ops.append(_cli_op(f"tables-{which}", argv, check))

    for encoding in EQUIV_WIRINGS:
        k = rng.randrange(1, 1000)
        while k % 100 == 0:  # keep off the certificate grid
            k = rng.randrange(1, 1000)
        delta_ = k / 1000
        argv = ["equiv", "--delta", _fmt(delta_)]
        if encoding is None:
            proto = bs_wiring()
        else:
            proto = AdaptiveTwoCopyProtocol.decode(encoding)
            argv += ["--proto", f"{encoding:06x}"]
        check = lambda o, p=proto, d=delta_: checks.check_equiv(o.stdout, p, d)  # noqa: E731
        ops.append(_cli_op(f"equiv-{proto.encode():06x}", argv, check))
    return ops


ROUNDS = {"search": build_search, "scan": build_scan, "oracle": build_oracle}
WORKLOADS = tuple(ROUNDS)


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's input files under workdir and return one round of ops."""
    rng = random.Random(f"nlbd-perfbench/{workload}/{seed}")
    return ROUNDS[workload](rng, workdir)
