"""Benchmark for nlbd: one workload per process, every output checked.

    python3 perfbench/run.py --workload {search,scan,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; nlbd is imported from its ``src/``.
The process imports nlbd once, writes the workload's inputs, runs one
untimed warm-up round (whose outputs get the full checks), then repeats
whole rounds for at least S seconds. Later rounds must print the same bytes
as the checked warm-up round, or are checked afresh. A fixed machine-speed
probe (probe.py) runs between rounds and between set-ups, and every
end-to-end time is scaled by it to seconds of the reference machine, so a
run measures the program rather than the shared machine's passing load.
The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.

Everything runs on one thread: BLAS and OpenMP pools are pinned to one
thread before numpy loads, and nlbd's own ``--threads`` stays at 1 except
in the determinism check, which runs outside the timed rounds.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NLBD_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
SETUP_REPEATS = 9  # timed set-ups per run, after one untimed one
# Each probe around a set-up is the median of a few calls: a set-up is short,
# so the noise of a single probe call would show in its scaled time.
SETUP_PROBE_CALLS = 3


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_nlbd() -> float:
    """Import nlbd from this checkout's src/ and return the seconds it took."""
    if not (SRC / "nlbd" / "__init__.py").is_file():
        raise BenchError(f"no nlbd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import nlbd

    elapsed = time.perf_counter() - start
    if Path(nlbd.__file__).resolve().parent != (SRC / "nlbd").resolve():
        raise BenchError(f"nlbd was imported from {nlbd.__file__}, not from {SRC}")
    return elapsed


def declared_metrics() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read {path}: {err}") from err
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def measure_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float, float]:
    """Median wall time of a fresh interpreter that imports nlbd and writes the
    workload's inputs, scaled and raw, and the median import time those
    interpreters report."""
    scaled, walls, imports = [], [], []
    before = probe.probe(SETUP_PROBE_CALLS)
    for i in range(SETUP_REPEATS + 1):
        target = workdir / f"setup{i}"
        target.mkdir()
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload]
        argv += ["--seed", str(seed), "--setup-dir", str(target)]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        after = probe.probe(SETUP_PROBE_CALLS)
        shutil.rmtree(target)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed: {proc.stderr.strip()}")
        if i:  # the first one only warms the file cache
            scaled.append(elapsed * probe.scale(before, after))
            walls.append(elapsed)
            imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
        before = after
    return statistics.median(scaled), statistics.median(walls), statistics.median(imports)


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "nlbd").glob("*.py"))
    )


def run(args) -> dict:
    declared = declared_metrics()
    import_nlbd()
    import spans
    import workloads
    from runner import Runner

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s, raw_setup_s, import_s = measure_setup(args.workload, args.seed, workdir)
        runner = Runner(workloads.build(args.workload, args.seed, workdir))
        tracer = spans.Tracer() if args.trace else None
        runner.round()  # warm-up: lazy set-up, full checks
        untraced, raw, traced, rates, layers = [], [], [], [], []
        probes = [probe.probe()]
        deadline = time.perf_counter() + args.seconds
        while not untraced or time.perf_counter() < deadline or (tracer and not traced):
            gc.collect()
            use_tracer = tracer is not None and len(untraced) > len(traced)
            elapsed, work = runner.round(tracer if use_tracer else None)
            probes.append(probe.probe())
            factor = probe.scale(probes[-2], probes[-1])
            if use_tracer:
                traced.append(elapsed * factor)
                totals = tracer.reset()
                layers.append({k: v * factor if k.endswith("_s") else v for k, v in totals.items()})
            else:
                untraced.append(elapsed * factor)
                raw.append(elapsed)
                rates.append(work / (elapsed * factor))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.check_thread_determinism()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    if args.trace:
        values = {name: statistics.median(r[name] for r in layers) for name in spans.ROUND_METRICS}
        values["setup.import_s"] = import_s
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        values["probe.raw_s"] = statistics.median(probes)
        values["raw.setup_s"] = raw_setup_s
        values["raw.wall_s"] = statistics.median(raw)
        values["src.lines"] = src_lines()
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(untraced),
            "work_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb,
        }
    units = declared[args.trace]
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    print(f"workload={args.workload} seed={args.seed} rounds={len(untraced) + len(traced)}")
    for name, problem in runner.faults.items():
        print(f"known fault in {name}: {problem}")
    for name, problem in runner.problems.items():
        print(f"FAILED {name}: {problem}")
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def setup_only(args) -> None:
    """Child mode of measure_setup: import nlbd and write the inputs."""
    import_s = import_nlbd()
    import workloads

    workloads.build(args.workload, args.seed, Path(args.setup_dir))
    print(json.dumps({"import_s": import_s}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "scan", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_dir:
            setup_only(args)
            return 0
        result = run(args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
