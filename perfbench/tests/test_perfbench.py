"""Tests of the benchmark itself: a one-round smoke run of every workload,
and one tampered output per check, which the check must reject.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import probe  # noqa: E402
from runner import Runner  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def _ops(workload: str, seed: int, workdir: Path) -> dict:
    return {op.name: op for op in workloads.build(workload, seed, workdir)}


@pytest.fixture(scope="module")
def search_ops(tmp_path_factory):
    return _ops("search", 3, tmp_path_factory.mktemp("search"))


@pytest.fixture(scope="module")
def scan_ops(tmp_path_factory):
    return _ops("scan", 3, tmp_path_factory.mktemp("scan"))


@pytest.fixture(scope="module")
def oracle_ops(tmp_path_factory):
    return _ops("oracle", 3, tmp_path_factory.mktemp("oracle"))


def _replace_field(text: str, key: str, new: str) -> str:
    return "".join(
        f"{key}={new}\n" if line.startswith(f"{key}=") else line + "\n"
        for line in text.splitlines()
    )


# ----------------------------------------------------------------- smoke runs


EXPECTED_FAULTS = {"search": {"free2m2-tiebreak"}, "scan": {"scan-negative-token"}, "oracle": set()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_round_of_every_workload_passes_its_checks(workload, tmp_path):
    runner = Runner(workloads.build(workload, 7, tmp_path))
    elapsed, work = runner.round()
    assert runner.problems == {}
    assert set(runner.faults) == EXPECTED_FAULTS[workload]
    assert runner.failed == len(EXPECTED_FAULTS[workload])
    assert runner.attempted == len(runner.ops)
    assert elapsed > 0 and work > 0
    if workload == "search":
        runner.check_thread_determinism()
        assert runner.problems == {}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_the_make_up(workload, tmp_path):
    for name in "abc":
        (tmp_path / name).mkdir()
    first = workloads.build(workload, 1, tmp_path / "a")
    again = workloads.build(workload, 1, tmp_path / "b")
    other = workloads.build(workload, 2, tmp_path / "c")
    assert [op.name for op in first] == [op.name for op in other]
    assert [op.work for op in first] == [op.work for op in other]
    inputs = lambda d: sorted(p.read_text() for p in d.iterdir())  # noqa: E731
    assert inputs(tmp_path / "a") == inputs(tmp_path / "b")
    if workload != "scan":
        assert inputs(tmp_path / "a") != inputs(tmp_path / "c")


def test_seeded_exact_tie_break_ops_pass_on_every_seed(tmp_path):
    # Only the fixed tie-break box may fail, so the failed share cannot
    # depend on the seed.
    for seed in range(1, 6):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        for op in workloads.build("search", seed, workdir):
            if op.name.startswith("free2m2-") and op.fault is None:
                op.check(op.call())


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "work_per_s", "peak_rss_mb"
    ]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == list(spans.ROUND_METRICS) + [
        "setup.import_s", "trace.overhead_s", "raw.wall_s", "raw.setup_s", "probe.raw_s", "src.lines"
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_prints_one_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "5",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["xorboxes.simulate_parity_s"]["value"] > 0
    assert metrics["search.write_csv_s"]["value"] == 0
    assert metrics["probe.raw_s"]["value"] > 0 and metrics["raw.wall_s"]["value"] > 0
    assert not (ROOT / ".perfbench-work").exists()


def test_probe_scales_a_time_to_reference_seconds():
    assert probe.scale(0.01, 0.03) * 0.02 == pytest.approx(probe.REFERENCE_S)
    assert probe.scale(probe.REFERENCE_S, probe.REFERENCE_S) == pytest.approx(1.0)
    assert probe.probe() > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ------------------------------------------------------------ tampered output


def test_search_check_rejects_raised_best_value(search_ops):
    op = search_ops["free2m3-xor0"]
    text = op.call().stdout
    checks.check_search(text, op.case)
    best = float(checks.parse_fields(text)["best_value"])
    with pytest.raises(CheckFailed, match="replay"):
        checks.check_search(_replace_field(text, "best_value", f"{best + 1e-6:.12g}"), op.case)


def test_search_check_rejects_lowered_best_value(search_ops):
    op = search_ops["dep3-sym0"]
    text = op.call().stdout
    fields = checks.parse_fields(text)
    # A worse protocol that replays to its own printed value is caught by the
    # baselines: here the parity protocol printed as the maximum.
    case = op.case
    parity = checks.parity_protocol(2, 3)
    value = checks.protocol_value(case.box, parity)
    tampered = _replace_field(text, "best_value", f"{value:.12g}")
    tampered = _replace_field(tampered, "best_protocol", checks.format_protocol(parity))
    assert float(fields["best_value"]) > value + 1e-6
    with pytest.raises(CheckFailed, match="reaches"):
        checks.check_search(tampered, case)


def test_search_check_rejects_a_sampled_member_above_best(search_ops, monkeypatch):
    # Print the worst of the seeded sample as the maximum: it replays to its
    # own value, and with the baselines switched off only the sample check
    # can see that other members reach more.
    op = search_ops["dep3-xor0"]
    case = op.case
    rng = random.Random(case.sample_seed)
    members = [checks._random_member(case, rng) for _ in range(checks.SEARCH_SAMPLE)]
    values = [checks.protocol_value(case.box, p) for p in members]
    worst = members[values.index(min(values))]
    assert max(values) > min(values) + 1e-6
    text = op.call().stdout
    text = _replace_field(text, "best_value", f"{min(values):.12g}")
    text = _replace_field(text, "best_protocol", checks.format_protocol(worst))
    monkeypatch.setattr(checks, "_baselines", lambda case: {})
    with pytest.raises(CheckFailed, match="reaches"):
        checks.check_search(text, case)


def test_search_check_rejects_wrong_class_size(search_ops):
    op = search_ops["adaptive-sym0"]
    text = op.call().stdout
    with pytest.raises(CheckFailed, match="examined"):
        checks.check_search(_replace_field(text, "protocols_examined", "16777215"), op.case)


def test_search_check_rejects_a_wrong_parity_bound(search_ops, monkeypatch):
    # CHSH boxes with every |delta_x| >= 1/2 have |T_1| >= T_0 = 2, so the
    # bound applies to every free2m3-xor box.
    op = search_ops["free2m3-xor0"]
    text = op.call().stdout
    checks.check_search(text, op.case)
    true_bound = checks.parity_bound
    monkeypatch.setattr(
        checks,
        "parity_bound",
        lambda game, delta, m: true_bound(game, delta, m)._replace(
            value=true_bound(game, delta, m).value + 1e-6
        ),
    )
    with pytest.raises(CheckFailed, match="parity_bound"):
        checks.check_search(text, op.case)


def test_search_check_rejects_non_canonical_tie_break(search_ops):
    op = search_ops["free2m2-tiebreak"]
    with pytest.raises(CheckFailed, match="smallest exact maximiser is 0x3333"):
        checks.check_search(op.call().stdout, op.case)


def test_negative_range_token_is_rejected_today(scan_ops):
    outcome = scan_ops["scan-negative-token"].call()
    with pytest.raises(CheckFailed, match="exit 2"):
        scan_ops["scan-negative-token"].check(outcome)


def _competing(fields, case):
    values = dict(zip(("none", "PARITY", "OR", "A"), (float(v) for v in fields[5:9])))
    return {k: values[k] for k in ("none",) + case.protocols}


@pytest.fixture(scope="module")
def cube_csv(scan_ops):
    op = scan_ops["scan-4d"]
    outcome = op.call()
    op.check(outcome)
    return op.out_file.read_text().splitlines(keepends=True), op.case


def test_scan_check_rejects_swapped_winner(cube_csv):
    lines, case = cube_csv
    fields = lines[1].rstrip("\n").split(",")
    values = _competing(fields, case)
    loser = min(values, key=values.get)
    assert values[loser] < max(values.values()) - 1e-3
    fields[9] = loser
    with pytest.raises(CheckFailed, match="winner"):
        checks.check_scan_csv([lines[0], ",".join(fields) + "\n"] + lines[2:], case)


def test_scan_check_rejects_missing_row(cube_csv):
    lines, case = cube_csv
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_scan_csv(lines[:-2] + lines[-1:], case)


def test_scan_check_rejects_flipped_validity_and_values(cube_csv):
    lines, case = cube_csv
    # the first and the last row are always among the recomputed rows
    for at in (1, len(lines) - 1):
        row = lines[at].rstrip("\n").split(",")
        flipped = list(row)
        flipped[4] = "false" if row[4] == "true" else "true"
        tampered = lines[:at] + [",".join(flipped) + "\n"] + lines[at + 1 :]
        with pytest.raises(CheckFailed, match="valid"):
            checks.check_scan_csv(tampered, case)
    at = next(i for i in (1, len(lines) - 1) if lines[i].split(",")[4] == "true")
    row = lines[at].rstrip("\n").split(",")
    row[7] = repr(float(row[7]) + 1e-6)
    with pytest.raises(CheckFailed, match="V_OR"):
        checks.check_scan_csv(lines[:at] + [",".join(row) + "\n"] + lines[at + 1 :], case)


def _tamper_floats(text: str, key: str, index: int, delta: float) -> str:
    values = checks.parse_fields(text)[key].split(",")
    values[index] = repr(float(values[index]) + delta)
    return _replace_field(text, key, ",".join(values))


def test_parity_oracle_check_rejects_bias_off_by_1e_9(oracle_ops):
    op = oracle_ops["parity-n3m6"]
    text = op.call().stdout
    op.check(workloads.Outcome(0, text))
    with pytest.raises(CheckFailed, match="bias"):
        op.check(workloads.Outcome(0, _tamper_floats(text, "delta", 2, 1e-9)))


def test_nonadaptive_oracle_check_rejects_bias_off_by_1e_9(oracle_ops):
    op = oracle_ops["nonadaptive-n3m6"]
    text = op.call().stdout
    op.check(workloads.Outcome(0, text))
    with pytest.raises(CheckFailed):
        op.check(workloads.Outcome(0, _tamper_floats(text, "bias", 5, 1e-9)))
    with pytest.raises(CheckFailed):
        op.check(workloads.Outcome(0, _tamper_floats(text, "value", 0, 1e-9)))


def test_fourier_check_rejects_value_off_by_1e_9(oracle_ops):
    op = oracle_ops["fourier-n2m9"]
    text = op.call().stdout
    op.check(workloads.Outcome(0, text))
    with pytest.raises(CheckFailed, match="Fourier value"):
        op.check(workloads.Outcome(0, _tamper_floats(text, "value", 0, 1e-9)))
    with pytest.raises(CheckFailed, match="bound"):
        op.check(workloads.Outcome(0, _tamper_floats(text, "bound", 0, 1e-9)))


def test_distill_check_rejects_raised_value(oracle_ops):
    op = oracle_ops["distill-m6"]
    outcome = op.call()
    op.check(outcome)
    lines = outcome.stdout.splitlines(keepends=True)
    lines[0] = f"{float(lines[0]) + 1e-6:.12g}\n"
    with pytest.raises(CheckFailed, match="parity value"):
        op.check(workloads.Outcome(0, "".join(lines)))


def test_table_check_rejects_wrong_recomputed_parity_column(oracle_ops):
    op = oracle_ops["tables-3"]
    outcome = op.call()
    op.check(outcome)
    lines = outcome.stdout.splitlines()
    at = next(i for i, line in enumerate(lines) if "row 0 V_parity:" in line)
    words = lines[at].split()
    words[6] = f"{float(words[6]) + 1e-6:.12g}"
    lines[at] = "  " + " ".join(words)
    with pytest.raises(CheckFailed, match="V_parity"):
        op.check(workloads.Outcome(0, "\n".join(lines) + "\n"))


def test_table_check_rejects_search_maximum_below_a_member(oracle_ops):
    op = oracle_ops["tables-1"]
    outcome = op.call()
    lines = outcome.stdout.splitlines()
    at = next(i for i, line in enumerate(lines) if "row 0 adaptive-class" in line)
    lines[at] = "  row 0 adaptive-class search maximum: 3.5"
    with pytest.raises(CheckFailed, match="search maximum"):
        op.check(workloads.Outcome(0, "\n".join(lines) + "\n"))


def test_equiv_check_rejects_changed_box(oracle_ops):
    op = oracle_ops["equiv-33333c"]
    outcome = op.call()
    op.check(outcome)
    lines = outcome.stdout.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("box1: "))
    fields = dict(pair.split("=") for pair in lines[at][len("box1: "):].split())
    key = max(fields, key=lambda k: abs(float(fields[k])))
    fields[key] = repr(float(fields[key]) * 0.999)
    lines[at] = "box1: " + " ".join(f"{k}={v}" for k, v in fields.items())
    with pytest.raises(CheckFailed, match="misses the wiring"):
        op.check(workloads.Outcome(0, "\n".join(lines) + "\n"))


def test_runner_rechecks_output_that_changes_between_rounds(oracle_ops):
    op = oracle_ops["distill-m8"]
    good = op.call()
    calls = iter([good, workloads.Outcome(0, "3.5\n" + good.stdout.split("\n", 1)[1])])
    flaky = workloads.Op("flaky", lambda: next(calls), op.check, op.work)
    runner = Runner([flaky])
    runner.round()
    assert runner.problems == {}
    runner.round()
    assert "parity value" in runner.problems["flaky"]


def test_thread_check_rejects_other_bytes(search_ops):
    op = search_ops["free2m3-sym0"]
    runner = Runner([op])
    runner.round()
    runner.last[0].stdout += "extra\n"
    runner.check_thread_determinism()
    assert runner.problems == {"free2m3-sym0": "--threads 2 printed other bytes"}
