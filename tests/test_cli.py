"""End-to-end tests of the command-line front end.

Every invocation goes through nlbd.cli.main with an explicit argument
vector; stdout and stderr are captured in-process. One test runs the module
as a subprocess to cover the interpreter entry point. Exit codes follow the
documented mapping: 0 success, 1 invalid box or failed computation, 2 usage,
3 file errors, 4 exceeded budgets.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import nlbd.boxes
import nlbd.cli
import nlbd.equivalence
import nlbd.search
import nlbd.wirings
from nlbd import (
    AdaptiveTwoCopyProtocol,
    CorrelatorForm,
    apply_adaptive,
    apply_nonadaptive,
    box_from_correlators,
    bs_output_box,
    chsh_value_of_box,
    format_box_correlators,
    make_named_box,
    parity_protocol,
    parse_box_text,
    read_box_file,
)
from nlbd.boxes import INPUT_ORDER
from nlbd.cli import main
from nlbd.wirings import symmetric_box

XOR_TEXT = "kind=xor\nn=2\nf=0001\ndelta=0.9,0.9,0.9,-0.9\n"


@pytest.fixture
def boxdir(tmp_path):
    """Directory holding one file per box used by the tests."""
    forms = {
        "correlated": make_named_box("correlated", alpha=0.5, eps=0.01),
        "invalid": make_named_box("correlated", alpha=0.5, eps=-0.1),
        "isotropic": make_named_box("isotropic", delta=0.9),
    }
    for name, form in forms.items():
        (tmp_path / f"{name}.box").write_text(format_box_correlators(form), encoding="utf-8")
    (tmp_path / "game.box").write_text(XOR_TEXT, encoding="utf-8")
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_value_chsh(boxdir, capsys):
    code, out, err = run(capsys, "value", boxdir / "correlated.box")
    assert (code, out, err) == (0, "2.99\n", "")


def test_value_xor(boxdir, capsys):
    code, out, err = run(capsys, "value", boxdir / "game.box")
    assert (code, out, err) == (0, "3.6\n", "")


def test_value_missing_file(boxdir, capsys):
    code, out, err = run(capsys, "value", boxdir / "absent.box")
    assert code == 3
    assert out == ""
    assert "absent.box" in err


def test_value_malformed_file_is_io_error(boxdir, capsys):
    path = boxdir / "garbled.box"
    path.write_text("kind=matrix\nrow00=1,0,0\n", encoding="utf-8")
    code, out, err = run(capsys, "value", path)
    assert code == 3
    assert "garbled.box" in err


def test_value_file_that_is_not_utf8_is_io_error(boxdir, capsys):
    path = boxdir / "bad.box"
    path.write_bytes(b"kind=correlators\nalpha=0.5\xff\n")
    code, out, err = run(capsys, "value", path)
    assert (code, out) == (3, "")
    assert err.startswith(f"nlbd: {path}: not UTF-8 text")


@pytest.mark.parametrize("n", [20000, 1000000000])
def test_validate_xor_with_huge_n_names_the_truth_table(boxdir, capsys, n):
    # 2^n is never built, so neither its decimal form nor its memory can fail
    path = boxdir / "huge.box"
    path.write_text(f"kind=xor\nn={n}\nf=0001\ndelta=0.9,0.9,0.9,-0.9\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (3, "")
    assert err == f"nlbd: {path}: truth table must have 2^n entries for n={n}, got 4\n"


def test_value_invalid_box(boxdir, capsys):
    code, out, err = run(capsys, "value", boxdir / "invalid.box")
    assert code == 1
    assert out == ""
    assert err != ""


def test_validate_valid(boxdir, capsys):
    code, out, err = run(capsys, "validate", boxdir / "correlated.box")
    assert (code, err) == (0, "")
    assert out == "valid box: CHSH value 2.99\n"


def test_validate_invalid_reports_worst_entry(boxdir, capsys):
    code, out, err = run(capsys, "validate", boxdir / "invalid.box")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "invalid box:"
    assert "  negativity: worst entry -0.025" in lines


def test_validate_xor(boxdir, capsys):
    code, out, err = run(capsys, "validate", boxdir / "game.box")
    assert code == 0
    assert out == "valid xor box: n=2, value 3.6\n"


def test_distill_or_prints_value_then_box(boxdir, capsys):
    code, out, err = run(capsys, "distill", "--protocol", "or", "--copies", 2,
                         boxdir / "correlated.box")
    assert (code, err) == (0, "")
    value_line, _, box_text = out.partition("\n")
    assert value_line == "3.239975"
    reparsed = parse_box_text(box_text)
    assert chsh_value_of_box(reparsed) == pytest.approx(3.239975, abs=1e-12)


def test_distill_out_file_reparses(boxdir, capsys):
    target = boxdir / "distilled.box"
    code, out, err = run(capsys, "distill", "--protocol", "or", "--copies", 2,
                         "--out", target, boxdir / "correlated.box")
    assert code == 0
    assert out == f"3.239975\nwrote {target}\n"
    assert chsh_value_of_box(read_box_file(str(target))) == pytest.approx(3.239975, abs=1e-12)


def test_distill_failed_out_write_prints_nothing(boxdir, capsys):
    target = boxdir / "absent-dir" / "distilled.box"
    code, out, err = run(capsys, "distill", "--protocol", "or", "--copies", 2,
                         "--out", target, boxdir / "correlated.box")
    assert (code, out) == (3, "")
    assert err.startswith(f"nlbd: {target}: ")


def test_distill_repeated_file_equals_file_list(boxdir, capsys):
    single = run(capsys, "distill", "--protocol", "parity", "--copies", 3,
                 boxdir / "correlated.box")
    triple = run(capsys, "distill", "--protocol", "parity", "--copies", 3,
                 *[boxdir / "correlated.box"] * 3)
    assert single == triple
    assert single[0] == 0


def test_distill_adaptive_matches_reference_wiring(boxdir, capsys):
    code, out, err = run(capsys, "distill", "--protocol", "adaptive:668668", "--copies", 2,
                         boxdir / "isotropic.box")
    assert code == 0
    value_line, _, box_text = out.partition("\n")
    expected = bs_output_box(0.9)
    assert float(value_line) == pytest.approx(chsh_value_of_box(expected), abs=1e-12)
    assert np.allclose(parse_box_text(box_text).p, expected.p, atol=1e-12)


def test_distill_xor_parity_closed_form(boxdir, capsys):
    code, out, err = run(capsys, "distill", "--protocol", "parity", "--copies", 3,
                         boxdir / "game.box")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2.916"
    assert "delta=0.729,0.729,0.729,-0.729" in lines


@pytest.mark.parametrize(
    "argv",
    [
        ("--protocol", "or", "--copies", "3", "correlated.box"),
        ("--protocol", "adaptive:668668", "--copies", "3", "correlated.box"),
        ("--protocol", "adaptive:zz", "--copies", "2", "correlated.box"),
        ("--protocol", "adaptive:1234567", "--copies", "2", "correlated.box"),
        ("--protocol", "majority", "--copies", "2", "correlated.box"),
        ("--protocol", "parity", "--copies", "0", "correlated.box"),
        ("--protocol", "parity", "--copies", "3", "correlated.box", "correlated.box"),
        ("--protocol", "or", "--copies", "2", "game.box"),
        ("--protocol", "parity", "--copies", "2", "game.box", "game.box"),
        ("--protocol", "parity", "--copies", "2", "game.box", "correlated.box"),
    ],
)
def test_distill_usage_errors(boxdir, capsys, argv):
    argv = ["distill"] + [str(boxdir / a) if a.endswith(".box") else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err != ""


def test_distill_copy_budget(boxdir, capsys):
    code, out, err = run(capsys, "distill", "--protocol", "parity", "--copies", 11,
                         boxdir / "correlated.box")
    assert code == 4
    assert "budget" in err


def _distill_box_files(directory, distinct):
    """One seeded symmetric box in the OR regime, or ten seeded general boxes."""
    rng = np.random.default_rng(2009)
    paths = []
    while len(paths) < (10 if distinct else 1):
        if distinct:
            marginals = rng.uniform(-0.3, 0.3, size=4)
            correlators = rng.uniform(0.75, 1.0, size=4) * rng.choice([-1.0, 1.0], size=4)
            form = CorrelatorForm(*marginals, *correlators)
        else:
            alpha, beta = rng.uniform(0.2, 0.45, size=2)
            form = symmetric_box(alpha, beta, rng.uniform(0.75, 1.0), rng.uniform(-0.5, 0.1))
        if np.all(box_from_correlators(form).p >= 0.0):
            path = directory / f"copy{len(paths)}.box"
            path.write_text(format_box_correlators(form), encoding="utf-8")
            paths.append(path)
    return paths


@pytest.mark.parametrize(
    "copies, distinct, digest",
    [
        # SHA-256 of what `nlbd distill` printed when it summed all 4^m joint outcomes
        (6, False, "30f60bbc0bb3f5d1733affbb41b65882d096cc49789215d443ca367b92e7e075"),
        (8, False, "5f5ddc2ce44b7ae220f4525c5424259fcfadb800253ee0084191645a8f7bbf75"),
        (10, False, "5247ab9e6b73b0d547e76d5248740e1d4a3b1b1c745e5c14c886fb5b4fba6ce7"),
        (6, True, "e51b6c80b1e029225905503a41f2b7e6acd0d539a3f31230bb4117f658284bfe"),
        (8, True, "8496b746c8764f6b16618465f258c7ad1289d4379e1d34bfdd774c18e26a0c1c"),
        (10, True, "7795c0a6b7f6e76e00c418fe2c7eb7a5ce5ef0b36e446a69a8de3357115b08a2"),
    ],
)
def test_distill_parity_prints_pinned_bytes(tmp_path, capsys, copies, distinct, digest):
    paths = _distill_box_files(tmp_path, distinct)[:copies]
    code, out, err = run(capsys, "distill", "--protocol", "parity", "--copies", copies, *paths)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_nonadaptive_output(boxdir, capsys):
    code, out, err = run(capsys, "search", "--class", "nonadaptive", "--m", 2,
                         boxdir / "correlated.box")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "class=nonadaptive-input-free",
        "n=2",
        "m=2",
        "protocols_examined=256",
        "best_value=3.239975",
        "best_protocol=proto=nonadaptive;n=2;m=2;tables=1111",
    ]


def test_search_exact_flag_appends_fraction(boxdir, capsys):
    for argv, value in (
        (("--class", "nonadaptive", "--m", 2), 3.239975),
        (("--class", "adaptive"), 3.487475),
    ):
        code, out, err = run(capsys, "search", *argv, "--exact", boxdir / "correlated.box")
        assert code == 0
        last = out.splitlines()[-1]
        assert last.startswith("best_exact=")
        assert float(Fraction(last.removeprefix("best_exact="))) == pytest.approx(value, abs=1e-9)


def test_search_adaptive_output(boxdir, capsys):
    code, out, err = run(capsys, "search", "--class", "adaptive", boxdir / "isotropic.box")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "class=adaptive2",
        "n=2",
        "m=2",
        "protocols_examined=16777216",
        "best_value=3.6",
        "best_protocol=proto=adaptive2;tables=330330",
    ]


NEAR_LOCAL_TEXT = (
    "kind=matrix\nrow00=1.0000000005,-2.5e-10,-2.5e-10,0\n"
    "row01=1,0,0,0\nrow10=1,0,0,0\nrow11=1,0,0,0\n"
)


# rows 00 and 01 sum to 1 - 9.6e-10 and Bob's marginal drifts by 4.8e-10, both
# within tolerance; the canonical box is the uniform box, so the replay must
# wire it, not the short raw rows (they replay to 2 - 1.92e-9)
SHORT_ROWS_TEXT = (
    "kind=matrix\nrow00=0.24999999976,0.24999999976,0.24999999976,0.24999999976\n"
    "row01=0.24999999976,0.24999999976,0.24999999976,0.24999999976\n"
    "row10=0.25,0.25,0.25,0.25\nrow11=0.25,0.25,0.25,0.25\n"
)


@pytest.mark.parametrize(
    ("text", "chsh"), [(NEAR_LOCAL_TEXT, 2), (SHORT_ROWS_TEXT, 0)], ids=["near", "short"]
)
def test_near_local_box_searches_in_every_class(boxdir, capsys, text, chsh):
    path = boxdir / "near_local.box"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "validate", path) == (0, f"valid box: CHSH value {chsh}\n", "")
    for argv in (
        ("--class", "nonadaptive", "--m", 1),
        ("--class", "nonadaptive", "--m", 2),
        ("--class", "nonadaptive", "--m", 3),
        ("--class", "nonadaptive", "--m", 1, "--input-dependent"),
        ("--class", "nonadaptive", "--m", 2, "--input-dependent"),
        ("--class", "nonadaptive", "--m", 3, "--input-dependent"),
        ("--class", "adaptive"),
    ):
        code, out, err = run(capsys, "search", *argv, "--exact", path)
        assert (code, err) == (0, "")
        assert "best_value=2" in out.splitlines()
        assert out.splitlines()[-1] == "best_exact=2"


GROWING_ROW_SUM_TEXT = (
    "kind=matrix\nrow00=0.40000000024,0.10000000024,0.10000000024,0.40000000024\n"
    "row01=0.4,0.1,0.1,0.4\nrow10=0.4,0.1,0.1,0.4\nrow11=0.1,0.4,0.4,0.1\n"
)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="validate accepts the box (row 00 sums to 1 + 9.6e-10), but two copies "
    "multiply that row sum past the same 1e-9 tolerance. The search weighs and "
    "replays the canonical box, but distill still wires the raw entries, so "
    "two-copy distill exits 1 with 'wiring produced an invalid box: "
    "(('normalization', 1.92e-09), ...)' (ROADMAP item 2, every verb)",
)
def test_box_within_tolerance_wires_in_every_two_copy_class(boxdir, capsys):
    path = boxdir / "growing_row_sum.box"
    path.write_text(GROWING_ROW_SUM_TEXT, encoding="utf-8")
    assert run(capsys, "validate", path) == (0, "valid box: CHSH value 2.4\n", "")
    for argv in (
        ("distill", "--protocol", "parity", "--copies", 1),
        ("distill", "--protocol", "parity", "--copies", 2),
        ("distill", "--protocol", "or", "--copies", 2),
        ("search", "--class", "nonadaptive", "--m", 2),
        ("search", "--class", "nonadaptive", "--m", 2, "--input-dependent"),
        ("search", "--class", "adaptive"),
    ):
        code, out, err = run(capsys, *argv, path)
        assert (code, err) == (0, ""), argv


def test_box_within_tolerance_searches_in_every_class(boxdir, capsys):
    # the search weighs and replays the canonical box, whose rows sum to 1
    path = boxdir / "growing_row_sum.box"
    path.write_text(GROWING_ROW_SUM_TEXT, encoding="utf-8")
    for argv in (
        ("--class", "nonadaptive", "--m", 2),
        ("--class", "nonadaptive", "--m", 3),
        ("--class", "nonadaptive", "--m", 2, "--input-dependent"),
        ("--class", "nonadaptive", "--m", 3, "--input-dependent"),
        ("--class", "adaptive"),
    ):
        code, out, err = run(capsys, "search", *argv, path)
        assert (code, err) == (0, ""), argv
        assert "best_value=2.4" in out.splitlines()


def test_search_thread_count_never_changes_output(boxdir, capsys, monkeypatch):
    argv = ("search", "--class", "nonadaptive", "--m", 3, boxdir / "correlated.box")
    baseline = run(capsys, *argv)
    assert baseline[0] == 0
    assert run(capsys, *argv, "--threads", 4) == baseline
    monkeypatch.setenv("NLBD_THREADS", "8")
    assert run(capsys, *argv) == baseline


@pytest.mark.parametrize(
    "argv, env",
    [
        (("search", "--class", "nonadaptive", "correlated.box"), None),
        (("search", "--class", "adaptive", "--m", "3", "correlated.box"), None),
        (("search", "--class", "adaptive", "game.box"), None),
        (("search", "--class", "nonadaptive", "--m", "2", "--threads", "0",
          "correlated.box"), None),
        (("search", "--class", "nonadaptive", "--m", "2", "--threads", "-3",
          "correlated.box"), None),
        (("search", "--class", "adaptive", "--threads", "0", "correlated.box"), None),
        (("search", "--class", "adaptive", "--input-dependent", "correlated.box"), None),
        (("search", "--class", "nonadaptive", "--m", "-1", "correlated.box"), None),
        (("search", "--class", "nonadaptive", "--m", "0", "game.box"), None),
    ],
)
def test_search_usage_errors(boxdir, capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("NLBD_THREADS", env)
    code = main([str(boxdir / a) if a.endswith(".box") else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err != ""
    if "--m" in argv and int(argv[argv.index("--m") + 1]) < 1:
        m = argv[argv.index("--m") + 1]
        assert captured.err == f"nlbd: need at least one copy, got m={m}\n"


def test_search_budget_exceeded(boxdir, capsys):
    code, out, err = run(capsys, "search", "--class", "nonadaptive", "--m", 5,
                         boxdir / "correlated.box")
    assert code == 4
    assert err != ""


SCAN_ARGS = ("scan", "--alpha", "0.26:0.30:0.02", "--eps", "0.02:0.04:0.01")


def test_scan_csv_to_stdout(capsys):
    code, out, err = run(capsys, *SCAN_ARGS, "--out", "-")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "alpha,beta,delta,eps,valid,V,V_parity,V_OR,V_A_fit,winner,collapses_cc"
    assert len(lines) == 10
    assert lines[1].startswith("0.26,0.26,1,0.02,true,2.98,2.9996,2.9947,")
    assert lines[1].endswith(",PARITY,false")
    assert lines[4].endswith(",OR,false")


def test_scan_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, out, err = run(capsys, *SCAN_ARGS, "--out", target)
    assert code == 0
    assert out == f"wrote 9 rows to {target}\n"
    stdout_run = run(capsys, *SCAN_ARGS, "--out", "-")
    assert target.read_text(encoding="utf-8") == stdout_run[1]


def test_scan_single_values_and_protocol_list(capsys):
    code, out, err = run(capsys, "scan", "--alpha", "0.42", "--beta", "0.42",
                         "--delta", "0.99", "--eps", "-0.16", "--protocols", "PARITY,OR,A",
                         "--out", "-")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.42,0.42,0.99,-0.16,true,")


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--alpha", "0.2:0.3", "--eps", "0.01", "--out", "-"),
        ("scan", "--alpha", "lo:hi:step", "--eps", "0.01", "--out", "-"),
        ("scan", "--alpha", "nan", "--eps", "0.01", "--out", "-"),
        ("scan", "--alpha", "0.2:0.3:0", "--eps", "0.01", "--out", "-"),
        ("scan", "--alpha", "0.2", "--eps", "0.01", "--protocols", "BOGUS", "--out", "-"),
    ],
)
def test_scan_usage_errors(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err != ""


def test_scan_reversed_range_is_usage(capsys):
    # a stop below the start exits 2 with nothing on stdout; start == stop is one row
    code, out, err = run(capsys, "scan", "--alpha", "0.5:0:0.1", "--eps", "0", "--out", "-")
    assert (code, out) == (2, "")
    assert err == "nlbd: alpha axis stop 0.0 lies below its start 0.5\n"
    code, out, err = run(capsys, "scan", "--alpha", "0.5:0.5:0.1", "--eps", "0", "--out", "-")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["0.5,0.5,1,0,true,3,3,3.25,3,OR,false"]


def test_scan_grid_budget(capsys):
    code, out, err = run(capsys, "scan", "--alpha", "0:1:1e-5", "--eps", "0:1:0.005",
                         "--out", "-")
    assert code == 4
    assert "budget" in err


def test_scan_grid_budget_is_checked_before_any_axis_is_built(capsys):
    # built first, this axis of 10^12 cells would need terabytes
    code, out, err = run(capsys, "scan", "--alpha", "0:1:1e-12", "--eps", "0", "--out", "-")
    assert code == 4
    assert out == ""
    assert err.startswith("nlbd: ") and "budget" in err


def test_scan_write_failure_is_io_error(tmp_path, capsys):
    code, out, err = run(capsys, *SCAN_ARGS, "--out", tmp_path / "missing" / "sweep.csv")
    assert code == 3
    assert err != ""


@pytest.mark.parametrize(
    "option, value",
    [("--eps", "-1:1:0.5"), ("--alpha", "-0.5:0:0.25"), ("--beta", "-.5:0:0.25"),
     ("--delta", "-1:-0.5:0.25"), ("--eps", "-0.16")],
)
def test_scan_negative_value_as_own_token(capsys, option, value):
    axes = {"--alpha": "0:0.5:0.1", "--eps": "0.01", option: value}
    flat = [token for pair in axes.items() for token in pair]
    own_token = run(capsys, "scan", *flat, "--out", "-")
    fused = [f"{k}={v}" for k, v in axes.items()]
    with_equals = run(capsys, "scan", *fused, "--out", "-")
    assert own_token[0] == 0 and own_token[2] == ""
    assert own_token == with_equals
    assert len(own_token[1].splitlines()) > 1


def test_scan_negative_value_after_abbreviated_option(capsys):
    abbreviated = run(capsys, "scan", "--alpha", "0.3", "--ep", "-1:1:0.5", "--del", "-0.5",
                      "--out", "-")
    full = run(capsys, "scan", "--alpha", "0.3", "--eps=-1:1:0.5", "--delta=-0.5", "--out", "-")
    assert abbreviated[0] == 0
    assert abbreviated == full


def test_scan_option_missing_its_value_is_still_usage(capsys):
    code, out, err = run(capsys, "scan", "--alpha", "0.1", "--eps", "--out", "-")
    assert code == 2
    assert "--eps" in err


def test_tables_match(capsys):
    code, out, err = run(capsys, "tables", "--which", 2)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "reference table 2"
    assert lines[-1] == "  mismatches: 0"


def test_tables_known_parity_diffs(capsys):
    code, out, err = run(capsys, "tables", "--which", 3)
    assert code == 0
    diff_lines = [line for line in out.splitlines() if "[DIFF]" in line]
    assert len(diff_lines) == 7
    assert all("V_parity" in line for line in diff_lines)
    assert out.splitlines()[-1] == "  mismatches: 7"


def test_tables_bad_which(capsys):
    assert main(["tables", "--which", "4"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "which, audit, digest",
    [
        # SHA-256 of what `nlbd tables` printed when each table had its own branch
        ("1", False, "9d3ff7e3fdf40ced3c9fc1938064203ad2d5fd5985d78dc744adcadb82672c6c"),
        ("1", True, "54cf96dd0603a1d0a01b71f69c3904ef6f9c91219ca98e16d23f19b8c9a24adf"),
        ("2", False, "4cbfb9905d4f8445467569a9df864eddb58392e6ff4852d145e7e75c5cdb8c51"),
        ("2", True, "8c67ec8f97fcc52f6988154335781bc562ff515c341ab698110a78b51c8b0dd2"),
        ("3", False, "76da3935c473b86eee2d5f064d6d0f369da46cedaaf255d53cf7f4d45dde833b"),
        ("3", True, "eba7a3a4b8f58a7009d3a238a6955e263fe29d2e833cee667b0e83ba5f4e2798"),
    ],
)
def test_tables_print_pinned_bytes(capsys, which, audit, digest):
    code, out, err = run(capsys, "tables", "--which", which, *(["--audit"] if audit else []))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


EQUIV_EXPECTED = [
    "proto=adaptive2;tables=668668",
    "target00=0,0,1",
    "factors00=1,0;1,0",
    "target01=0,0,1",
    "factors01=1,0;1,0",
    "target10=0,0,1",
    "factors10=1,0;1,0",
    "target11=0,-0.5,-0.5",
    "factors11=1,0;-0.5,-0.5",
    "box1: alpha=0 beta=0 gamma=0 omega=0 d1=0.6 d2=0.6 d3=0.6 eps=0.6",
    "box2: alpha=0 beta=0 gamma=0 omega=0 d1=0.6 d2=0.6 d3=0.6 eps=-0.8",
]


def test_equiv_default_wiring(capsys):
    code, out, err = run(capsys, "equiv", "--delta", 0.6)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:11] == EQUIV_EXPECTED
    deviations = [float(line.partition("=")[2]) for line in lines[11:]]
    assert lines[11].startswith("certificate_max_deviation=")
    assert lines[12].startswith("certificate_p00_deviation=")
    assert all(0 <= d <= 1e-9 for d in deviations)


def test_equiv_parity_wiring_is_its_own_pair(capsys):
    code, out, err = run(capsys, "equiv", "--delta", 0.3, "--proto", "66c66c")
    assert code == 0
    lines = out.splitlines()
    box1 = next(line for line in lines if line.startswith("box1:"))
    box2 = next(line for line in lines if line.startswith("box2:"))
    assert box1.removeprefix("box1:") == box2.removeprefix("box2:")
    assert box1.endswith("d1=0.3 d2=0.3 d3=0.3 eps=0.3")
    assert "certificate_max_deviation=0" in lines


# sha256 of the whole stdout, certificate lines included: their values sit
# near 1e-17 and move with any change in summation order.
EQUIV_DIGESTS = {
    (None, "0.35"): "2e707b6763d71ac7dcd3382b0cd4633eb8ff5db03007d9e4d3d7cc1b7b588f61",
    (None, "0.8"): "429e8e270a8075885899882968f2b3cb8736bd6fb5941aca6b27cac3ef6ad95a",
    ("66c66c", "0.35"): "d3bd596537697cd600629b2f7699d37354ad3c788c1938ec46063545854ab2a6",
    ("66c66c", "0.8"): "30d2b5388ee21e0ea22681f3153fcf2b89d8b2442e5e228ffb794745a223edfa",
    ("cccccc", "0.35"): "0987e87a28d7490c5df1ac73dd2c7010de3106cbe16bdd56b5735971ff07b857",
    ("cccccc", "0.8"): "1ccbbd21d8c39898a630f99af2b0e1ed7359987bf61afb829f315ee5ec6878cd",
    ("33333c", "0.35"): "bfa19d174ecf1f02bc8056f00c5aa8e0d7a8bc4258364a632a43be44ac36b6bb",
    ("33333c", "0.8"): "f679a4d7416b4d3d05a52bfb27354aa3e25a8da6a4dfae97d455137197aaaaf2",
    ("064c64", "0.35"): "7299d116bcd96b33c13344d1ab8c4a3d2fb8faaf6d8aaec4cc10eef1b1b0eb0d",
    ("064c64", "0.8"): "82396e7c21594a3a81fdac887f345d8d660e2b460e895f04ba3077773f3e8eec",
    ("000000", "0.5"): "8d0a335020d6018b302e365932b8e9fd345983740d267b21d2da30ff418be43c",
}


def run_equiv(capsys, proto, delta):
    argv = ("equiv", "--delta", delta) + (() if proto is None else ("--proto", proto))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    return out


def parse_equiv(out):
    """The target/factors lines of an equiv printout as numbers, and its two boxes."""
    lines = out.splitlines()[1:]
    values = {}
    for line in lines[:8]:
        key, _, text = line.partition("=")
        values[key] = [[float(c) for c in part.split(",")] for part in text.split(";")]
    boxes = [
        CorrelatorForm(**{k: float(v) for k, v in (f.split("=") for f in line.split()[1:])})
        for line in lines[8:10]
    ]
    return values, boxes


@pytest.mark.parametrize("proto, delta", sorted(EQUIV_DIGESTS, key=str))
def test_equiv_prints_pinned_bytes(capsys, proto, delta):
    out = run_equiv(capsys, proto, delta)
    assert hashlib.sha256(out.encode()).hexdigest() == EQUIV_DIGESTS[proto, delta]


@pytest.mark.parametrize("proto, delta", sorted(EQUIV_DIGESTS, key=str))
def test_equiv_factors_are_the_printed_boxes_correlators(capsys, proto, delta):
    values, boxes = parse_equiv(run_equiv(capsys, proto, delta))
    for label, field in zip(INPUT_ORDER, ("d1", "d2", "d3", "eps")):
        [target] = values[f"target{label}"]
        (a1, a0), (b1, b0) = values[f"factors{label}"]
        for (c1, c0), box in zip(((a1, a0), (b1, b0)), boxes):
            assert c1 * float(delta) + c0 == pytest.approx(getattr(box, field), abs=1e-11)
        assert [a0 * b0, a0 * b1 + a1 * b0, a1 * b1] == pytest.approx(target, abs=1e-9)


@pytest.mark.parametrize("proto, delta", sorted(EQUIV_DIGESTS, key=str))
def test_equiv_printed_boxes_rebuild_the_wiring(capsys, proto, delta):
    _, boxes = parse_equiv(run_equiv(capsys, proto, delta))
    if proto is None:
        wiring = nlbd.wirings.bs_wiring()
    else:
        wiring = AdaptiveTwoCopyProtocol.decode(int(proto, 16))
    rebuilt = apply_nonadaptive([box_from_correlators(b) for b in boxes], parity_protocol(2, 2))
    iso = box_from_correlators(make_named_box("isotropic", delta=float(delta)))
    assert np.abs(rebuilt.p - apply_adaptive(iso, iso, wiring).p).max() <= 1e-9


@pytest.mark.parametrize("delta", ["nan", "inf", "--delta=-inf", "--delta=nan"])
def test_equiv_non_finite_delta_is_usage(capsys, delta):
    argv = ("equiv", delta) if delta.startswith("--") else ("equiv", "--delta", delta)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("nlbd: --delta") and "finite" in err


@pytest.mark.parametrize("digits", ["52e6b4", "269e0d", "0c5c7f"])
def test_equiv_reports_construction_failures(capsys, digits):
    code, out, err = run(capsys, "equiv", "--delta", 0.5, "--proto", digits)
    assert code == 1
    assert err != ""


def test_equiv_failure_after_the_factorization_prints_nothing(capsys):
    code, out, err = run(capsys, "equiv", "--delta", 5)
    assert (code, out) == (1, "")
    assert err != ""


def test_equiv_checks_the_boxes_it_prints(capsys):
    # the pair is valid at the certificate's points in [0, 1], but box1 at delta = -0.3
    # has p(00|11) near -0.016
    code, out, err = run(capsys, "equiv", "--delta", "-0.3", "--proto", "d037fe")
    assert (code, out) == (1, "")
    assert err.startswith("nlbd: constructed box invalid at delta=-0.3: (('negativity', ")


@pytest.mark.parametrize("digits", ["zz", "12345", "1234567"])
def test_equiv_bad_encoding_is_usage(capsys, digits):
    code, out, err = run(capsys, "equiv", "--delta", 0.5, "--proto", digits)
    assert code == 2
    assert err != ""


def test_no_arguments_is_usage(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_parser_built_once_prints_what_a_fresh_one_does(boxdir, capsys, monkeypatch):
    argvs = [
        ("search",),  # usage error: --class is required
        ("--help",),
        ("search", "--class", "nonadaptive", "--m", "2", "--exact", boxdir / "correlated.box"),
        ("scan", "--alpha", "0:0.1:0.05", "--eps", "-0.5:0.5:0.25", "--out", "-"),
    ]
    fresh = []
    for argv in argvs:
        nlbd.cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    built = []
    real_build = nlbd.cli.build_parser
    monkeypatch.setattr(nlbd.cli, "build_parser", lambda: built.append(1) or real_build())
    nlbd.cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in argvs] == fresh
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0]
    assert len(built) == 1


def test_module_entry_point(boxdir):
    proc = subprocess.run(
        [sys.executable, "-m", "nlbd.cli", "value", str(boxdir / "correlated.box")],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2.99\n"


# ------------------------------------------------------- failed self-checks


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--class", "nonadaptive", "--m", "2"),
        ("search", "--class", "nonadaptive", "--m", "2", "--input-dependent"),
        ("search", "--class", "adaptive"),
    ],
)
def test_search_replay_disagreement_exits_one(boxdir, capsys, monkeypatch, argv):
    real_values = nlbd.search.chsh_values
    monkeypatch.setattr(nlbd.search, "chsh_values", lambda p: real_values(p) + 0.5)
    code, out, err = run(capsys, *argv, boxdir / "correlated.box")
    assert code == 1
    assert err.startswith("nlbd: replay of the best protocol gives ")


def test_exact_oracle_disagreement_exits_one(boxdir, capsys, monkeypatch):
    # push the float pass off the exact maximum: the float weights grow by
    # far more than the rounding bound allows
    real_weights = nlbd.search._copy_weights

    def off_weights(*args):
        floats, ints, index, scale, l1 = real_weights(*args)
        return [1.5 * w for w in floats], ints, index, scale, l1

    monkeypatch.setattr(nlbd.search, "_copy_weights", off_weights)
    code, out, err = run(capsys, "search", "--class", "nonadaptive", "--m", "2", "--exact",
                         boxdir / "correlated.box")
    assert code == 1
    assert err.startswith("nlbd: exact maximum ")


def test_invalid_wiring_output_exits_one(boxdir, capsys, monkeypatch):
    # the input boxes pass; the wiring's output fails validation
    inputs = read_box_file(boxdir / "correlated.box")
    real = nlbd.boxes.box_breaches

    def breaches(p):  # every box but the input signals to Alice
        if np.array_equal(p, inputs.p):
            return real(p)
        return np.broadcast_to([0.0, 0.0, 0.25, 0.0], p.shape[:-2] + (4,))

    monkeypatch.setattr(nlbd.boxes, "box_breaches", breaches)
    for protocol in ("or", "adaptive:33333c"):
        code, out, err = run(capsys, "distill", "--protocol", protocol, "--copies", "2",
                             boxdir / "correlated.box")
        assert code == 1
        assert err.startswith("nlbd: ") and "invalid box" in err


def test_equiv_factor_drift_exits_one(capsys, monkeypatch):
    real_product = nlbd.equivalence._product_coefficients
    monkeypatch.setattr(
        nlbd.equivalence, "_product_coefficients",
        lambda factors: tuple(c + 1e-3 for c in real_product(factors)),
    )
    code, out, err = run(capsys, "equiv", "--delta", "0.5")
    assert code == 1
    assert err.startswith("nlbd: ") and "drifted" in err


def test_checks_survive_python_optimize(boxdir):
    # under -O a bare assert would vanish and the wrong value would print
    script = (
        "import sys, numpy as np, nlbd.search as s\n"
        "s.wire_nonadaptive = lambda ps, proto: np.full((4, 4), 0.25)\n"
        "from nlbd.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, "search", "--class", "nonadaptive", "--m", "1",
         str(boxdir / "correlated.box")],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("nlbd: replay of the best protocol gives 0.0")


def test_cli_import_starts_no_thread_pool_module():
    # every computation runs on the calling thread; --threads is only validated
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nlbd.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "False\n"
