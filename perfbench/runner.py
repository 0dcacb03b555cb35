"""Runs whole rounds of a workload's ops and judges every output.

Only the op calls are timed. Outputs are judged after the round: an output
byte-identical to one already judged for the same op takes that verdict,
any other output is checked afresh.
"""

from __future__ import annotations

import time

from checks import CheckFailed
from workloads import Op, Outcome, file_digest, run_cli


class Runner:
    """Runs whole rounds of a workload's ops and judges every output."""

    def __init__(self, ops: list[Op]) -> None:
        self.ops = ops
        self.verdicts: dict[int, tuple[Outcome, str | None]] = {}
        self.last: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, str] = {}
        self.faults: dict[str, str] = {}

    def _call(self, op: Op) -> Outcome:
        try:
            return op.call()
        except Exception as err:  # an escaped exception is that op's failure
            return Outcome(-1, "", f"uncaught {type(err).__name__}: {err}")

    def round(self, tracer=None) -> tuple[float, int]:
        """One round; returns its timed seconds and the work of its passing ops."""
        outcomes = []
        elapsed = 0.0
        if tracer is not None:
            tracer.install()
        try:
            for op in self.ops:
                start = time.perf_counter()
                outcome = self._call(op)
                elapsed += time.perf_counter() - start
                outcomes.append(outcome)
        finally:
            if tracer is not None:
                tracer.uninstall()
        work = 0
        for i, (op, outcome) in enumerate(zip(self.ops, outcomes)):
            if op.out_file is not None and outcome.code == 0:
                outcome.digest = file_digest(op.out_file)
            problem = self._judge(i, op, outcome)
            self.attempted += 1
            if problem is None:
                work += op.work
                continue
            self.failed += 1
            if op.fault is None:
                self.problems.setdefault(op.name, problem)
            else:
                self.faults.setdefault(op.name, f"{op.fault}: {problem}")
        self.last = outcomes
        return elapsed, work

    def _judge(self, i: int, op: Op, outcome: Outcome) -> str | None:
        cached = self.verdicts.get(i)
        if cached is not None and cached[0] == outcome:
            return cached[1]
        try:
            op.check(outcome)
            problem = None
        except CheckFailed as err:
            problem = str(err)
        except Exception as err:  # output the check cannot even read
            problem = f"{type(err).__name__}: {err}"
        self.verdicts[i] = (outcome, problem)
        return problem

    def check_thread_determinism(self) -> None:
        """Search ops must print the same bytes with --threads 2 (untimed)."""
        for op, outcome in zip(self.ops, self.last):
            if op.argv is None or op.argv[0] != "search":
                continue
            again = run_cli(op.argv + ["--threads", "2"])
            if (again.code, again.stdout) != (outcome.code, outcome.stdout):
                self.problems.setdefault(op.name, "--threads 2 printed other bytes")
