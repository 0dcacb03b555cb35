"""Per-layer timing for the traced run, recorded from outside the package.

Each traced layer is a public nlbd function (plus the CSV writer method).
While a Tracer is installed, every module-level reference to such a function
inside the loaded ``nlbd`` modules is replaced by a timing wrapper, so calls
made by the CLI and by the library itself are both seen; uninstalling puts
the originals back. Nothing inside ``src/`` changes.

A span's inclusive time is added to its metric. ``cli.self_s`` is the
inclusive time of ``cli.main`` minus the time of the traced calls it made
directly: argument parsing, output formatting and printing.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _search_metric(args, kwargs) -> str:
    box = args[0]
    n = getattr(box, "n", 2)
    dependent = kwargs.get("input_dependent", args[2] if len(args) > 2 else False)
    if dependent:
        return "search.input_dep_s"
    return "search.input_free3_s" if n == 3 else "search.input_free2_s"


def _count_examined(totals, args, kwargs, result) -> None:
    totals["search.protocols_examined"] += result.protocols_examined


def _count_validate(totals, args, kwargs, result) -> None:
    totals["boxes.validate_box_calls"] += 1


def _count_cells(totals, args, kwargs, result) -> None:
    totals["search.cells"] += len(result)


def _count_csv_bytes(totals, args, kwargs, result) -> None:
    stream = args[1]
    try:
        # The CLI opens a fresh stream for every scan, so its position after
        # the write is the size of the CSV.
        totals["search.csv_bytes"] += stream.tell()
    except (OSError, ValueError, AttributeError):
        pass


def _count_parity_tuples(totals, args, kwargs, result) -> None:
    box, m = args[0], args[1]
    totals["xorboxes.outcome_tuples"] += (1 << (box.n * m)) << box.n


def _count_xor_tuples(totals, args, kwargs, result) -> None:
    boxes, m = args[0], args[2]
    n = boxes.n if hasattr(boxes, "n") else boxes[0].n
    totals["xorboxes.outcome_tuples"] += (1 << (n * m)) << n


# (module, attribute, metric name or classifier, counter or None)
FUNCTION_LAYERS = (
    ("nlbd.cli", "main", "cli.main_s", None),
    ("nlbd.fileio", "read_box_file", "fileio.read_box_file_s", None),
    ("nlbd.fileio", "format_protocol", "fileio.format_protocol_s", None),
    ("nlbd.boxes", "validate_box", "boxes.validate_box_s", _count_validate),
    ("nlbd.search", "enumerate_nonadaptive_max", _search_metric, _count_examined),
    ("nlbd.search", "adaptive_search_max", "search.adaptive_s", _count_examined),
    ("nlbd.search", "region_scan", "search.region_scan_s", _count_cells),
    ("nlbd.search", "reproduce_tables", "search.reproduce_tables_s", None),
    ("nlbd.wirings", "apply_nonadaptive", "wirings.apply_nonadaptive_s", None),
    ("nlbd.wirings", "apply_adaptive", "wirings.apply_adaptive_s", None),
    ("nlbd.xorboxes", "simulate_parity", "xorboxes.simulate_parity_s", _count_parity_tuples),
    (
        "nlbd.xorboxes",
        "simulate_nonadaptive_xor",
        "xorboxes.simulate_nonadaptive_xor_s",
        _count_xor_tuples,
    ),
    ("nlbd.fourier", "parity_bound", "fourier.parity_bound_s", None),
    ("nlbd.fourier", "nonadaptive_value_fourier", "fourier.nonadaptive_value_fourier_s", None),
    ("nlbd.equivalence", "build_equivalent_boxes", "equivalence.build_equivalent_boxes_s", None),
)

# (module, class, method, metric, counter)
METHOD_LAYERS = (
    ("nlbd.search", "RegionScanResult", "write_csv", "search.write_csv_s", _count_csv_bytes),
)

# Every metric a traced round can produce; the ones a workload never reaches
# read 0.
ROUND_METRICS = (
    "cli.main_s",
    "cli.self_s",
    "fileio.read_box_file_s",
    "fileio.format_protocol_s",
    "boxes.validate_box_s",
    "boxes.validate_box_calls",
    "search.input_dep_s",
    "search.input_free2_s",
    "search.input_free3_s",
    "search.adaptive_s",
    "search.protocols_examined",
    "search.write_csv_s",
    "search.region_scan_s",
    "search.cells",
    "search.csv_bytes",
    "search.reproduce_tables_s",
    "wirings.apply_nonadaptive_s",
    "wirings.apply_adaptive_s",
    "xorboxes.simulate_parity_s",
    "xorboxes.simulate_nonadaptive_xor_s",
    "xorboxes.outcome_tuples",
    "fourier.parity_bound_s",
    "fourier.nonadaptive_value_fourier_s",
    "equivalence.build_equivalent_boxes_s",
)


class Tracer:
    """Timing wrappers around nlbd's layer functions, installed on demand."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self._children: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> dict[str, float]:
        """Return the totals gathered since the last reset and start afresh."""
        totals = {name: self.totals.get(name, 0.0) for name in ROUND_METRICS}
        self.totals = defaultdict(float)
        return totals

    def _wrap(self, fn, metric, counter):
        tracer = self

        def traced(*args, **kwargs):
            tracer._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = tracer._children.pop()
                if tracer._children:
                    tracer._children[-1] += elapsed
                name = metric(args, kwargs) if callable(metric) else metric
                tracer.totals[name] += elapsed
                if name == "cli.main_s":
                    tracer.totals["cli.self_s"] += elapsed - children
            if counter is not None:
                counter(tracer.totals, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            return
        modules = [mod for name, mod in sys.modules.items() if name.startswith("nlbd")]
        for module_name, attr, metric, counter in FUNCTION_LAYERS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, metric, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
        for module_name, cls_name, attr, metric, counter in METHOD_LAYERS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, metric, counter))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
