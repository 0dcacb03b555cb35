"""Every nlbd name the benchmark harness reaches must exist.

The harness under perfbench/ imports library functions by name and traces
some of them by (module, attribute). Its own tests are not part of the
default suite, so a rename inside nlbd would otherwise break the benchmark
silently. The harness files are read as source, never imported or edited.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _traced_layers() -> list[tuple[str, str]]:
    """(module, dotted attribute) of every entry of FUNCTION_LAYERS and METHOD_LAYERS."""
    pairs = []
    for node in _tree("spans.py").body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("FUNCTION_LAYERS", "METHOD_LAYERS"):
                for entry in node.value.elts:
                    strings = [e.value for e in entry.elts if isinstance(e, ast.Constant)]
                    module = strings[0]
                    attr = ".".join(strings[1:3] if name == "METHOD_LAYERS" else strings[1:2])
                    pairs.append((module, attr))
    return pairs


def _imported_names(filename: str) -> list[tuple[str, str]]:
    """(module, dotted attribute) of every nlbd name a harness file imports or uses.

    Covers `from nlbd[.mod] import name` and attribute uses such as
    `nlbd.cli.main` or `fourier.parity_bound` on imported nlbd modules.
    """
    tree = _tree(filename)
    pairs = []
    modules = {}  # local name -> nlbd module path
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nlbd":
            for alias in node.names:
                pairs.append((node.module, alias.name))
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "nlbd":
                    pairs.append((alias.name, ""))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain, base = [node.attr], node.value
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if not isinstance(base, ast.Name):
                continue
            chain.reverse()
            if base.id == "nlbd" and len(chain) >= 2:
                pairs.append((f"nlbd.{chain[0]}", chain[1]))
            elif base.id in modules and _is_module(modules[base.id]):
                pairs.append((modules[base.id], chain[0]))
    return pairs


def _is_module(path: str) -> bool:
    try:
        importlib.import_module(path)
    except ImportError:
        return False
    return True


NAMES = sorted(
    set(_traced_layers() + _imported_names("checks.py") + _imported_names("workloads.py"))
)


def test_harness_names_were_found():
    modules = {module for module, _ in NAMES}
    assert {"nlbd.boxes", "nlbd.cli", "nlbd.search", "nlbd.wirings"} <= modules
    assert ("nlbd.boxes", "validate_box") in NAMES
    assert ("nlbd.search", "RegionScanResult.write_csv") in NAMES


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{m}:{a}" for m, a in NAMES])
def test_harness_name_exists(module, attr):
    target = importlib.import_module(module)
    for part in filter(None, attr.split(".")):
        target = getattr(target, part)
