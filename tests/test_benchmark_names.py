"""The names the benchmark scripts under ``benchmarks/`` bind in ``cbp``
still exist at their module paths.

The tracer rebinds ``tracing.LAYERS`` by (module, attribute), and the
worker imports ``cbp`` names inside its functions, so a renamed or deleted
name would otherwise surface only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cbp import harness

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cbp_bindings(path: Path) -> list[tuple[str, str, object]]:
    """``(where, name, owner)`` for every name ``path`` imports from ``cbp``
    (at any depth) and every attribute it reads off an imported ``cbp``
    module, e.g. ``self.harness.run_algorithm``."""
    tree = ast.parse(path.read_text())
    modules: dict[str, object] = {}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cbp":
                    modules[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cbp":
            owner = importlib.import_module(node.module)
            for alias in node.names:
                out.append((node.module, alias.name, owner))
                value = getattr(owner, alias.name, None)
                if isinstance(value, type(owner)):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            key = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            if key in modules:
                out.append((key, node.attr, modules[key]))
    return out


def test_tracing_layers_resolve():
    tracing = load_script("tracing")
    assert tracing.LAYERS
    for layer, module_name, attr in tracing.LAYERS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{layer}: {module_name}.{attr} is gone"


def test_workloads_import_and_name_algorithms():
    workloads = load_script("workloads")
    for workload in workloads.WORKLOADS.values():
        assert set(workload.algorithms) <= set(harness.ALGORITHMS), workload.name


@pytest.mark.parametrize("script", ["worker.py", "workloads.py"])
def test_script_cbp_names_resolve(script):
    bindings = cbp_bindings(BENCH / script)
    assert bindings
    for where, name, owner in bindings:
        assert hasattr(owner, name), f"{script}: {where}.{name} is gone"
