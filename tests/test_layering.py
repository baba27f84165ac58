"""Module boundaries inside the package."""

import ast
import dataclasses
import importlib.util
from pathlib import Path

import blochlab
from blochlab import criteria, oracle

PACKAGE = Path(blochlab.__file__).resolve().parent


def test_no_module_imports_a_private_name_from_a_sibling():
    # a helper another module needs belongs to its owner's public API
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 0 and not node.module.startswith("blochlab."):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    offences.append(f"{path.name}:{node.lineno} imports {alias.name} from {node.module}")
    assert offences == []


def test_names_the_benchmark_tracer_wraps_still_exist():
    # bench/tracing.py patches these bindings by name; a rename or deletion
    # must fail here rather than crash a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [pair for pairs in tracing.SPANS.values() for pair in pairs]
    targets.append((criteria, "sample_points"))  # counts one call per sample table
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in targets if not hasattr(owner, attr)]
    assert missing == []
    # the tracer reads a trend's verdict from these fields
    assert "classification" in {f.name for f in dataclasses.fields(oracle.LowerBoundTrend)}
    assert "trend" in {f.name for f in dataclasses.fields(oracle.CompactnessProbe)}
