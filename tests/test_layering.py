"""Module boundaries inside the package."""

import ast
import dataclasses
from pathlib import Path

import blochlab
from bench_module import bench_module
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
    tracing = bench_module("tracing")
    targets = [pair for pairs in tracing.SPANS.values() for pair in pairs]
    targets.append((criteria, "sample_points"))  # counts one call per sample table
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in targets if not hasattr(owner, attr)]
    assert missing == []
    # the tracer reads a trend's verdict from these fields
    assert "classification" in {f.name for f in dataclasses.fields(oracle.LowerBoundTrend)}
    assert "trend" in {f.name for f in dataclasses.fields(oracle.CompactnessProbe)}


def _sibling_imports(module) -> set:
    """The sibling modules ``module`` imports from, by name."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            names.update([node.module] if node.module else [alias.name for alias in node.names])
        elif node.module == "blochlab":
            names.update(alias.name for alias in node.names)
        elif (node.module or "").startswith("blochlab."):
            names.add(node.module.split(".")[1])
    return names


def test_the_oracle_and_the_classifier_import_nothing_from_each_other():
    # the oracle is the classifier's independent witness
    assert "criteria" not in _sibling_imports(oracle)
    assert "oracle" not in _sibling_imports(criteria)
