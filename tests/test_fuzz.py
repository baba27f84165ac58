"""Fuzz of ``parse_config -> run -> emit`` over small configs.

Every generated document either is rejected at parse time with a
``ValidationError`` that names its location, or runs to a complete report:
strict JSON with an entry for every scheduled task, and a verdict CSV.
"""

import csv
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blochlab.cli import KNOWN_TASKS, ValidationError, emit, parse_config, run

LOCATED = re.compile(r"^(unknown top-level keys|(symbol|space|grid|tasks|output)(\.\w+|\[\d+\])*): ")

angle = st.floats(0.0, 6.283)
small = st.builds(lambda r, t: [r * math.cos(t), r * math.sin(t)], st.floats(0.0, 0.7), angle)

multipliers = st.one_of(
    st.builds(lambda c: {"constant": c}, small),
    st.builds(lambda cs: {"power_series": cs}, st.lists(small, min_size=1, max_size=4)),
    st.builds(lambda n: {"log_series": n}, st.integers(1, 8)),
    st.builds(lambda b, e: {"fractional_kernel": {"base": b, "exponent": e}}, small, st.floats(0.2, 3.0)),
)


def _affine(frac, ta, tb, reach):
    # |a| + |b| = reach: inside the disk, touching it, or (reach > 1) not a self-map
    return {"affine": {"a": [frac * reach * math.cos(ta), frac * reach * math.sin(ta)],
                       "b": [(1 - frac) * reach * math.cos(tb), (1 - frac) * reach * math.sin(tb)]}}


self_maps = st.one_of(
    st.builds(_affine, st.floats(0.0, 1.0), angle, angle, st.sampled_from([0.5, 0.9, 1.0])),
    st.builds(lambda d, s: {"monomial": {"degree": d, "scale": s}}, st.integers(1, 4), st.floats(0.1, 1.0)),
    st.builds(lambda b: {"blaschke": {"base": b}}, small),
    st.builds(lambda bs: {"blaschke_product": {"bases": bs}}, st.lists(small, min_size=1, max_size=3)),
    st.builds(lambda f, b: {"scaled": {"factor": f, "inner": {"blaschke": {"base": b}}}}, st.floats(0.2, 1.0), small),
    st.just("identity"),
)
spaces = st.one_of(
    st.sampled_from(["bergman:1", "bergman:2", "bergman:4"]),
    st.builds(lambda p, a: {"p": p, "weight": {"alpha": a}}, st.floats(1.0, 4.0), st.floats(0.1, 2.0)),
)
grids = st.fixed_dictionaries({
    "depth": st.integers(4, 8),
    "angular_nodes": st.sampled_from([64, 128]),
    "panel_order": st.sampled_from([8, 12]),
})
valid_documents = st.fixed_dictionaries(
    {"symbol": st.fixed_dictionaries({"u": multipliers, "phi": self_maps}),
     "space": spaces,
     "grid": grids,
     "tasks": st.lists(st.sampled_from(KNOWN_TASKS), min_size=1, max_size=4, unique=True)},
    optional={"force_boundary": st.booleans()},
)

# one defect a document may carry: (path of keys, replacement value)
DEFECTS = [
    (("colour",), "red"),
    (("symbol", "u"), {"polynomial": [1, 2]}),
    (("symbol", "u"), {"constant": float("nan")}),
    (("symbol", "u"), {"log_series": 2.5}),
    (("symbol", "phi"), {"affine": {"a": 0.9, "b": 0.2}}),
    (("symbol", "phi"), {"blaschke": {"base": "x"}}),
    (("symbol", "phi"), {"monomial": {"degree": 0}}),
    (("symbol", "phi"), {"rotation": 1.0}),
    (("space",), "bergman:0"),
    (("space",), "hardy:2"),
    (("grid", "depth"), 2),
    (("grid", "angular_nodes"), 96),
    (("grid", "panel_order"), 33),
    (("tasks",), []),
    (("tasks",), ["bogus"]),
    (("tasks",), 5),
    (("tasks",), True),
    (("tasks",), "oracle"),
    (("tasks",), {"oracle": 1, "bounded_bloch": 2}),
    (("symbol",), "x"),
    (("symbol",), None),
    (("symbol", "uu"), {"constant": 1.0}),
    (("space",), {"p": 2.0, "weight": {"alpha": 0.5}, "extra": 1}),
    (("space",), {"p": 2.0, "weight": {"alpha": 0.5, "log_exponnet": 1.0}}),
    (("space",), {"p": True, "weight": {"alpha": 0.5}}),
    (("space",), {"p": 10**400, "weight": {"alpha": 0.5}}),
    (("symbol", "u"), True),
    (("symbol", "u"), {"fractional_kernel": {"base": 0.5, "exponent": "2"}}),
    (("symbol", "phi"), {"affine": {"a": True, "b": 0}}),
    (("symbol", "phi"), {"blaschke": {"base": ["0.5", "0"]}}),
    (("grid", "nodes"), 128),
    (("symbol", "phi"), {"monomial": {"degree": 2, "scal": 0.5}}),
]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def check_run_or_located_rejection(doc) -> bool:
    """Parse, run and emit ``doc``; True when it ran to a complete report,
    False when parsing rejected it with a located message."""
    try:
        config = parse_config(doc)
    except ValidationError as exc:
        assert LOCATED.match(str(exc)), str(exc)
        return False
    report = run(config)
    with tempfile.TemporaryDirectory() as out:
        emit(report, out, ("json", "csv"))
        loaded = json.loads((Path(out) / "report.json").read_text(), parse_constant=_reject_constant)
        with (Path(out) / "verdicts.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
    tasks = loaded["results"]["tasks"]
    assert set(tasks) == set(config.tasks)  # the JSON keys are sorted
    for task, entry in tasks.items():
        if "error" in entry:
            assert isinstance(entry["detail"], str)
        elif task == "lemma_probes":
            assert set(entry) == {"derivative_limit", "composition_limit"}
        elif task == "oracle":
            assert {"lower_bound", "compactness_probe", "agreement"} <= set(entry)
        else:
            assert {"overall", "decided", "verdicts"} <= set(entry)
    assert rows[0] == ["task", "quantity", "status", "sup_estimate", "slope"]
    assert all(len(row) == 5 for row in rows)
    return True


FUZZ = settings(deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=60)
@given(valid_documents)
def test_valid_documents_run_to_a_complete_report_or_are_rejected_with_a_location(doc):
    check_run_or_located_rejection(doc)


@pytest.mark.parametrize("defect", DEFECTS, ids=lambda d: ".".join(d[0]))
@settings(FUZZ, max_examples=4)
@given(doc=valid_documents)
def test_a_document_with_one_defect_is_rejected_with_a_location(defect, doc):
    (*outer, key), value = defect
    holder = doc
    for name in outer:
        holder = holder[name]
    holder[key] = value
    assert not check_run_or_located_rejection(doc)
