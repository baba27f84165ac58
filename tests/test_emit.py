"""``emit`` and ``Report.results_payload`` write the bytes that ``json.dumps``
and ``csv.writer`` write: every emitted file equals ``reference_emit``'s,
also when emitted again over stale files of the same names, and
the JSON renderer equals ``json.dumps(..., sort_keys=True, indent=2,
allow_nan=False)`` on arbitrary trees."""

import copy
import gc
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab.battery import CURATED
from blochlab import cli
from blochlab.cli import _render_json, emit, parse_config, run
from bench_module import bench_workloads
from golden_reference import reference_emit

def assert_emits_reference_bytes(report, tmp_path: Path):
    got = emit(report, tmp_path / "got", ("json", "csv"))
    want = reference_emit(report, tmp_path / "want", ("json", "csv"))
    assert [p.name for p in got] == [p.name for p in want]
    for a, b in zip(got, want):
        assert a.read_bytes() == b.read_bytes(), a.name
    # emitted again over the same files, each first made longer or shorter
    for i, path in enumerate(got):
        data = path.read_bytes()
        path.write_bytes(data + b"stale,1.0\r\n" * 100 if i % 2 == 0 else data[: len(data) // 3])
    assert emit(report, tmp_path / "got", ("json", "csv")) == got
    for a, b in zip(got, want):
        assert a.read_bytes() == b.read_bytes(), a.name
    assert report.results_payload() == json.dumps(report.results, sort_keys=True, indent=2, allow_nan=False).encode()


@pytest.mark.parametrize("name", sorted(CURATED))
def test_curated_reports(name, tmp_path):
    assert_emits_reference_bytes(run(parse_config(copy.deepcopy(CURATED[name]["config"]))), tmp_path)


@pytest.mark.parametrize("text", [pytest.param(text, id=label) for label, text in bench_workloads().deep_config_texts(1)])
def test_deep_classify_reports(text, tmp_path):
    report = run(parse_config(text))
    assert_emits_reference_bytes(report, tmp_path)
    # one profile dict is held under several tasks
    profiles = [v["profile"] for e in report.results["tasks"].values() for v in e.get("verdicts", ())]
    assert len({id(p) for p in profiles}) < len(profiles)


def test_report_with_error_tasks(tmp_path):
    # at depth 52 the sample points round onto |z| = 1: every task is an error entry
    doc = dict(CURATED["half-scale"]["config"], grid={"depth": 52, "angular_nodes": 64, "panel_order": 8})
    report = run(parse_config(doc))
    assert all("error" in entry for entry in report.results["tasks"].values())
    assert_emits_reference_bytes(report, tmp_path)


def test_emission_leaves_no_reference_cycles(tmp_path):
    # a cycle (a recursive closure, say) would keep each rendering's texts
    # alive until the cyclic collector runs, and raise the peak RSS
    report = run(parse_config(copy.deepcopy(CURATED["boundary-touch"]["config"])))
    gc.collect()
    gc.disable()
    try:
        emit(report, tmp_path, ("json", "csv"))
        report.results_payload()
        assert gc.collect() == 0
    finally:
        gc.enable()


_TEXT = st.text(alphabet=st.sampled_from(list('ab ,:[]{}"\\\n\té€ 😀')), max_size=8)
_SCALARS = (st.none() | st.booleans() | st.integers(-(2**70), 2**70) | _TEXT
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 0.1]))


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=5),
        max_leaves=40,
    )


@settings(max_examples=200, deadline=None)
@given(_trees(_SCALARS))
def test_renderer_equals_json_dumps(tree):
    assert _render_json(tree) == json.dumps(tree, sort_keys=True, indent=2, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_renderer_equals_json_dumps_on_shared_containers(data):
    # one list or dict reached from several places, at several depths
    shared = data.draw(_trees(_SCALARS).filter(lambda t: isinstance(t, (list, dict))))
    tree = data.draw(_trees(_SCALARS | st.just(shared)))
    tree = {"a": shared, "b": [shared, {"c": shared}], "d": tree}
    assert _render_json(tree) == json.dumps(tree, sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", [lambda x: x, lambda x: [1.0, x], lambda x: {"a": [[x]]}, lambda x: {"a": x}])
def test_non_finite_floats_raise_value_error(bad, where):
    with pytest.raises(ValueError):
        json.dumps(where(bad), sort_keys=True, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        _render_json(where(bad))


def test_without_the_c_encoder_json_dumps_renders(monkeypatch, tmp_path):
    # an interpreter without the _json accelerator has no c_make_encoder
    report = run(parse_config(copy.deepcopy(CURATED["boundary-touch"]["config"])))
    want = _render_json(report.results)
    monkeypatch.setattr(cli, "_ENCODE_LINES", None)
    monkeypatch.setattr(cli, "_render", None)  # not reached
    assert _render_json(report.results) == want
    assert_emits_reference_bytes(report, tmp_path)


@pytest.mark.parametrize("bad", [object(), [object()], {"a": {1, 2}}, [1j]])
def test_unencodable_objects_raise_type_error(bad):
    with pytest.raises(TypeError):
        _render_json(bad)
