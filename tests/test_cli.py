import cmath
import dataclasses
import functools
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from blochlab import RadialGrid, cli, criteria, norms, oracle
from blochlab.battery import CURATED, random_pairs
from blochlab.cli import (
    KNOWN_TASKS,
    ParseError,
    Report,
    ValidationError,
    build_self_map,
    emit,
    main,
    parse_config,
    run,
    strict_exit_code,
)

HALF_SCALE_DOC = {
    "symbol": {"u": {"constant": 1.0}, "phi": {"monomial": {"degree": 1, "scale": 0.5}}},
    "space": "bergman:2",
    "grid": {"depth": 12, "angular_nodes": 128, "panel_order": 8},
    "tasks": ["bounded_bloch", "compact_bloch", "oracle"],
}


@pytest.fixture(scope="module")
def half_scale_report():
    return run(parse_config(dict(HALF_SCALE_DOC)))


class TestParsing:
    def test_the_known_tasks_in_their_listed_order(self):
        assert KNOWN_TASKS == ("bounded_bloch", "compact_bloch", "bounded_little_bloch", "compact_little_bloch",
                               "lemma_probes", "oracle")

    def test_bergman_shorthand_defaults(self):
        config = parse_config(dict(HALF_SCALE_DOC))
        assert config.space.p == 2.0
        assert config.space.weight.alpha == pytest.approx(0.5)
        assert config.space.weight.s == pytest.approx(0.25)
        assert config.space.weight.t == pytest.approx(0.75)

    def test_affine_invariant_violation(self):
        doc = dict(HALF_SCALE_DOC)
        doc["symbol"] = {"u": {"constant": 1}, "phi": {"affine": {"a": 0.6, "b": 0.5}}}
        with pytest.raises(ValidationError, match="not a self-map"):
            parse_config(doc)

    def test_compact_task_schedules_its_prerequisite(self):
        doc = dict(HALF_SCALE_DOC)
        doc["tasks"] = ["compact_bloch"]
        config = parse_config(doc)
        assert config.tasks.index("bounded_bloch") < config.tasks.index("compact_bloch")

    def test_oracle_is_scheduled_after_every_classifier_task(self):
        doc = dict(HALF_SCALE_DOC, tasks=["oracle", "bounded_bloch"])
        assert parse_config(doc).tasks == ("bounded_bloch", "oracle")
        doc["tasks"] = ["oracle", "compact_bloch", "lemma_probes"]
        assert parse_config(doc).tasks == ("bounded_bloch", "compact_bloch", "lemma_probes", "oracle")

    def test_empty_tasks_rejected(self):
        doc = dict(HALF_SCALE_DOC)
        doc["tasks"] = []
        with pytest.raises(ValidationError, match="at least one task"):
            parse_config(doc)

    def test_unknown_task_rejected(self):
        doc = dict(HALF_SCALE_DOC)
        doc["tasks"] = ["bounded_bloch", "frobnicate"]
        with pytest.raises(ValidationError, match="unknown task"):
            parse_config(doc)

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        with pytest.raises(ParseError) as info:
            parse_config('{"symbol": }')
        assert str(info.value) == "line 1, column 12: Expecting value"
        # a config file's error names the file first
        path = tmp_path / "broken.json"
        path.write_text('{"symbol": }')
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"invalid: {path}: line 1, column 12: Expecting value\n"

    def test_non_normal_weight_named_in_error(self):
        doc = dict(HALF_SCALE_DOC)
        doc["space"] = {"p": 2.0, "weight": {"alpha": 0.5, "s": 0.75, "t": 1.0}}
        with pytest.raises(ValidationError, match="not normal for witnesses"):
            parse_config(doc)

    @pytest.mark.parametrize("log_exponent", [0.5, -0.5, 1.0, -1.0])
    def test_bergman_2_weight_with_a_log_factor_parses(self, log_exponent):
        # normal near the boundary only, past k0 = 1 or 4 (Shields-Williams)
        doc = dict(HALF_SCALE_DOC)
        doc["space"] = {"p": 2.0, "weight": {"alpha": 0.5, "log_exponent": log_exponent, "s": 0.25, "t": 0.75}}
        assert parse_config(doc).space.weight.log_exponent == log_exponent

    def test_witness_above_alpha_still_refused_at_space_weight(self):
        doc = dict(HALF_SCALE_DOC)
        doc["space"] = {"p": 2.0, "weight": {"alpha": 0.5, "log_exponent": 0.0, "s": 0.75, "t": 1.0}}
        with pytest.raises(ValidationError, match=r"^space\.weight: not normal"):
            parse_config(doc)

    def test_identity_shorthand(self):
        phi = build_self_map("identity")
        assert phi.eval(0.3j) == pytest.approx(0.3j)

    def test_complex_entry_forms(self):
        phi = build_self_map({"affine": {"a": [0.2, 0.3], "b": {"re": 0.1}}})
        assert phi.eval(0.0) == pytest.approx(0.1)

    def test_unknown_variant(self):
        with pytest.raises(ValidationError, match="unknown self-map variant"):
            build_self_map({"mystery": {}})


# One malformed body per variant (and per nested location), with the exact
# message parse_config must give.  The location prefix is part of the
# contract: it tells the user which field of the document is wrong.
FUNCTION_ERRORS = [
    ({'constant': 'x'},
     'symbol.u: expected a number, [re, im] pair, or re/im object'),
    ({'power_series': 5},
     "symbol.u.power_series: malformed body ('int' object is not iterable)"),
    ({'power_series': [1, 'x']},
     'symbol.u.power_series: expected a number, [re, im] pair, or re/im object'),
    ({'log_series': 'x'},
     "symbol.u.log_series: expected an integer, got 'x'"),
    ({'log_series': None},
     'symbol.u.log_series: expected an integer, got None'),
    ({'fractional_kernel': {'exponent': 1}},
     "symbol.u.fractional_kernel: malformed body ('base')"),
    ({'fractional_kernel': {'base': 0.5, 'exponent': -1}},
     'symbol.u.fractional_kernel: kernel exponent must be positive'),
    ({'fractional_kernel': {'base': 'x', 'exponent': 1}},
     'symbol.u.base: expected a number, [re, im] pair, or re/im object'),
    ({'fractional_kernel': {'base': 0.5, 'exponent': 1, 'scale': 'x'}},
     'symbol.u.scale: expected a number, [re, im] pair, or re/im object'),
    ({'sum': 3},
     "symbol.u.sum: malformed body ('int' object is not iterable)"),
    ({'sum': []},
     'symbol.u.sum: Sum needs at least one term'),
    ({'sum': [1, {'x': 0}]},
     "symbol.u.sum[1]: unknown function variant 'x'"),
    ({'product': 1},
     "symbol.u.product: malformed body (object of type 'int' has no len())"),
    ({'product': [1]},
     'symbol.u.product: expected exactly two factors'),
    ({'product': [1, {'constant': 'x'}]},
     'symbol.u.product[1]: expected a number, [re, im] pair, or re/im object'),
    ({'scaled': {'inner': 1}},
     "symbol.u.scaled: malformed body ('factor')"),
    ({'scaled': {'factor': 'x', 'inner': 1}},
     'symbol.u.factor: expected a number, [re, im] pair, or re/im object'),
    ({'scaled': {'factor': 1, 'inner': {'constant': 'x'}}},
     'symbol.u.inner: expected a number, [re, im] pair, or re/im object'),
    ({'composed': {'outer': 1}},
     "symbol.u.composed: malformed body ('inner')"),
    ({'composed': {'outer': 1, 'inner': {'x': 1}}},
     "symbol.u.inner: unknown self-map variant 'x'"),
    ({'composed': {'outer': {'log_series': 'y'}, 'inner': 'identity'}},
     "symbol.u.outer.log_series: expected an integer, got 'y'"),
    ({'x': 1},
     "symbol.u: unknown function variant 'x'"),
    ({'a': 1, 'b': 2},
     'symbol.u: expected an object with exactly one variant key'),
    ('text',
     'symbol.u: expected an object with exactly one variant key'),
    # integer fields: a float, a bool or a numeric string is not truncated
    ({'log_series': 3.9},
     'symbol.u.log_series: expected an integer, got 3.9'),
    ({'log_series': True},
     'symbol.u.log_series: expected an integer, got True'),
    ({'log_series': '2'},
     "symbol.u.log_series: expected an integer, got '2'"),
    # number fields: a bool or a numeric string is not a number
    (True,
     'symbol.u: expected an object with exactly one variant key'),
    ({'constant': False},
     'symbol.u: expected a number, [re, im] pair, or re/im object'),
    ({'constant': [1, '0']},
     'symbol.u: expected a number, [re, im] pair, or re/im object'),
    ({'constant': {'re': '1'}},
     'symbol.u: expected a number, [re, im] pair, or re/im object'),
    ({'fractional_kernel': {'base': 0.5, 'exponent': '2'}},
     "symbol.u.exponent: expected a number, got '2'"),
    ({'fractional_kernel': {'base': 0.5, 'exponent': True}},
     'symbol.u.exponent: expected a number, got True'),
    # a body that is not an object
    ({'scaled': [0.5, 1.0]},
     'symbol.u.scaled: expected an object, got [0.5, 1.0]'),
]
SELF_MAP_ERRORS = [
    ({'affine': {}},
     "symbol.phi.affine: malformed body ('a')"),
    ({'affine': {'a': 'x', 'b': 0}},
     'symbol.phi.a: expected a number, [re, im] pair, or re/im object'),
    ({'affine': {'a': 0.6, 'b': 0.6}},
     'symbol.phi.affine: affine map is not a self-map: |a|+|b| = 1.2 > 1'),
    ({'monomial': {}},
     "symbol.phi.monomial: malformed body ('degree')"),
    ({'monomial': {'degree': 'x'}},
     "symbol.phi.degree: expected an integer, got 'x'"),
    ({'monomial': {'degree': 0}},
     'symbol.phi.monomial: degree must be a positive integer'),
    ({'monomial': {'degree': 1, 'scale': 2}},
     'symbol.phi.monomial: monomial scale must satisfy |s| <= 1'),
    ({'monomial': {'degree': 1, 'scale': 'x'}},
     'symbol.phi.scale: expected a number, [re, im] pair, or re/im object'),
    ({'blaschke': {}},
     "symbol.phi.blaschke: malformed body ('base')"),
    ({'blaschke': {'base': 2}},
     'symbol.phi.blaschke: Blaschke base must satisfy |a| < 1'),
    ({'blaschke': {'base': 'x'}},
     'symbol.phi.base: expected a number, [re, im] pair, or re/im object'),
    ({'blaschke_product': {'bases': 3}},
     "symbol.phi.blaschke_product: malformed body ('int' object is not iterable)"),
    ({'blaschke_product': {'bases': []}},
     'symbol.phi.blaschke_product: need at least one factor'),
    ({'blaschke_product': {'bases': ['x']}},
     'symbol.phi.bases: expected a number, [re, im] pair, or re/im object'),
    ({'blaschke_product': {'bases': [0.5], 'unimodular': 2}},
     'symbol.phi.blaschke_product: constant must be unimodular'),
    ({'blaschke_product': {'bases': [0.5], 'unimodular': 'x'}},
     'symbol.phi.unimodular: expected a number, [re, im] pair, or re/im object'),
    ({'scaled': {'factor': 0.5}},
     "symbol.phi.scaled: malformed body ('inner')"),
    ({'scaled': {'factor': 2, 'inner': 'identity'}},
     'symbol.phi.scaled: scaling factor must satisfy |s| <= 1'),
    ({'scaled': {'factor': 'x', 'inner': 'identity'}},
     'symbol.phi.factor: expected a number, [re, im] pair, or re/im object'),
    ({'scaled': {'factor': 0.5, 'inner': {'x': 1}}},
     "symbol.phi.inner: unknown self-map variant 'x'"),
    ({'composition': {'outer': 'identity'}},
     "symbol.phi.composition: malformed body ('inner')"),
    ({'composition': {'outer': {'blaschke': {'base': 2}}, 'inner': 'identity'}},
     'symbol.phi.outer.blaschke: Blaschke base must satisfy |a| < 1'),
    ({'x': 1},
     "symbol.phi: unknown self-map variant 'x'"),
    ('rotate',
     'symbol.phi: expected an object with exactly one variant key'),
    (5,
     'symbol.phi: expected an object with exactly one variant key'),
    ({'monomial': {'degree': 2.7}},
     'symbol.phi.degree: expected an integer, got 2.7'),
    ({'monomial': {'degree': 2.0}},
     'symbol.phi.degree: expected an integer, got 2.0'),
    ({'monomial': {'degree': True}},
     'symbol.phi.degree: expected an integer, got True'),
    ({'monomial': {'degree': '2'}},
     "symbol.phi.degree: expected an integer, got '2'"),
    ({'affine': {'a': True, 'b': 0}},
     'symbol.phi.a: expected a number, [re, im] pair, or re/im object'),
    ({'blaschke': {'base': ['0.5', '0']}},
     'symbol.phi.base: expected a number, [re, im] pair, or re/im object'),
    ({'blaschke': {'base': {'re': 0.5, 'im': False}}},
     'symbol.phi.base: expected a number, [re, im] pair, or re/im object'),
    ({'affine': 5},
     'symbol.phi.affine: expected an object, got 5'),
]


@pytest.mark.parametrize("spec,message", FUNCTION_ERRORS)
def test_function_error_location(spec, message):
    with pytest.raises(ValidationError) as info:
        parse_config({"symbol": {"u": spec, "phi": "identity"}, "tasks": ["bounded_bloch"]})
    assert str(info.value) == message


@pytest.mark.parametrize("spec,message", SELF_MAP_ERRORS)
def test_self_map_error_location(spec, message):
    with pytest.raises(ValidationError) as info:
        parse_config({"symbol": {"u": 1.0, "phi": spec}, "tasks": ["bounded_bloch"]})
    assert str(info.value) == message


NONFINITE_FIELDS = [
    ({"symbol": {"u": {"power_series": [1.0, float("nan")]}, "phi": "identity"}},
     "symbol.u.power_series: expected a finite number, got nan"),
    ({"symbol": {"u": 1.0, "phi": {"affine": {"a": float("nan"), "b": 0.5}}}},
     "symbol.phi.a: expected a finite number, got nan"),
    ({"symbol": {"u": 1.0, "phi": {"blaschke": {"base": [0.4, float("inf")]}}}},
     "symbol.phi.base: expected a finite number, got [0.4, inf]"),
    ({"symbol": {"u": 1.0, "phi": "identity"},
      "space": {"p": 2.0, "weight": {"alpha": float("-inf"), "s": 0.25, "t": 0.75}}},
     "space.weight.alpha: expected a finite number, got -inf"),
    ({"symbol": {"u": 1.0, "phi": {"monomial": {"degree": float("inf")}}}},
     "symbol.phi.degree: expected an integer, got inf"),
    ({"symbol": {"u": 10**400, "phi": "identity"}},
     "symbol.u: int too large to convert to float"),
]


@pytest.mark.parametrize("doc,message", NONFINITE_FIELDS,
                         ids=["u-coefficient", "affine-a", "blaschke-base", "weight-alpha", "monomial-degree",
                              "u-past-the-floats"])
def test_non_finite_number_rejected_at_parse_time(doc, message):
    # the JSON text form carries NaN/Infinity tokens, which json.loads accepts
    text = json.dumps(dict(doc, tasks=["bounded_bloch"]))
    with pytest.raises(ValidationError) as info:
        parse_config(text)
    assert str(info.value) == message


# Top-level flags and output fields that used to convert instead of failing:
# bool("false") is True, tuple("json") is its letters, and a non-string dir
# passed validation only to fail after the run.
FLAG_AND_OUTPUT_ERRORS = [
    ({"strict": "false"}, "strict: expected true or false, got 'false'"),
    ({"force_boundary": "no"}, "force_boundary: expected true or false, got 'no'"),
    ({"output": {"formats": "json"}}, "output.formats: expected a nonempty list of format names, got 'json'"),
    ({"output": {"dir": 5}}, "output.dir: expected a path string, got 5"),
]


@pytest.mark.parametrize("fields,message", FLAG_AND_OUTPUT_ERRORS,
                         ids=["strict-string", "force-boundary-string", "formats-string", "dir-number"])
def test_flag_and_output_field_rejected_at_parse_time(fields, message):
    with pytest.raises(ValidationError) as info:
        parse_config(dict(HALF_SCALE_DOC, **fields))
    assert str(info.value) == message


# Document fields of the wrong shape, which used to raise a bare TypeError
# (tasks: 5, symbol: "x") or OverflowError (an integer p beyond the floats),
# be read as their letters or keys (tasks: "oracle"), be ignored (unknown
# keys) or convert to a number (p: true).
DOCUMENT_ERRORS = [
    ({"tasks": 5}, "tasks: expected a list of task names, got 5"),
    ({"tasks": True}, "tasks: expected a list of task names, got True"),
    ({"tasks": "oracle"}, "tasks: expected a list of task names, got 'oracle'"),
    ({"tasks": {"oracle": 1, "bounded_bloch": 2}},
     "tasks: expected a list of task names, got {'oracle': 1, 'bounded_bloch': 2}"),
    ({"symbol": "x"}, "symbol: expected an object, got 'x'"),
    ({"symbol": None}, "symbol: expected an object, got None"),
    ({"symbol": {"u": 1.0, "phi": "identity", "uu": 2}}, "symbol: unknown keys ['uu']"),
    ({"space": {"p": 2.0, "weight": {"alpha": 0.5}, "extra": 1}}, "space: unknown keys ['extra']"),
    ({"space": {"p": 2.0, "weight": {"alpha": 0.5, "log_exponnet": 1.0}}},
     "space.weight: unknown keys ['log_exponnet']"),
    ({"space": {"p": 2.0, "weight": 5}}, "space.weight: expected an object, got 5"),
    ({"space": {"p": True, "weight": {"alpha": 0.5}}}, "space.p: expected a number, got True"),
    ({"space": {"p": "2", "weight": {"alpha": 0.5}}}, "space.p: expected a number, got '2'"),
    ({"space": {"p": 2.0, "weight": {"alpha": 0.5, "log_exponent": False}}},
     "space.weight.log_exponent: expected a number, got False"),
    ({"space": {"p": 10**400, "weight": {"alpha": 0.5}}}, "space: int too large to convert to float"),
]


@pytest.mark.parametrize("fields,message", DOCUMENT_ERRORS)
def test_malformed_document_field_rejected_with_its_location(fields, message):
    with pytest.raises(ValidationError) as info:
        parse_config(dict(HALF_SCALE_DOC, **fields))
    assert str(info.value) == message


# Every object of the document takes only its declared keys: a misspelt
# optional key is refused at its object, not ignored with the default in
# force ("scal" would analyse z**2, "nodes" would run 512 angular nodes).
# Each case is the symbol of a valid document, the path of the object that
# gets the stray key, its location and the key.
_FK = {"fractional_kernel": {"base": 0.5, "exponent": 1.0}}
STRAY_KEYS = [
    ({"u": _FK}, ("symbol", "u", "fractional_kernel"), "symbol.u.fractional_kernel", "zz"),
    ({"u": {"scaled": {"factor": 0.5, "inner": 1.0}}}, ("symbol", "u", "scaled"), "symbol.u.scaled", "zz"),
    ({"u": {"composed": {"outer": 1.0, "inner": "identity"}}}, ("symbol", "u", "composed"), "symbol.u.composed",
     "zz"),
    ({"phi": {"affine": {"a": 0.5, "b": 0.25}}}, ("symbol", "phi", "affine"), "symbol.phi.affine", "zz"),
    ({"phi": {"monomial": {"degree": 2}}}, ("symbol", "phi", "monomial"), "symbol.phi.monomial", "scal"),
    ({"phi": {"blaschke": {"base": 0.5}}}, ("symbol", "phi", "blaschke"), "symbol.phi.blaschke", "zz"),
    ({"phi": {"blaschke_product": {"bases": [0.5]}}}, ("symbol", "phi", "blaschke_product"),
     "symbol.phi.blaschke_product", "zz"),
    ({"phi": {"scaled": {"factor": 0.5, "inner": "identity"}}}, ("symbol", "phi", "scaled"), "symbol.phi.scaled",
     "zz"),
    ({"phi": {"composition": {"outer": "identity", "inner": "identity"}}}, ("symbol", "phi", "composition"),
     "symbol.phi.composition", "zz"),
    ({"u": {"composed": {"outer": _FK, "inner": {"monomial": {"degree": 2}}}}},
     ("symbol", "u", "composed", "inner", "monomial"), "symbol.u.inner.monomial", "scal"),
    ({}, ("grid",), "grid", "nodes"),
]


@pytest.mark.parametrize("symbol,path,where,key", STRAY_KEYS, ids=[case[2] for case in STRAY_KEYS])
def test_a_key_outside_an_objects_declared_set_is_refused_at_the_object(symbol, path, where, key):
    doc = json.loads(json.dumps(dict(HALF_SCALE_DOC, symbol=dict({"u": 1.0, "phi": "identity"}, **symbol))))
    parse_config(doc)
    functools.reduce(dict.__getitem__, path, doc)[key] = 1
    with pytest.raises(ValidationError) as info:
        parse_config(doc)
    assert str(info.value) == f"{where}: unknown keys [{key!r}]"


CONFIG_FILES = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIG_FILES, ids=[path.name for path in CONFIG_FILES])
def test_the_shipped_configs_validate(path, capsys):
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_the_bergman_shorthand_reads_its_number_from_the_string():
    assert parse_config(dict(HALF_SCALE_DOC, space="bergman:4")).space == parse_config(
        dict(HALF_SCALE_DOC, space={"p": 4.0, "weight": {"alpha": 0.25}})).space


@pytest.mark.parametrize("key,value", [("depth", 12.9), ("angular_nodes", 128.0),
                                       ("panel_order", True), ("depth", "12"),
                                       ("depth", "x"), ("panel_order", None), ("angular_nodes", float("inf"))])
def test_non_integer_grid_field_rejected(key, value):
    doc = dict(HALF_SCALE_DOC, grid=dict(HALF_SCALE_DOC["grid"], **{key: value}))
    with pytest.raises(ValidationError) as info:
        parse_config(doc)
    assert str(info.value) == f"grid.{key}: expected an integer, got {value!r}"


def test_grid_must_be_an_object():
    with pytest.raises(ValidationError, match=r"^grid: expected an object$"):
        parse_config(dict(HALF_SCALE_DOC, grid=[12, 128, 8]))


@pytest.mark.parametrize("grid", [(40, 2048), (16, 32768), (24, 32768), (16, 512), (4, 64)])
def test_grids_in_use_are_under_the_sample_set_cap(grid):
    doc = dict(HALF_SCALE_DOC, grid={"depth": grid[0], "angular_nodes": grid[1], "panel_order": 8})
    assert parse_config(doc).grid == RadialGrid(grid[0], grid[1], 8)


def test_sample_set_cap_is_derived_from_the_table_memory():
    assert cli.MAX_SAMPLE_POINTS == 256 * 2**20 // cli.SAMPLE_TABLE_BYTES_PER_POINT == 2**21


@pytest.mark.parametrize("depth,nodes", [(16, 65536), (1024, 1024), (10**12, 64), (4, 2**40)])
def test_grid_over_the_sample_set_cap_is_rejected(depth, nodes):
    doc = dict(HALF_SCALE_DOC, grid={"depth": depth, "angular_nodes": nodes, "panel_order": 8})
    with pytest.raises(ValidationError, match=r"^grid: the sample set has [\d,]+ points") as info:
        parse_config(doc)
    assert f"{2 * (depth + 1) * nodes:,} points" in str(info.value)
    assert f"more than the {cli.MAX_SAMPLE_POINTS:,}" in str(info.value)


@pytest.mark.parametrize("order", [33, 1000, 10**6])
def test_panel_order_above_the_maximum_is_rejected(order):
    doc = dict(HALF_SCALE_DOC, grid={"depth": 16, "angular_nodes": 512, "panel_order": order})
    with pytest.raises(ValidationError) as info:
        parse_config(doc)
    assert str(info.value) == f"grid.panel_order: {order} is above the maximum {cli.MAX_PANEL_ORDER}"


def test_log_series_up_to_the_maximum_parses():
    doc = dict(HALF_SCALE_DOC, symbol={"u": {"log_series": cli.MAX_LOG_SERIES_TERMS}, "phi": "identity"})
    assert cli.MAX_LOG_SERIES_TERMS == 1024
    assert parse_config(doc).symbol.u.coefficients.size == 1025


@pytest.mark.parametrize("u,message", [
    ({"log_series": 1025}, "symbol.u.log_series: 1025 is above the maximum 1024"),
    ({"log_series": 10**12}, "symbol.u.log_series: 1000000000000 is above the maximum 1024"),
    ({"composed": {"outer": {"log_series": 1025}, "inner": "identity"}},
     "symbol.u.outer.log_series: 1025 is above the maximum 1024"),
])
def test_log_series_above_the_maximum_is_refused_at_its_location(tmp_path, capsys, u, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(HALF_SCALE_DOC, symbol={"u": u, "phi": "identity"})))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"invalid: {message}\n"


@pytest.mark.parametrize("grid", [(24, 32768, 12), (28, 16384, 24), (16, 16384, 32)])
def test_quadrature_node_set_over_the_cap_is_rejected(grid):
    depth, nodes, order = grid
    doc = dict(HALF_SCALE_DOC, grid={"depth": depth, "angular_nodes": nodes, "panel_order": order})
    with pytest.raises(ValidationError, match=r"^grid: the quadrature node set has [\d,]+ points") as info:
        parse_config(doc)
    assert f"{(depth + 1) * order * nodes:,} points" in str(info.value)
    assert f"more than the {cli.MAX_QUADRATURE_POINTS:,}" in str(info.value)


def test_grids_in_use_are_under_the_panel_order_and_quadrature_caps():
    # the config files, the acceptance and unit tests, and the benchmark workloads
    grids = [(16, 512, 12), (12, 128, 8), (16, 128, 8), (40, 2048, 12), (16, 32768, 12), (24, 32768, 8),
             (24, 256, 16), (16, 64, 32), (8, 64, 8), (4, 64, 8)]
    for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json")):
        grid = json.loads(path.read_text())["grid"]
        grids.append((grid["depth"], grid["angular_nodes"], grid["panel_order"]))
    for depth, nodes, order in grids:
        doc = dict(HALF_SCALE_DOC, grid={"depth": depth, "angular_nodes": nodes, "panel_order": order})
        assert parse_config(doc).grid == RadialGrid(depth, nodes, order)
    assert cli.MAX_QUADRATURE_POINTS >= 17 * 12 * 32768


def test_integer_grid_fields_parse_as_before():
    assert parse_config(dict(HALF_SCALE_DOC)).grid == RadialGrid(12, 128, 8)
    assert parse_config({"symbol": HALF_SCALE_DOC["symbol"], "tasks": ["bounded_bloch"]}).grid == RadialGrid()


class TestRunAndEmit:
    def test_headline_verdicts(self, half_scale_report):
        tasks = half_scale_report.results["tasks"]
        assert tasks["bounded_bloch"]["overall"] is True
        assert tasks["compact_bloch"]["overall"] is True
        assert tasks["compact_bloch"]["vacuous"] is True
        assert tasks["oracle"]["agreement"] is True

    def test_wall_clock_lives_outside_results(self, half_scale_report):
        assert "wall_clock_s" in half_scale_report.meta
        assert "wall_clock_s" not in half_scale_report.results

    def test_json_roundtrip_preserves_statuses(self, half_scale_report, tmp_path):
        emit(half_scale_report, tmp_path, ("json",))
        loaded = json.loads((tmp_path / "report.json").read_text())
        for task, entry in half_scale_report.results["tasks"].items():
            assert loaded["results"]["tasks"][task] == json.loads(json.dumps(entry))

    def test_csv_row_counts(self, half_scale_report, tmp_path):
        paths = emit(half_scale_report, tmp_path, ("json", "csv"))
        profile_files = [p for p in paths if p.name.endswith("profile.csv")]
        assert profile_files
        for path in profile_files:
            rows = path.read_text().strip().splitlines()
            assert rows[0] == "delta,value"
            assert len(rows) - 1 == 12  # one row per threshold at depth 12
        summary = (tmp_path / "verdicts.csv").read_text().strip().splitlines()
        assert summary[0] == "task,quantity,status,sup_estimate,slope"
        assert len(summary) - 1 >= 4

    def test_determinism(self):
        a = run(parse_config(dict(HALF_SCALE_DOC))).results_payload()
        b = run(parse_config(dict(HALF_SCALE_DOC))).results_payload()
        assert a == b

    def test_nonconvergent_constants_block_is_recorded(self, tmp_path):
        # at depth 4 the constants battery's norms do not converge; the
        # block records the error and the report is still written
        doc = dict(CURATED["half-scale"]["config"], grid={"depth": 4, "angular_nodes": 64, "panel_order": 8})
        config = parse_config(doc)
        assert config.grid == RadialGrid(4, 64, 8)
        report = run(config)
        constants = report.results["constants"]
        assert constants["error"] == "nonconvergent"
        assert "do not decay" in constants["detail"]
        assert set(report.results["tasks"]) == set(config.tasks)
        emit(report, tmp_path, ("json", "csv"))

        def reject(token):
            raise ValueError(f"non-finite token {token}")

        loaded = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        assert loaded["results"]["constants"] == constants

    def test_constants_block_fails_soft_where_nodes_round_onto_the_circle(self, tmp_path):
        # at depth 47 the norm quadrature's tail nodes round onto |z| = 1
        doc = dict(CURATED["half-scale"]["config"], grid={"depth": 47, "angular_nodes": 64, "panel_order": 8})
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert main(["run", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 0

        def reject(token):
            raise ValueError(f"non-finite token {token}")

        loaded = json.loads((tmp_path / "out" / "report.json").read_text(), parse_constant=reject)
        assert loaded["results"]["constants"] == {"error": "domain",
                                                  "detail": "evaluation point outside the open unit disk"}
        assert set(loaded["results"]["tasks"]) == set(doc["tasks"])
        assert loaded["results"]["tasks"]["oracle"]["lower_bound"]["classification"] == "stable"

    def test_every_task_fails_soft_on_a_deep_grid(self, tmp_path, capsys):
        # at depth 52 the sample points round onto |z| = 1: the sample table
        # and the oracle both fail, each recorded against its task
        path = tmp_path / "half_scale.json"
        path.write_text(json.dumps(CURATED["half-scale"]["config"]))
        out = tmp_path / "out"
        assert main(["run", str(path), "--grid", "52,64,8", "--out", str(out), "--format", "json,csv"]) == 0

        def reject(token):
            raise ValueError(f"non-finite token {token}")

        loaded = json.loads((out / "report.json").read_text(), parse_constant=reject)
        tasks = loaded["results"]["tasks"]
        assert sorted(tasks) == sorted(CURATED["half-scale"]["config"]["tasks"]) and len(tasks) == 6
        for task, entry in tasks.items():
            assert entry == {"error": "domain", "detail": "evaluation point outside the open unit disk"}, task
        assert (out / "verdicts.csv").read_text().splitlines() == ["task,quantity,status,sup_estimate,slope"]
        assert "oracle: domain" in capsys.readouterr().out

    def test_oracle_failure_is_recorded_and_other_errors_propagate(self, monkeypatch):
        from blochlab.norms import NonConvergentError

        def nonconvergent(*args):
            raise NonConvergentError("radial bands do not decay")

        monkeypatch.setattr(cli, "oracle_task", nonconvergent)
        tasks = run(parse_config(dict(HALF_SCALE_DOC))).results["tasks"]
        assert tasks["bounded_bloch"]["overall"] is True
        assert tasks["oracle"] == {"error": "nonconvergent", "detail": "radial bands do not decay"}

        def arithmetic(*args):
            raise ArithmeticError("kernel argument left the right half-plane")

        monkeypatch.setattr(cli, "oracle_task", arithmetic)
        assert run(parse_config(dict(HALF_SCALE_DOC))).results["tasks"]["oracle"]["error"] == "arithmetic"

        def broken(*args):
            raise RuntimeError("not a numerical failure")

        monkeypatch.setattr(cli, "SampleTable", broken)
        with pytest.raises(RuntimeError):
            run(parse_config(dict(HALF_SCALE_DOC)))

    def test_compact_report_on_a_rounding_touching_map_is_strict_json(self):
        # |a| + |b| = 1, but the map's sup estimate rounds below 1
        phi = dict(random_pairs(21))["affine_touching-04"].phi
        assert phi.sup_bound(1.0) < 1.0
        contact = cmath.exp(1j * (cmath.phase(phi.b) - cmath.phase(phi.a)))
        u = np.polynomial.polynomial.polyfromroots([contact] * 3)  # vanishes to third order at the contact
        doc = dict(HALF_SCALE_DOC, tasks=["bounded_bloch", "compact_bloch"], symbol={
            "u": {"power_series": [[c.real, c.imag] for c in u]},
            "phi": {"affine": {"a": [phi.a.real, phi.a.imag], "b": [phi.b.real, phi.b.imag]}}})
        report = run(parse_config(doc))
        assert report.results["tasks"]["bounded_bloch"]["overall"] is True
        assert report.results["tasks"]["compact_bloch"]["vacuous"] is False
        json.dumps(report.to_dict(), allow_nan=False)
        report.results_payload()

    def test_unbounded_pair_records_precondition_failure(self):
        doc = dict(HALF_SCALE_DOC)
        doc["symbol"] = {"u": {"constant": 1.0}, "phi": "identity"}
        doc["tasks"] = ["compact_bloch"]
        report = run(parse_config(doc))
        assert report.results["tasks"]["compact_bloch"]["error"] == "precondition_unmet"

    def test_an_unmet_precondition_leaves_the_later_tasks_running(self):
        doc = dict(HALF_SCALE_DOC, symbol={"u": 1, "phi": "identity"},
                   tasks=["compact_bloch", "compact_little_bloch", "lemma_probes", "oracle"])
        tasks = run(parse_config(doc)).results["tasks"]
        assert list(tasks) == ["bounded_bloch", "compact_bloch", "compact_little_bloch", "lemma_probes", "oracle"]
        assert tasks["compact_bloch"]["error"] == "precondition_unmet"
        assert "multiplier=" in tasks["compact_bloch"]["detail"]
        assert "overall" in tasks["compact_little_bloch"]
        assert set(tasks["lemma_probes"]) == {"derivative_limit", "composition_limit"}
        assert set(tasks["oracle"]) == {"lower_bound", "compactness_probe", "agreement"}

    @pytest.mark.parametrize("case", sorted(CURATED))
    def test_every_verdict_carries_a_profile_and_gets_its_csv(self, case, tmp_path):
        report = run(parse_config(dict(CURATED[case]["config"], grid=HALF_SCALE_DOC["grid"])))
        verdicts = list(cli._iter_verdicts(report.results))
        assert verdicts
        for task, verdict in verdicts:
            assert isinstance(verdict["profile"], dict), (task, verdict["quantity"])
        written = emit(report, tmp_path, ("csv",))
        profiles = [path for path in written if path.name.endswith(".profile.csv")]
        assert len(profiles) == len(set(profiles)) == len(verdicts)
        assert sorted(tmp_path.glob("*.profile.csv")) == sorted(profiles)

    @pytest.mark.parametrize("case", ["half-scale", "boundary-touch"])
    def test_task_entry_key_sets(self, case):
        doc = dict(CURATED[case]["config"], grid=HALF_SCALE_DOC["grid"])
        tasks = run(parse_config(doc)).results["tasks"]
        group = {"overall", "decided", "verdicts"}
        expected = {
            "bounded_bloch": group,
            "compact_bloch": group | {"vacuous"},
            "bounded_little_bloch": group | {"into_bloch"},
            "compact_little_bloch": group,
            "lemma_probes": {"derivative_limit", "composition_limit"},
            "oracle": {"lower_bound", "compactness_probe", "agreement"},
        }
        assert set(tasks) == set(doc["tasks"])
        for task, entry in tasks.items():
            assert set(entry) == expected[task], task
        if "bounded_little_bloch" in tasks:
            assert set(tasks["bounded_little_bloch"]["into_bloch"]) == group

    def test_headline_inconclusive_meets_no_expectation(self, capsys):
        inconclusive = {"overall": False, "decided": False, "verdicts": []}
        report = Report({}, {}, {"tasks": {"bounded_bloch": inconclusive}}, {})
        assert cli._print_headline(report, expect={"bounded_bloch": False}) is False
        assert capsys.readouterr().out == "bounded_bloch: inconclusive  [MISMATCH: expected False]\n"
        decided = dict(inconclusive, decided=True)
        report = Report({}, {}, {"tasks": {"bounded_bloch": decided}}, {})
        assert cli._print_headline(report, "case/", {"bounded_bloch": False}) is True
        assert capsys.readouterr().out == "case/bounded_bloch: fails  [expected]\n"

    def test_strict_exit_code_flags_disagreement(self, half_scale_report):
        assert strict_exit_code(half_scale_report) == 0
        doctored = json.loads(half_scale_report.results_payload().decode())
        doctored["tasks"]["oracle"]["agreement"] = False
        fake = Report(half_scale_report.tool, half_scale_report.config, doctored, {})
        assert strict_exit_code(fake) == 3


class TestSharedWork:
    """A run samples the criterion quotients once and chases the boundary once."""

    def test_one_table_and_one_seminorm_of_u_per_run(self, monkeypatch):
        config = parse_config(dict(HALF_SCALE_DOC, tasks=list(KNOWN_TASKS)))
        tables, seminorms = [], []
        sample_points, bloch_seminorm = criteria.sample_points, criteria.bloch_seminorm
        monkeypatch.setattr(criteria, "sample_points", lambda *args: tables.append(args) or sample_points(*args))
        monkeypatch.setattr(criteria, "bloch_seminorm",
                            lambda f, grid, *samples: seminorms.append(f) or bloch_seminorm(f, grid, *samples))
        run(config)
        assert len(tables) == 1
        assert len(seminorms) == 1 and seminorms[0] is config.symbol.u
        run(parse_config(dict(HALF_SCALE_DOC, tasks=["oracle"])))
        assert len(tables) == 1  # an oracle-only run builds no table

    def test_profiles_share_one_partition_per_trigger_and_read_circle_maxima(self, monkeypatch):
        classifier_tasks = [task for task in KNOWN_TASKS if task != "oracle"]
        config = parse_config(dict(CURATED["boundary-touch"]["config"], tasks=classifier_tasks, force_boundary=True))
        radii, z = norms.sample_points(config.grid.depth, config.grid.angular_nodes)
        tables, built, calls = [], [], []

        class Recorded(criteria.SampleTable):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        layout = norms.BandPartition.layout
        counted = functools.cached_property(lambda part: built.append(part) or layout.func(part))
        counted.__set_name__(norms.BandPartition, "layout")
        profile = criteria.boundary_profile
        monkeypatch.setattr(norms.BandPartition, "layout", counted)
        monkeypatch.setattr(criteria, "boundary_profile", lambda *args: calls.append(args) or profile(*args))
        monkeypatch.setattr(cli, "SampleTable", Recorded)
        run(config)
        (table,) = tables
        z_calls = [args for args in calls if args[3] == norms.TRIGGER_Z]
        phi_calls = [args for args in calls if args[3] == norms.TRIGGER_PHI]
        assert len(z_calls) == 4 and len(phi_calls) == 2
        assert all(np.size(args[0]) == np.size(args[1]) == radii.size for args in z_calls)
        assert all(args[4] is table.z_bands for args in z_calls)
        assert all(args[4] is table.phi_bands for args in phi_calls)
        assert built == [table.z_bands, table.phi_bands]  # each partition is built once
        assert table.phi_bands.modulus.size == z.size

    def test_table_is_released_before_a_final_oracle_task(self, monkeypatch):
        tables = []

        class Recorded(criteria.SampleTable):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(weakref.ref(self))

        def task(*args):
            assert tables and all(ref() is None for ref in tables)
            return oracle.oracle_task(*args)

        monkeypatch.setattr(cli, "SampleTable", Recorded)
        monkeypatch.setattr(cli, "oracle_task", task)
        run(parse_config(dict(HALF_SCALE_DOC, tasks=list(KNOWN_TASKS))))

    def test_oracle_chases_each_depth_once(self, monkeypatch):
        chases = []
        chase = oracle.boundary_chase_point
        monkeypatch.setattr(oracle, "boundary_chase_point", lambda *args: chases.append(args) or chase(*args))
        run(parse_config(dict(CURATED["boundary-touch"]["config"], grid=HALF_SCALE_DOC["grid"])))
        depths = [int(k) for args in chases for k in np.atleast_1d(args[1])]
        assert sorted(depths) == list(oracle.CHASE_DEPTHS) and len(oracle.CHASE_DEPTHS) == 11
        assert len(chases) == 1  # the 11 circles are chased together

    def test_constants_battery_is_computed_once_per_space_and_grid(self, monkeypatch):
        norms = []
        bergman_type_norm = oracle.bergman_type_norm
        monkeypatch.setattr(oracle, "bergman_type_norm", lambda *args: norms.append(args) or bergman_type_norm(*args))
        oracle.constants_battery.cache_clear()
        config = parse_config(dict(HALF_SCALE_DOC))
        first = run(config).results["constants"]
        assert first["chain_constant"] is not None
        first["norm_equivalence_ratio_interval"].append(0.0)  # the caller's copy, not the memo
        second = run(parse_config(dict(HALF_SCALE_DOC))).results["constants"]
        assert len(norms) == 4  # the battery's four functions, once; the chain constant reuses them
        assert len(second["norm_equivalence_ratio_interval"]) == 2
        battery = oracle.constants_battery(config.space, config.grid)
        with pytest.raises(dataclasses.FrozenInstanceError):
            battery.norms = ()
        with pytest.raises(TypeError):
            battery.norms[0] = 1.0

    @pytest.mark.parametrize("case", sorted(CURATED))
    def test_run_entries_equal_the_one_call_functions(self, case):
        config = parse_config(dict(CURATED[case]["config"], grid=HALF_SCALE_DOC["grid"]))
        args = (config.symbol, config.space, config.grid)
        tasks = run(config).results["tasks"]
        trend = oracle.lower_bound_trend(*args)

        def compact_bloch():
            try:
                return criteria.classify_compact_into_bloch(*args, config.force_boundary).to_dict()
            except criteria.PreconditionUnmetError as exc:
                return {"error": "precondition_unmet", "detail": str(exc)}

        one_call = {
            "bounded_bloch": lambda: criteria.classify_bounded_into_bloch(*args).to_dict(),
            "compact_bloch": compact_bloch,
            "bounded_little_bloch": lambda: criteria.classify_bounded_into_little_bloch(*args).to_dict(),
            "compact_little_bloch": lambda: criteria.classify_compact_into_little_bloch(*args).to_dict(),
            "lemma_probes": lambda: {"derivative_limit": criteria.derivative_limit_probe(*args).to_dict(),
                                     "composition_limit": criteria.composition_limit_probe(*args).to_dict()},
            "oracle": lambda: {"lower_bound": trend.to_dict(),
                               "compactness_probe": oracle.compactness_probe(*args).to_dict(),
                               "agreement": tasks["oracle"]["agreement"]},
        }
        for task, entry in tasks.items():
            assert json.dumps(entry, sort_keys=True) == json.dumps(one_call[task](), sort_keys=True), task


class TestMain:
    def _write(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", self._write(tmp_path, HALF_SCALE_DOC)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_rejects(self, tmp_path, capsys):
        doc = dict(HALF_SCALE_DOC)
        doc["symbol"] = {"u": {"constant": 1}, "phi": {"affine": {"a": 0.9, "b": 0.2}}}
        assert main(["validate", self._write(tmp_path, doc)]) == 2

    def test_run_writes_report(self, tmp_path, capsys):
        code = main(
            ["run", self._write(tmp_path, HALF_SCALE_DOC), "--out", str(tmp_path / "out"),
             "--format", "json,csv", "--strict"]
        )
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "verdicts.csv").exists()

    def test_run_grid_override(self, tmp_path):
        out = tmp_path / "out2"
        code = main(
            ["run", self._write(tmp_path, HALF_SCALE_DOC), "--out", str(out),
             "--grid", "10,64,8"]
        )
        assert code == 0
        loaded = json.loads((out / "report.json").read_text())
        assert loaded["config"]["grid"]["depth"] == 10

    def test_grid_over_the_cap_is_rejected_from_a_config_file(self, tmp_path, capsys):
        doc = dict(HALF_SCALE_DOC, grid={"depth": 16, "angular_nodes": 65536, "panel_order": 8})
        out = tmp_path / "out"
        assert main(["run", self._write(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: grid: the sample set has 2,228,224 points")
        assert not out.exists()
        assert main(["validate", self._write(tmp_path, doc)]) == 2

    def test_grid_over_the_cap_is_rejected_from_the_grid_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", self._write(tmp_path, HALF_SCALE_DOC), "--out", str(out), "--grid", "1024,1024,8"]) == 2
        assert capsys.readouterr().err.startswith("error: grid: the sample set has 2,099,200 points")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "battery"])
    @pytest.mark.parametrize("grid", ["16,512,x", "16,512,12.5"])
    def test_a_grid_flag_part_that_is_no_integer_is_rejected_by_argparse(self, tmp_path, capsys, command, grid):
        out = tmp_path / "out"
        args = [command, self._write(tmp_path, HALF_SCALE_DOC)] if command == "run" else [command]
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--grid", grid, "--out", str(out)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith(f"blochlab {command}: error: argument --grid: expected K,M,ORDER\n")
        assert not out.exists()

    def test_panel_order_over_the_maximum_is_rejected_from_a_config_file_and_the_grid_flag(self, tmp_path, capsys):
        doc = dict(HALF_SCALE_DOC, grid={"depth": 16, "angular_nodes": 512, "panel_order": 1000000})
        out = tmp_path / "out"
        message = f"error: grid.panel_order: 1000000 is above the maximum {cli.MAX_PANEL_ORDER}"
        assert main(["run", self._write(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert main(["validate", self._write(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith(message.replace("error:", "invalid:"))
        assert main(["run", self._write(tmp_path, HALF_SCALE_DOC), "--out", str(out), "--grid", "16,512,1000000"]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("command,fmt", [("run", "xml"), ("battery", "jsn")])
    def test_unknown_format_flag_is_rejected_before_any_work(self, tmp_path, capsys, command, fmt):
        out = tmp_path / "out"
        args = [command, self._write(tmp_path, HALF_SCALE_DOC)] if command == "run" else [command]
        assert main(args + ["--out", str(out), "--format", fmt]) == 2
        assert capsys.readouterr().err == f"error: --format: unknown formats in ('{fmt}',)\n"
        assert not out.exists()

    @pytest.mark.parametrize("tasks", [5, "oracle"])
    def test_malformed_tasks_exit_2_with_their_location(self, tmp_path, capsys, tasks):
        config, out = self._write(tmp_path, dict(HALF_SCALE_DOC, tasks=tasks)), str(tmp_path / "out")
        message = f"tasks: expected a list of task names, got {tasks!r}\n"
        assert main(["validate", config]) == 2
        assert capsys.readouterr().err == "invalid: " + message
        for strict in ([], ["--strict"]):
            assert main(["run", config, "--out", out] + strict) == 2
            assert capsys.readouterr().err == "error: " + message
        assert not (tmp_path / "out").exists()

    def test_strict_oracle_only_run_compares_the_classifier(self, tmp_path, capsys):
        doc = {"symbol": {"u": {"constant": 1.0}, "phi": "identity"}, "tasks": ["oracle"]}
        out = tmp_path / "out"
        assert main(["run", self._write(tmp_path, doc), "--strict", "--grid", "12,128,8", "--out", str(out)]) == 0
        loaded = json.loads((out / "report.json").read_text())
        assert loaded["results"]["tasks"]["oracle"]["agreement"] is True
        assert loaded["config"]["tasks"] == ["bounded_bloch", "oracle"]
        assert capsys.readouterr().out.endswith("bounded_bloch: fails\n")

    def test_battery_counts_an_errored_task_as_unmet(self, tmp_path, capsys):
        # at depth 52 every task of every curated config records a domain error
        assert main(["battery", "--grid", "52,64,8", "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "half-scale/bounded_bloch: domain  [MISMATCH: expected True]" in lines
        assert sum("MISMATCH" in line for line in lines) == sum(len(e["expect"]) for e in CURATED.values()) == 12

    def test_validate_rejects_a_non_string_output_dir(self, tmp_path, capsys):
        doc = dict(HALF_SCALE_DOC, output={"dir": 5})
        assert main(["validate", self._write(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == "invalid: output.dir: expected a path string, got 5\n"

    def test_missing_config_is_a_parse_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BLOCHLAB_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", self._write(tmp_path, HALF_SCALE_DOC)]) == 0
        assert (tmp_path / "envout" / "report.json").exists()

    def test_output_paths_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = dict(HALF_SCALE_DOC)
        doc["tasks"] = ["bounded_bloch"]
        doc["output"] = {"dir": str(tmp_path / "cfgout"), "formats": ["json", "csv"]}
        assert main(["run", self._write(tmp_path, doc)]) == 0
        assert (tmp_path / "cfgout" / "report.json").exists()
        assert (tmp_path / "cfgout" / "verdicts.csv").exists()


class TestReportSelfContainment:
    def test_echoed_config_reruns_identically(self, half_scale_report):
        config = parse_config(dict(half_scale_report.config))
        again = run(config)
        assert again.results_payload() == half_scale_report.results_payload()

    def test_constants_block_present_with_oracle(self, half_scale_report):
        constants = half_scale_report.results["constants"]
        assert constants["pointwise_envelope_ratio_max"] > 0
        assert constants["derivative_envelope_ratio_max"] > 0
        lo, hi = constants["norm_equivalence_ratio_interval"]
        assert 0 < lo <= hi
        assert constants["chain_constant"] is not None
