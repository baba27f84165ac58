"""Declarative front end: parse a JSON run configuration, execute the
scheduled classification tasks and oracle probes, and emit a
machine-readable report (JSON) plus flat CSV tables for plotting.

Commands::

    blochlab run <config.json> [--out DIR] [--format json,csv] [--strict] [--grid K,M,ORDER]
    blochlab validate <config.json>
    blochlab battery [--out DIR] [--grid K,M,ORDER] [--strict]

Exit status is 0 on completion even when verdicts are Fails; nonzero on
errors, and 3 when ``--strict`` is set and the classifier disagrees with
the oracle trend.  ``BLOCHLAB_OUT`` overrides the default output
directory.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import __version__
from .battery import CURATED
from .criteria import PreconditionUnmetError, SampleTable, SymbolPair
from .disk_functions import (
    Affine,
    BlaschkeFactor,
    ComposedWithSelfMap,
    CompositionMap,
    DiskFunction,
    DomainError,
    FiniteBlaschkeProduct,
    FractionalKernel,
    MonomialPower,
    PowerSeries,
    Product,
    Scaled,
    ScaledMap,
    SelfMap,
    Sum,
    identity_map,
    truncated_log_series,
    validate_self_map,
)
from .norms import NonConvergentError, RadialGrid
from .oracle import constants_battery, oracle_task, symbol_samples
from .weights import NormalWeight, SpaceSpec, check_normality

__all__ = [
    "ParseError",
    "ValidationError",
    "RunConfig",
    "Report",
    "parse_config",
    "run",
    "emit",
    "main",
]

KNOWN_TASKS = (
    "bounded_bloch",
    "compact_bloch",
    "bounded_little_bloch",
    "compact_little_bloch",
    "lemma_probes",
    "oracle",
)
_PREREQUISITE = {
    "compact_bloch": "bounded_bloch",
    "bounded_little_bloch": "bounded_bloch",
}
ENV_OUT = "BLOCHLAB_OUT"
# A sample table peaks at 128 bytes per point of the sample set (traced over
# the classifier tasks of the curated configs at 16x512, 40x2048 and 24x4096);
# a 256 MiB table bounds the sample set at 2**21 points, 12.5 times the
# largest grid in use (40x2048, 167,936 points).
SAMPLE_TABLE_BYTES_PER_POINT = 128
MAX_SAMPLE_POINTS = 256 * 2**20 // SAMPLE_TABLE_BYTES_PER_POINT
# Gauss-Legendre nodes per radial band.  leggauss(n) diagonalizes an n x n
# companion matrix, O(n^2) memory and O(n^3) time: order 32 takes 4 ms and
# 10 KiB, order 10**6 would need 8 TB.  The largest order in use is 16; the
# oracle's kernel norms grow as order^2 (13.6 MiB at 40x2048x32, 2.0 at 12).
MAX_PANEL_ORDER = 32
# The norm quadrature evaluates (depth+1)*order*angular_nodes points and peaks
# at about 84 bytes per point (traced constants battery at 16x512x12 to
# 24x32768x8).  2**23 points (about 700 MiB) admit the largest grids in use,
# 16x32768x12 (6,684,672 points, 527 MiB traced) and 24x32768x8 (6,553,600).
MAX_QUADRATURE_POINTS = 2**23


class ParseError(ValueError):
    """The configuration document is not well-formed."""


class ValidationError(ValueError):
    """The configuration violates a structural invariant."""


# ---------------------------------------------------------------------------
# config parsing


def _real_from(value, where: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValidationError(f"{where}: expected a finite number, got {value!r}")
    return x


def _int_from(value, where: str) -> int:
    """An integer field: bools, floats (``2.0`` too) and numeric strings are
    rejected, not converted; what ``int`` cannot convert raises its own error."""
    number = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{where}: expected an integer, got {value!r}")
    return number


def _flag_from(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{where}: expected true or false, got {value!r}")
    return value


def _formats_from(value, where: str) -> tuple:
    """A nonempty list of output format names, each ``json`` or ``csv``."""
    if not isinstance(value, (list, tuple)) or not value or not all(isinstance(f, str) for f in value):
        raise ValidationError(f"{where}: expected a nonempty list of format names, got {value!r}")
    if not set(value) <= {"json", "csv"}:
        raise ValidationError(f"{where}: unknown formats in {tuple(value)!r}")
    return tuple(value)


def _complex_from(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        z = complex(value)
    elif isinstance(value, (list, tuple)) and len(value) == 2:
        z = complex(float(value[0]), float(value[1]))
    elif isinstance(value, dict) and set(value) <= {"re", "im"}:
        z = complex(float(value.get("re", 0.0)), float(value.get("im", 0.0)))
    else:
        raise ValidationError(f"{where}: expected a number, [re, im] pair, or re/im object")
    if not cmath.isfinite(z):
        raise ValidationError(f"{where}: expected a finite number, got {value!r}")
    return z


def _single_key(spec: dict, where: str) -> str:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValidationError(f"{where}: expected an object with exactly one variant key")
    return next(iter(spec))


def _build_variant(table: dict, kind: str, spec, where: str):
    """Dispatch a one-key variant object through ``table`` and report any
    malformed body at ``where.<variant>``; nested builders report their
    own, deeper locations."""
    key = _single_key(spec, where)
    if key not in table:
        raise ValidationError(f"{where}: unknown {kind} variant {key!r}")
    try:
        return table[key](spec[key], where)
    except ValidationError:
        raise
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{where}.{key}: malformed body ({exc})") from exc
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}.{key}: {exc}") from exc


def _product(body, where: str) -> Product:
    if len(body) != 2:
        raise ValidationError(f"{where}.product: expected exactly two factors")
    return Product(
        build_function(body[0], f"{where}.product[0]"),
        build_function(body[1], f"{where}.product[1]"),
    )


_FUNCTIONS = {
    "constant": lambda body, where: PowerSeries([_complex_from(body, where)]),
    "power_series": lambda body, where: PowerSeries([_complex_from(c, f"{where}.power_series") for c in body]),
    "log_series": lambda body, where: truncated_log_series(_int_from(body, f"{where}.log_series")),
    "fractional_kernel": lambda body, where: FractionalKernel(
        _complex_from(body["base"], f"{where}.base"),
        _real_from(body["exponent"], f"{where}.exponent"),
        _complex_from(body.get("scale", 1.0), f"{where}.scale"),
    ),
    "sum": lambda body, where: Sum(tuple(build_function(s, f"{where}.sum[{i}]") for i, s in enumerate(body))),
    "product": _product,
    "scaled": lambda body, where: Scaled(
        _complex_from(body["factor"], f"{where}.factor"), build_function(body["inner"], f"{where}.inner")
    ),
    "composed": lambda body, where: ComposedWithSelfMap(
        build_function(body["outer"], f"{where}.outer"), build_self_map(body["inner"], f"{where}.inner")
    ),
}

_SELF_MAPS = {
    "affine": lambda body, where: Affine(
        _complex_from(body["a"], f"{where}.a"), _complex_from(body["b"], f"{where}.b")
    ),
    "monomial": lambda body, where: MonomialPower(
        _int_from(body["degree"], f"{where}.degree"), _complex_from(body.get("scale", 1.0), f"{where}.scale")
    ),
    "blaschke": lambda body, where: BlaschkeFactor(_complex_from(body["base"], f"{where}.base")),
    "blaschke_product": lambda body, where: FiniteBlaschkeProduct(
        [_complex_from(b, f"{where}.bases") for b in body["bases"]],
        _complex_from(body.get("unimodular", 1.0), f"{where}.unimodular"),
    ),
    "scaled": lambda body, where: ScaledMap(
        _complex_from(body["factor"], f"{where}.factor"), build_self_map(body["inner"], f"{where}.inner")
    ),
    "composition": lambda body, where: CompositionMap(
        build_self_map(body["outer"], f"{where}.outer"), build_self_map(body["inner"], f"{where}.inner")
    ),
}


def build_function(spec, where: str = "u") -> DiskFunction:
    """Build a disk function from its config form."""
    if isinstance(spec, (int, float)):
        return PowerSeries([complex(spec)])
    return _build_variant(_FUNCTIONS, "function", spec, where)


def build_self_map(spec, where: str = "phi") -> SelfMap:
    """Build a self-map from its config form."""
    if spec == "identity":
        return identity_map()
    return _build_variant(_SELF_MAPS, "self-map", spec, where)


def _build_space(spec) -> SpaceSpec:
    if isinstance(spec, str):
        if not spec.startswith("bergman:"):
            raise ValidationError(f"space: unknown shorthand {spec!r}")
        try:
            return SpaceSpec.bergman(_real_from(spec.split(":", 1)[1], "space"))
        except ValidationError:
            raise
        except ValueError as exc:
            raise ValidationError(f"space: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError("space: expected 'bergman:p' or an object")
    try:
        wspec = spec["weight"]
        weight = NormalWeight(
            _real_from(wspec["alpha"], "space.weight.alpha"),
            _real_from(wspec.get("log_exponent", 0.0), "space.weight.log_exponent"),
            _real_from(wspec["s"], "space.weight.s") if "s" in wspec else None,
            _real_from(wspec["t"], "space.weight.t") if "t" in wspec else None,
        )
        return SpaceSpec(_real_from(spec["p"], "space.p"), weight)
    except ValidationError:
        raise
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"space: malformed body ({exc})") from exc
    except ValueError as exc:
        raise ValidationError(f"space: {exc}") from exc


def _schedule(tasks) -> tuple:
    if not tasks:
        raise ValidationError("tasks: at least one task is required")
    ordered: list[str] = []
    for task in tasks:
        if task not in KNOWN_TASKS:
            raise ValidationError(f"tasks: unknown task {task!r}")
        prereq = _PREREQUISITE.get(task)
        if prereq and prereq not in ordered:
            ordered.append(prereq)
        if task not in ordered:
            ordered.append(task)
    return tuple(ordered)


@dataclass
class RunConfig:
    symbol: SymbolPair
    space: SpaceSpec
    grid: RadialGrid
    tasks: tuple
    strict: bool = False
    force_boundary: bool = False
    output_dir: str | None = None
    formats: tuple = ("json",)
    echo: dict = field(default_factory=dict)


def parse_config(text_or_dict) -> RunConfig:
    """Parse and eagerly validate a configuration document.

    Accepts the JSON text or an already-decoded dictionary.  All
    structural invariants (weight normality, the self-map property,
    task names and scheduling) are checked here so that ``run`` never
    starts a half-valid computation.
    """
    if isinstance(text_or_dict, str):
        try:
            doc = json.loads(text_or_dict)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    else:
        doc = text_or_dict
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    unknown = set(doc) - {"symbol", "space", "grid", "tasks", "strict", "force_boundary", "output"}
    if unknown:
        raise ValidationError(f"unknown top-level keys: {sorted(unknown)}")
    try:
        symbol_spec = doc["symbol"]
        u = build_function(symbol_spec["u"], "symbol.u")
        phi = build_self_map(symbol_spec["phi"], "symbol.phi")
    except KeyError as exc:
        raise ValidationError(f"symbol: missing field {exc}") from exc
    try:
        validate_self_map(phi)
    except ValueError as exc:
        raise ValidationError(f"symbol.phi: {exc}") from exc
    space = _build_space(doc.get("space", "bergman:2"))
    report = check_normality(space.weight)
    if not report.ok:
        raise ValidationError(
            f"space.weight: not normal for witnesses s={space.weight.s}, t={space.weight.t} "
            f"({report.detail})"
        )
    gspec = doc.get("grid", {})
    if not isinstance(gspec, dict):
        raise ValidationError("grid: expected an object")
    sizes = []
    for key, default in (("depth", 16), ("angular_nodes", 512), ("panel_order", 12)):
        value = gspec.get(key, default)
        try:
            sizes.append(_int_from(value, f"grid.{key}"))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"grid.{key}: expected an integer, got {value!r}") from exc
    try:
        grid = RadialGrid(*sizes)
    except ValueError as exc:
        raise ValidationError(f"grid: {exc}") from exc
    points = 2 * (grid.depth + 1) * grid.angular_nodes  # the circles of sample_points
    if points > MAX_SAMPLE_POINTS:
        raise ValidationError(
            f"grid: the sample set has {points:,} points ({2 * (grid.depth + 1)} circles of "
            f"{grid.angular_nodes:,}), more than the {MAX_SAMPLE_POINTS:,} a sample table may hold"
        )
    if grid.panel_order > MAX_PANEL_ORDER:
        raise ValidationError(f"grid.panel_order: {grid.panel_order} is above the maximum {MAX_PANEL_ORDER}")
    nodes = (grid.depth + 1) * grid.panel_order * grid.angular_nodes  # the norm quadrature's node set
    if nodes > MAX_QUADRATURE_POINTS:
        raise ValidationError(
            f"grid: the quadrature node set has {nodes:,} points ({grid.depth + 1} bands of "
            f"{grid.panel_order} radii x {grid.angular_nodes:,} angles), more than the {MAX_QUADRATURE_POINTS:,} allowed"
        )
    tasks = _schedule(doc.get("tasks", ()))
    output = doc.get("output", {})
    if not isinstance(output, dict) or not set(output) <= {"dir", "formats"}:
        raise ValidationError("output: expected an object with optional dir/formats")
    if not isinstance(output.get("dir", ""), str):
        raise ValidationError(f"output.dir: expected a path string, got {output['dir']!r}")
    config = RunConfig(
        symbol=SymbolPair(u, phi),
        space=space,
        grid=grid,
        tasks=tasks,
        strict=_flag_from(doc.get("strict", False), "strict"),
        force_boundary=_flag_from(doc.get("force_boundary", False), "force_boundary"),
        output_dir=output.get("dir"),
        formats=_formats_from(output.get("formats", ["json"]), "output.formats"),
        echo=_echo_config(doc, space, grid, tasks),
    )
    return config


def _echo_config(doc: dict, space: SpaceSpec, grid: RadialGrid, tasks) -> dict:
    echo = {
        "symbol": doc["symbol"],
        "space": {
            "p": space.p,
            "weight": {
                "alpha": space.weight.alpha,
                "log_exponent": space.weight.log_exponent,
                "s": space.weight.s,
                "t": space.weight.t,
            },
        },
        "grid": {"depth": grid.depth, "angular_nodes": grid.angular_nodes, "panel_order": grid.panel_order},
        "tasks": list(tasks),
        "strict": bool(doc.get("strict", False)),
        "force_boundary": bool(doc.get("force_boundary", False)),
    }
    if "output" in doc:
        echo["output"] = doc["output"]
    return echo


# ---------------------------------------------------------------------------
# execution


@dataclass
class Report:
    tool: dict
    config: dict
    results: dict
    meta: dict

    def to_dict(self) -> dict:
        return {"tool": self.tool, "config": self.config, "results": self.results, "meta": self.meta}

    def results_payload(self) -> bytes:
        """Canonical bytes of the verdict payload (excludes wall-clock): the
        ``json.dumps(..., sort_keys=True, indent=2, allow_nan=False)`` text."""
        return _render_json(self.results).encode()


def run(config: RunConfig) -> Report:
    """Execute the scheduled tasks and assemble the report.

    The classifier tasks share one sample table, built by the first of
    them and released before a final ``oracle`` task, which never reads it.
    Fails verdicts do not raise.  A numerical failure (``DomainError`` or
    an ``ArithmeticError`` such as ``NonConvergentError``) is recorded as
    ``{"error", "detail"}`` against the task that hit it, whether in the
    sample table or in the oracle, and the run goes on; anything else
    propagates.  ``meta`` holds each task's wall-clock seconds and, where
    the ``resource`` module exists, its minor page faults.
    """
    results: dict = {"tasks": {}}
    timings: dict = {}
    faults: dict = {}
    table = None
    for task in config.tasks:
        start, start_faults = time.perf_counter(), _minor_faults()
        try:
            if task == "oracle":
                if config.tasks[-1] == "oracle":
                    table = None  # no later task reads the samples
                results["tasks"][task] = _oracle_entry(config, results)
            else:
                if table is None:
                    table = SampleTable(config.symbol, config.space, config.grid)
                results["tasks"][task] = _classifier_entry(table, task, config.force_boundary)
        except (DomainError, ArithmeticError) as exc:
            results["tasks"][task] = _failure(exc)
        timings[task] = round(time.perf_counter() - start, 6)
        if resource is not None:
            faults[task] = _minor_faults() - start_faults
    tool = {"name": "blochlab", "version": __version__}
    meta = {"wall_clock_s": timings, "minor_faults": faults} if resource is not None else {"wall_clock_s": timings}
    return Report(tool, config.echo, results, meta)


def _minor_faults():
    """The process's minor page faults so far; None without ``resource``."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _failure(exc: Exception) -> dict:
    """The report entry of a numerical failure."""
    if isinstance(exc, DomainError):
        kind = "domain"
    elif isinstance(exc, NonConvergentError):
        kind = "nonconvergent"
    else:
        kind = "arithmetic"
    return {"error": kind, "detail": str(exc)}


def _oracle_entry(config: RunConfig, results: dict) -> dict:
    """The oracle task's entry: the trend, the compactness probe and, for a
    bounded pair, the chain constant, refined together by ``oracle_task``
    from one ``symbol_samples`` set; also records the constants block,
    whose battery fails soft on its own."""
    sym, space, grid = config.symbol, config.space, config.grid
    bounded_entry = results["tasks"].get("bounded_bloch")
    try:
        # first, while no samples are held: the battery's first pass is the task's largest allocation
        battery = constants_battery(space, grid)
    except (DomainError, ArithmeticError) as exc:
        battery, results["constants"] = None, _failure(exc)
    samples = symbol_samples(sym, grid)
    trend, probe, constant = oracle_task(sym, space, grid, samples, _chain_inputs(battery, bounded_entry))
    if battery is not None:
        # measured constants over a small standard battery: growth-envelope ratios and the interval of
        # derivative-form to direct norm ratios (shared by every run on the same space and grid), and
        # for a bounded pair the chain constant tying the image seminorm to the criterion suprema
        results["constants"] = dict(battery.to_dict(), chain_constant=constant)
    return {"lower_bound": trend.to_dict(), "compactness_probe": probe.to_dict(),
            "agreement": _agreement(bounded_entry, trend.classification)}


def _classifier_entry(table: SampleTable, task: str, force_boundary: bool) -> dict:
    """The report entry of one classifier task, read from the run's table."""
    if task == "compact_bloch":
        try:
            return table.compact_into_bloch(force_boundary).to_dict()
        except PreconditionUnmetError as exc:
            return {"error": "precondition_unmet", "detail": str(exc)}
    if task == "lemma_probes":
        return {"derivative_limit": table.derivative_limit_probe().to_dict(),
                "composition_limit": table.composition_limit_probe().to_dict()}
    groups = {"bounded_bloch": table.bounded_into_bloch, "bounded_little_bloch": table.bounded_into_little_bloch,
              "compact_little_bloch": table.compact_into_little_bloch}
    return groups[task]().to_dict()


def _chain_inputs(battery, bounded_entry):
    """``(functions, norms, S1, S2)`` for the chain constant when the
    battery is available and the classifier says bounded with finite
    suprema; None otherwise."""
    if battery is None or not (bounded_entry and bounded_entry.get("overall")):
        return None
    sups = [v["sup_estimate"] for v in bounded_entry["verdicts"]]
    if not all(isinstance(s, (int, float)) for s in sups):
        return None
    return battery.functions, battery.norms, sups[0], sups[1]


def _agreement(bounded_entry, trend_classification: str):
    """Classifier versus oracle-trend agreement; None when undecided."""
    if bounded_entry is None or "overall" not in bounded_entry:
        return None
    if not bounded_entry.get("decided", False):
        return None
    if trend_classification == "ambiguous":
        return None
    return bool(bounded_entry["overall"] == (trend_classification == "stable"))


def strict_exit_code(report: Report) -> int:
    """0 unless the report records a classifier/oracle disagreement."""
    oracle_entry = report.results["tasks"].get("oracle")
    if oracle_entry and oracle_entry.get("agreement") is False:
        return 3
    return 0


# ---------------------------------------------------------------------------
# emission


def emit(report: Report, out_dir, formats=("json",)) -> list:
    """Write the report files and return their paths.

    JSON carries the full nested report.  CSV output is one file per
    profile with (delta, value) rows plus a flat verdict summary.  Each
    file is built in memory and written at once; the JSON text is that of
    ``json.dumps(..., sort_keys=True, indent=2, allow_nan=False)``, and the
    CSV text that of ``csv.writer``, byte for byte.

    A file that exists already is truncated and rewritten
    (``Path.write_text``), never overwritten in place: ext4 (with its
    default ``auto_da_alloc``) starts writing such a file back when it is
    closed, so a crash does not leave old bytes in a rewritten report.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        path = out / "report.json"
        path.write_text(_render_json(report.to_dict()) + "\n")
        written.append(path)
    if "csv" in formats:
        written.extend(_emit_csv(report, out))
    return written


# CPython's C encoder, with json.dumps's key order, key separator, float text and
# refusal of NaN and infinities, and one item per line: the text of a list of
# scalars needs only its indentation to be json.dumps's with indent=2.  None on
# an interpreter without the C accelerator, where json.dumps itself renders.
_C_MAKE_ENCODER = getattr(json.encoder, "c_make_encoder", None)
_ENCODE_LINES = None if _C_MAKE_ENCODER is None else _C_MAKE_ENCODER(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ": ", ",\n", True, False, False)
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _render_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``, byte for
    byte, for a tree whose dict keys are strings (a report's are).

    Dicts and lists of containers are walked here; each list of scalars is
    one call of the C encoder, indented with ``str.replace`` (JSON strings
    hold no raw newline).  A container met twice, such as a profile dict a
    report holds under two tasks, is rendered once and re-indented."""
    if _ENCODE_LINES is None:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    return _render(obj, "\n", {})


def _render(o, nl: str, memo: dict) -> str:
    """The text of ``o`` whose lines after the first start with ``nl``, a
    newline and ``o``'s indentation; ``memo`` maps the id of each container
    rendered so far to its ``nl`` and text.  (A module-level function, not a
    closure: a recursive closure is a reference cycle, which would keep each
    call's memo alive until the cyclic collector runs.)"""
    if not isinstance(o, (dict, list, tuple)):
        return "".join(_ENCODE_LINES(o, 0))
    seen = memo.get(id(o))
    if seen is not None:
        return seen[1] if seen[0] == nl else seen[1].replace(seen[0], nl)
    inner = nl + "  "
    if not o:
        text = "{}" if isinstance(o, dict) else "[]"
    elif isinstance(o, dict):
        text = "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _render(v, inner, memo) for k, v in sorted(o.items())) + nl + "}"
    elif set(map(type, o)) <= _SCALARS:
        text = "[" + inner + "".join(_ENCODE_LINES(o, 0))[1:-1].replace("\n", inner) + nl + "]"
    else:
        text = "[" + inner + ("," + inner).join(_render(v, inner, memo) for v in o) + nl + "]"
    memo[id(o)] = nl, text
    return text


def _iter_verdicts(results: dict):
    for task, entry in results["tasks"].items():
        if not isinstance(entry, dict):
            continue
        for v in entry.get("verdicts", ()):
            yield task, v
        inner = entry.get("into_bloch")
        if inner:
            for v in inner.get("verdicts", ()):
                yield f"{task}.into_bloch", v
        for probe_name in ("derivative_limit", "composition_limit"):
            probe = entry.get(probe_name)
            if probe:
                yield f"{task}.{probe_name}.lhs", probe["lhs"]
                for i, v in enumerate(probe["rhs"]):
                    yield f"{task}.{probe_name}.rhs{i}", v


def _emit_csv(report: Report, out: Path) -> list:
    summary, buffer = out / "verdicts.csv", io.StringIO()
    csv.writer(buffer).writerows(  # a None slope is written as an empty field
        [("task", "quantity", "status", "sup_estimate", "slope")]
        + [(task, v["quantity"], v["status"], v["sup_estimate"], v["divergence_slope"])
           for task, v in _iter_verdicts(report.results)])
    summary.write_text(buffer.getvalue(), newline="")
    written = [summary]
    texts: dict = {}  # id of a profile dict -> its file's text, built once per distinct profile
    for task, verdict in _iter_verdicts(report.results):
        profile = verdict.get("profile")
        if not profile:
            continue
        if id(profile) not in texts:
            # the cells are floats or None, which csv.writer writes as repr and as an empty field
            texts[id(profile)] = "delta,value\r\n" + "".join(
                [f"{delta!r},{'' if value is None else repr(value)}\r\n"
                 for delta, value in zip(profile["thresholds"], profile["values"])])
        path = out / f"{task}.{verdict['quantity']}.profile.csv".replace("/", "_")
        path.write_text(texts[id(profile)], newline="")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# command line


def _parse_grid_flag(text: str) -> dict:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected K,M,ORDER")
    return {"depth": int(parts[0]), "angular_nodes": int(parts[1]), "panel_order": int(parts[2])}


def _default_out() -> str:
    return os.environ.get(ENV_OUT, "blochlab-out")


def _load_doc(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _apply_overrides(doc: dict, args) -> dict:
    doc = dict(doc)
    if getattr(args, "grid", None):
        doc["grid"] = args.grid
    if getattr(args, "strict", False):
        doc["strict"] = True
        tasks = list(doc.get("tasks", []))
        for needed in ("bounded_bloch", "oracle"):
            if needed not in tasks:
                tasks.append(needed)
        doc["tasks"] = tasks
    return doc


def _cmd_run(args) -> int:
    try:
        doc = _apply_overrides(_load_doc(args.config), args)
        config = parse_config(doc)
        formats = _formats_from(args.format.split(","), "--format") if args.format else config.formats
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run(config)
    out_dir = args.out or config.output_dir or _default_out()
    paths = emit(report, out_dir, formats)
    for path in paths:
        print(path)
    _print_headline(report)
    if config.strict or args.strict:
        return strict_exit_code(report)
    return 0


def _print_headline(report: Report) -> None:
    for task, entry in report.results["tasks"].items():
        if isinstance(entry, dict) and "overall" in entry:
            state = "holds" if entry["overall"] else ("fails" if entry.get("decided") else "inconclusive")
            print(f"{task}: {state}")
        elif isinstance(entry, dict) and "error" in entry:
            print(f"{task}: {entry['error']}")


def _cmd_validate(args) -> int:
    try:
        parse_config(_load_doc(args.config))
    except (ParseError, ValidationError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    print("ok")
    return 0


def _cmd_battery(args) -> int:
    worst, formats = 0, _formats_from(args.format.split(","), "--format")
    for name, entry in CURATED.items():
        doc = _apply_overrides(dict(entry["config"]), args)
        config = parse_config(doc)
        report = run(config)
        emit(report, Path(args.out) / name, formats)
        expect = entry.get("expect", {})
        for task, task_entry in report.results["tasks"].items():
            if not isinstance(task_entry, dict) or "overall" not in task_entry:
                continue
            got = task_entry["overall"]
            suffix = ""
            if task in expect:
                ok = got == expect[task]
                suffix = "  [expected]" if ok else f"  [MISMATCH: expected {expect[task]}]"
                if not ok:
                    worst = max(worst, 1)
            print(f"{name}/{task}: {'holds' if got else 'fails/inconclusive'}{suffix}")
        if args.strict:
            worst = max(worst, strict_exit_code(report))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blochlab",
        description="Classify weighted composition operators into Bloch spaces and cross-check "
        "the verdicts with brute-force operator probes.",
    )
    parser.add_argument("--version", action="version", version=f"blochlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the tasks of a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None,
                       help="output directory (default: config, then BLOCHLAB_OUT)")
    p_run.add_argument("--format", default=None, help="comma-separated subset of json,csv")
    p_run.add_argument("--strict", action="store_true",
                       help="nonzero exit on classifier/oracle disagreement")
    p_run.add_argument("--grid", type=_parse_grid_flag, default=None, metavar="K,M,ORDER")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)

    p_bat = sub.add_parser("battery", help="run the curated symbol battery")
    p_bat.add_argument("--out", default=_default_out())
    p_bat.add_argument("--format", default="json")
    p_bat.add_argument("--strict", action="store_true")
    p_bat.add_argument("--grid", type=_parse_grid_flag, default=None, metavar="K,M,ORDER")
    p_bat.set_defaults(fn=_cmd_battery)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failures keep task attribution upstream
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
