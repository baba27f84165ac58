"""Declarative front end: parse a JSON run configuration, execute the
scheduled classification tasks and oracle probes, and emit a
machine-readable report (JSON) plus flat CSV tables for plotting.

Commands::

    blochlab run <config.json> [--out DIR] [--format json,csv] [--strict] [--grid K,M,ORDER]
    blochlab validate <config.json>
    blochlab battery [--out DIR] [--format json,csv] [--strict] [--grid K,M,ORDER]

Exit status is 0 on completion even when verdicts are Fails; nonzero on
errors, 1 when ``battery`` finds a curated expectation unmet, and 3 when
``--strict`` is set and the classifier disagrees with the oracle trend.
``BLOCHLAB_OUT`` overrides the default output directory.
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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
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
# Terms of a ``log_series`` multiplier.  truncated_log_series(n) allocates n+1
# coefficients at parse time (10**12 would ask for 14.6 TiB), and every
# evaluation runs Horner's rule over all of them, twice (value and derivative).
# The longest series in use has 32 terms; 1024 is 32 times that.
MAX_LOG_SERIES_TERMS = 1024
# The norm quadrature evaluates (depth+1)*order*angular_nodes points, one block
# of whole rows at a time, so its memory does not grow with the grid; the cap
# bounds its time.  2**23 points admit the largest grids in use, 16x32768x12
# (6,684,672 points, about 2.4 s cold) and 24x32768x8 (6,553,600).
MAX_QUADRATURE_POINTS = 2**23


class ParseError(ValueError):
    """The configuration document is not well-formed."""


class ValidationError(ValueError):
    """The configuration violates a structural invariant."""


# ---------------------------------------------------------------------------
# config parsing


def _is_number(value) -> bool:
    """A JSON number: a real that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real_from(value, where: str) -> float:
    if not _is_number(value):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValidationError(f"{where}: expected a finite number, got {value!r}")
    return x


def _int_from(value, where: str, maximum: int | None = None) -> int:
    """An integer field, at most ``maximum`` when one is given: bools,
    floats (``2.0`` too), strings and null are rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{where}: expected an integer, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{where}: {value} is above the maximum {maximum}")
    return int(value)


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
    if isinstance(value, (list, tuple)) and len(value) == 2:
        parts = value
    elif isinstance(value, dict) and set(value) <= {"re", "im"}:
        parts = value.get("re", 0.0), value.get("im", 0.0)
    else:
        parts = value, 0.0
    if not all(map(_is_number, parts)):
        raise ValidationError(f"{where}: expected a number, [re, im] pair, or re/im object")
    z = complex(float(parts[0]), float(parts[1]))
    if not cmath.isfinite(z):
        raise ValidationError(f"{where}: expected a finite number, got {value!r}")
    return z


def _fields(build, *required, **optional):
    """The reader of an object whose keys are the ``required`` ones, each a
    ``(key, read)`` pair, and the ``optional`` ones, each ``key=(read,
    default)``.

    ``reader(body, where, at=where)`` passes ``build`` the value of each key
    in that order: ``read(value, f"{where}.{key}")`` for a present key, the
    default as it is for an absent optional one; a missing required key
    raises ``KeyError`` in its turn.  A body that is not an object, or that
    has any other key, is refused at ``at``, the body's own location, which
    for a variant's body is ``where.<variant>``."""
    fields = [(key, read, True, None) for key, read in required]
    fields += [(key, read, False, default) for key, (read, default) in optional.items()]
    keys = {key for key, *_ in fields}

    def reader(body, where: str, at: str | None = None):
        if not isinstance(body, dict):
            raise ValidationError(f"{at or where}: expected an object, got {body!r}")
        if not body.keys() <= keys:
            raise ValidationError(f"{at or where}: unknown keys {sorted(body.keys() - keys)}")
        return build(*[read(body[key], f"{where}.{key}") if needed or key in body else default
                       for key, read, needed, default in fields])

    return reader


@contextmanager
def _located(where: str):
    """Report a ``KeyError`` or ``TypeError`` raised in the block as a
    malformed body at ``where``, and a ``ValueError`` or ``OverflowError``
    by its message at ``where``.  A ``ValidationError`` names its own
    location and passes."""
    try:
        yield
    except ValidationError:
        raise
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{where}: malformed body ({exc})") from exc
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _build_variant(table: dict, kind: str, spec, where: str):
    """Dispatch a one-key variant object through ``table``, whose entries
    read ``(body, where, at)`` with ``at`` the body's location
    ``where.<variant>``, where a malformed body is reported; nested
    builders report their own, deeper locations."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValidationError(f"{where}: expected an object with exactly one variant key")
    ((key, body),) = spec.items()
    if key not in table:
        raise ValidationError(f"{where}: unknown {kind} variant {key!r}")
    at = f"{where}.{key}"
    with _located(at):
        return table[key](body, where, at)


def build_function(spec, where: str = "u") -> DiskFunction:
    """Build a disk function from its config form."""
    if _is_number(spec):
        with _located(where):  # an integer past the floats overflows
            return PowerSeries([_complex_from(spec, where)])
    return _build_variant(_FUNCTIONS, "function", spec, where)


def build_self_map(spec, where: str = "phi") -> SelfMap:
    """Build a self-map from its config form."""
    if spec == "identity":
        return identity_map()
    return _build_variant(_SELF_MAPS, "self-map", spec, where)


def _product(body, where: str, at: str) -> Product:
    if len(body) != 2:
        raise ValidationError(f"{at}: expected exactly two factors")
    return Product(build_function(body[0], f"{at}[0]"), build_function(body[1], f"{at}[1]"))


# An absent complex field's default is what _complex_from reads from 1.0.
_FUNCTIONS = {
    "constant": lambda body, where, at: PowerSeries([_complex_from(body, where)]),
    "power_series": lambda body, where, at: PowerSeries([_complex_from(c, at) for c in body]),
    "log_series": lambda body, where, at: truncated_log_series(_int_from(body, at, MAX_LOG_SERIES_TERMS)),
    "fractional_kernel": _fields(FractionalKernel, ("base", _complex_from), ("exponent", _real_from),
                                 scale=(_complex_from, 1 + 0j)),
    "sum": lambda body, where, at: Sum(tuple(build_function(s, f"{at}[{i}]") for i, s in enumerate(body))),
    "product": _product,
    "scaled": _fields(Scaled, ("factor", _complex_from), ("inner", build_function)),
    "composed": _fields(ComposedWithSelfMap, ("outer", build_function), ("inner", build_self_map)),
}
_SELF_MAPS = {
    "affine": _fields(Affine, ("a", _complex_from), ("b", _complex_from)),
    "monomial": _fields(MonomialPower, ("degree", _int_from), scale=(_complex_from, 1 + 0j)),
    "blaschke": _fields(BlaschkeFactor, ("base", _complex_from)),
    "blaschke_product": _fields(FiniteBlaschkeProduct, ("bases", lambda bases, where: [
        _complex_from(b, where) for b in bases]), unimodular=(_complex_from, 1 + 0j)),
    "scaled": _fields(ScaledMap, ("factor", _complex_from), ("inner", build_self_map)),
    "composition": _fields(CompositionMap, ("outer", build_self_map), ("inner", build_self_map)),
}
_SYMBOL = _fields(SymbolPair, ("u", build_function), ("phi", build_self_map))
_SPACE = _fields(SpaceSpec, ("p", _real_from), ("weight", _fields(
    NormalWeight, ("alpha", _real_from), log_exponent=(_real_from, 0.0), s=(_real_from, None), t=(_real_from, None))))
_GRID = _fields(RadialGrid, depth=(_int_from, 16), angular_nodes=(_int_from, 512),
                panel_order=(lambda value, where: _int_from(value, where, MAX_PANEL_ORDER), 12))


def _build_space(spec) -> SpaceSpec:
    if isinstance(spec, str):
        if not spec.startswith("bergman:"):
            raise ValidationError(f"space: unknown shorthand {spec!r}")
        with _located("space"):
            return SpaceSpec.bergman(_real_from(float(spec.split(":", 1)[1]), "space"))
    if not isinstance(spec, dict):
        raise ValidationError("space: expected 'bergman:p' or an object")
    with _located("space"):
        return _SPACE(spec, "space")


def _schedule(tasks) -> tuple:
    """The listed tasks in order, each after its prerequisite, and the
    oracle, which reads ``bounded_bloch``'s entry, after every other."""
    if not isinstance(tasks, (list, tuple)):
        raise ValidationError(f"tasks: expected a list of task names, got {tasks!r}")
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
    return tuple(sorted(ordered, key=lambda task: task == "oracle"))


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


def _decode(text: str, source: str = ""):
    """``text`` as JSON; a syntax error is a ``ParseError`` at
    ``line N, column M``, after ``source: `` when a source is given."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        prefix = f"{source}: " if source else ""
        raise ParseError(f"{prefix}line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def parse_config(text_or_dict) -> RunConfig:
    """Parse and eagerly validate a configuration document.

    Accepts the JSON text or an already-decoded dictionary.  All
    structural invariants (weight normality, the self-map property,
    task names and scheduling) are checked here so that ``run`` never
    starts a half-valid computation.
    """
    doc = _decode(text_or_dict) if isinstance(text_or_dict, str) else text_or_dict
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    unknown = set(doc) - {"symbol", "space", "grid", "tasks", "strict", "force_boundary", "output"}
    if unknown:
        raise ValidationError(f"unknown top-level keys: {sorted(unknown)}")
    try:
        symbol = _SYMBOL(doc["symbol"], "symbol")
    except KeyError as exc:
        raise ValidationError(f"symbol: missing field {exc}") from exc
    with _located("symbol.phi"):
        validate_self_map(symbol.phi)
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
    with _located("grid"):
        grid = _GRID(gspec, "grid")
    points = 2 * (grid.depth + 1) * grid.angular_nodes  # the circles of sample_points
    if points > MAX_SAMPLE_POINTS:
        raise ValidationError(
            f"grid: the sample set has {points:,} points ({2 * (grid.depth + 1)} circles of "
            f"{grid.angular_nodes:,}), more than the {MAX_SAMPLE_POINTS:,} a sample table may hold"
        )
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
        symbol=symbol,
        space=space,
        grid=grid,
        tasks=tasks,
        strict=_flag_from(doc.get("strict", False), "strict"),
        force_boundary=_flag_from(doc.get("force_boundary", False), "force_boundary"),
        output_dir=output.get("dir"),
        formats=_formats_from(output.get("formats", ["json"]), "output.formats"),
    )
    config.echo = _echo_config(doc, config)
    return config


def _echo_config(doc: dict, config: RunConfig) -> dict:
    echo = {
        "symbol": doc["symbol"],
        "space": asdict(config.space),
        "grid": asdict(config.grid),
        "tasks": list(config.tasks),
        "strict": config.strict,
        "force_boundary": config.force_boundary,
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
    them and released before the ``oracle`` task, which runs last and never
    reads it.
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
                table = None  # the oracle runs last and reads no samples
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
    """Classifier versus oracle-trend agreement; None when either is undecided."""
    if not (bounded_entry or {}).get("decided", False) or trend_classification == "ambiguous":
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
    return _decode(text, path)


def _apply_overrides(doc: dict, args) -> dict:
    doc = dict(doc)
    if args.grid:
        doc["grid"] = args.grid
    if args.strict:
        doc["strict"] = True
        tasks = doc.get("tasks", [])
        if isinstance(tasks, (list, tuple)):  # any other value is left for parse_config to reject
            doc["tasks"] = list(tasks) + [needed for needed in ("bounded_bloch", "oracle") if needed not in tasks]
    return doc


def _cmd_run(args) -> int:
    config = parse_config(_apply_overrides(_load_doc(args.config), args))
    formats = _formats_from(args.format.split(","), "--format") if args.format else config.formats
    report = run(config)
    out_dir = args.out or config.output_dir or _default_out()
    paths = emit(report, out_dir, formats)
    for path in paths:
        print(path)
    _print_headline(report)
    return strict_exit_code(report) if config.strict else 0


def _print_headline(report: Report, prefix: str = "", expect: dict | None = None) -> bool:
    """Print each classifier task's state (``holds``, ``fails``,
    ``inconclusive`` or its error kind) and whether every expectation is
    met: an expected True only by ``holds``, an expected False only by
    ``fails``."""
    met = True
    for task, entry in report.results["tasks"].items():
        if "overall" in entry:
            state = "holds" if entry["overall"] else ("fails" if entry["decided"] else "inconclusive")
        elif "error" in entry:
            state = entry["error"]
        else:
            continue
        suffix = ""
        if expect and task in expect:
            ok = state == ("holds" if expect[task] else "fails")
            met = met and ok
            suffix = "  [expected]" if ok else f"  [MISMATCH: expected {expect[task]}]"
        print(f"{prefix}{task}: {state}{suffix}")
    return met


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
        report = run(parse_config(_apply_overrides(entry["config"], args)))
        emit(report, Path(args.out) / name, formats)
        if not _print_headline(report, f"{name}/", entry.get("expect")):
            worst = max(worst, 1)
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
    computing = argparse.ArgumentParser(add_help=False)  # the options shared by run and battery
    computing.add_argument("--strict", action="store_true", help="exit 3 on classifier/oracle disagreement")
    computing.add_argument("--grid", type=_parse_grid_flag, default=None, metavar="K,M,ORDER")

    p_run = sub.add_parser("run", parents=[computing], help="run the tasks of a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None,
                       help="output directory (default: config, then BLOCHLAB_OUT)")
    p_run.add_argument("--format", default=None, help="comma-separated subset of json,csv")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)

    p_bat = sub.add_parser("battery", parents=[computing], help="run the curated symbol battery")
    p_bat.add_argument("--out", default=_default_out())
    p_bat.add_argument("--format", default="json")
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
