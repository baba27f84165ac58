"""The benchmark's three workloads.

A workload turns a seed into a list of units and knows how to execute
one unit (the timed part) and how to inspect what it produced (the
untimed part: the correctness gate, the verdict digest, and the bytes
the determinism gate compares).  Every call into blochlab goes through
a module attribute looked up at call time (``cli.run``, not a name bound
at import), so the traced run's wrappers see it.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from blochlab import battery, cli, criteria, oracle
from blochlab.norms import RadialGrid
from blochlab.weights import SpaceSpec

EMIT_FORMATS = ("json", "csv")
A2 = SpaceSpec.bergman(2)

# random-agreement uses the grids of acceptance criteria 8 and 9
AGREEMENT_GRID = RadialGrid(12, 128, 8)
PROBE_GRID = RadialGrid(16, 128, 8)
AGREEMENT_PAIRS = 20

# deep-classify: depth 40 stays below the depth at which sample points
# round onto the unit circle
DEEP_GRID = {"depth": 40, "angular_nodes": 2048, "panel_order": 12}
DEEP_CONFIGS = 24
DEEP_TASKS = ["bounded_bloch", "compact_bloch", "bounded_little_bloch",
              "compact_little_bloch", "lemma_probes"]
_FAMILIES = ("affine_strict", "blaschke", "scaled_blaschke", "monomial",
             "affine_touching", "blaschke_product")


@dataclass
class Unit:
    label: str
    payload: object  # a parsed RunConfig, or a SymbolPair for random-agreement
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What the untimed inspection of one executed unit found."""

    digest: str  # headline verdicts, compared with the stored reference
    decided: list  # one bool per headline verdict or oracle trend
    payload: bytes  # canonical result bytes for the determinism gate
    problems: list  # correctness violations; empty when the unit passed


# ---------------------------------------------------------------------------
# config-run workloads (curated, deep-classify)


def _run_config(unit: Unit, out_dir: Path):
    report = cli.run(unit.payload)
    cli.emit(report, out_dir / unit.label, EMIT_FORMATS)
    return report


def _inspect_report(unit: Unit, report) -> Outcome:
    problems = []
    try:
        json.dumps(report.to_dict(), allow_nan=False)
    except (TypeError, ValueError) as exc:
        problems.append(f"report is not strict JSON: {exc}")
    tasks = report.results["tasks"]
    for task, want in unit.expect.items():
        got = tasks.get(task, {}).get("overall")
        if got != want:
            problems.append(f"{task}: expected {want}, got {got}")
    digest, decided = [], []
    for task, entry in tasks.items():
        if "overall" in entry:
            digest.append(f"{task}={entry['overall']}/{entry['decided']}")
            decided.append(bool(entry["decided"]))
        elif "error" in entry:
            digest.append(f"{task}=error:{entry['error']}")
        elif task == "lemma_probes":
            for name, probe in entry.items():
                digest.append(f"{name}={probe['decided']}/{probe['agree']}")
                decided.append(bool(probe["decided"]))
        elif task == "oracle":
            trend = entry["lower_bound"]["classification"]
            probe = entry["compactness_probe"]["trend"]
            digest.append(f"oracle={trend}/{probe}/{entry['agreement']}")
            decided += [trend != oracle.TREND_AMBIGUOUS, probe != oracle.TREND_AMBIGUOUS]
            if entry["agreement"] is False:
                problems.append("oracle: classifier and lower-bound trend disagree")
    return Outcome(";".join(digest), decided, report.results_payload(), problems)


def _prepare_curated(seed: int) -> list:
    # the curated inputs are fixed; the seed does not change them
    return [
        Unit(name, cli.parse_config(copy.deepcopy(entry["config"])), dict(entry["expect"]))
        for name, entry in battery.CURATED.items()
    ]


def _point(rng, max_mod: float) -> list:
    z = max_mod * np.sqrt(rng.uniform(0.05, 1.0)) * np.exp(2j * np.pi * rng.uniform())
    return [float(z.real), float(z.imag)]


def _unimodular(rng) -> list:
    z = np.exp(2j * np.pi * rng.uniform())
    return [float(z.real), float(z.imag)]


def _self_map_spec(rng, family: str) -> dict:
    if family == "affine_strict":
        a = _point(rng, 0.6)
        return {"affine": {"a": a, "b": _point(rng, max(1e-3, 0.9 - float(np.hypot(*a))))}}
    if family == "affine_touching":
        frac = float(rng.uniform(0.3, 0.7))
        pa, pb = _unimodular(rng), _unimodular(rng)
        return {"affine": {"a": [frac * pa[0], frac * pa[1]],
                           "b": [(1.0 - frac) * pb[0], (1.0 - frac) * pb[1]]}}
    if family == "blaschke":
        return {"blaschke": {"base": _point(rng, 0.7)}}
    if family == "blaschke_product":
        return {"blaschke_product": {"bases": [_point(rng, 0.6), _point(rng, 0.6)],
                                     "unimodular": _unimodular(rng)}}
    if family == "scaled_blaschke":
        return {"scaled": {"factor": float(rng.uniform(0.5, 0.9)),
                           "inner": {"blaschke": {"base": _point(rng, 0.6)}}}}
    if family == "monomial":
        return {"monomial": {"degree": int(rng.integers(2, 5)), "scale": 1.0}}
    raise ValueError(family)


def _multiplier_spec(rng, degree: int) -> dict:
    coeffs = rng.uniform(-1.0, 1.0, degree + 1) + 1j * rng.uniform(-1.0, 1.0, degree + 1)
    # keep the multiplier from vanishing along the whole boundary
    coeffs[0] += 0.5 * np.sign(coeffs[0].real or 1.0)
    return {"power_series": [[float(c.real), float(c.imag)] for c in coeffs]}


def deep_config_texts(seed: int) -> list:
    """Seeded config JSON documents, cycling the six self-map families and,
    per family, the multiplier degrees 0 to 3.

    The degree sets much of a unit's cost, so cycling it rather than
    drawing it keeps the seed from moving the timing metrics."""
    rng = np.random.default_rng(seed)
    texts = []
    for i in range(DEEP_CONFIGS):
        family = _FAMILIES[i % len(_FAMILIES)]
        degree = i // len(_FAMILIES) % 4
        doc = {
            "symbol": {"u": _multiplier_spec(rng, degree), "phi": _self_map_spec(rng, family)},
            "space": "bergman:2",
            "grid": DEEP_GRID,
            "tasks": DEEP_TASKS,
            "force_boundary": True,
        }
        texts.append((f"{family}-{i:02d}", json.dumps(doc)))
    return texts


def _prepare_deep(seed: int) -> list:
    return [Unit(label, cli.parse_config(text)) for label, text in deep_config_texts(seed)]


# ---------------------------------------------------------------------------
# random-agreement


def _prepare_agreement(seed: int) -> list:
    return [Unit(label, sym) for label, sym in battery.random_pairs(seed, AGREEMENT_PAIRS)]


def _run_pair(unit: Unit, out_dir: Path):
    sym = unit.payload
    return (
        criteria.classify_bounded_into_bloch(sym, A2, AGREEMENT_GRID),
        oracle.lower_bound_trend(sym, A2, AGREEMENT_GRID),
        criteria.derivative_limit_probe(sym, A2, PROBE_GRID),
        criteria.composition_limit_probe(sym, A2, PROBE_GRID),
    )


def _inspect_pair(unit: Unit, raw) -> Outcome:
    bounded, trend, *probes = raw
    problems = []
    trend_decided = trend.classification != oracle.TREND_AMBIGUOUS
    if bounded.decided and trend_decided and bounded.overall != (trend.classification == oracle.TREND_STABLE):
        problems.append(f"classifier says {bounded.overall}, oracle trend is {trend.classification}")
    for probe in probes:
        if probe.agree is False:
            rhs = ", ".join(f"{v.quantity} {v.status.value}" for v in probe.rhs)
            problems.append(f"{probe.name}: limit probe sides disagree (lhs {probe.lhs.status.value}, "
                            f"rhs {rhs}; sup|phi| estimate {unit.payload.phi.sup_norm_estimate!r})")
    doc = {
        "bounded_bloch": bounded.to_dict(),
        "lower_bound": trend.to_dict(),
        "probes": [p.to_dict() for p in probes],
    }
    try:
        payload = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False).encode()
    except ValueError as exc:
        problems.append(f"result is not strict JSON: {exc}")
        payload = b""
    digest = ";".join(
        [f"bounded_bloch={bounded.overall}/{bounded.decided}", f"oracle={trend.classification}"]
        + [f"{p.name}={p.decided}/{p.agree}" for p in probes]
    )
    decided = [bounded.decided, trend_decided] + [p.decided for p in probes]
    return Outcome(digest, decided, payload, problems)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    grid: str  # stated grid, recorded with every result
    seeded: bool  # whether the seed changes the inputs
    prepare: object  # seed -> list[Unit]
    execute: object  # (unit, out_dir) -> raw result; the timed part
    inspect: object  # (unit, raw) -> Outcome; the untimed part


WORKLOADS = {
    w.name: w
    for w in (
        Workload("curated", "configs' own grid 16x512x12, JSON+CSV emission", False,
                 _prepare_curated, _run_config, _inspect_report),
        Workload("random-agreement",
                 f"{AGREEMENT_PAIRS} pairs; classifier and oracle 12x128x8, probes 16x128x8", True,
                 _prepare_agreement, _run_pair, _inspect_pair),
        Workload("deep-classify",
                 f"{DEEP_CONFIGS} configs at 40x2048x12, no oracle, JSON+CSV emission", True,
                 _prepare_deep, _run_config, _inspect_report),
    )
}
