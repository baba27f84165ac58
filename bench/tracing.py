"""Per-layer spans recorded from outside the program.

A layer is one blochlab module.  ``Tracer.install`` replaces that
module's public functions with timing wrappers, and does so at every
binding: a module that did ``from .norms import bloch_seminorm`` holds
its own reference, so each ``blochlab.*`` module attribute that is the
original object gets the wrapper too.  ``uninstall`` puts every original
back.  The evaluators are wrapped at ``DiskFunction.eval/deriv`` and
``SelfMap.eval/deriv``; nested evaluation goes through ``_value`` and
``_derivative``, so only top-level calls are counted.

Spans nest.  A span's self time is its duration minus the durations of
the spans it directly encloses.  Only per-span totals are kept.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from blochlab import battery, cli, criteria, disk_functions, norms, oracle, weights

MARK = "_bench_span"

# span name -> (owner, attribute) pairs it wraps
SPANS = {
    "disk_functions": [(disk_functions.DiskFunction, "eval"), (disk_functions.DiskFunction, "deriv"),
                       (disk_functions.SelfMap, "eval"), (disk_functions.SelfMap, "deriv")],
    "weights": [(weights.NormalWeight, "__call__")],
    "norms.bloch_seminorm": [(norms, "bloch_seminorm")],
    "norms.boundary_profile": [(norms, "boundary_profile")],
    "norms.little_bloch_profile": [(norms, "little_bloch_profile")],
    "norms.quadrature": [(norms, name) for name in (
        "bergman_type_norm", "derivative_form_norm", "unit_norm_mass",
        "pointwise_growth_envelope", "derivative_growth_envelope")],
    "criteria.classify": [(criteria, name) for name in (
        "classify_bounded_into_bloch", "classify_compact_into_bloch",
        "classify_bounded_into_little_bloch", "classify_compact_into_little_bloch",
        "derivative_limit_probe", "composition_limit_probe")],
    "oracle.lower_bound_trend": [(oracle, "lower_bound_trend")],
    "oracle.compactness_probe": [(oracle, "compactness_probe")],
    "oracle.kernel_family_norm": [(oracle, "kernel_family_norm")],
    "oracle.chain_constant": [(oracle, "chain_constant")],
    "oracle.chase": [(oracle, "boundary_chase_point")],
    "cli.parse_config": [(cli, "parse_config")],
    "cli.run": [(cli, "run")],
    "cli.emit": [(cli, "emit")],
    "battery.random_pairs": [(battery, "random_pairs")],
}
# criteria's own binding of sample_points: one call per quotient sample table
SAMPLE_TABLES = "criteria.sample_tables"


def bindings(owner, attr):
    """Every place the object at ``owner.attr`` is bound: the owner itself
    and, for module functions, each blochlab module holding the same object."""
    original = getattr(owner, attr)
    if not isinstance(owner, type(sys)):
        return original, [owner]
    holders = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "blochlab" or name.startswith("blochlab."))
               and getattr(m, attr, None) is original]
    return original, holders


def wrapped_bindings() -> list:
    """``owner.attr`` names that currently hold a benchmark wrapper."""
    found = []
    for targets in list(SPANS.values()) + [[(criteria, "sample_points")]]:
        for owner, attr in targets:
            for holder in bindings(owner, attr)[1]:
                if hasattr(getattr(holder, attr), MARK):
                    found.append(f"{getattr(holder, '__name__', holder)}.{attr}")
    return found


class Tracer:
    """Span totals for one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.scalar_calls = 0
        self.points = 0
        self.oracle_decided = 0
        self.emit_bytes = 0
        self._open = []  # per open span: time covered by its direct children
        self._patched = []

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.self_s[name] += elapsed - tracer._open.pop()
                tracer.calls[name] += 1
                if tracer._open:
                    tracer._open[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _count_points(self, args, result):
        z = args[1]
        self.points += int(np.size(z))
        self.scalar_calls += np.ndim(z) == 0

    def _count_decided(self, args, result):
        verdict = getattr(result, "classification", None) or result.trend
        self.oracle_decided += verdict != oracle.TREND_AMBIGUOUS

    def _count_bytes(self, args, result):
        self.emit_bytes += sum(Path(p).stat().st_size for p in result)

    def install(self) -> None:
        hooks = {"disk_functions": self._count_points, "oracle.lower_bound_trend": self._count_decided,
                 "oracle.compactness_probe": self._count_decided, "cli.emit": self._count_bytes}
        targets = [(name, owner, attr) for name, pairs in SPANS.items() for owner, attr in pairs]
        targets.append((SAMPLE_TABLES, criteria, "sample_points"))
        for name, owner, attr in targets:
            original, holders = bindings(owner, attr)
            if name == SAMPLE_TABLES:
                holders = [criteria]
            wrapper = self._span(name, original, hooks.get(name))
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def metrics(self, units: int) -> dict:
        """Per-layer values for one pass of ``units`` units, without units of measure."""
        c, s = self.calls, self.self_s
        oracle_attempts = c["oracle.lower_bound_trend"] + c["oracle.compactness_probe"]
        return {
            "disk_functions.calls": c["disk_functions"],
            "disk_functions.scalar_calls": int(self.scalar_calls),
            "disk_functions.points": self.points,
            "disk_functions.s": s["disk_functions"],
            "weights.calls": c["weights"],
            "weights.s": s["weights"],
            "norms.bloch_seminorm.calls": c["norms.bloch_seminorm"],
            "norms.bloch_seminorm.s": s["norms.bloch_seminorm"],
            "norms.boundary_profile.calls": c["norms.boundary_profile"],
            "norms.boundary_profile.s": s["norms.boundary_profile"],
            "norms.little_bloch_profile.s": s["norms.little_bloch_profile"],
            "norms.quadrature.calls": c["norms.quadrature"],
            "norms.quadrature.s": s["norms.quadrature"],
            "criteria.classify.calls": c["criteria.classify"],
            "criteria.classify.s": s["criteria.classify"],
            "criteria.sample_tables": c[SAMPLE_TABLES],
            "criteria.sample_tables_per_unit": c[SAMPLE_TABLES] / units,
            "oracle.lower_bound_trend.s": s["oracle.lower_bound_trend"],
            "oracle.compactness_probe.s": s["oracle.compactness_probe"],
            "oracle.kernel_family_norm.s": s["oracle.kernel_family_norm"],
            "oracle.chain_constant.s": s["oracle.chain_constant"],
            "oracle.chase.calls": c["oracle.chase"],
            "oracle.chase.s": s["oracle.chase"],
            "oracle.decided_frac": self.oracle_decided / oracle_attempts if oracle_attempts else 0.0,
            "cli.parse_config.s": s["cli.parse_config"],
            "cli.run.s": s["cli.run"],
            "cli.emit.s": s["cli.emit"],
            "cli.emit.bytes": self.emit_bytes,
            "battery.random_pairs.s": s["battery.random_pairs"],
        }


# counts that must repeat exactly between traced passes of the same inputs
EXACT_COUNTS = ("disk_functions.calls", "disk_functions.scalar_calls", "disk_functions.points",
                "criteria.sample_tables", "oracle.chase.calls")


def unit_of(metric: str) -> str:
    """Unit of measure of a per-layer metric, read off its name."""
    special = {"criteria.sample_tables_per_unit": "count/unit", "oracle.decided_frac": "frac",
               "cli.emit.bytes": "B", "trace.overhead_s": "s"}
    if metric in special:
        return special[metric]
    return "s" if metric.endswith(".s") else "count"
