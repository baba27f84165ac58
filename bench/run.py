#!/usr/bin/env python3
"""Benchmark for blochlab: one workload, one seed, one run.

    python3 bench/run.py --workload curated --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it reports the
per-layer split from wrappers installed around each module's public
functions.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``bench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference_verdicts.json"
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# The calibration kernel's time at the reference speed; timing metrics are
# scaled to that speed (see speed_factor).
CAL_REF_S = 0.004
_CAL_RING = None  # built on first use: a set-up probe must not import numpy before its clock starts

END_TO_END_UNITS = {
    "setup_s": "s",
    "unit_s.p50": "s",
    "unit_s.tail": "s",
    "units_per_s": "1/s",
    "ok_frac": "frac",
    "decided_frac": "frac",
    "peak_rss_mb": "MB",
}


def require_source() -> None:
    """Put the checkout's ``src`` first on the path and refuse to run
    against any other copy of the package."""
    if not (SRC / "blochlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no blochlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import blochlab

    if Path(blochlab.__file__).resolve().parent != (SRC / "blochlab").resolve():
        raise SystemExit(f"error: imported blochlab from {blochlab.__file__}, not from {SRC}")


def setup_probe(workload: str, seed: int) -> tuple:
    """Seconds to import blochlab, make the inputs and parse every config,
    timed inside the calling process (meant to be a fresh one), and the
    calibration kernel's time in the same process just afterwards."""
    start = time.perf_counter()
    require_source()
    import workloads

    workloads.WORKLOADS[workload].prepare(seed)
    elapsed = time.perf_counter() - start
    # the first kernel run after start-up is slowed by cold caches
    return elapsed, min(calibration_s() for _ in range(3))


def calibration_s() -> float:
    """Seconds taken by a fixed kernel that does not touch blochlab: numpy
    on small complex arrays plus scalar complex arithmetic, a mix of work
    like the units'.

    The machine's speed drifts by tens of percent over seconds to minutes
    (shared cores), and blochlab's code and this kernel drift together.
    Dividing a unit's time by the kernel's time measured just before and
    after it removes the drift, not a change in blochlab."""
    global _CAL_RING
    import numpy as np

    if _CAL_RING is None:
        _CAL_RING = 0.5 * np.exp(2j * np.pi * np.arange(512) / 512)
    start = time.perf_counter()
    acc = 0.0
    for k in range(180):
        v = (_CAL_RING * _CAL_RING + 0.3) / (1.0 - 0.2 * _CAL_RING)
        acc += float(np.abs(v).max())
        s = complex(0.3, 0.1) * k
        for _ in range(20):
            s = (s * s + 0.1) / (1.0 + abs(s))
        acc += abs(s)
    return time.perf_counter() - start


def speed_factor(cal_before: float, cal_after: float) -> float:
    """Factor that scales a time measured between two calibrations to the
    reference speed."""
    return CAL_REF_S / (0.5 * (cal_before + cal_after))


def measure_setup(workload: str, seed: int) -> list:
    """Set-up seconds of fresh processes, each scaled to the reference speed.

    The probe calibrates itself: the operating system may run it on
    another core than this process, at another speed."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        seconds, calibration = map(float, proc.stdout.split())
        samples.append(seconds * CAL_REF_S / calibration)
    return samples


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least 10 samples beyond it."""
    fitting = [p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0]
    return fitting[-1] if fitting else 50.0


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


class Run:
    """One workload run: executes units, gates their outcomes, keeps tallies."""

    def __init__(self, workload, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}  # label -> Outcome of the unit's first execution

    def execute(self, unit):
        """Run one unit; returns (seconds, raw result or None)."""
        start = time.perf_counter()
        try:
            raw = self.workload.execute(unit, self.out_dir)
        except Exception:  # a unit that raises is a failed unit; the run goes on
            elapsed = time.perf_counter() - start
            self.fail(unit.label, traceback.format_exc(limit=3).strip())
            return elapsed, None
        return time.perf_counter() - start, raw

    def inspect(self, unit, raw):
        self.attempted += 1
        if raw is None:
            return None
        try:
            outcome = self.workload.inspect(unit, raw)
        except Exception:
            self.fail(unit.label, traceback.format_exc(limit=3).strip())
            return None
        if outcome.problems:
            self.fail(unit.label, "; ".join(outcome.problems))
        self.first.setdefault(unit.label, outcome)
        return outcome

    def fail(self, label: str, detail: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}: {detail}")

    def run_pass(self, units) -> list:
        """Execute each unit once; returns (wall seconds, speed factor) per unit."""
        times = []
        before = calibration_s()
        for unit in units:
            elapsed, raw = self.execute(unit)
            after = calibration_s()
            times.append((elapsed, speed_factor(before, after)))
            before = after
            self.inspect(unit, raw)
        return times

    def determinism_gate(self, unit) -> None:
        """Re-run one unit; its result bytes must match the first run's."""
        before = self.first.get(unit.label)
        _, raw = self.execute(unit)
        outcome = self.inspect(unit, raw)
        if before is not None and outcome is not None and outcome.payload != before.payload:
            self.fail(unit.label, "re-run result payload differs from the first run")

    def decided_frac(self) -> float:
        flags = [d for outcome in self.first.values() for d in outcome.decided]
        return sum(flags) / len(flags) if flags else 0.0

    def verdict_changes(self):
        """(changed, compared) units against the stored reference digests."""
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        key = str(self.seed) if self.workload.seeded else "any"
        stored = reference.get(self.workload.name, {}).get(key, {})
        compared = [label for label in self.first if label in stored]
        changed = [label for label in compared if stored[label] != self.first[label].digest]
        return changed, len(compared)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "blochlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout's own repository; None where it has none."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(workload, seed: int, units: int, passes: int, seconds: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "grid": workload.grid,
        "seed": seed,
        "seed_changes_inputs": workload.seeded,
        "units_per_pass": units,
        "repetitions": passes,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def measure_untraced(run: Run, seconds: int) -> tuple:
    """Whole passes over the units until ``seconds`` have elapsed."""
    import tracing

    setup = measure_setup(run.workload.name, run.seed)
    units = run.workload.prepare(run.seed)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run.run_pass(units))
    run.determinism_gate(units[0])
    leaked = tracing.wrapped_bindings()
    if leaked:
        run.fail("untraced run", f"benchmark wrappers present: {leaked}")

    wall = [t for p in passes for t, _ in p]
    times = [t * f for p in passes for t, f in p]
    rates = [len(p) / sum(t * f for t, f in p) for p in passes]
    # each unit's typical time first, so that a noisy sample cannot move the
    # median across the gap between two units of very different cost
    per_unit = [statistics.median(p[i][0] * p[i][1] for p in passes) for i in range(len(units))]
    n = len(times)
    tail_p = tail_percentile(n)
    metrics = {
        "setup_s": statistics.median(setup),
        "unit_s.p50": statistics.median(per_unit),
        "unit_s.tail": percentile(times, tail_p),
        "units_per_s": statistics.median(rates),
        "ok_frac": (run.attempted - run.failed) / run.attempted,
        "decided_frac": run.decided_frac(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "unit_s.p50": f"median over {len(units)} units of each unit's median over {len(passes)} passes; "
                      f"unscaled wall median {statistics.median(wall):.6g} s",
        "unit_s.tail": f"p{tail_p:g}, n={n}, {n - int(n * tail_p / 100.0)} beyond; "
                       f"unscaled wall {percentile(wall, tail_p):.6g} s",
        "units_per_s": f"median of {len(passes)} passes; unscaled wall {n / sum(wall):.6g}/s overall",
        "ok_frac": f"{run.failed} failed of {run.attempted}",
        "decided_frac": f"over {len(run.first)} distinct units",
    }
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, notes,
            len(units), len(passes))


def measure_traced(run: Run, seconds: int) -> tuple:
    """Alternate untraced and traced passes (set-up included) until
    ``seconds`` have elapsed; report the traced passes' per-layer split."""
    import tracing

    walls = {False: [], True: []}
    per_pass = []
    n_units = 0
    run.run_pass(run.workload.prepare(run.seed))  # warm-up: fills the program's caches
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        for traced in (False, True):
            tracer = tracing.Tracer()
            if traced:
                tracer.install()
            try:
                units = run.workload.prepare(run.seed)
                walls[traced].append(sum(t * f for t, f in run.run_pass(units)))
            finally:
                tracer.uninstall()
            if traced:
                n_units = len(units)
                per_pass.append(tracer.metrics(n_units))
    if any(p[k] != per_pass[0][k] for p in per_pass for k in tracing.EXACT_COUNTS):
        run.fail("traced run", "exact counts differ between traced passes")
    leaked = tracing.wrapped_bindings()
    if leaked:
        run.fail("traced run", f"wrappers left installed: {leaked}")
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    for k in tracing.EXACT_COUNTS:
        metrics[k] = per_pass[0][k]
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    out = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in metrics.items()}
    notes = {"trace.overhead_s": f"median of {len(walls[True])} traced minus median of "
                                 f"{len(walls[False])} untraced passes, scaled unit time"}
    return out, notes, n_units, len(per_pass)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(*setup_probe(args.workload, args.seed))
        return 0

    require_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    out_dir = OUT / f"{workload.name}-{os.getpid()}"
    run = Run(workload, args.seed, out_dir)
    try:
        measure = measure_traced if args.trace else measure_untraced
        metrics, notes, units, passes = measure(run, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    changed, compared = run.verdict_changes()
    record = run_record(workload, args.seed, units, passes, args.seconds, args.trace)
    print(f"== {workload.name} seed {args.seed} trace {args.trace}: {passes} passes of {units} units")
    for name, m in metrics.items():
        note = notes.get(name, "")
        value = f"{m['value']:>16d}" if isinstance(m["value"], int) else f"{m['value']:>16.6g}"
        print(f"  {name:32s} {value} {m['unit']:6s} {note}")
    print(f"  verdicts_changed {len(changed)} of {compared} units compared with the reference"
          + (f": {', '.join(changed)}" if changed else ""))
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    print("record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    sys.exit(main())
