#!/usr/bin/env python3
"""Run the curated symbol battery and the randomized agreement sweep.

The curated half is ``blochlab battery``: one report directory (JSON and
CSV) per curated case and one line per headline verdict.  The sweep then
applies the per-pair checks of the benchmark's correctness gate to the
seeded random battery: the classifier against the oracle trend (both at
12x128x8), and both dual-evaluation limit probes (at 16x128x8), each of
which must not disagree with itself.  Exit status is 1 when a curated
verdict misses its expectation or any random pair fails a check, 0
otherwise, so a shell loop over ``--seed`` finds the failing seeds.

Usage:
    python scripts/run_battery.py [--out DIR] [--seed N] [--count N]
"""

import argparse
import sys

from blochlab import RadialGrid, SpaceSpec, classify_bounded_into_bloch
from blochlab.battery import random_pairs
from blochlab.cli import main as blochlab_main
from blochlab.criteria import SampleTable
from blochlab.oracle import TREND_AMBIGUOUS, TREND_STABLE, lower_bound_trend


def pair_failures(sym, space, mesh, probe_mesh) -> tuple:
    """The classifier state, the trend, and the gate's complaints about one pair."""
    outcome = classify_bounded_into_bloch(sym, space, mesh)
    trend = lower_bound_trend(sym, space, mesh)
    failures = []
    if outcome.decided and trend.classification != TREND_AMBIGUOUS:
        if outcome.overall != (trend.classification == TREND_STABLE):
            failures.append("classifier and oracle trend disagree")
    table = SampleTable(sym, space, probe_mesh)
    for probe in (table.derivative_limit_probe(), table.composition_limit_probe()):
        if probe.agree is False:
            failures.append(f"{probe.name} sides disagree")
    state = ("bounded" if outcome.overall else "unbounded") if outcome.decided else "undecided"
    return state, trend.classification, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="blochlab-out/battery")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=20)
    args = parser.parse_args()

    print("== curated cases ==")
    curated = blochlab_main(["battery", "--out", args.out, "--format", "json,csv"])

    print(f"== randomized agreement sweep, seed {args.seed} ==")
    space = SpaceSpec.bergman(2)
    mesh, probe_mesh = RadialGrid(12, 128, 8), RadialGrid(16, 128, 8)
    failed = 0
    for label, sym in random_pairs(seed=args.seed, count=args.count):
        state, trend, failures = pair_failures(sym, space, mesh, probe_mesh)
        failed += bool(failures)
        print(f"  {label:24s} {state:10s} oracle={trend:9s} {'; '.join(failures) or 'ok'}")
    print(f"failed: {failed}/{args.count} pairs")
    return 1 if (curated or failed) else 0


if __name__ == "__main__":
    sys.exit(main())
