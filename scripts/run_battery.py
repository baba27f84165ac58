#!/usr/bin/env python3
"""Run the curated symbol battery and the randomized agreement sweep.

The curated half is ``blochlab battery``: one report directory (JSON and
CSV) per curated case and one line per headline verdict.  The script then
prints a summary table of classifier verdicts against the brute-force
oracle trends for the seeded random battery.  Exit status is 1 when a
curated verdict misses its expectation or a decided random pair
disagrees with the oracle, 0 otherwise.

Usage:
    python scripts/run_battery.py [--out DIR] [--seed N] [--count N]
"""

import argparse
import sys

from blochlab import RadialGrid, SpaceSpec, classify_bounded_into_bloch
from blochlab.battery import random_pairs
from blochlab.cli import main as blochlab_main
from blochlab.oracle import TREND_STABLE, lower_bound_trend


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="blochlab-out/battery")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=20)
    args = parser.parse_args()

    print("== curated cases ==")
    curated = blochlab_main(["battery", "--out", args.out, "--format", "json,csv"])

    print("== randomized agreement sweep ==")
    space = SpaceSpec.bergman(2)
    mesh = RadialGrid(12, 128, 8)
    decided = agree = 0
    for label, sym in random_pairs(seed=args.seed, count=args.count):
        outcome = classify_bounded_into_bloch(sym, space, mesh)
        trend = lower_bound_trend(sym, space, mesh)
        if not outcome.decided or trend.classification == "ambiguous":
            print(f"  {label:24s} undecided")
            continue
        decided += 1
        ok = outcome.overall == (trend.classification == TREND_STABLE)
        agree += ok
        state = "bounded" if outcome.overall else "unbounded"
        print(f"  {label:24s} {state:10s} oracle={trend.classification:9s} {'ok' if ok else 'DISAGREE'}")
    print(f"agreement: {agree}/{decided} decided cases")
    return 1 if (curated or agree != decided) else 0


if __name__ == "__main__":
    sys.exit(main())
