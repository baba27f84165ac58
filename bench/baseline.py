#!/usr/bin/env python3
"""Regenerate the benchmark baseline, or the reference verdict digests.

    python3 bench/baseline.py                    # writes bench/baseline.json
    python3 bench/baseline.py --write-reference  # writes bench/reference_verdicts.json

The baseline runs every workload of ``BENCHMARK.json`` once per seed
(ten seeds by default) with tracing off, and once with tracing on, each
in its own process and one after another.  For every end-to-end metric it
stores the median, the quartiles and their distance as a share of the
median, next to the metric's bound, and it keeps every run's result line
and run record.  Run it from the root of a source checkout on an
otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402  (needs the path above)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))
REFERENCE_SEEDS = range(16)
TRACE_SEED = 7


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(l[len("record: "):]) for l in lines if l.startswith("record: "))
    return {"result": json.loads(lines[-1]), "record": record}


def summarize(runs: list) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "bound": metric["bound"],
        }
    return out


def write_baseline() -> int:
    doc = {"run_seconds": SPEC["run_seconds"], "seeds": SEEDS, "workloads": {}}
    wide = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(one_run(workload, seed, 0))
            print(f"{workload} seed {seed}: correct={runs[-1]['result']['correct']}", flush=True)
        traced = one_run(workload, TRACE_SEED, 1)
        summary = summarize(runs)
        doc["workloads"][workload] = {"summary": summary, "runs": runs, "traced": traced}
        for name, s in summary.items():
            flag = "" if name == "setup_s" or s["spread"] <= s["bound"] / 3 else "  WIDE"
            wide += bool(flag)
            print(f"  {name:14s} median {s['median']:.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}", flush=True)
        if not all(r["result"]["correct"] for r in runs + [traced]):
            wide += 1
            print(f"  {workload}: a run was not correct", flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 1 if wide else 0


def write_reference() -> int:
    """Headline-verdict digests per unit: curated once, the seeded
    workloads for each of ``REFERENCE_SEEDS``."""
    bench_run.require_source()
    import workloads

    reference = {}
    bench_run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench_run.OUT) as tmp:
        for workload in workloads.WORKLOADS.values():
            seeds = REFERENCE_SEEDS if workload.seeded else [0]
            per_seed = reference[workload.name] = {}
            for seed in seeds:
                run = bench_run.Run(workload, seed, Path(tmp))
                run.run_pass(workload.prepare(seed))
                if run.failed:
                    raise SystemExit(f"{workload.name} seed {seed}: {run.problems}")
                key = str(seed) if workload.seeded else "any"
                per_seed[key] = {label: o.digest for label, o in run.first.items()}
                print(f"{workload.name} {key}: {len(run.first)} units", flush=True)
    path = BENCH / "reference_verdicts.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    return write_reference() if args.write_reference else write_baseline()


if __name__ == "__main__":
    sys.exit(main())
