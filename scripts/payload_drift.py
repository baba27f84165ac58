#!/usr/bin/env python3
"""Compare the result payloads of two blochlab source trees.

Each tree is imported in its own subprocess, which dumps:

* the results payload of every curated config, run at its own grid;
* for each given seed, the payload of every ``random_pairs`` pair: the
  classifier's ``bounded_bloch`` group, the lower-bound trend and
  compactness probe of ``oracle_task`` and the trend of
  ``lower_bound_trend`` alone at 12x128x8, and both dual-evaluation limit
  probes at 16x128x8 (the grids of acceptance criteria 8 and 9);
* with ``--deep``, for each given seed, the results payload of every config
  of the tree's own ``bench/workloads.deep_config_texts(seed)`` (the
  ``deep-classify`` benchmark units), with the SHA-256 of its canonical
  bytes.  This needs both trees to be checkouts; ``bench/`` is only read;
* the ``constants_battery`` of ``bergman:2`` and of ``bergman:2`` with a
  ``log_exponent = -1`` weight at 40x2048x12, a grid whose quadrature runs
  in many blocks, every value as ``float.hex``;
* the results payload of the curated ``half-scale`` and ``boundary-touch``
  symbols run with the tasks ``bounded_bloch`` and ``oracle`` at
  40x2048x12, whose sample table and oracle grid stage run in blocks of
  circles (the curated grids are one block each);
* the SHA-256 of every file ``emit`` writes (JSON and CSV, ``meta``
  blanked) for each curated and each ``--deep`` config;
* the number of CPUs the child may run on and, for each ``--deep``
  config, the number of blocks its sample table was sampled in.

The payloads are compared section by section (a curated task entry, the
constants block, one part of a pair payload, one battery value).  The
script prints one table row per section kind (``curated:constants``,
``pairs:lower_bound``, ...): how many of its sections are byte-identical
and the largest relative drift of any float in them, with its path.  It
then prints every verdict change (a battery value that differs is printed
as changed); then how many
emitted files are byte-identical, naming each that is not; then each
tree's CPU count and deep tables by block count, which shows whether a
byte-identity run crossed the multi-block path.  Exit status
is 1 when a verdict changed, 2 when a tree could not be dumped, and 0
otherwise.  Last, it prints the ``wc -l`` line count of each tree's
``blochlab/*.py`` files and their totals.

Usage:
    python scripts/payload_drift.py OLD_SRC NEW_SRC [--seeds 3,7,11] [--count 20] [--deep 1,2,3]

``OLD_SRC`` and ``NEW_SRC`` are ``src`` directories, or checkouts with one.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

# fields whose change is a change of verdict, not of a measured value
VERDICT_KEYS = frozenset({"overall", "decided", "status", "vacuous", "classification",
                          "trend", "agreement", "agree", "kind", "error"})


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def source_dir(path: str) -> Path:
    """The directory holding the ``blochlab`` package: ``path`` or ``path/src``."""
    for candidate in (Path(path), Path(path) / "src"):
        if (candidate / "blochlab" / "__init__.py").is_file():
            return candidate.resolve()
    fail(f"no blochlab package under {path}")


def workloads_file(path: str) -> Path:
    """The ``bench/workloads.py`` of the checkout at ``path``."""
    found = Path(path) / "bench" / "workloads.py"
    if not (found.is_file() and (Path(path) / "src" / "blochlab" / "__init__.py").is_file()):
        fail(f"--deep needs checkouts; no bench/workloads.py and src/blochlab under {path}")
    return found.resolve()


def emitted_hashes(cli, report) -> dict:
    """SHA-256 of each file ``emit`` writes for ``report`` as JSON and CSV,
    keyed by file name, with ``meta`` (wall clock, page faults) blanked."""
    report.meta = {}
    with tempfile.TemporaryDirectory() as out:
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in cli.emit(report, out, ("json", "csv"))}


def dump(src: Path, seeds: list, count: int, deep_seeds: list, workloads) -> dict:
    """Every payload of the tree at ``src``, keyed by unit, and the hash of
    every emitted file, keyed by unit and file name; runs in the child."""
    sys.path.insert(0, str(src))
    import blochlab
    from blochlab import NormalWeight, RadialGrid, SpaceSpec, cli, criteria, oracle
    from blochlab.battery import CURATED, random_pairs

    if Path(blochlab.__file__).resolve().parent != src / "blochlab":
        fail(f"imported blochlab from {blochlab.__file__}, not from {src}")
    units, files = {}, {}
    for name, entry in CURATED.items():
        report = cli.run(cli.parse_config(json.loads(json.dumps(entry["config"]))))
        results = report.results
        units[f"curated/{name}"] = dict({f"tasks.{task}": e for task, e in results["tasks"].items()},
                                        **{k: v for k, v in results.items() if k != "tasks"})
        files.update({f"curated/{name}/{file}": h for file, h in emitted_hashes(cli, report).items()})
    space, mesh, probe_mesh = SpaceSpec.bergman(2), RadialGrid(12, 128, 8), RadialGrid(16, 128, 8)
    for seed in seeds:
        for label, sym in random_pairs(seed, count):
            trend, probe, _ = oracle.oracle_task(sym, space, mesh)
            table = criteria.SampleTable(sym, space, probe_mesh)
            units[f"pairs/{seed}/{label}"] = {
                "bounded_bloch": criteria.classify_bounded_into_bloch(sym, space, mesh).to_dict(),
                "lower_bound": trend.to_dict(),
                "lower_bound_alone": oracle.lower_bound_trend(sym, space, mesh).to_dict(),
                "compactness_probe": probe.to_dict(),
                "derivative_limit": table.derivative_limit_probe().to_dict(),
                "composition_limit": table.composition_limit_probe().to_dict(),
            }
    deep = RadialGrid(40, 2048, 12)
    for name, battery_space in (("bergman2", space), ("bergman2-log-1", SpaceSpec(2.0, NormalWeight(0.5, -1.0)))):
        battery = oracle.constants_battery(battery_space, deep)
        units[f"battery/{name}"] = {
            "norms": [float(n).hex() for n in battery.norms],
            **{key: [float(v).hex() for v in value] if isinstance(value, list) else float(value).hex()
               for key, value in battery.to_dict().items()}}
    for name in ("half-scale", "boundary-touch"):
        doc = dict(json.loads(json.dumps(CURATED[name]["config"])), tasks=["bounded_bloch", "oracle"],
                   grid={"depth": deep.depth, "angular_nodes": deep.angular_nodes, "panel_order": deep.panel_order})
        results = cli.run(cli.parse_config(doc)).results
        units[f"deep-oracle/{name}"] = dict({f"tasks.{task}": e for task, e in results["tasks"].items()},
                                            **{k: v for k, v in results.items() if k != "tasks"})
    blocks = {}
    if deep_seeds:
        spec = importlib.util.spec_from_file_location("bench_workloads", workloads)
        bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
        spec.loader.exec_module(bench)
        each_block, tables = criteria._each_block, []

        def counted(edges, fill):
            tables.append(len(edges) - 1)
            return each_block(edges, fill)

        criteria._each_block = counted
        for seed in deep_seeds:
            for label, text in bench.deep_config_texts(seed):
                tables.clear()
                report = cli.run(cli.parse_config(text))
                blocks[f"deep/{seed}/{label}"] = list(tables)
                units[f"deep/{seed}/{label}"] = dict(
                    {f"tasks.{task}": e for task, e in report.results["tasks"].items()},
                    payload_sha256=hashlib.sha256(report.results_payload()).hexdigest(),
                    **{k: v for k, v in report.results.items() if k != "tasks"})
                files.update({f"deep/{seed}/{label}/{file}": h for file, h in emitted_hashes(cli, report).items()})
    return {"units": units, "files": files, "blocks": blocks, "cpus": cpu_count()}


def cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def dump_in_subprocess(src: Path, seeds: list, count: int, deep_seeds: list = (), workloads=None) -> dict:
    # no bytecode: the child imports bench/workloads.py and must leave bench/ as it found it
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, __file__, "--dump", str(src), "--seeds", ",".join(map(str, seeds)),
           "--count", str(count)]
    if deep_seeds:
        cmd += ["--deep", ",".join(map(str, deep_seeds)), "--workloads", str(workloads)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        fail(f"dumping {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def compare(old, new, path: str, found: dict, kind: str) -> None:
    """Walk two payloads of section kind ``kind`` together, recording the
    worst float drift of the kind and every other difference under ``found``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            where = f"{path}.{key}"
            if key not in old or key not in new:
                found["changes"].append((key, where, old.get(key), new.get(key)))
            else:
                compare(old[key], new[key], where, found, kind)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            compare(a, b, f"{path}[{i}]", found, kind)
    elif isinstance(old, float) and isinstance(new, float):
        if old == new or (math.isnan(old) and math.isnan(new)):
            return
        scale = max(abs(old), abs(new))
        drift = abs(old - new) / scale if math.isfinite(scale) else math.inf
        if drift > found["drift"][kind][0]:
            found["drift"][kind] = (drift, path, old, new)
    elif old != new or type(old) is not type(new):
        found["changes"].append((path.rsplit(".", 1)[-1].split("[")[0], path, old, new))


def line_counts(src: Path) -> dict:
    """``wc -l`` of each ``blochlab/*.py`` under ``src``: its newline count."""
    return {path.name: path.read_bytes().count(b"\n") for path in sorted((src / "blochlab").glob("*.py"))}


def print_line_counts(old_src: Path, new_src: Path) -> None:
    old, new = line_counts(old_src), line_counts(new_src)
    names = sorted(set(old) | set(new))
    width = max(len(name) for name in names + ["total"])
    print("lines (wc -l blochlab/*.py):")
    print(f"  {'':<{width}}  {'old':>6}  {'new':>6}  {'delta':>6}")
    rows = [(name, old.get(name, 0), new.get(name, 0)) for name in names]
    rows.append(("total", sum(old.values()), sum(new.values())))
    for name, a, b in rows:
        print(f"  {name:<{width}}  {a:>6}  {b:>6}  {b - a:>+6}")


def report_files(old_files: dict, new_files: dict) -> None:
    names = sorted(set(old_files) | set(new_files))
    differ = [name for name in names if old_files.get(name) != new_files.get(name)]
    print(f"byte-identical emitted files: {len(names) - len(differ)}/{len(names)}")
    for name in differ:
        print(f"emitted file differs: {name}")


def report_blocks(trees: list) -> None:
    """Each tree's CPU count and its deep tables by block count."""
    for name, dumped in trees:
        counts = Counter(n for unit in dumped["blocks"].values() for n in unit)
        tables = ", ".join(f"{count} in {n} block{'s' * (n != 1)}" for n, count in sorted(counts.items())) or "none"
        multi = "taken" if any(n > 1 for n in counts) else "not taken"
        print(f"{name}: {dumped['cpus']} CPUs; deep tables: {tables}; multi-block path {multi}")


def report(old_units: dict, new_units: dict) -> int:
    found = {"drift": defaultdict(lambda: (0.0, None, None, None)), "changes": []}
    identical, total = defaultdict(int), defaultdict(int)
    for unit in sorted(set(old_units) | set(new_units)):
        if unit not in old_units or unit not in new_units:
            print(f"unit only in one tree: {unit}")
            found["changes"].append(("unit", unit, unit in old_units, unit in new_units))
            continue
        old, new = old_units[unit], new_units[unit]
        for section in sorted(set(old) | set(new)):
            kind = f"{unit.split('/')[0]}:{section}"
            total[kind] += 1
            a, b = old.get(section), new.get(section)
            if json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True):
                identical[kind] += 1
            else:
                compare(a, b, f"{unit}/{section}", found, kind)
    print("sections by kind: byte-identical, largest relative float drift")
    width = max(len(kind) for kind in total)
    for kind in sorted(total):
        drift, where, a, b = found["drift"][kind]
        at = "" if where is None else f" at {where} ({a!r} -> {b!r})"
        print(f"  {kind:<{width}}  {identical[kind]}/{total[kind]}  {drift:.3g}{at}")
    verdicts = [c for c in found["changes"] if c[0] in VERDICT_KEYS or c[0] == "unit"]
    others = [c for c in found["changes"] if c not in verdicts]
    for _, where, a, b in others:
        print(f"changed: {where}: {a!r} -> {b!r}")
    for _, where, a, b in verdicts:
        print(f"VERDICT CHANGED: {where}: {a!r} -> {b!r}")
    print(f"verdict changes: {len(verdicts)}")
    return 1 if verdicts else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--seeds", default="3,7,11", help="comma-separated random_pairs seeds")
    parser.add_argument("--count", type=int, default=20, help="pairs per seed")
    parser.add_argument("--deep", default="", help="comma-separated deep_config_texts seeds (checkouts only)")
    parser.add_argument("--dump", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--workloads", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s]
    deep_seeds = [int(s) for s in args.deep.split(",") if s]
    if args.dump:
        json.dump(dump(Path(args.dump), seeds, args.count, deep_seeds, args.workloads), sys.stdout)
        return 0
    if not (args.old_src and args.new_src):
        parser.error("OLD_SRC and NEW_SRC are required")
    trees = [(source_dir(path), workloads_file(path) if deep_seeds else None)
             for path in (args.old_src, args.new_src)]
    old, new = (dump_in_subprocess(src, seeds, args.count, deep_seeds, workloads) for src, workloads in trees)
    status = report(old["units"], new["units"])
    report_files(old["files"], new["files"])
    report_blocks([("old", old), ("new", new)])
    print_line_counts(trees[0][0], trees[1][0])
    return status


if __name__ == "__main__":
    sys.exit(main())
