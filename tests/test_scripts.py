"""The scripts under ``scripts/`` run end to end on a small input.

Each script runs as a subprocess with ``PYTHONPATH=src``, as its usage line
has it, so an import or call shape it relies on must exist in the package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_run_battery_passes_every_pair(tmp_path):
    done = _run_script("run_battery.py", "--count", "6", "--out", str(tmp_path / "battery"), cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "failed: 0/6 pairs"


def test_kernel_norm_sweep_writes_its_csv(tmp_path):
    out = tmp_path / "k.csv"
    done = _run_script("kernel_norm_sweep.py", "--max-depth", "4", "--out", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert out.read_text().splitlines()[0] == (
        "depth,base_modulus,family_norm,generic_norm,pointwise_envelope_ratio,derivative_envelope_ratio"
    )
