"""The scripts under ``scripts/`` run end to end on a small input.

Each script runs as a subprocess with ``PYTHONPATH=src``, as its usage line
has it, so an import or call shape it relies on must exist in the package.
``payload_drift.py``'s comparison, ``report``, is called in process on two
small in-memory dumps."""

import importlib.util
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


def _payload_drift():
    spec = importlib.util.spec_from_file_location("payload_drift", ROOT / "scripts" / "payload_drift.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _units(chain=0.5, status="holds") -> dict:
    return {"curated/a": {"constants": {"chain_constant": chain, "ratios": [1.0, 2.0]},
                          "tasks.oracle": {"status": status, "values": [3.0]}},
            "pairs/1/b": {"lower_bound": {"values": [0.25, 0.75], "classification": "stable"}}}


def _rows(out: str) -> dict:
    """The table rows of ``report``'s output, keyed by section kind."""
    return {line.split()[0]: line.split()[1:] for line in out.splitlines() if line.startswith("  ")}


def test_payload_drift_reports_identical_dumps_as_no_drift(capsys):
    assert _payload_drift().report(_units(), _units()) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows == {"curated:constants": ["1/1", "0"], "curated:tasks.oracle": ["1/1", "0"],
                    "pairs:lower_bound": ["1/1", "0"]}


def test_payload_drift_reports_a_moved_float_under_its_kind(capsys):
    assert _payload_drift().report(_units(), _units(chain=0.5 * (1.0 + 2.0**-40))) == 0
    out = capsys.readouterr().out
    rows = _rows(out)
    assert rows["curated:constants"][:3] == ["0/1", "9.09e-13", "at"]
    assert rows["curated:constants"][3] == "curated/a/constants.chain_constant"
    assert rows["curated:tasks.oracle"] == rows["pairs:lower_bound"] == ["1/1", "0"]
    assert "verdict changes: 0" in out


def test_payload_drift_fails_on_a_changed_status(capsys):
    assert _payload_drift().report(_units(), _units(status="fails")) == 1
    out = capsys.readouterr().out
    assert "VERDICT CHANGED: curated/a/tasks.oracle.status: 'holds' -> 'fails'" in out
    assert "verdict changes: 1" in out
