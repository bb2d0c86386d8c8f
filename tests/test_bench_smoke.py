"""One short traced benchmark operation per workload, in a fresh
process as ``bench/run.py`` runs it: ``--trace`` installs every hook in
``bench/hooks.py``, so a library attribute they patch that is gone fails here."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# The acceptance packets that the benchmark's seeded packets sit around.
PACKETS = {
    "nambu_hh": {"qc": [0.0, 1.0], "pc": [0.0, 1.0]},
    "nambu_dense": {"qc": [0.0, 1.0], "pc": [0.0, 1.0]},
    "quantum_2d": {"qc": [0.0, 1.0], "pc": [0.0, 1.0]},
    "harmonic_exact": {"qc": [1.0], "pc": [0.0]},
}


@pytest.mark.parametrize("workload", sorted(PACKETS))
def test_bench_operation_runs_ok(workload, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [
        sys.executable, str(ROOT / "bench" / "op.py"),
        "--workload", workload, "--packet", json.dumps(PACKETS[workload]),
        "--scale", "0.01", "--trace", "--work", str(tmp_path),
        "--t0", str(time.monotonic_ns()),
    ]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["fails"] == []
    assert result["ok"] is True
    # The grid workload makes split steps only, the others RK4 steps.
    steps = "quantum.strang_steps" if workload == "quantum_2d" else "dynamics.steps"
    assert result["layers"][steps] > 0
