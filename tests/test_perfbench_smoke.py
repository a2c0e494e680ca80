"""Every benchmark workload runs at smoke size through perfbench/worker.py.

Each run is traced, in a fresh interpreter with one BLAS thread, as the
benchmark runs it.  Exit code 0 means the span-coverage guard held; every
check record must pass.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke_traced(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload,
           "1", "smoke", "1", "smoke-" + workload, ""]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout.splitlines()[-1])["checks"]
    assert checks
    assert [c["name"] for c in checks if not c["pass"]] == []
