"""The serving code loads no test oracle.

``repro.core.ranking.reference`` and ``repro.core.scheduling.reference``
hold the scalar specifications the differential tests pin the
vectorized code to, and ``repro.net.reference`` holds the original
message codec the fast one must match byte for byte. Only tests,
benchmarks and the ablation experiments import them; importing the
server, the load generator or the fault harness must not. The check runs in a fresh interpreter, so modules
other tests imported do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

PROBE = """
import sys
import repro.server, repro.sim.loadgen, repro.sim.faults
for name in sorted(sys.modules):
    if name.startswith("repro.") and name.endswith(".reference"):
        print(name)
"""


def test_serving_imports_load_no_oracle_module():
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == []
