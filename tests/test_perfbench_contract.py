"""The benchmark still runs against the program.

``perfbench/run.py`` times the sweep by wrapping program functions by name
and checks the program's outputs against its own reference code. A rename
or a changed return value shows up there as an ``is missing`` or ``check
failed`` line, or as a failed round, so run one short traced round of three
sampler workloads and of the estimator workload: a short grid, a long one
that takes the blocked forward filter, and a 20-state one that takes the
segment loop through the kernel-power table.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["short_window", "long_window", "dense_states", "replicates"])
def test_traced_run_is_correct_and_complete(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    for line in proc.stderr.splitlines():
        assert "is missing" not in line and "check failed" not in line, line
