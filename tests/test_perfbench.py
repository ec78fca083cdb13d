"""The benchmark's self-test: every workload op runs and its oracle accepts it."""

import subprocess
import sys

from conftest import REPO_ROOT


def test_perfbench_selftest():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
