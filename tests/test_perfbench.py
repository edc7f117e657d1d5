"""Smoke test of the benchmark harness, so that it cannot rot unnoticed.

Its self-check runs every workload at reduced size, once plain and once
traced (which binds the tracer to the library's call signatures), checks
every output against the closed forms, and compares the moments sweep's
bytes at one and two jobs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_check_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-check"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
