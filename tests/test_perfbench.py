"""Smoke test of the benchmark harness, so that it cannot rot unnoticed,
and a check that the library functions its metrics sum still exist.

Its self-check runs every workload at reduced size, once plain and once
traced (which binds the tracer to the library's call signatures), checks
every output against the closed forms, and compares the moments sweep's
bytes at one and two jobs.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_check_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-check"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]


# names the benchmark still traces that no longer exist: its per-layer
# metrics read 0 for them until perfbench/run.py is repaired
STALE = {"fock.squeeze", "fock.displacement", "threelevel.field_var_y"}


def test_traced_names_are_public_library_functions():
    """Every "module.name" perfbench/run.py passes to total() names a
    function the tracer wraps, a public function of that qndsim module, or
    is on STALE: a renamed function would make its metric read 0 silently."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    names = {arg.value for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "total"
             for arg in node.args if isinstance(arg, ast.Constant)}
    assert "sampler.write_record_csv" in names

    def traced(name):
        module, _, attr = name.partition(".")
        fn = getattr(importlib.import_module(f"qndsim.{module}"), attr, None)
        return (not attr.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == f"qndsim.{module}")
    assert sorted(n for n in names - STALE if not traced(n)) == []
    # the list stays true: each stale name is still summed, and still absent
    assert sorted(STALE - names) == [] and sorted(n for n in STALE if traced(n)) == []
