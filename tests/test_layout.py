"""The layout rule: the library holds what the CLI runs, test-only oracles
live in tests/oracles.py, and every third-party module the library
imports is a declared dependency."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qndsim

LIBRARY = sorted(Path(qndsim.__file__).parent.glob("*.py"))

# Public names that no library code uses, each kept for its reason: none is.
DECLARED = {}


def public_definitions():
    """(module, name) of every public top-level function and class, and
    (module, Class.name) of every public method and property of those
    classes."""
    for path in LIBRARY:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path.stem, node.name
            members = node.body if isinstance(node, ast.ClassDef) else []
            yield from ((path.stem, f"{node.name}.{m.name}") for m in members
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def library_references():
    """Every name and attribute that library code reads, outside the
    top-level definition of that same name."""
    used = set()
    for path in LIBRARY:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
            used |= names - {getattr(top, "name", None)}  # a definition does not use itself
    return used


def test_every_public_name_is_used_by_the_library_or_declared():
    used = library_references()
    defined = dict((name, module) for module, name in public_definitions())
    # a method or property counts as used when library code reads its attribute name
    called = {name for name in defined if name.rpartition(".")[2] in used}
    idle = sorted(f"{module}.{name}" for name, module in defined.items()
                  if name not in called and name not in DECLARED)
    assert idle == [], "used only outside src/: move it to tests/oracles.py or declare it"
    # the list stays true: every declared name exists and still has no caller
    assert sorted(set(DECLARED) - set(defined)) == []
    assert sorted(set(DECLARED) & called) == []


def test_checks_raise_value_errors_and_warn_nothing():
    """A check reports by raising ValueError (or a subclass) or by a value
    returned to its caller: no module imports warnings or raises RuntimeError."""
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        raised = {name.id for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc
                  for name in ast.walk(node.exc) if isinstance(name, ast.Name)}
        assert "warnings" not in imported, path.name
        assert "RuntimeError" not in raised, path.name


def test_cli_keeps_each_experiment_and_convention_in_one_table():
    """cli.py compares neither an experiment nor a convention against a
    string literal: each experiment's schema, point builder and runner, and
    each convention's constant and map, are one table entry."""
    def names(node):
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.Attribute):
            return {node.attr}
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            return {node.slice.value}
        return set()

    def literal(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(item, ast.Constant) and isinstance(item.value, str)
                   for item in items)

    tree = ast.parse((Path(qndsim.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    branches = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and {"experiment", "convention"} & set().union(*map(names, [node.left,
                                                                            *node.comparators]))
                and any(map(literal, [node.left, *node.comparators]))]
    assert branches == []


def test_the_thermal_law_lives_in_fock():
    """Outside fock.py no library module reads THERMAL_TAIL, names a
    geometric draw or divides by an N + 1 sum: the law's tail rule, its
    draw and its weight 1/(N+1) are fock.ThermalLaw's, read as p.law. A
    product such as var_Y's N (N + 1) is no weight and stays allowed."""
    def n_plus_one(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and any(
            getattr(side, "id", getattr(side, "attr", None)) == "N"
            for side in (node.left, node.right))

    found = {}
    for path in LIBRARY:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (getattr(node, "id", getattr(node, "attr", None)) in ("THERMAL_TAIL", "geometric")
                    or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and n_plus_one(node.right)):
                found.setdefault(path.stem, []).append(f"{node.lineno}: {ast.unparse(node)}")
    assert "fock" in found  # the walk sees the law where it lives
    assert {module: lines for module, lines in found.items() if module != "fock"} == {}


def test_every_third_party_import_is_a_declared_dependency():
    """A module the library imports is in the standard library or named in
    pyproject.toml's [project] dependencies: orjson cannot go undeclared,
    and a test-only package such as scipy cannot creep back into src/."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = {re.match(r"[\w.-]+", dep)[0].lower().replace("-", "_")
                for dep in tomllib.loads(pyproject.read_text(encoding="utf-8"))
                ["project"]["dependencies"]}
    imported = set()
    for path in LIBRARY:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    assert sorted(third_party - declared) == []
    assert "numpy" in third_party  # the walk sees the library's imports


def fresh_interpreter(code, **env):
    """stdout of code run by a new interpreter whose environment has no
    OPENBLAS_NUM_THREADS besides what env sets and turns warnings into errors."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base.update(PYTHONPATH=str(Path(qndsim.__file__).resolve().parents[1]), PYTHONWARNINGS="error")
    return subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, check=True).stdout.strip()


def test_importing_the_cli_loads_neither_the_process_pool_nor_scipy():
    """A CLI run starts a fresh interpreter: a one-process run pays for no
    pool import, and no run loads the test-only scipy."""
    probe = ("import sys, qndsim.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'scipy') if m in sys.modules))")
    assert fresh_interpreter(probe) == "[]"


def test_importing_the_cli_starts_no_blas_threads():
    """The CLI computes on one thread (--jobs is its only parallelism), so
    it starts none of the OpenBLAS workers that spin after every call."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("needs /proc/self/task to count threads")
    probe = "import os, qndsim.cli; print(len(os.listdir('/proc/self/task')))"
    assert fresh_interpreter(probe) == "1"


def test_a_callers_blas_thread_count_is_kept():
    probe = "import os, qndsim.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_interpreter(probe, OPENBLAS_NUM_THREADS="2") == "2"


def test_only_the_cli_touches_the_environment():
    """A program that imports the library modules keeps its BLAS threads:
    only cli.py reads or writes os.environ."""
    probe = ("import os, qndsim.fock, qndsim.threelevel; "
             "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert fresh_interpreter(probe) == "None"
    touching = sorted(path.stem for path in LIBRARY if "environ" in {
        getattr(node, "id", getattr(node, "attr", None))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))})
    assert touching == ["cli"]


def test_only_the_cli_writes_files():
    """One write path: no library module but cli.py calls open, write_bytes
    or write_text, so every artifact reaches its file through the CLI's
    sink, which hashes and counts what it writes."""
    writing = sorted(path.stem for path in LIBRARY if {"open", "write_bytes", "write_text"} & {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)})
    assert writing == ["cli"]
