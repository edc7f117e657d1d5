"""The layout rule: the library holds what the CLI and the paper's concepts
need, and test-only oracles live in tests/oracles.py."""

import ast
from pathlib import Path

import qndsim

LIBRARY = sorted(Path(qndsim.__file__).parent.glob("*.py"))

# Public names that no library code uses, each kept for its reason.
DECLARED = {
    "conditioned_state": "paper concept: the field state after phonon outcome m",
    "relative_uncertainty": "paper concept: the sqrt(1 + 1/N) limit of the readout",
    "N_from_temperature": "paper concept: the occupation at a temperature",
    "check_adiabatic_coherences": "paper concept: validity of the adiabatic elimination",
    "field_var_y": "benchmark hook: perfbench/run.py totals its spans",
}


def public_definitions():
    """(module, name) of every public top-level function and class."""
    for path in LIBRARY:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node.name


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
    idle = sorted(f"{module}.{name}" for name, module in defined.items()
                  if name not in used and name not in DECLARED)
    assert idle == [], "used only outside src/: move it to tests/oracles.py or declare it"
    # the list stays true: every declared name exists and still has no caller
    assert sorted(set(DECLARED) - set(defined)) == []
    assert sorted(set(DECLARED) & used) == []
