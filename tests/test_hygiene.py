"""Source hygiene, read with ``ast``: no unused imports, the shared test
oracles import only the package's public names, the chaos oracle loads no
block code at run time, and no module of the package reaches
``numpy.linalg`` or imports ``fractions`` or ``decimal``."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import levyfock

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "levyfock").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read, nor listed in ``__all__``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_detected():
    tree = ast.parse("import os\nfrom math import pi, tau\n__all__ = ['tau']\n")
    assert unused_imports(tree) == ["os (line 1)", "pi (line 2)"]


def test_conftest_imports_only_public_names():
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[0] == "levyfock"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("levyfock"):
            prefix = "" if node.module == "levyfock" else f"{node.module}."
            imported += [prefix + a.name for a in node.names]
    assert imported
    assert [name for name in imported if name not in levyfock.__all__] == []


def runtime_imports(tree: ast.Module) -> list[str]:
    """Dotted names imported outside ``if TYPE_CHECKING:`` blocks, relative
    ones with their leading dots."""
    guarded = {
        id(node)
        for branch in ast.walk(tree)
        if isinstance(branch, ast.If) and ast.unparse(branch.test).endswith("TYPE_CHECKING")
        for statement in branch.body
        for node in ast.walk(statement)
    }
    names = []
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (f"{node.module}." if node.module else "")
            names += [module + a.name for a in node.names]
    return names


def block_code(names: list[str]) -> list[str]:
    return [name for name in names if {"fock", "jacobi"} & set(name.split("."))]


def test_oracle_imports_no_block_code():
    sample = ast.parse(
        "from typing import TYPE_CHECKING\nfrom . import jacobi\nfrom .fock import F\n"
        "if TYPE_CHECKING:\n    from levyfock.fock import G\n"
    )
    assert block_code(runtime_imports(sample)) == [".jacobi", ".fock.F"]
    moments = ROOT / "src" / "levyfock" / "moments.py"
    assert block_code(runtime_imports(ast.parse(moments.read_text(encoding="utf-8")))) == []


def linalg_uses(tree: ast.Module) -> list[str]:
    """Attribute reads of a ``linalg`` module, then imports of one."""
    reads = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "linalg"
    ]
    return reads + [name for name in runtime_imports(tree) if "linalg" in name.split(".")]


def test_package_uses_no_linalg():
    # the diagonal oracle needs no factorization and the gamma rule comes
    # from its own recurrence, so no command pages in LAPACK
    sample = ast.parse("import numpy as np\nfrom numpy import linalg\nx = np.linalg.solve(a, b)\n")
    assert linalg_uses(sample) == ["np.linalg", "numpy.linalg"]
    uses = {
        path.name: linalg_uses(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "src" / "levyfock").glob("*.py"))
    }
    assert "measures.py" in uses
    assert {name: found for name, found in uses.items() if found} == {}


def exact_arithmetic_imports(tree: ast.Module) -> list[str]:
    """Imports of ``fractions`` or ``decimal``, function-local ones too."""
    modules = {"fractions", "decimal"}
    return [name for name in runtime_imports(tree) if name.split(".")[0] in modules]


def test_package_imports_no_fractions_or_decimal():
    # the oracle's exact weights are integer arithmetic; fractions would
    # page in decimal's C extension on every oracle-check
    sample = ast.parse(
        "import decimal\ndef f():\n    from fractions import Fraction\nfrom .fractions import g\n"
    )
    assert exact_arithmetic_imports(sample) == ["decimal", "fractions.Fraction"]
    uses = {
        path.name: exact_arithmetic_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "src" / "levyfock").glob("*.py"))
    }
    assert "moments.py" in uses
    assert {name: found for name, found in uses.items() if found} == {}
