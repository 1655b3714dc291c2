"""Source hygiene, read with ``ast``: no unused imports, no private name
the package never reads, no process-wide cache keyed by anything but
integers, the shared test oracles import only the package's public names,
the chaos oracle loads no block code at run time, and no module of the
package reaches ``numpy.linalg`` or imports ``fractions`` or ``decimal``."""
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


def unread_private_names(trees: list[ast.Module]) -> list[str]:
    """``_``-prefixed functions, methods, classes and module constants of
    ``trees`` that no code of ``trees`` reads outside their own definition."""
    definitions = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((node.name, node))
        for node in tree.body:  # module constants, annotated or not
            if isinstance(node, ast.Assign):
                definitions += [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                definitions.append((node.target.id, node))
    private: dict[str, set[int]] = {}  # name -> ids of the nodes of its definitions
    for name, node in definitions:
        if name.startswith("_") and not name.startswith("__"):
            private.setdefault(name, set()).update(map(id, ast.walk(node)))
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in private and isinstance(node.ctx, ast.Load) and id(node) not in private[name]:
                read.add(name)
    return sorted(set(private) - read)


def test_unread_private_name_detected():
    tree = ast.parse(
        "_USED = 1\n_UNUSED: int = 2\n"
        "def _recursive(n):\n    return _recursive(n - 1) + _USED\n"
        "class _Kept:\n    def _method(self):\n        return self._other()\n"
        "    def _other(self):\n        return 0\n"
        "x = _Kept()\n"
    )
    assert unread_private_names([tree]) == ["_UNUSED", "_method", "_recursive"]


def test_package_reads_every_private_name():
    # code that only tests call is deleted, private helpers included
    sources = sorted((ROOT / "src" / "levyfock").glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sources]
    assert unread_private_names(trees) == []


CACHES = {"lru_cache", "cache"}
INTEGER_ANNOTATIONS = {"int", "int | None"}


def cached_non_integer_parameters(tree: ast.Module) -> tuple[list[str], list[str]]:
    """Functions decorated with ``functools.lru_cache`` or ``functools.cache``,
    and those of their parameters not annotated as an integer (or an
    optional one), as ``name(parameter: annotation)``."""
    cached, bad = [], []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(ast.unparse(d).split(".")[-1] in CACHES for d in decorators):
            continue
        cached.append(node.name)
        args = node.args
        named = [(a, "") for a in args.posonlyargs + args.args + args.kwonlyargs]
        starred = [(a, "*") for a in (args.vararg,) if a] + [(a, "**") for a in (args.kwarg,) if a]
        for arg, star in named + starred:
            annotation = ast.unparse(arg.annotation) if arg.annotation else None
            if star or annotation not in INTEGER_ANNOTATIONS:
                bad.append(f"{node.name}({star}{arg.arg}: {annotation})")
    return cached, bad


def test_non_integer_cache_key_detected():
    sample = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(n: int, cap: int | None = None): ...\n"
        "@functools.lru_cache\ndef b(grid: GridSpace, m: int): ...\n"
        "@cache\ndef c(m, *rest: int): ...\n"
        "def d(grid: GridSpace): ...\n"
    )
    assert cached_non_integer_parameters(sample) == (
        ["a", "b", "c"],
        ["b(grid: GridSpace)", "c(m: None)", "c(*rest: int)"],
    )


def test_package_caches_are_keyed_by_integers():
    # a process-wide cache keyed by a grid or a space would keep them alive
    # for the whole process; per-space state lives on the space
    cached = []
    for path in sorted((ROOT / "src" / "levyfock").glob("*.py")):
        names, bad = cached_non_integer_parameters(ast.parse(path.read_text(encoding="utf-8")))
        assert bad == [], path.name
        cached += names
    assert {"sorted_tuple_count", "_rank_terms"} <= set(cached)


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
