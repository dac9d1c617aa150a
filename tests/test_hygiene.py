"""Source hygiene: every module-level import is used, every private function is
referenced, the export list is sound, and importing the CLI generates no code."""
import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import dglcalc

SRC = Path(dglcalc.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict:
    """Name bound -> line, for each top-level import of a module."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_all_has_no_duplicates():
    assert len(dglcalc.__all__) == len(set(dglcalc.__all__))


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from dglcalc import *", namespace)
    missing = [name for name in dglcalc.__all__ if name not in namespace]
    assert not missing


def _private_functions(tree: ast.Module):
    """The private functions of a module, at module level or in a class."""
    for node in tree.body:
        for item in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name.startswith("_") and not item.name.endswith("__"):
                    yield item


def _references(node) -> Counter:
    """Names that a subtree reads: bare names, attributes and imported names."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def test_every_private_function_is_referenced():
    """A retired helper must be deleted, not left defined and never called.
    A function's references to itself, as in recursion, do not count."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [
        f"{name}:{fn.name}"
        for name, tree in trees.items()
        for fn in _private_functions(tree)
        if used[fn.name] - _references(fn)[fn.name] <= 0
    ]
    assert not unused, f"private functions nothing references: {unused}"


def test_importing_the_cli_loads_no_code_generators():
    """A fresh `import dglcalc.cli` loads neither `dataclasses` nor `inspect`.

    A `@dataclass` writes and execs the source of its methods when its class
    is created, which every fresh process pays; the package's records are
    namedtuples or plain `__slots__` classes instead.  `-S` keeps `site` and
    whatever it imports out of the check."""
    code = "import sys, dglcalc.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
