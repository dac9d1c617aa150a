"""Source hygiene: every module-level import is used, and the export list is sound."""
import ast
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
