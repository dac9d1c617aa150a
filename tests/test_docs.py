"""The README's library overview names only what its modules provide."""
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")
EXEMPT = {"dglcalc"}  # the command, named in the `dglcalc.cli` row


def overview_rows():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`dglcalc."):
            yield cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])


def _resolves(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def documented(module, name: str) -> bool:
    """`name` is an attribute of the module, or of a class defined in it: the
    fields of a namedtuple record and the `__slots__` of the others are class
    attributes too."""
    if _resolves(module, name):
        return True
    classes = [
        v for v in vars(module).values()
        if isinstance(v, type) and v.__module__ == module.__name__
    ]
    return any(_resolves(cls, name) for cls in classes)


def test_overview_covers_every_module():
    modules = [name for name, _ in overview_rows()]
    package = Path(__file__).resolve().parent.parent / "src" / "dglcalc"
    expected = sorted(
        f"dglcalc.{p.stem}" for p in package.glob("*.py") if p.stem not in ("__init__", "errors")
    )
    assert sorted(modules) == expected


def test_overview_identifiers_exist():
    missing = []
    for module_name, names in overview_rows():
        module = importlib.import_module(module_name)
        for name in names:
            if name in EXEMPT or not IDENTIFIER.fullmatch(name):
                continue
            if not documented(module, name):
                missing.append(f"{module_name}: {name}")
    assert not missing
