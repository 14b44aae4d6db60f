"""Every top-level import is used, and the package exports what it imports.

Each module of src/superlat/, tests/ and scripts/ is parsed with ast.  A
name bound by a top-level import must be read somewhere in its module, as
a name (the base of an attribute included) or as an entry of __all__.
`from __future__` imports are exempt, and so is an import whose statement
carries `# noqa: F401`.  The package's __init__.py imports to re-export,
so there every imported name must be listed in __all__.

Every private top-level function or class of src/superlat/ (a name with
one leading underscore) must also be read inside src/superlat/: as a
loaded name, as an attribute, or as the name an import brings in.  A
helper left behind by a deletion fails this check, and so does one that
only tests or scripts call (such a helper belongs in tests/helpers.py).
perfbench/ is not scanned.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "superlat"
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in (PACKAGE, ROOT / "tests", ROOT / "scripts")
    for path in folder.glob("*.py")
)


def _parse(module: str) -> tuple[ast.Module, list[str]]:
    source = (ROOT / module).read_text()
    return ast.parse(source), source.splitlines()


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """{bound name: line} of the top-level imports that are not exempt."""
    out = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return out


def _all(tree: ast.Module) -> set[str]:
    """The string entries of a top-level __all__ list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree, lines = _parse(module)
    used = _read_names(tree) | _all(tree)
    unused = [f"{module}:{line} {name}" for name, line in _imported(tree, lines).items() if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_package_exports_every_import():
    module = (PACKAGE / "__init__.py").relative_to(ROOT).as_posix()
    tree, lines = _parse(module)
    missing = sorted(set(_imported(tree, lines)) - _all(tree))
    assert not missing, f"imported by {module} but missing from __all__: {missing}"


def _private_definitions() -> dict[str, str]:
    """{name: module} of the private top-level functions and classes of
    the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.relative_to(ROOT).as_posix()
        for node in _parse(module)[0].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") and not node.name.startswith("__"):
                out[node.name] = module
    return out


def _package_reads() -> set[str]:
    """Every name loaded, attribute named or import alias brought in by
    a module of the package."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rpartition(".")[2])
    return out


def test_every_private_definition_is_read():
    read = _package_reads()
    unread = sorted(f"{module} {name}" for name, module in _private_definitions().items() if name not in read)
    assert not unread, "defined but never read: " + ", ".join(unread)
