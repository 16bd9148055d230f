"""Import hygiene of the package, checked on its source with ``ast``.

Every name a module imports is used in that module (``__init__.py``
imports to re-export, so it is exempt), and no module reaches into
another module's ``_private`` names.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "aucseg"
MODULES = sorted(SRC.glob("*.py"))


def _imports(tree):
    """(bound name, imported name) for every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(bound for bound, _ in _imports(tree) if bound not in used)
    assert not unused, "%s imports names it never uses: %s" % (path.name, ", ".join(unused))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = sorted(name for _, name in _imports(tree)
                     if any(part.startswith("_") for part in name.split(".")))
    assert not private, "%s imports private names: %s" % (path.name, ", ".join(private))
