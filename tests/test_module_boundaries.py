"""No module of the package uses another module's private names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "spdconn"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses(source: str) -> list[str]:
    """``from .<mod> import _name`` and ``<mod>._name`` uses in ``source``,
    where ``<mod>`` is a module of the package."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if not (node.level or module.startswith("spdconn")):
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"from {module} import {alias.name}")
                if module in (".", "spdconn"):
                    modules.add(alias.asname or alias.name)
        else:
            for alias in node.names:
                if alias.name.startswith("spdconn."):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = ast.unparse(node.value)
            if owner in modules:
                found.append(f"{owner}.{node.attr}")
    return found


def test_guard_finds_private_uses():
    source = (
        "from .group import _frechet, fit_stack\n"
        "from . import io as sio\n"
        "import spdconn.inference\n"
        "sio._atomic_write_text('a', 'b')\n"
        "spdconn.inference._null_rows(())\n"
        "print(sio.__name__)\n"
    )
    assert private_uses(source) == [
        "from .group import _frechet",
        "sio._atomic_write_text",
        "spdconn.inference._null_rows",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_uses(path.read_text()) == []
