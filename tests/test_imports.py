"""Every name a module imports at top level is used in that module.

A stdlib-only stand-in for a linter's unused-import rule: each module of
the package is parsed, and every name bound by a top-level ``import`` or
``from ... import`` must appear as a name somewhere in the module's code.
``__init__.py`` is exempt, since its imports are the public re-exports.

Every module imports only at top level: the package's modules import
one another without a cycle, so no import needs to wait inside a
function.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sigmacat"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@cache
def parsed(module: str) -> ast.Module:
    return ast.parse((PACKAGE / module).read_text(), module)


def imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("module", MODULES)
def test_top_level_imports_are_used(module):
    tree = parsed(module)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [name for name in imported_names(tree) if name not in used]
    assert not unused, f"{module} never uses: {', '.join(unused)}"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_imports_sit_at_top_level(module):
    tree = parsed(module)
    inner = [f"line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and node not in tree.body]
    assert not inner, f"{module} imports inside a function at {', '.join(inner)}"
