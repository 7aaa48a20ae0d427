"""The package is a one-way stack of modules.

Each module imports only modules below it in the order
model < instances, propagation < heuristics < search < harness < cli, with
__init__ on top, and only at module level, so no import cycle can hide
inside a function.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "macsolver"
LEVEL = {
    "model": 0,
    "instances": 1,
    "propagation": 1,
    "heuristics": 2,
    "search": 3,
    "harness": 4,
    "cli": 5,
    "__init__": 6,
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def relative_imports(module):
    """(imported module, line, inside a function) for each relative import."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level > 0:
                if child.module:  # from .model import X
                    names = [child.module.split(".")[0]]
                else:  # from . import model
                    names = [alias.name for alias in child.names]
                found.extend((name, child.lineno, in_function) for name in names)
            visit(child, in_function or isinstance(child, FUNCTIONS))

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), False)
    return found


def test_every_module_has_a_level():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(LEVEL)


@pytest.mark.parametrize("module", sorted(LEVEL))
def test_imports_point_down(module):
    upward = [
        (name, line)
        for name, line, _ in relative_imports(module)
        if LEVEL[name] >= LEVEL[module]
    ]
    assert upward == [], f"{module} imports modules at or above its level"


@pytest.mark.parametrize("module", sorted(LEVEL))
def test_no_import_inside_a_function(module):
    local = [(name, line) for name, line, inside in relative_imports(module) if inside]
    assert local == [], f"{module} imports inside a function"
