"""No dead names in the package: every module of src/ecsim but __init__.py
reads each name it imports, and every function reads each local it assigns
unless the name starts with an underscore. Read with the stdlib `ast`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "ecsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def read_names(tree: ast.AST) -> set[str]:
    """Every name `tree` loads, counting the target of `x += ...`, which reads x."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return names | {node.target.id for node in ast.walk(tree) if isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Name)}


def unread_imports(tree: ast.Module) -> list[str]:
    read = read_names(tree)
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"line {node.lineno}: import {name}")
    return unread


def own_nodes(function: ast.AST):
    """The nodes of `function`'s own body, not those of a function or class nested in it."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(tree: ast.Module) -> list[str]:
    unread = []
    for function in ast.walk(tree):
        if isinstance(function, FUNCTIONS):
            read = read_names(function)  # nested functions read their enclosing locals too
            for node in own_nodes(function):
                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                        and not node.id.startswith("_") and node.id not in read):
                    unread.append(f"line {node.lineno}: {function.name} assigns {node.id}")
    return unread


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unread_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unread_imports(tree) + unread_locals(tree) == []


def test_lint_sees_unread_names():
    tree = ast.parse(
        "import os\nfrom math import pi, tau\n"
        "def f(a):\n    b, c = a\n    d = 1\n    d += 1\n    _e = 2\n    def g():\n        return c\n    return tau, g\n"
    )
    assert unread_imports(tree) == ["line 1: import os", "line 2: import pi"]
    assert unread_locals(tree) == ["line 4: f assigns b"]
