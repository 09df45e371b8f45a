"""The failure rule, read from the sources: a step or a sign that the
solver cannot certify raises at once, and nothing in the march or the mu0
search recovers from it.

The modules are parsed by path with ast; nothing is imported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "quasispherical"


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")


@pytest.mark.parametrize("module", ["evolution", "geometry", "mass"])
def test_march_modules_hold_no_try_statement(module):
    tries = [
        node.lineno
        for node in ast.walk(_tree(module))
        if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try)))
    ]
    assert tries == [], f"{module}.py has a try statement at line(s) {tries}"


def test_the_only_handler_in_bartnik_is_probe_mass_not_converged():
    tree = _tree("bartnik")
    # Walking each top-level function finds the handlers of nested ones too.
    owned = [
        (func.name, ast.unparse(node.type))
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.ExceptHandler)
    ]
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    assert owned == [("_probe_mass", "NotConvergedError")]
    assert len(handlers) == 1
