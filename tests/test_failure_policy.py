"""The failure rule, read from the sources: a step or a sign that the
solver cannot certify raises at once, and nothing in the march or the mu0
search recovers from it.  The march has one scheme, so no code chooses
between schemes.

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


def _identifiers(node):
    """Every name, attribute, import alias, class and function under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, (ast.ClassDef, ast.FunctionDef)):
            yield sub.name


def test_the_march_reads_no_scheme():
    # One marching scheme: SolverConfig accepts its name as an InitVar and
    # checks it, and no other code names it.
    places = []
    for node in _tree("evolution").body:
        owner = ""
        parts = [node]
        if isinstance(node, ast.ClassDef) and node.name == "SolverConfig":
            owner, parts = "SolverConfig.", node.body
        for part in parts:
            if "Scheme" in _identifiers(part):
                if isinstance(part, ast.AnnAssign):
                    places.append(owner + ast.unparse(part.annotation))
                else:
                    places.append(owner + part.name)
    assert places == ["Scheme", "SolverConfig.InitVar[Scheme]", "SolverConfig.__post_init__"]
    others = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "evolution" and "Scheme" in _identifiers(_tree(path.stem))
    ]
    assert others == []
