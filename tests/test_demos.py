"""Import smoke test for the demos.

Each script under demos/ is loaded with a run name other than
"__main__", so its imports run but its main() does not.  A public name
that a demo imports and the package no longer has fails here, in well
under a second, instead of only when the demo is run in full.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports(path):
    namespace = runpy.run_path(str(path), run_name="demo")
    assert callable(namespace["main"])
