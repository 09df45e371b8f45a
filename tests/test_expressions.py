"""Curvature-expression parsing: grammar, precedence, variables, grid
evaluation, and located errors."""

import numpy as np
import pytest

from quasispherical.errors import (
    ExpressionSyntaxError,
    NonPositiveOnGridError,
    UnknownIdentifierError,
)
from quasispherical.expressions import HExpression
from quasispherical.geometry import Sphere, SurfaceSpec, build_surface


def value(text, theta=0.0, phi=None):
    return float(HExpression.parse(text).evaluate(theta, phi))


# ---------------------------------------------------------------------------
# grammar and precedence


def test_arithmetic_precedence():
    assert value("2+3*4") == 14.0
    assert value("(2+3)*4") == 20.0
    assert value("2-3-1") == -2.0  # left associative
    assert value("12/4/3") == 1.0
    assert value("2+12/4") == 5.0


def test_power_is_right_associative_and_tight():
    assert value("2^3^2") == 512.0
    assert value("2*3^2") == 18.0
    assert value("-2^2") == -4.0  # unary minus binds looser than ^
    assert value("(-2)^2") == 4.0
    assert value("2^-1") == 0.5


def test_unary_minus_chains():
    assert value("--3") == 3.0
    assert value("4*-2") == -8.0


def test_functions_and_constants():
    assert value("sin(0)") == 0.0
    assert value("cos(0)") == 1.0
    assert value("exp(0)") == 1.0
    assert value("sqrt(9)") == 3.0
    assert value("2*(1+0.3*cos(theta))", theta=np.pi) == pytest.approx(1.4)


def test_scientific_notation_numbers():
    assert value("1e-3") == 1e-3
    assert value("2.5E2") == 250.0
    assert value("1.5e+1") == 15.0


def test_whitespace_is_insignificant():
    assert value("  2 + 3 * sin( theta ) ", theta=np.pi / 2) == 5.0


def test_variables_property():
    assert HExpression.parse("2").variables == frozenset()
    assert HExpression.parse("sin(theta)").variables == frozenset({"theta"})
    assert HExpression.parse("sin(theta)*cos(phi)").variables == frozenset(
        {"theta", "phi"}
    )


# ---------------------------------------------------------------------------
# located errors


def test_syntax_error_offsets():
    with pytest.raises(ExpressionSyntaxError) as exc:
        HExpression.parse("2 + * 3")
    assert exc.value.offset == 4
    with pytest.raises(ExpressionSyntaxError) as exc:
        HExpression.parse("(1 + 2")
    assert exc.value.offset == 6
    with pytest.raises(ExpressionSyntaxError) as exc:
        HExpression.parse("1 + 2)")
    assert exc.value.offset == 5
    with pytest.raises(ExpressionSyntaxError):
        HExpression.parse("")
    with pytest.raises(ExpressionSyntaxError):
        HExpression.parse("1 @ 2")


def test_unknown_identifier_offsets():
    with pytest.raises(UnknownIdentifierError) as exc:
        HExpression.parse("2*tan(theta)")
    assert exc.value.name == "tan"
    assert exc.value.offset == 2
    with pytest.raises(UnknownIdentifierError) as exc:
        HExpression.parse("radius + 1")
    assert exc.value.name == "radius"
    assert exc.value.offset == 0


def test_function_requires_call_syntax():
    # A function name without arguments is not a variable.
    with pytest.raises(UnknownIdentifierError) as exc:
        HExpression.parse("sin + 1")
    assert exc.value.name == "sin"


# ---------------------------------------------------------------------------
# grid evaluation


def test_evaluate_on_grid_axisymmetric(sphere32):
    e = HExpression.parse("2*(1+0.3*cos(theta))")
    arr = e.evaluate_on_grid(sphere32)
    assert arr.shape == (32,)
    assert np.allclose(arr, 2.0 * (1.0 + 0.3 * np.cos(sphere32.theta)), rtol=1e-15)


def test_evaluate_on_grid_azimuthal(sphere32):
    e = HExpression.parse("1 + 0.1*sin(theta)*cos(phi)")
    arr = e.evaluate_on_grid(sphere32)
    assert arr.shape == (32, sphere32.n_phi)
    phi = sphere32.d_phi * np.arange(sphere32.n_phi)
    expected = 1.0 + 0.1 * np.sin(sphere32.theta)[:, None] * np.cos(phi)[None, :]
    assert np.allclose(arr, expected, rtol=1e-15)


def test_evaluate_positive_on_grid_accepts_positive(sphere32):
    e = HExpression.parse("2 + cos(theta)")
    arr = e.evaluate_positive_on_grid(sphere32)
    assert np.all(arr > 0)


def test_evaluate_positive_on_grid_rejects_sign_dips(sphere32):
    e = HExpression.parse("cos(theta)")  # negative on the southern half
    with pytest.raises(NonPositiveOnGridError) as exc:
        e.evaluate_positive_on_grid(sphere32)
    assert exc.value.value <= 0.0
    assert 0.0 <= exc.value.theta <= np.pi
