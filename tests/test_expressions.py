import numpy as np
import pytest

from dualgen.errors import ExpressionParseError
from dualgen.expressions import parse_expression


def test_scalar_and_vector_evaluation():
    f = parse_expression("x1*x1 + 2", dim=1)
    assert f(3.0) == pytest.approx(11.0)
    out = f(np.array([[1.0], [2.0]]))
    assert np.allclose(out, [3.0, 6.0])


def test_multivariate_and_functions():
    f = parse_expression("exp(-abs(x1 - x2)) + min(x1, x2)", dim=2)
    got = f(np.array([[1.0, 3.0]]))
    assert got[0] == pytest.approx(np.exp(-2.0) + 1.0)


def test_constants_and_power():
    f = parse_expression("pow(x1, 2) + pi", dim=1)
    assert f(2.0) == pytest.approx(4.0 + np.pi)


def test_metadata_attached():
    f = parse_expression("log(x1) + x2", dim=2)
    assert f.source == "log(x1) + x2"
    assert f.variables == frozenset({"x1", "x2"})


def test_unknown_name_rejected():
    with pytest.raises(ExpressionParseError):
        parse_expression("x3 + 1", dim=2)
    with pytest.raises(ExpressionParseError):
        parse_expression("__import__('os')", dim=1)


def test_unknown_function_rejected():
    with pytest.raises(ExpressionParseError):
        parse_expression("open(x1)", dim=1)


def test_attribute_access_rejected():
    with pytest.raises(ExpressionParseError):
        parse_expression("x1.real", dim=1)


def test_syntax_error_carries_position():
    with pytest.raises(ExpressionParseError) as ei:
        parse_expression("x1^2 +", dim=1)
    assert "x1^2 +" in str(ei.value)


def test_only_variable_restriction():
    f = parse_expression("x2*x2", dim=2, only_variable=1)
    assert f(np.array([3.0]))[0] == pytest.approx(9.0)
    with pytest.raises(ExpressionParseError):
        parse_expression("x1 + x2", dim=2, only_variable=1)
