"""Marginal quantile-function wrappers."""
import numpy as np
import pytest

from archvar import ConstantMargin, FunctionMargin, ParameterError, TabulatedMargin, UniformMargin


def test_uniform_is_identity():
    u = np.linspace(0.01, 0.99, 11)
    np.testing.assert_array_equal(UniformMargin()(u), u)


def test_constant_margin():
    m = ConstantMargin(3.7)
    np.testing.assert_array_equal(m(np.array([0.1, 0.9])), [3.7, 3.7])


def test_uniform_margins_compare_equal():
    assert UniformMargin() == UniformMargin()
    assert ConstantMargin(1.0) == ConstantMargin(1.0)
    assert ConstantMargin(1.0) != ConstantMargin(2.0)


class TestTabulated:
    def test_linear_interpolation(self):
        m = TabulatedMargin([0.1, 0.5, 0.9], [1.0, 2.0, 4.0])
        assert m(0.3) == pytest.approx(1.5)
        assert m(0.7) == pytest.approx(3.0)
        # outside the table: clamped to end quantiles
        assert m(0.05) == 1.0
        assert m(0.95) == 4.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            TabulatedMargin([0.1, 0.5, 0.4], [1.0, 2.0, 3.0])
        with pytest.raises(ParameterError):
            TabulatedMargin([0.1, 0.5, 0.9], [1.0, 2.0, 1.5])
        with pytest.raises(ParameterError):
            TabulatedMargin([0.0, 0.5], [1.0, 2.0])
        with pytest.raises(ParameterError):
            TabulatedMargin([0.1], [1.0])
        with pytest.raises(ParameterError):
            TabulatedMargin([0.1, 0.5], [1.0, np.inf])

    def test_equality_by_content(self):
        a = TabulatedMargin([0.1, 0.9], [0.0, 1.0])
        b = TabulatedMargin([0.1, 0.9], [0.0, 1.0])
        c = TabulatedMargin([0.1, 0.9], [0.0, 2.0])
        assert a == b
        assert a != c


class TestFunctionMargin:
    def test_wraps_callable(self):
        m = FunctionMargin(lambda u: u ** 2)
        assert m(0.5) == pytest.approx(0.25)

    def test_rejects_decreasing(self):
        with pytest.raises(ParameterError):
            FunctionMargin(lambda u: -u)

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            FunctionMargin(lambda u: 1.0 / (u - 0.5))
        # finite on the grid but decreasing, the callable above meets the
        # monotonicity check; this one is nondecreasing and infinite
        with pytest.raises(ParameterError, match="must be finite"):
            FunctionMargin(lambda u: np.where(u > 0.9, np.inf, u))

    @pytest.mark.parametrize("fn", [lambda u: 0.5, lambda u: u[:-1]], ids=["scalar", "shorter"])
    def test_rejects_non_vectorized(self, fn):
        with pytest.raises(ParameterError, match="vectorized and shape-preserving"):
            FunctionMargin(fn)
