"""Adaptive Gauss-Kronrod integrator."""
import numpy as np
import pytest

from archvar import ParameterError, QuadConfig, QuadratureError, graded_breakpoints, integrate
from archvar import quadrature


class TestRule:
    def test_polynomial_exactness(self):
        # K15 integrates polynomials up to degree 22 exactly
        value, err = integrate(lambda x: 7.0 * x ** 6, 0.0, 1.0)
        assert value == pytest.approx(1.0, abs=1e-14)
        assert err < 1e-12

    def test_arctan_integral(self):
        value, _ = integrate(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0)
        assert value == pytest.approx(np.pi, abs=1e-12)

    def test_exponential(self):
        value, _ = integrate(np.exp, 0.0, 2.0)
        assert value == pytest.approx(np.expm1(2.0), rel=1e-12)

    def test_oscillatory_needs_subdivision(self):
        value, _ = integrate(lambda x: np.sin(40.0 * x), 0.0, np.pi)
        assert value == pytest.approx((1.0 - np.cos(40.0 * np.pi)) / 40.0, abs=1e-10)

    def test_integrable_endpoint_singularity(self):
        cfg = QuadConfig(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=4000)
        value, _ = integrate(
            lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, cfg, graded_breakpoints(0.0, 1.0)
        )
        assert value == pytest.approx(2.0, abs=1e-7)

    def test_error_bound_covers_true_error(self):
        value, err = integrate(lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 5.0)
        exact = (3.0 - np.exp(-5.0) * (np.sin(15.0) * 1.0 + 3.0 * np.cos(15.0))) / 10.0
        assert abs(value - exact) <= max(err * 10.0, 1e-13)


class TestControl:
    def test_budget_exhaustion_carries_partial_estimate(self):
        cfg = QuadConfig(abs_tol=1e-16, rel_tol=1e-16, max_subdivisions=3)
        with pytest.raises(QuadratureError) as excinfo:
            integrate(lambda x: 1.0 / np.sqrt(np.abs(x - np.pi / 8)), 0.0, 1.0, cfg)
        assert np.isfinite(excinfo.value.estimate)
        assert excinfo.value.error_bound > 0.0

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)

    def test_invalid_bounds(self):
        with pytest.raises(ParameterError):
            integrate(np.exp, 1.0, 0.0)

    def test_first_pass_runs_in_chunks(self, monkeypatch):
        sizes = []
        rule = quadrature._rule

        def counting(f, lefts, rights):
            sizes.append(lefts.size)
            return rule(f, lefts, rights)

        monkeypatch.setattr(quadrature, "_rule", counting)
        integrate(lambda x: 7.0 * x ** 6, 0.0, 1.0, breakpoints=graded_breakpoints(0.0, 1.0))
        assert sizes == [11]
        sizes.clear()
        value, _ = integrate(lambda x: 7.0 * x ** 6, 0.0, 1.0,
                             breakpoints=np.linspace(0.0, 1.0, 3001))
        chunk = quadrature._CHUNK_INTERVALS
        assert sizes == [chunk] * (3000 // chunk) + [3000 % chunk]
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            QuadConfig(abs_tol=0.0)
        with pytest.raises(ParameterError):
            QuadConfig(max_subdivisions=0)

    def test_breakpoints_interior_and_sorted(self):
        pts = graded_breakpoints(2.0, 3.0)
        assert np.all((pts > 2.0) & (pts < 3.0))
        assert np.all(np.diff(pts) > 0.0)

    def test_nodes_strictly_interior(self):
        seen = []

        def probe(x):
            seen.append(x)
            return np.ones_like(x)

        integrate(probe, 0.0, 1.0)
        nodes = np.concatenate(seen)
        assert nodes.min() > 0.0 and nodes.max() < 1.0
