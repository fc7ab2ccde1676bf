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


def count_rule_calls(monkeypatch) -> list:
    """Patch ``quadrature._rule`` to record each call's interval count."""
    sizes = []
    rule = quadrature._rule

    def counting(f, lefts, rights):
        sizes.append(lefts.size)
        return rule(f, lefts, rights)

    monkeypatch.setattr(quadrature, "_rule", counting)
    return sizes


class TestControl:
    def test_budget_exhaustion_carries_partial_estimate(self):
        cfg = QuadConfig(abs_tol=1e-16, rel_tol=1e-16, max_subdivisions=3)
        with pytest.raises(QuadratureError, match="converge") as excinfo:
            integrate(lambda x: 1.0 / np.sqrt(np.abs(x - np.pi / 8)), 0.0, 1.0, cfg)
        assert np.isfinite(excinfo.value.estimate)
        assert excinfo.value.error_bound > 0.0
        assert excinfo.value.splits == 3
        with pytest.raises(AttributeError):
            excinfo.value.splits = 0

    def test_default_budget_stop_counts_every_split(self):
        # about 3,200 periods need more intervals than the budget allows, and
        # each split changes the estimate, so roundoff never stops the loop
        with pytest.raises(QuadratureError, match="2000 subdivisions") as excinfo:
            integrate(lambda x: np.sin(2e4 * x), 0.0, 1.0)
        assert excinfo.value.splits == 2000

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(QuadratureError, match="non-finite") as excinfo:
            integrate(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)
        assert excinfo.value.splits == 0

    def test_non_finite_value_during_refinement_keeps_split_count(self, monkeypatch):
        # the infinite band lies between first-pass nodes, so only a split
        # reaches it; the split that does is not counted
        sizes = count_rule_calls(monkeypatch)
        with pytest.raises(QuadratureError, match="non-finite") as excinfo:
            integrate(lambda x: np.where((x > 0.33) & (x < 0.34), np.inf, np.sin(40.0 * x)),
                      0.0, 1.0)
        assert excinfo.value.splits == len(sizes) - 2 > 0

    def test_roundoff_limited_integral_stops_early(self, monkeypatch):
        # 1 + 1e-9 x keeps about 7 significant digits of 1e-9 x, so the
        # integrand is a staircase whose error no mesh can bring to 1e-13
        sizes = count_rule_calls(monkeypatch)
        cfg = QuadConfig(abs_tol=1e-13, rel_tol=1e-13)
        with pytest.raises(QuadratureError, match="roundoff") as excinfo:
            integrate(lambda x: ((1.0 + 1e-9 * x) - 1.0) * 1e9, 0.0, 1.0, cfg)
        assert len(sizes) <= 15
        assert excinfo.value.splits == len(sizes) - 1
        assert excinfo.value.estimate == pytest.approx(0.5, abs=1e-6)

    def test_error_growth_alone_does_not_stop(self, monkeypatch):
        # many of this integral's splits return children whose summed error
        # exceeds the parent's; QUADPACK's second roundoff counter would stop
        # it, but it converges
        sizes = count_rule_calls(monkeypatch)
        cfg = QuadConfig(abs_tol=1e-10, rel_tol=1e-10)
        value, err = integrate(lambda x: np.cos(200.0 * x) * np.exp(-x), 0.0, 10.0, cfg)
        z = complex(-1.0, 200.0)
        exact = ((np.exp(10.0 * z) - 1.0) / z).real
        assert value == pytest.approx(exact, abs=1e-12)
        assert err <= 1e-10
        assert len(sizes) > 100

    def test_invalid_bounds(self):
        with pytest.raises(ParameterError):
            integrate(np.exp, 1.0, 0.0)

    def test_first_pass_runs_in_chunks(self, monkeypatch):
        sizes = count_rule_calls(monkeypatch)
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
        for count in (0, 2.5, True):
            with pytest.raises(ParameterError, match="max_subdivisions must be an integer"):
                QuadConfig(max_subdivisions=count)
        assert type(QuadConfig(max_subdivisions=np.int64(5)).max_subdivisions) is int

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
