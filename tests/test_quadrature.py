"""Adaptive Gauss-Kronrod integrator."""
import numpy as np
import pytest
from scipy import special

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
    """Patch ``quadrature._rule`` to record each rule evaluation.

    Every call is one evaluation: a first-pass chunk or a refinement step,
    which splits one interval of each integral still running.  Each entry is
    the number of intervals per integrand in that call.
    """
    sizes = []
    rule = quadrature._rule

    def counting(fs, w, mid, half):
        sizes.append(np.shape(half)[-1])
        return rule(fs, w, mid, half)

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
        # nothing has been summed yet
        assert np.isnan(excinfo.value.estimate) and excinfo.value.error_bound == np.inf

    def test_non_finite_value_during_refinement_keeps_split_count(self, monkeypatch):
        # the infinite band lies between first-pass nodes, so only a split
        # reaches it; the split that does is not counted
        sizes = count_rule_calls(monkeypatch)
        with pytest.raises(QuadratureError, match="non-finite") as excinfo:
            integrate(lambda x: np.where((x > 0.33) & (x < 0.34), np.inf, np.sin(40.0 * x)),
                      0.0, 1.0)
        assert excinfo.value.splits == len(sizes) - 2 > 0

    def test_non_finite_value_during_refinement_carries_running_estimate(self):
        # the error carries the estimate and bound from before the failing
        # split: those that a budget of that many splits stops at
        def band(x):
            return np.where((x > 0.33) & (x < 0.34), np.inf, np.sin(40.0 * x))

        with pytest.raises(QuadratureError, match="non-finite") as excinfo:
            integrate(band, 0.0, 1.0)
        err = excinfo.value
        with pytest.raises(QuadratureError, match="converge") as budget:
            integrate(band, 0.0, 1.0, QuadConfig(max_subdivisions=err.splits))
        assert np.isfinite(err.estimate) and 0.0 < err.error_bound < np.inf
        assert (err.estimate, err.error_bound) == (budget.value.estimate,
                                                   budget.value.error_bound)

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
        assert sizes == [24]
        sizes.clear()
        value, _ = integrate(lambda x: 7.0 * x ** 6, 0.0, 1.0,
                             breakpoints=np.linspace(0.0, 1.0, 3001))
        chunk = quadrature._CHUNK_INTERVALS
        assert sizes == [chunk] * (3000 // chunk) + [3000 % chunk]
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            QuadConfig(abs_tol=0.0)
        # an infinite tolerance turned refinement off, and a bool constructed
        for bad in (np.inf, np.nan, -1e-10, True, "1e-10", 10 ** 400):
            for name in ("abs_tol", "rel_tol"):
                with pytest.raises(ParameterError, match=f"{name} must be a finite real > 0"):
                    QuadConfig(**{name: bad})
        assert type(QuadConfig(abs_tol=np.float64(1e-8)).abs_tol) is float
        for count in (0, 2.5, True):
            with pytest.raises(ParameterError, match="max_subdivisions must be an integer"):
                QuadConfig(max_subdivisions=count)
        assert type(QuadConfig(max_subdivisions=np.int64(5)).max_subdivisions) is int

    def test_breakpoints_interior_and_sorted(self):
        pts = graded_breakpoints(2.0, 3.0)
        assert np.all((pts > 2.0) & (pts < 3.0))
        assert np.all(np.diff(pts) > 0.0)

    def test_breakpoints_match_unique_of_the_graded_points(self):
        # the one-comparison build gives the bits of np.unique over the same
        # points, the midpoint, the floor and rounding onto the ends included
        gen = np.random.default_rng(20)
        cases = [(0.0, 1.0), (2.0, 3.0), (0.05, 1.0), (1.0 - 1e-6, 1.0), (0.0, 1e-6),
                 (1e5, 1e5 + 1e-6), (0.0, 2.5e-13), (0.0, 1e-13), (-3.0, 1e300)]
        cases += [(a, a + w) for a, w in zip(gen.uniform(-10, 10, 300) * 10.0 ** gen.integers(-12, 12, 300),
                                              10.0 ** gen.uniform(-14, 3, 300))]
        for a, b in cases:
            dist = (b - a) * quadrature._GRADED
            dist = dist[dist >= quadrature._FLOOR]
            pts = np.concatenate([a + dist, b - dist[:-1]])
            want = np.unique(pts[(pts > a) & (pts < b)])
            got = graded_breakpoints(a, b)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (a, b)

    def test_graded_mesh_depth_and_floor(self):
        pts = graded_breakpoints(0.0, 1.0)
        assert pts.size == 23 and pts[0] == 1e-11 and pts[11] == 0.5
        assert pts[-1] == 1.0 - 1e-11
        # near alpha = 1 the deepest points fall under the floor
        for lo in (1.0 - 1e-4, 1.0 - 1e-6, 0.0):
            hi = 1.0 if lo else 1e-6
            pts = graded_breakpoints(lo, hi)
            assert min(pts[0] - lo, hi - pts[-1]) >= 0.9 * quadrature._FLOOR
        assert graded_breakpoints(0.0, 1e-13).size == 0

    def test_nodes_strictly_interior(self):
        seen = []

        def probe(x):
            seen.append(x)
            return np.ones_like(x)

        integrate(probe, 0.0, 1.0)
        nodes = np.concatenate(seen)
        assert nodes.min() > 0.0 and nodes.max() < 1.0

    @pytest.mark.parametrize("shift, sign", [(0.0, 1.0), (0.5, -1.0)])
    def test_refinement_never_evaluates_on_an_end(self, shift, sign):
        # ndtri(x - shift) is infinite at the right end (shift 0) or at the
        # left end (shift 0.5) of [0.5, 1]; a tight tolerance drives the
        # splits there until the halves' outer nodes would round onto the end
        seen = []

        def probe(x):
            seen.append(x)
            return special.ndtri(x - shift)

        exact = sign / np.sqrt(2.0 * np.pi)
        value, _ = integrate(probe, 0.5, 1.0, QuadConfig(abs_tol=1e-300, rel_tol=1e-14),
                             graded_breakpoints(0.5, 1.0))
        assert value == pytest.approx(exact, rel=1e-14)
        with pytest.raises(QuadratureError, match="floating-point resolution") as excinfo:
            integrate(probe, 0.5, 1.0, QuadConfig(abs_tol=1e-300, rel_tol=1e-15),
                      graded_breakpoints(0.5, 1.0))
        assert abs(excinfo.value.estimate - exact) <= excinfo.value.error_bound
        nodes = np.concatenate(seen)
        assert nodes.min() > 0.5 and nodes.max() < 1.0

    def test_error_of_an_unsplittable_interval_stays_in_the_bound(self):
        # (1 - x)^(-2/3) on [0, 1] is 3, but the part of it within 1e-14 of
        # 1, about 7e-5, lies where no split can resolve it
        with pytest.raises(QuadratureError, match="floating-point resolution") as excinfo:
            integrate(lambda x: (1.0 - x) ** (-2.0 / 3.0), 0.0, 1.0,
                      breakpoints=graded_breakpoints(0.0, 1.0))
        assert abs(excinfo.value.estimate - 3.0) <= excinfo.value.error_bound


def _sequential(fs, w, a, b, cfg, breakpoints):
    """What a loop of ``integrate`` calls over ``fs`` returns or raises."""
    return [integrate(lambda x, f=f: f(x) * w(x), a, b, cfg, bp)
            for f, bp in zip(fs, breakpoints)]


def _outcome(call):
    """A call's values and bounds as bytes, or its exception's type, message and fields."""
    try:
        return np.array(call(), dtype=float).tobytes()
    except Exception as exc:
        return (type(exc), str(exc), np.array([getattr(exc, "estimate", 0.0),
                                               getattr(exc, "error_bound", 0.0)]).tobytes(),
                getattr(exc, "splits", None))


def _weight(x):
    return np.exp(-x) * (1.0 + x)


def _rule_2d(f, mid, half):
    """The sums of one integrand ``f(x) _weight(x)`` as a 2-D G7/K15 rule forms
    them; the reference for the stacked sums of ``quadrature._rule``."""
    nodes = mid[:, None] + half[:, None] * quadrature._XK[None, :]
    fv = (f(nodes.ravel()) * _weight(nodes.ravel())).reshape(nodes.shape)
    resk = half * (fv @ quadrature._WK)
    resg = half * (fv[:, quadrature._GAUSS_IDX] @ quadrature._WG)
    resasc = half * (np.abs(fv - (resk / (2.0 * half))[:, None]) @ quadrature._WK)
    return resk, resg, resasc


def _raising(x):
    raise ArithmeticError("integrand callable failed")


SMOOTH = [lambda x: np.sin(40.0 * x), lambda x: np.cos(7.0 * x) + 2.0, lambda x: x * x,
          lambda x: 1.0 / (x + 0.01), np.ones_like]
FAILING = {
    "budget": lambda x: np.sin(2e4 * x),
    "first-pass-non-finite": lambda x: np.where(x > 2.9999, np.inf, x),
    "refinement-non-finite": lambda x: np.where((x > 1.00) & (x < 1.01), np.inf, np.sin(40 * x)),
    "raises": _raising,
    "roundoff": lambda x: ((1.0 + 1e-9 * x) - 1.0) * 1e9 / _weight(x),
}


class TestLockstep:
    """``_integrate_all`` against a loop of ``integrate`` calls, one per integrand."""

    A, B = 0.0, 3.0
    CFG = QuadConfig(abs_tol=1e-13, rel_tol=1e-12)

    def test_each_integral_gets_its_bits_alone(self):
        graded = graded_breakpoints(self.A, self.B)
        breaks = [graded, graded, np.linspace(0.0, 3.0, 40), graded, ()]
        got = quadrature._integrate_all(SMOOTH, _weight, self.A, self.B, self.CFG, breaks)
        want = _sequential(SMOOTH, _weight, self.A, self.B, self.CFG, breaks)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("first", sorted(FAILING))
    @pytest.mark.parametrize("second", sorted(FAILING))
    def test_raises_what_the_loop_raises(self, first, second):
        # the first integral to fail in order wins, wherever the others stop
        fs = [SMOOTH[0], FAILING[first], SMOOTH[3], FAILING[second], SMOOTH[1]]
        breaks = [graded_breakpoints(self.A, self.B)] * len(fs)
        args = (fs, _weight, self.A, self.B, self.CFG, breaks)
        got = _outcome(lambda: quadrature._integrate_all(*args))
        assert isinstance(got, tuple)
        assert got == _outcome(lambda: _sequential(*args))

    def test_integrals_after_a_failure_stop(self):
        # integral 0 fails in the first pass, so integral 1 is evaluated
        # there only, on the 24 graded intervals, though alone it needs many
        # splits
        calls = []

        def slow(x):
            calls.append(x.size)
            return np.sin(40.0 * x)

        with pytest.raises(QuadratureError, match="non-finite"):
            quadrature._integrate_all([FAILING["first-pass-non-finite"], slow], _weight,
                                      self.A, self.B, self.CFG,
                                      [graded_breakpoints(self.A, self.B)] * 2)
        assert calls == [24 * 15]

    def test_batched_steps(self, monkeypatch):
        # every step splits one interval of each running integral, so the
        # calls are those of the slowest integral, not the sum
        breaks = [graded_breakpoints(self.A, self.B)] * 4
        alone = []
        for f in SMOOTH[:4]:
            sizes = count_rule_calls(monkeypatch)
            quadrature._integrate_all([f], _weight, self.A, self.B, self.CFG, breaks[:1])
            alone.append(len(sizes))
            monkeypatch.undo()
        sizes = count_rule_calls(monkeypatch)
        quadrature._integrate_all(SMOOTH[:4], _weight, self.A, self.B, self.CFG, breaks)
        assert len(sizes) == max(alone) < sum(alone)

    @pytest.mark.parametrize("k", [2, 11])
    def test_batched_rule_matches_2d_rule(self, k):
        # each integrand of a batched call gets the bits of the 2-D rule of
        # one integrand alone, whatever the batch size
        rng = np.random.default_rng(k)
        fs = [lambda x, c=c: np.exp(c * x) * np.sin(9.0 * x) for c in rng.uniform(-3, 3, 8)]
        lefts = np.sort(rng.uniform(0.0, 1.0, (8, k + 1)), axis=1)
        mid = 0.5 * (lefts[:, :-1] + lefts[:, 1:])
        half = 0.5 * (lefts[:, 1:] - lefts[:, :-1])
        for n in range(1, 9):
            *sums, failure = quadrature._rule(fs[:n], _weight, mid[:n], half[:n])
            assert failure is None
            for i in range(n):
                for got, want in zip(sums, _rule_2d(fs[i], mid[i], half[i])):
                    assert got[i].tobytes() == want.tobytes()

    def test_step_error_model_matches_array_model(self):
        # the refinement's Python-float error model against the first pass's
        # numpy one, zero variation and zero differences included
        rng = np.random.default_rng(0)
        resk = rng.standard_normal((50, 2)) * np.exp(rng.uniform(-30, 30, (50, 2)))
        resg = resk * (1.0 + np.exp(rng.uniform(-40, 0, (50, 2))) * rng.choice([-1, 0, 1], (50, 2)))
        resasc = np.abs(resk) * np.exp(rng.uniform(-10, 10, (50, 2))) * rng.choice([0, 1], (50, 2))
        values, errors = quadrature._step_errors(resk, resg, resasc)
        assert np.array(values).tobytes() == resk.tobytes()
        assert np.array(errors).tobytes() == quadrature._errors(resk, resg, resasc).tobytes()
