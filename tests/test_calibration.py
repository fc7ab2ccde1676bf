"""Kendall tau <-> theta mapping."""
import math
import warnings

import numpy as np
import pytest

from archvar import CopulaSpec, FamilyId, RangeError, kendall_tau, tau_range, theta_from_tau
from archvar import families
from archvar.families import FAMILIES

# high-resolution Simpson value of the reflected Joe tau integrand at
# theta = 2.4, cross-checked against the rank statistic of a large sample
# (see test_joe_tau_against_brute_force for the in-suite recomputation)
JOE_TAU_AT_2_4 = 0.4324312611
JOE_THETA_FOR_HALF = 2.8562572120
FRANK_TAU_AT_5_74 = 0.5002044722
FRANK_THETA_FOR_HALF = 5.7362827070


def tau_of(family, theta):
    # Kendall tau is a bivariate quantity; d = 2 admits every family and theta
    return kendall_tau(CopulaSpec(family, theta, 2))


class TestKendallTau:
    def test_clayton_closed_form(self):
        assert tau_of(FamilyId.CLAYTON, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_gumbel_closed_form(self):
        assert tau_of(FamilyId.GUMBEL_HOUGAARD, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_frank_near_half_at_5_74(self):
        tau = tau_of(FamilyId.FRANK, 5.74)
        assert abs(tau - 0.5) <= 0.002
        assert tau == pytest.approx(FRANK_TAU_AT_5_74, abs=1e-9)

    def test_joe_at_2_4(self):
        assert tau_of(FamilyId.JOE, 2.4) == pytest.approx(JOE_TAU_AT_2_4, abs=1e-8)

    def test_joe_tau_against_brute_force(self):
        # independent oracle: trapezoid rule on a dense mesh graded toward
        # both endpoints of s (1 - s^t) ln(1 - s^t) / s^t over (0, 1)
        theta = 2.4
        left = np.geomspace(1e-12, 0.5, 300_000)
        right = 1.0 - np.geomspace(1e-12, 0.5, 300_000)
        s = np.unique(np.concatenate([left, right]))
        sth = s ** theta
        f = s * (1.0 - sth) * np.log1p(-sth) / sth
        brute = 1.0 + 4.0 / theta * np.trapezoid(f, s)
        assert tau_of(FamilyId.JOE, theta) == pytest.approx(brute, abs=1e-7)

    def test_frank_sign_symmetry(self):
        assert tau_of(FamilyId.FRANK, -5.0) == pytest.approx(
            -tau_of(FamilyId.FRANK, 5.0), abs=1e-12
        )

    def test_limits(self):
        assert tau_of(FamilyId.CLAYTON, 1e-4) < 1e-3
        assert tau_of(FamilyId.GUMBEL_HOUGAARD, 1.0) == 0.0
        assert tau_of(FamilyId.JOE, 1.0) == 0.0
        assert abs(tau_of(FamilyId.ALI_MIKHAIL_HAQ, 1e-6)) <= 1e-5

    def test_amh_lower_endpoint(self):
        expect = (5.0 - 8.0 * np.log(2.0)) / 3.0
        assert tau_of(FamilyId.ALI_MIKHAIL_HAQ, -1.0) == pytest.approx(expect, abs=1e-14)

    @pytest.mark.parametrize("theta", [1e-8, -1e-8, 1e-6, 1e-3, 0.05, 0.1, -0.3, 0.4999999,
                                       0.5])
    def test_frank_small_theta_against_mpmath(self, theta):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            th = mpmath.mpf(theta)
            debye = mpmath.quad(lambda t: t / mpmath.expm1(t), [0, th])
            want = float(1 - 4 / th * (1 - debye / th))
        # the Taylor series below |theta| = 0.5, the spence closed form at 0.5
        rtol = 1e-15 if abs(theta) < 0.5 else 5e-13
        assert tau_of(FamilyId.FRANK, theta) == pytest.approx(want, rel=rtol, abs=0.0)

    @pytest.mark.parametrize("theta", [0.1, -0.1, 0.5, -0.5, 1.0, 5.74, 40.0, 709.0,
                                       710.0, 1e6, -1e6])
    def test_frank_closed_form_against_mpmath(self, theta):
        # independent oracle: the Debye integral by mpmath quadrature at 40
        # digits, split where the integrand's scale changes
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a = mpmath.mpf(abs(theta))
            nodes = [0] + [t for t in (1, 10, 100) if t < a] + [a]
            debye = mpmath.quad(lambda t: t / mpmath.expm1(t), nodes)
            want = float(mpmath.sign(theta) * (1 - 4 / a * (1 - debye / a)))
        # the series below |theta| = 0.5; the closed form cancels toward there
        rtol = 1e-15 if abs(theta) < 0.5 else 5e-13
        # the record's tau: CopulaSpec rejects theta = -1e6, where expm1(-theta)
        # overflows, but the closed form holds there
        got = FAMILIES[FamilyId.FRANK].tau(theta)
        assert got == pytest.approx(want, rel=rtol, abs=0.0)

    @pytest.mark.parametrize("theta", [1.0 + 1e-9, 1.2, 2.0 - 1e-5, 2.0 + 1e-5, 2.0 - 2e-4,
                                       2.0 + 2e-4, 2.4, 60.0, 1000.0])
    def test_joe_closed_form_against_mpmath(self, theta):
        # independent oracle: tau = 1 - 4 sum_k 1/(k (theta k + 2) (theta (k-1) + 2));
        # theta = 2 -+ 2e-4 lies on either side of the Taylor switch at |2/theta - 1| = 1e-4
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            th = mpmath.mpf(theta)
            series = mpmath.nsum(
                lambda k: 1 / (k * (th * k + 2) * (th * (k - 1) + 2)), [1, mpmath.inf])
            want = float(1 - 4 * series)
        assert tau_of(FamilyId.JOE, theta) == pytest.approx(want, rel=0.0, abs=2e-13)

    @pytest.mark.parametrize("theta", [710.0, 1e6])
    def test_frank_large_theta_no_warning(self, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau = tau_of(FamilyId.FRANK, theta)
        assert 0.99 < tau < 1.0

    @pytest.mark.parametrize("theta", [1e-300, 1e-6, -1e-3, 0.05, -0.0999999, 0.0999999,
                                       0.1, -0.1, 0.5, -1.0, 0.999999])
    def test_amh_against_mpmath(self, theta):
        # independent oracle: the closed form, with 40 digits left after it
        # cancels by theta^2; the program uses the series below |theta| = 0.1
        # and the closed form from there (it cancels by ~3 eps/theta^2)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40 - 2 * min(0, math.floor(math.log10(abs(theta))))):
            th = mpmath.mpf(theta)
            want = float(1 - 2 * (th + (1 - th) ** 2 * mpmath.log1p(-th)) / (3 * th ** 2))
        rtol = 1e-15 if abs(theta) < 0.1 else 1e-13
        assert tau_of(FamilyId.ALI_MIKHAIL_HAQ, theta) == pytest.approx(want, rel=rtol, abs=0.0)

    def test_amh_series_joins_closed_form(self):
        # values near |theta| = 1e-3, where the leading term 2 theta/9 dominates
        for theta in (9e-4, 1.1e-3, -9e-4, -1.1e-3):
            got = tau_of(FamilyId.ALI_MIKHAIL_HAQ, theta)
            assert got == pytest.approx(2.0 * theta / 9.0, rel=5e-4)

    @pytest.mark.parametrize("family,grid", [
        (FamilyId.CLAYTON, np.linspace(0.1, 12.0, 24)),
        (FamilyId.FRANK, np.linspace(0.25, 18.0, 24)),
        (FamilyId.GUMBEL_HOUGAARD, np.linspace(1.0, 8.0, 24)),
        (FamilyId.JOE, np.linspace(1.0, 8.0, 24)),
        (FamilyId.ALI_MIKHAIL_HAQ, np.linspace(-1.0, 0.99, 24)),
    ])
    def test_monotone_increasing_in_theta(self, family, grid):
        taus = [tau_of(family, th) for th in grid]
        assert np.all(np.diff(taus) > 0.0)


class TestThetaFromTau:
    def test_clayton_exact(self):
        assert theta_from_tau(FamilyId.CLAYTON, 0.5) == 2.0

    def test_gumbel_exact(self):
        assert theta_from_tau(FamilyId.GUMBEL_HOUGAARD, 0.5) == 2.0

    def test_frank_half(self):
        theta = theta_from_tau(FamilyId.FRANK, 0.5)
        assert 5.73 <= theta <= 5.75
        assert theta == pytest.approx(FRANK_THETA_FOR_HALF, abs=1e-6)

    def test_joe_half(self):
        assert theta_from_tau(FamilyId.JOE, 0.5) == pytest.approx(
            JOE_THETA_FOR_HALF, abs=1e-6
        )

    def test_frank_small_target(self):
        # tau = theta/9 - theta^3/900 + ... near 0, so theta = 9e-7 (1 + 8e-15)
        theta = theta_from_tau(FamilyId.FRANK, 1e-7)
        assert abs(tau_of(FamilyId.FRANK, theta) - 1e-7) <= 1e-18
        assert theta == pytest.approx(9e-7, rel=1e-13)

    def test_joe_zero_is_independence(self):
        assert theta_from_tau(FamilyId.JOE, 0.0) == 1.0
        assert theta_from_tau(FamilyId.GUMBEL_HOUGAARD, 0.0) == 1.0

    def test_frank_negative_target(self):
        theta = theta_from_tau(FamilyId.FRANK, -0.3)
        assert theta < 0
        assert tau_of(FamilyId.FRANK, theta) == pytest.approx(-0.3, abs=1e-8)

    def test_range_errors_name_the_interval(self):
        with pytest.raises(RangeError) as err:
            theta_from_tau(FamilyId.GUMBEL_HOUGAARD, 1.5)
        assert err.value.interval == tau_range(FamilyId.GUMBEL_HOUGAARD)
        with pytest.raises(RangeError):
            theta_from_tau(FamilyId.CLAYTON, 0.0)
        with pytest.raises(RangeError):
            theta_from_tau(FamilyId.CLAYTON, -0.2)
        with pytest.raises(RangeError):
            theta_from_tau(FamilyId.ALI_MIKHAIL_HAQ, 0.4)
        with pytest.raises(RangeError):
            theta_from_tau(FamilyId.FRANK, 0.0)

    def test_frank_tau_range_ends_where_the_theta_domain_does(self):
        # below theta = -709.7827 expm1(-theta) overflows and CopulaSpec
        # rejects theta, so the tau range stops at tau(-709.78)
        lo, hi = tau_range(FamilyId.FRANK)
        assert (lo, hi) == (tau_of(FamilyId.FRANK, -709.78), 1.0)
        assert lo == pytest.approx(-0.9943775, abs=1e-7)
        assert CopulaSpec(FamilyId.FRANK, theta_from_tau(FamilyId.FRANK, lo), 2).theta < -709
        with pytest.raises(RangeError):
            theta_from_tau(FamilyId.FRANK, -0.999)

    @pytest.mark.parametrize("family,taus", [
        (FamilyId.CLAYTON, np.linspace(0.02, 0.9, 12)),
        (FamilyId.FRANK, np.concatenate([np.linspace(-0.8, -0.05, 5),
                                         np.linspace(0.05, 0.9, 7)])),
        (FamilyId.GUMBEL_HOUGAARD, np.linspace(0.0, 0.9, 12)),
        (FamilyId.JOE, np.linspace(0.0, 0.9, 12)),
        (FamilyId.ALI_MIKHAIL_HAQ, np.linspace(-0.18, 0.33, 12)),
    ])
    def test_round_trip(self, family, taus):
        for tau in taus:
            theta = theta_from_tau(family, float(tau))
            assert tau_of(family, theta) == pytest.approx(float(tau), abs=1e-6)


class TestThetaFromTauDomain:
    """Every attainable tau gives a theta that ``CopulaSpec`` accepts, and the
    tau of that theta within 1e-11 relative of the target."""

    @staticmethod
    def check(family, taus, floor=0.0):
        tau = FAMILIES[family].tau
        for target in map(float, taus):
            theta = theta_from_tau(family, target)
            assert CopulaSpec(family, theta, 2).theta == theta
            assert abs(tau(theta) - target) <= max(1e-11 * abs(target), floor), (target, theta)

    def test_frank(self):
        grid = np.geomspace(5e-324, 0.999999, 400)
        lo = tau_range(FamilyId.FRANK)[0]
        self.check(FamilyId.FRANK, np.concatenate([grid, -grid[-grid > lo], [lo]]))

    def test_amh(self):
        top, bottom = np.nextafter(1.0 / 3.0, 0.0), tau_of(FamilyId.ALI_MIKHAIL_HAQ, -1.0)
        self.check(FamilyId.ALI_MIKHAIL_HAQ, np.geomspace(5e-324, top, 300))
        self.check(FamilyId.ALI_MIKHAIL_HAQ, -np.geomspace(5e-324, -bottom, 300))

    def test_joe(self):
        # near theta = 1 the spacing of theta, 2.2e-16, bounds the error
        self.check(FamilyId.JOE, np.geomspace(1e-8, 0.999999, 300), floor=1e-15)

    @pytest.mark.parametrize("family,name", [(FamilyId.FRANK, "_frank_tau"),
                                             (FamilyId.JOE, "_joe_tau"),
                                             (FamilyId.ALI_MIKHAIL_HAQ, "_amh_tau")])
    def test_few_evaluations_per_solve(self, family, name, monkeypatch):
        # the interpolation steps converge superlinearly: at most 27 tau
        # evaluations were seen on these grids, where bisection over the
        # bracket's ln |theta| would take 50 to 80
        calls = []
        tau = getattr(families, name)
        monkeypatch.setattr(families, name, lambda theta: calls.append(theta) or tau(theta))
        lo, hi = tau_range(family)
        grid = np.geomspace(5e-324, hi * (1 - 1e-6), 200)
        for target in np.concatenate([grid, -grid[-grid > lo]]):
            calls.clear()
            theta_from_tau(family, float(target))
            assert len(calls) <= 30, target

    @pytest.mark.parametrize("family", [FamilyId.FRANK, FamilyId.JOE, FamilyId.ALI_MIKHAIL_HAQ])
    def test_matches_scipy_brentq(self, family):
        # independent oracle for the hand-written solver: scipy's brentq on the
        # record's tau over ln |theta|, from a bracket around the answer
        brentq = pytest.importorskip("scipy.optimize").brentq
        tau = FAMILIES[family].tau
        lo, hi = tau_range(family)
        for target in np.random.default_rng(17).uniform(lo, hi, 40):
            theta = theta_from_tau(family, target)
            sign = math.copysign(1.0, theta)
            x = math.log(abs(theta))
            upper = x / 2 if family is FamilyId.ALI_MIKHAIL_HAQ else x + 0.5  # AMH: |theta| < 1
            root = brentq(lambda y: tau(sign * math.exp(y)) - target, x - 0.5, upper,
                          xtol=1e-300, rtol=4 * np.finfo(float).eps)
            want = sign * math.exp(root)
            assert theta == pytest.approx(want, rel=1e-11), target

    @pytest.mark.parametrize("family,taus", [
        (FamilyId.FRANK, [np.nextafter(1.0, 0.0)]),
        (FamilyId.JOE, [5e-324, 1e-300, np.nextafter(1.0, 0.0)]),
        (FamilyId.ALI_MIKHAIL_HAQ, [0.0, tau_range(FamilyId.ALI_MIKHAIL_HAQ)[0] - 1e-12,
                                    np.nextafter(tau_of(FamilyId.ALI_MIKHAIL_HAQ, -1.0), -1.0)]),
    ])
    def test_ends_of_the_range_give_valid_theta(self, family, taus):
        # targets the grids above miss: theta at a bracket end, rounded to it
        # or given by a shortcut
        for target in map(float, taus):
            theta = theta_from_tau(family, target)
            assert math.isfinite(theta) and CopulaSpec(family, theta, 2).theta == theta
            assert abs(FAMILIES[family].tau(theta) - target) <= 1e-11 * max(abs(target), 1.0)
