"""Kendall tau <-> theta mapping."""
import numpy as np
import pytest

from archvar import CopulaSpec, FamilyId, RangeError, kendall_tau, tau_range, theta_from_tau

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

    @pytest.mark.parametrize("theta", [1e-8, -1e-8, 1e-6, 1e-3, 0.05, 0.1])
    def test_frank_small_theta_against_mpmath(self, theta):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            th = mpmath.mpf(theta)
            debye = mpmath.quad(lambda t: t / mpmath.expm1(t), [0, th])
            want = float(1 - 4 / th * (1 - debye / th))
        # the Taylor series below |theta| = 0.1, the Debye quadrature at 0.1
        rtol = 1e-15 if abs(theta) < 0.1 else 2e-11
        assert tau_of(FamilyId.FRANK, theta) == pytest.approx(want, rel=rtol, abs=0.0)

    def test_amh_series_joins_closed_form(self):
        # values straddling the series switch at |theta| = 1e-3
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
        # tau ~ theta/9 near 0; the bisection stops at |delta tau| <= 1e-10
        theta = theta_from_tau(FamilyId.FRANK, 1e-7)
        assert abs(tau_of(FamilyId.FRANK, theta) - 1e-7) <= 1e-10
        assert theta == pytest.approx(9e-7, rel=2e-3)

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
