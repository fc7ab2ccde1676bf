"""Generator, CDF and kernel behaviour for the five families."""
import math
import warnings

import numpy as np
import pytest

from archvar import (
    CopulaSpec,
    DomainError,
    FamilyId,
    GeneratorInfinityError,
    ParameterError,
    Seed,
    UniformMargin,
    beta_kernel,
    copula_cdf,
    estimate_var_once,
    kendall_tau,
    kernel_mass,
    phi,
    phi_inverse,
    phi_prime,
    sample_copula,
    sample_frailty,
    tau_range,
    theta_from_tau,
    var_for_spec,
    var_generic,
)
from archvar.families import FAMILIES, family_record

CLAYTON2_D3 = CopulaSpec(FamilyId.CLAYTON, 2.0, 3)
CLAYTON2_D2 = CopulaSpec(FamilyId.CLAYTON, 2.0, 2)

# family -> theta grid used by the property tests; every entry is a valid
# copula in d >= 3 except AMH (bivariate by construction)
THETA_GRID = {
    FamilyId.CLAYTON: (0.5, 2.0, 8.0),
    FamilyId.FRANK: (1.0, 5.74, 12.0),
    FamilyId.GUMBEL_HOUGAARD: (1.0, 2.0, 4.0),
    FamilyId.JOE: (1.2, 2.4, 5.0),
    FamilyId.ALI_MIKHAIL_HAQ: (-0.7, 0.3, 0.9),
}


def spec_for(family, theta, d=3):
    if family is FamilyId.ALI_MIKHAIL_HAQ:
        d = 2
    return CopulaSpec(family, theta, d)


def all_specs(d=3):
    for family, grid in THETA_GRID.items():
        for theta in grid:
            yield spec_for(family, theta, d)


class TestSpecValidation:
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, theta):
        for family in FamilyId:
            with pytest.raises(ParameterError, match="theta must be finite"):
                CopulaSpec(family, theta, 2)

    @pytest.mark.parametrize("family", ["clayton", None, 0])
    def test_family_must_be_a_family_id(self, family):
        with pytest.raises(ParameterError, match="family must be a FamilyId"):
            family_record(family)
        with pytest.raises(ParameterError, match="family must be a FamilyId"):
            CopulaSpec(family, 2.0, 2)

    def test_boundary_thetas_rejected(self):
        with pytest.raises(ParameterError):
            CopulaSpec(FamilyId.CLAYTON, 0.0, 2)
        with pytest.raises(ParameterError):
            CopulaSpec(FamilyId.CLAYTON, -1.0, 2)
        with pytest.raises(ParameterError):
            CopulaSpec(FamilyId.FRANK, 0.0, 2)
        with pytest.raises(ParameterError):
            CopulaSpec(FamilyId.GUMBEL_HOUGAARD, 0.99, 2)
        with pytest.raises(ParameterError):
            CopulaSpec(FamilyId.JOE, 0.5, 2)
        with pytest.raises(ParameterError):
            CopulaSpec(FamilyId.ALI_MIKHAIL_HAQ, 1.0, 2)
        with pytest.raises(ParameterError):
            CopulaSpec(FamilyId.ALI_MIKHAIL_HAQ, -1.5, 2)

    def test_amh_is_bivariate_only(self):
        with pytest.raises(ParameterError, match="bivariate"):
            CopulaSpec(FamilyId.ALI_MIKHAIL_HAQ, 0.5, 3)

    def test_dimension_validation(self):
        with pytest.raises(ParameterError):
            CopulaSpec(FamilyId.CLAYTON, 2.0, 1)
        with pytest.raises(ParameterError):
            CopulaSpec(FamilyId.CLAYTON, 2.0, 2.5)

    def test_frank_negative_theta_is_a_valid_spec(self):
        spec = CopulaSpec(FamilyId.FRANK, -3.0, 2)
        assert spec.theta == -3.0
        assert CopulaSpec(FamilyId.FRANK, -5.0, 2).theta == -5.0

    def test_frank_negative_theta_is_bivariate_only(self):
        # not a copula at d = 3: the box [0.30, 0.32] x [0.98, 1]^2 has
        # negative C-volume at theta = -5
        with pytest.raises(ParameterError, match="bivariate"):
            CopulaSpec(FamilyId.FRANK, -5.0, 3)
        assert CopulaSpec(FamilyId.FRANK, 5.0, 3).d == 3

    def test_frank_theta_where_expm1_overflows_rejected(self):
        # expm1(-theta) overflows below theta = -709.7827: the copula turned
        # to nan and var_generic returned [0, 0] without an error
        assert CopulaSpec(FamilyId.FRANK, -709.78, 2).theta == -709.78
        for theta in (-709.79, -720.0, -1e300):
            with pytest.raises(ParameterError, match="expm1"):
                CopulaSpec(FamilyId.FRANK, theta, 2)

    def test_family_parsing(self):
        assert FamilyId.from_string("Gumbel-Hougaard") is FamilyId.GUMBEL_HOUGAARD
        assert FamilyId.from_string("AMH") is FamilyId.ALI_MIKHAIL_HAQ
        with pytest.raises(ParameterError):
            FamilyId.from_string("gaussian")


class TestPhi:
    def test_clayton_values(self):
        assert phi(CLAYTON2_D3, 1.0) == 0.0
        assert phi(CLAYTON2_D3, 0.5) == pytest.approx(1.5, abs=1e-14)

    def test_gumbel_value(self):
        spec = CopulaSpec(FamilyId.GUMBEL_HOUGAARD, 2.0, 2)
        assert phi(spec, math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_frank_at_one(self):
        assert phi(CopulaSpec(FamilyId.FRANK, 1.0, 2), 1.0) == 0.0

    @pytest.mark.parametrize("theta", [-700.0, -709.0])
    def test_frank_negative_theta_near_zero_matches_mpmath(self, theta):
        # expm1(-theta t)/expm1(-theta) falls below the smallest normal
        # double under t = 3e-7 and underflows to 0 near t = 1e-300, where
        # -ln of it gave +inf with a warning; the oracle is the definition at
        # 60 digits
        mpmath = pytest.importorskip("mpmath")
        t = np.array([1e-6, 1e-7, 1e-12, 1e-290, 1e-300, 1e-310, 5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = phi(CopulaSpec(FamilyId.FRANK, theta, 2), t)
        with mpmath.workdps(60):
            th = mpmath.mpf(theta)
            want = np.array([float(-mpmath.log(mpmath.expm1(-th * mpmath.mpf(x))
                                               / mpmath.expm1(-th))) for x in t])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("spec", list(all_specs()), ids=str)
    def test_phi_one_is_zero(self, spec):
        assert phi(spec, 1.0) == 0.0

    @pytest.mark.parametrize("spec", list(all_specs()), ids=str)
    def test_strictly_decreasing_on_grid(self, spec):
        t = np.linspace(1e-6, 1.0, 1000)
        values = phi(spec, t)
        assert np.all(np.diff(values) < 0.0)
        assert np.all(values >= 0.0)

    def test_divergence_at_zero_signalled(self):
        for spec in all_specs():
            with pytest.raises(GeneratorInfinityError, match="infinite generator"):
                phi(spec, 0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            phi(CLAYTON2_D3, -0.1)
        with pytest.raises(DomainError):
            phi(CLAYTON2_D3, 1.1)
        with pytest.raises(DomainError):
            phi(CLAYTON2_D3, np.array([0.5, 2.0]))

    def test_independence_reductions(self):
        # AMH theta=0 and Joe/Gumbel theta=1 all reduce to -ln t
        t = np.linspace(0.05, 0.999, 64)
        for spec in (
            CopulaSpec(FamilyId.ALI_MIKHAIL_HAQ, 0.0, 2),
            CopulaSpec(FamilyId.JOE, 1.0, 2),
            CopulaSpec(FamilyId.GUMBEL_HOUGAARD, 1.0, 2),
        ):
            np.testing.assert_allclose(phi(spec, t), -np.log(t), rtol=1e-12, atol=1e-15)


class TestPhiPrime:
    def test_clayton_value(self):
        # d/dt (t^-2 - 1)/2 = -t^-3 = -8 at t = 0.5
        assert phi_prime(CLAYTON2_D3, 0.5) == pytest.approx(-8.0, rel=1e-13)

    def test_amh_zero_theta(self):
        spec = CopulaSpec(FamilyId.ALI_MIKHAIL_HAQ, 0.0, 2)
        assert phi_prime(spec, 0.5) == pytest.approx(-2.0, rel=1e-13)

    def test_joe_theta_one(self):
        spec = CopulaSpec(FamilyId.JOE, 1.0, 2)
        assert phi_prime(spec, 0.5) == pytest.approx(-2.0, rel=1e-13)

    @pytest.mark.parametrize("spec", list(all_specs()), ids=str)
    def test_negative_everywhere(self, spec):
        t = np.linspace(0.005, 0.995, 200)
        assert np.all(phi_prime(spec, t) < 0.0)

    @pytest.mark.parametrize("spec", list(all_specs()), ids=str)
    def test_matches_central_difference(self, spec):
        t = np.linspace(0.01, 0.99, 99)
        h = 1e-6
        fd = (phi(spec, t + h) - phi(spec, t - h)) / (2.0 * h)
        np.testing.assert_allclose(phi_prime(spec, t), fd, rtol=1e-6)

    def test_domain_excludes_endpoints(self):
        with pytest.raises(DomainError):
            phi_prime(CLAYTON2_D3, 1.0)
        with pytest.raises(GeneratorInfinityError):
            phi_prime(CLAYTON2_D3, 0.0)


class TestPhiInverse:
    def test_zero_maps_to_one_exactly(self):
        for spec in all_specs():
            assert phi_inverse(spec, 0.0) == 1.0

    def test_clayton_value(self):
        assert phi_inverse(CLAYTON2_D3, 1.5) == pytest.approx(0.5, rel=1e-14)

    def test_gumbel_value(self):
        spec = CopulaSpec(FamilyId.GUMBEL_HOUGAARD, 2.0, 2)
        assert phi_inverse(spec, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            phi_inverse(CLAYTON2_D3, -1e-9)

    @pytest.mark.parametrize("spec", list(all_specs()), ids=str)
    def test_round_trip(self, spec):
        t = np.geomspace(1e-6, 1.0, 200)
        back = phi_inverse(spec, phi(spec, t))
        np.testing.assert_allclose(back, t, rtol=1e-12)

    @pytest.mark.parametrize("spec", list(all_specs()), ids=str)
    def test_complete_monotonicity_spot_check(self, spec):
        # Frank theta < 0 and AMH theta < 0 are bivariate-only and excluded
        if spec.theta < 0:
            return
        t = np.linspace(0.1, 10.0, 40)
        h = 0.05
        for k in range(5):
            coef = [(-1) ** i * math.comb(k, i) for i in range(k + 1)]
            acc = sum(
                c * phi_inverse(spec, t + (k / 2 - i) * h)
                for i, c in enumerate(coef)
            )
            signed = (-1) ** k * acc / h ** k
            assert np.all(signed >= -1e-6)


class TestCopulaCdf:
    def test_boundary_reduces_to_coordinate(self):
        assert copula_cdf(CLAYTON2_D3, [0.3, 1.0, 1.0]) == pytest.approx(0.3, abs=1e-14)

    def test_zero_coordinate_forces_zero(self):
        spec = CopulaSpec(FamilyId.FRANK, 5.74, 3)
        assert copula_cdf(spec, [0.0, 0.5, 0.9]) == 0.0

    @pytest.mark.parametrize("family,theta", [
        (FamilyId.CLAYTON, 50.0), (FamilyId.FRANK, 40.0), (FamilyId.FRANK, -40.0),
        (FamilyId.GUMBEL_HOUGAARD, 30.0), (FamilyId.JOE, 30.0),
        (FamilyId.ALI_MIKHAIL_HAQ, -1.0), (FamilyId.ALI_MIKHAIL_HAQ, 0.99),
    ])
    def test_zero_coordinate_is_plus_zero_without_warnings(self, family, theta):
        bivariate = family is FamilyId.ALI_MIKHAIL_HAQ or theta < 0
        for d in ((2,) if bivariate else (2, 3, 4)):
            spec = CopulaSpec(family, theta, d)
            others = np.array([1.0, 0.5, 1e-300, 0.0, 1.0 - 1e-16])
            rows = np.stack(np.meshgrid(*[others] * (d - 1), indexing="ij"), -1).reshape(-1, d - 1)
            pts = np.concatenate([np.insert(rows, j, 0.0, axis=1) for j in range(d)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = copula_cdf(spec, pts)
                one = copula_cdf(spec, pts[0])
            assert np.all(out == 0.0) and not np.any(np.signbit(out))
            assert one == 0.0 and math.copysign(1.0, one) == 1.0

    def test_clayton_bivariate_value(self):
        # (4 + 4 - 1)^(-1/2)
        got = copula_cdf(CLAYTON2_D2, [0.5, 0.5])
        assert got == pytest.approx(1.0 / math.sqrt(7.0), rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            copula_cdf(CLAYTON2_D3, [0.5, 0.5])

    def test_out_of_unit_cube(self):
        with pytest.raises(DomainError):
            copula_cdf(CLAYTON2_D3, [0.5, 0.5, 1.2])

    @pytest.mark.parametrize("spec", list(all_specs()), ids=str)
    def test_exchangeability(self, spec):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.02, 0.98, size=(50, spec.d))
        base = copula_cdf(spec, pts)
        for perm in ([1, 0] if spec.d == 2 else [2, 0, 1], ):
            permuted = copula_cdf(spec, pts[:, perm])
            np.testing.assert_allclose(permuted, base, atol=1e-14)

    @pytest.mark.parametrize("spec", list(all_specs()), ids=str)
    def test_generator_composition(self, spec):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0.01, 1.0, size=(200, spec.d))
        composed = phi_inverse(spec, np.sum(phi(spec, pts), axis=1))
        np.testing.assert_allclose(copula_cdf(spec, pts), composed, atol=1e-12)

    @pytest.mark.parametrize("spec", list(all_specs()), ids=str)
    def test_values_in_unit_interval(self, spec):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 1.0, size=(300, spec.d))
        vals = copula_cdf(spec, pts)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_batch_shapes(self):
        pts = np.random.default_rng(8).uniform(0.1, 0.9, size=(4, 5, 3))
        out = copula_cdf(CLAYTON2_D3, pts)
        assert out.shape == (4, 5)
        assert isinstance(copula_cdf(CLAYTON2_D3, pts[0, 0]), float)

    def test_frank_negative_theta_cdf(self):
        spec = CopulaSpec(FamilyId.FRANK, -3.0, 2)
        pts = np.random.default_rng(9).uniform(0.05, 0.95, size=(100, 2))
        composed = phi_inverse(spec, np.sum(phi(spec, pts), axis=1))
        np.testing.assert_allclose(copula_cdf(spec, pts), composed, atol=1e-12)


class TestBetaKernel:
    def test_bracket_vanishes_at_alpha_for_d3(self):
        assert beta_kernel(CLAYTON2_D3, 0.05, 0.05) == 0.0

    def test_d2_degenerates_to_minus_phi_prime(self):
        for family, grid in THETA_GRID.items():
            spec = spec_for(family, grid[1], d=2)
            alpha = 0.05
            assert beta_kernel(spec, alpha, alpha) == pytest.approx(
                -phi_prime(spec, alpha), rel=1e-14
            )

    def test_clayton_d3_interior_value(self):
        # -phi'(u) [phi(a) - phi(u)], phi carrying its 1/theta factor:
        # u^-3 * (a^-2 - u^-2)/2 at u=0.5, a=0.05
        expect = 0.5 ** -3 * (0.05 ** -2 - 0.5 ** -2) / 2.0
        assert expect == pytest.approx(1584.0, abs=1e-9)
        got = beta_kernel(CLAYTON2_D3, 0.5, 0.05)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_nonnegative_on_domain(self):
        for spec in all_specs():
            u = np.linspace(0.05, 0.999, 100)
            assert np.all(beta_kernel(spec, u, 0.05) >= 0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            beta_kernel(CLAYTON2_D3, 0.04, 0.05)
        with pytest.raises(DomainError):
            beta_kernel(CLAYTON2_D3, 1.0, 0.05)
        with pytest.raises(DomainError):
            beta_kernel(CLAYTON2_D3, 0.5, 1.5)


class TestFamilyTable:
    def test_one_record_per_family(self):
        assert list(FAMILIES) == list(FamilyId)
        assert len({id(rec) for rec in FAMILIES.values()}) == len(FamilyId)
        aliases = [alias for rec in FAMILIES.values() for alias in rec.aliases]
        assert len(aliases) == len(set(aliases))
        for family, rec in FAMILIES.items():
            for alias in rec.aliases + (family.value,):
                assert FamilyId.from_string(alias) is family

    @pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
    def test_every_entry_point_accepts_every_family(self, family):
        theta = THETA_GRID[family][1]
        spec = CopulaSpec(family, theta, 2)
        u = np.array([0.3, 0.7])
        np.testing.assert_allclose(phi_inverse(spec, phi(spec, u)), u, rtol=1e-12)
        assert np.all(phi_prime(spec, u) < 0.0)
        assert 0.0 < copula_cdf(spec, u) < 0.3
        assert beta_kernel(spec, 0.7, 0.3) > 0.0
        tau = kendall_tau(spec)
        lo, hi = tau_range(family)
        assert lo <= tau < hi
        assert theta_from_tau(family, tau) == pytest.approx(theta, rel=1e-6)
        assert np.all(sample_frailty(family, theta, Seed(1), 100) > 0.0)
        margins = [UniformMargin()] * 2
        res = var_for_spec(spec, margins, 0.3)
        np.testing.assert_allclose(res.components,
                                   var_generic(spec, margins, 0.3).components, rtol=1e-8)
        assert kernel_mass(spec, 0.3) == pytest.approx(1.0, abs=1e-9)
        est, _count = estimate_var_once(sample_copula(spec, 20_000, Seed(1)), spec, 0.3,
                                        1e-2, margins)
        np.testing.assert_allclose(est, res.components, atol=0.05)
