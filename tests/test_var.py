"""Analytical VaR: reference values, oracle equivalence and structure."""
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate
from scipy import special
from test_quadrature import count_rule_calls

from archvar import (
    ConstantMargin,
    CopulaSpec,
    DomainError,
    FamilyId,
    FunctionMargin,
    ParameterError,
    QuadratureError,
    TabulatedMargin,
    UniformMargin,
    kernel_mass,
    var_for_spec,
    var_generic,
)
from archvar import quadrature, var
from archvar.families import FAMILIES

U = UniformMargin()

# frozen oracle values from high-resolution reference quadrature of the
# family integrands (absolute accuracy better than 1e-12)
REFERENCE_UNIFORM_D3_A05 = {
    (FamilyId.CLAYTON, 2.0): 0.1239606954,
    (FamilyId.FRANK, 5.74): 0.2378182395,
    (FamilyId.GUMBEL_HOUGAARD, 2.0): 0.2518285787,
    (FamilyId.JOE, 2.4): 0.3173527080,
}
INDEPENDENCE_D2_A05 = 0.317117790661  # (1-a)/(-ln a) at a = 0.05
AMH_09_A05 = 0.201517596331
CLAYTON_D2_A999 = 0.999499749875

def _amh(theta: float) -> CopulaSpec:
    return CopulaSpec(FamilyId.ALI_MIKHAIL_HAQ, theta, 2)


GRID_THETAS = {
    FamilyId.CLAYTON: (0.5, 2.0, 8.0),
    FamilyId.FRANK: (1.0, 5.74, 12.0),
    FamilyId.GUMBEL_HOUGAARD: (1.0, 2.0, 4.0),
    FamilyId.JOE: (1.2, 2.4, 5.0),
    FamilyId.ALI_MIKHAIL_HAQ: (-0.7, 0.3, 0.9),
}


class TestReferenceValues:
    @pytest.mark.parametrize("key,expect", list(REFERENCE_UNIFORM_D3_A05.items()),
                             ids=lambda v: str(v))
    def test_trivariate_uniform_values(self, key, expect):
        family, theta = key
        spec = CopulaSpec(family, theta, 3)
        res = var_for_spec(spec, [U] * 3, 0.05)
        assert res.components[0] == pytest.approx(expect, abs=1e-9)

    def test_clayton_uniform_scalar_matches_bivariate_antiderivative(self):
        # theta/(a^-theta - 1) * int_a^1 u^-theta du at theta=2, a=0.05 is 38/399
        got = var_for_spec(CopulaSpec(FamilyId.CLAYTON, 2.0, 2), [U] * 2, 0.05).components[0]
        assert got == pytest.approx(38.0 / 399.0, abs=1e-12)
        # and at any a it is 2a/(1+a)
        for alpha in ORACLE_ALPHAS:
            got = var_for_spec(CopulaSpec(FamilyId.CLAYTON, 2.0, 2), [U] * 2, alpha)
            with mpmath.workdps(40):
                a = mpmath.mpf(alpha)
                want = float(2 * a / (1 + a))
            assert got.components[0] == pytest.approx(want, rel=1e-9, abs=0.0), alpha

    def test_clayton_uniform_near_one(self):
        got = var_for_spec(CopulaSpec(FamilyId.CLAYTON, 2.0, 2), [U] * 2, 0.999).components[0]
        assert abs(got - 0.9995) <= 1e-3
        assert got == pytest.approx(CLAYTON_D2_A999, abs=1e-9)

    def test_amh_independence_closed_form(self):
        res = var_for_spec(_amh(0.0), [U, U], 0.05)
        expect = (1.0 - 0.05) / (-np.log(0.05))
        assert res.components[0] == pytest.approx(expect, abs=1e-10)
        assert res.components[0] == pytest.approx(INDEPENDENCE_D2_A05, abs=1e-9)

    def test_amh_strong_dependence_matches_generic(self):
        res = var_for_spec(_amh(0.9), [U, U], 0.05)
        gen = var_generic(CopulaSpec(FamilyId.ALI_MIKHAIL_HAQ, 0.9, 2), [U, U], 0.05)
        assert res.components[0] == pytest.approx(gen.components[0], abs=1e-9)
        assert res.components[0] == pytest.approx(AMH_09_A05, abs=1e-9)

    def test_gumbel_and_joe_at_independence(self):
        g = var_for_spec(CopulaSpec(FamilyId.GUMBEL_HOUGAARD, 1.0, 2), [U] * 2, 0.05)
        j = var_for_spec(CopulaSpec(FamilyId.JOE, 1.0, 2), [U] * 2, 0.05)
        assert g.components[0] == pytest.approx(INDEPENDENCE_D2_A05, abs=1e-9)
        assert j.components[0] == pytest.approx(INDEPENDENCE_D2_A05, abs=1e-9)


# The paper's explicit expressions for uniform margins, at 40 digits; they share
# no integrand with the program.  scipy.special.hyp2f1 is not used: it is
# 3.3e-8 off at theta = 2, d = 50, alpha = 0.5.
ORACLE_ALPHAS = (1e-6, 1e-3, 0.05, 0.5, 0.95, 1.0 - 1e-4, 1.0 - 1e-6)


def _clayton_closed_form(theta, d, alpha):
    """``2F1(1/theta, 1; d; 1 - alpha^-theta)``."""
    with mpmath.workdps(40):
        th, a = mpmath.mpf(theta), mpmath.mpf(alpha)
        return float(mpmath.hyp2f1(1 / th, 1, d, 1 - a ** -th))


def _amh_closed_form(theta, alpha):
    """``(1-theta)/ln[(1-theta(1-alpha))/alpha] * (-ln(1-theta(1-alpha))/theta)``, d = 2."""
    with mpmath.workdps(40):
        th, a = mpmath.mpf(theta), mpmath.mpf(alpha)
        return float((1 - th) / mpmath.log((1 - th * (1 - a)) / a)
                     * (-mpmath.log(1 - th * (1 - a)) / th))


def _gumbel_closed_form(theta, alpha):
    """``theta la^-theta gamma(theta, la)``, ``la = -ln alpha``, d = 2."""
    with mpmath.workdps(40):
        th, la = mpmath.mpf(theta), -mpmath.log(mpmath.mpf(alpha))
        return float(th * la ** -th * mpmath.gammainc(th, 0, la))


CLAYTON_ORACLE_CASES = [
    pytest.param(theta, d, alpha, id=f"theta{theta}-d{d}-a{alpha!r}")
    for theta in (0.01, 0.5, 2.0, 10.0, 50.0) for d in (2, 3, 10, 50) for alpha in ORACLE_ALPHAS
]


class TestExplicitExpressions:
    """The reduced forms against the paper's closed forms, to the default rel_tol."""

    @pytest.mark.parametrize("theta, d, alpha", CLAYTON_ORACLE_CASES)
    def test_clayton_hypergeometric(self, theta, d, alpha):
        # at d = 50, alpha = 1 - 1e-6 the u-space form was 1.13e-9 off for
        # every theta: its nodes rounded within the 1e-6-wide interval
        got = var_for_spec(CopulaSpec(FamilyId.CLAYTON, theta, d), [U] * d, alpha)
        assert got.components[0] == pytest.approx(_clayton_closed_form(theta, d, alpha),
                                                  rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.3, 0.9, 0.99])
    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_amh_bivariate(self, theta, alpha):
        # at theta = 0.99, alpha = 1 - 1e-6 the form's log of a ratio
        # cancelled: it was 1.5e-8 off
        got = var_for_spec(_amh(theta), [U, U], alpha)
        assert got.components[0] == pytest.approx(_amh_closed_form(theta, alpha),
                                                  rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("theta", [1.05, 1.5, 2.0, 6.0, 20.0])
    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_gumbel_bivariate(self, theta, alpha):
        got = var_for_spec(CopulaSpec(FamilyId.GUMBEL_HOUGAARD, theta, 2), [U, U], alpha)
        assert got.components[0] == pytest.approx(_gumbel_closed_form(theta, alpha),
                                                  rel=1e-9, abs=0.0)


class TestConstantMarginIdentity:
    def test_every_family_returns_the_constant(self):
        c = 3.7
        margins2 = [ConstantMargin(c)] * 2
        for family, thetas in GRID_THETAS.items():
            res = var_for_spec(CopulaSpec(family, thetas[1], 2), margins2, 0.05)
            assert res.components[0] == pytest.approx(c, rel=1e-10)

    def test_generic_constant_margin(self):
        res = var_generic(CopulaSpec(FamilyId.CLAYTON, 2.0, 2), [ConstantMargin(3.7)] * 2, 0.05)
        assert res.components[0] == pytest.approx(3.7, rel=1e-10)


class TestOracleEquivalence:
    @pytest.mark.parametrize("family", [f for f, _ in REFERENCE_UNIFORM_D3_A05],
                             ids=lambda f: f.value)
    def test_specialized_matches_generic(self, family):
        for theta in GRID_THETAS[family]:
            for d in (2, 3):
                for alpha in (0.05, 0.5):
                    spec = CopulaSpec(family, theta, d)
                    a = var_for_spec(spec, [U] * d, alpha)
                    b = var_generic(spec, [U] * d, alpha)
                    tol = max(
                        1e-8,
                        float(a.abs_error_estimate[0] + b.abs_error_estimate[0]),
                    )
                    assert abs(a.components[0] - b.components[0]) <= tol

    def test_amh_matches_generic(self):
        for theta in GRID_THETAS[FamilyId.ALI_MIKHAIL_HAQ]:
            for alpha in (0.05, 0.5):
                a = var_for_spec(_amh(theta), [U, U], alpha)
                b = var_generic(_amh(theta), [U, U], alpha)
                assert a.components[0] == pytest.approx(b.components[0], abs=1e-8)


class TestKernelMass:
    @pytest.mark.parametrize("spec,alpha", [
        (CopulaSpec(FamilyId.CLAYTON, 2.0, 3), 0.05),
        (CopulaSpec(FamilyId.JOE, 2.4, 5), 0.5),
        (CopulaSpec(FamilyId.GUMBEL_HOUGAARD, 3.0, 2), 0.01),
    ], ids=("clayton-d3", "joe-d5", "gumbel-d2"))
    def test_unit_mass_examples(self, spec, alpha):
        assert kernel_mass(spec, alpha) == pytest.approx(1.0, abs=1e-10)


class TestStructuralProperties:
    def test_uniform_bounds(self):
        for family, thetas in GRID_THETAS.items():
            d = 2 if family is FamilyId.ALI_MIKHAIL_HAQ else 3
            for theta in thetas:
                for alpha in (0.01, 0.5, 0.9):
                    res = var_for_spec(CopulaSpec(family, theta, d), [U] * d, alpha)
                    assert alpha <= res.components[0] <= 1.0

    def test_identical_margins_broadcast_bitwise(self):
        res = var_for_spec(CopulaSpec(FamilyId.CLAYTON, 2.0, 3), [U, U, U], 0.05)
        assert res.components[0] == res.components[1] == res.components[2]
        # distinct-but-equal margin objects broadcast too
        res2 = var_for_spec(
            CopulaSpec(FamilyId.CLAYTON, 2.0, 3),
            [UniformMargin(), UniformMargin(), UniformMargin()],
            0.05,
        )
        assert res2.components[0] == res2.components[1] == res2.components[2]

    def test_scale_equivariance(self):
        base = FunctionMargin(lambda u: u ** 2)
        scaled = FunctionMargin(lambda u: 10.0 * u ** 2)
        for spec in (CopulaSpec(FamilyId.CLAYTON, 2.0, 2),
                     CopulaSpec(FamilyId.GUMBEL_HOUGAARD, 2.0, 2)):
            a = var_for_spec(spec, [base] * 2, 0.05).components[0]
            b = var_for_spec(spec, [scaled] * 2, 0.05).components[0]
            assert b == pytest.approx(10.0 * a, abs=1e-10)

    def test_monotone_in_alpha(self):
        alphas = np.linspace(0.02, 0.95, 12)
        for family, thetas in GRID_THETAS.items():
            d = 2 if family is FamilyId.ALI_MIKHAIL_HAQ else 3
            spec = CopulaSpec(family, thetas[1], d)
            values = [
                var_for_spec(spec, [U] * d, float(a)).components[0] for a in alphas
            ]
            assert np.all(np.diff(values) >= 0.0)

    def test_mixed_margins_distinct_components(self):
        margins = [UniformMargin(), ConstantMargin(0.4), FunctionMargin(lambda u: u ** 2)]
        res = var_for_spec(CopulaSpec(FamilyId.CLAYTON, 2.0, 3), margins, 0.05)
        assert res.components[1] == pytest.approx(0.4, rel=1e-10)
        assert len(set(np.round(res.components, 12))) == 3

    def test_error_estimates_populated(self):
        res = var_for_spec(CopulaSpec(FamilyId.CLAYTON, 2.0, 3), [U] * 3, 0.05)
        assert res.abs_error_estimate.shape == (3,)
        assert np.all(res.abs_error_estimate >= 0.0)


class TestDomainHandling:
    def test_frank_var_requires_positive_theta(self):
        spec = CopulaSpec(FamilyId.FRANK, -3.0, 2)
        with pytest.raises(DomainError, match=r"\(0, inf\)"):
            var_for_spec(spec, [U] * 2, 0.05)

    def test_alpha_domain(self):
        spec = CopulaSpec(FamilyId.CLAYTON, 2.0, 2)
        for alpha in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                var_for_spec(spec, [U] * 2, alpha)

    def test_underflowed_phi_alpha_is_a_quadrature_error(self):
        # phi(alpha) rounds to 0: Frank theta = 800 at alpha = 1 - 1e-6, where
        # e^(-theta alpha) underflows, and Joe theta = 1100 at alpha = 0.5,
        # where (1 - alpha)^theta does
        for spec, alpha in ((CopulaSpec(FamilyId.FRANK, 800.0, 3), 1.0 - 1e-6),
                            (CopulaSpec(FamilyId.JOE, 1100.0, 2), 0.5)):
            for call in (lambda: var_for_spec(spec, [U] * spec.d, alpha),
                         lambda: var_generic(spec, [U] * spec.d, alpha),
                         lambda: kernel_mass(spec, alpha)):
                with pytest.raises(QuadratureError, match="underflows"):
                    call()

    def test_smallest_alpha_gives_a_value_or_a_typed_error(self):
        # at alpha = 5e-324 these overflowed with a RuntimeWarning (an error
        # under this suite's filter): Frank's e^(la - t) at the nodes near
        # t = 0, Joe's phi(alpha) = -ln(1 - (1 - alpha)^theta), Clayton's
        # phi(alpha) and every family's phi' near alpha in kernel_mass
        tiny = 5e-324
        specs = {f: CopulaSpec(f, th, 2 if f is FamilyId.ALI_MIKHAIL_HAQ else 3)
                 for f, th in ((FamilyId.CLAYTON, 2.0), (FamilyId.FRANK, 5.74),
                               (FamilyId.GUMBEL_HOUGAARD, 2.0), (FamilyId.JOE, 2.4),
                               (FamilyId.ALI_MIKHAIL_HAQ, 0.3))}
        for family, spec in specs.items():
            with pytest.raises(QuadratureError, match="overflows"):
                kernel_mass(spec, tiny)
            with pytest.raises(QuadratureError, match="overflows"):
                var_generic(spec, [U] * spec.d, tiny)
            if family in (FamilyId.FRANK, FamilyId.JOE):
                with pytest.raises(QuadratureError, match="overflows"):
                    var_for_spec(spec, [U] * spec.d, tiny)
        # the rest keep their values: Clayton's VaR, about 1.5e-323, is 0
        # within the absolute tolerance; Gumbel's is about 4/744^2
        assert var_for_spec(specs[FamilyId.CLAYTON], [U] * 3, tiny).components[0] == 0.0
        for family, want in ((FamilyId.GUMBEL_HOUGAARD, 7.21765e-06),
                             (FamilyId.ALI_MIKHAIL_HAQ, 0.0011185)):
            got = var_for_spec(specs[family], [U] * specs[family].d, tiny).components[0]
            assert got == pytest.approx(want, rel=1e-4)    # the figures quoted
            assert got == pytest.approx(_mp_var(family, specs[family].theta, specs[family].d,
                                                tiny), rel=1e-9)

    def test_frank_alpha_below_the_exponent_range_is_a_quadrature_error(self):
        # below alpha = e^-709.78, e^(la - t) overflows; the form returned 0.0
        # with a warning at d = 2 where the VaR is about 4e-4
        spec = CopulaSpec(FamilyId.FRANK, 5.74, 2)
        assert var_for_spec(spec, [U] * 2, 1e-300).components[0] == pytest.approx(
            _mp_var(FamilyId.FRANK, 5.74, 2, 1e-300), rel=1e-9)
        for alpha in (5.5e-309, 1e-310, 1e-320):
            with pytest.raises(QuadratureError, match=r"expm1\(-ln alpha\) overflows"):
                var_for_spec(spec, [U] * 2, alpha)

    @pytest.mark.parametrize("family, theta, d, alpha, call", [
        (FamilyId.CLAYTON, 2.0, 10, 1.0 - 1e-6, "lognormal"),
        (FamilyId.GUMBEL_HOUGAARD, 1.0, 50, 1.0 - 1e-6, "normal"),
    ])
    def test_roundoff_limited_integral_stops_early(self, monkeypatch, family, theta,
                                                   d, alpha, call):
        # these integrals lose their digits to roundoff (see ROADMAP's
        # carry-over defects): near u = 1 the quantile of e^-t is a staircase
        # at the spacing of the doubles; the quadrature stops once roundoff
        # stalls it instead of making all 2000 splits
        calls = count_rule_calls(monkeypatch)
        spec = CopulaSpec(family, theta, d)
        margin = _lognormal(0.0, 0.5) if call == "lognormal" else _normal(3.0, 1.0)
        with pytest.raises(QuadratureError, match="roundoff") as excinfo:
            var_for_spec(spec, [margin] * d, alpha)
        assert len(calls) <= 25
        assert excinfo.value.splits == sum(calls[1:]) // 2    # the halves of each round

    def test_frank_large_theta_kernel_mass_converges(self, monkeypatch):
        # it stopped by roundoff: Frank's public phi took -ln r with r near
        # 1, which cancels; -log1p(r - 1), with r - 1 from 1 - t, keeps the
        # digits, and the mass converges to 1 - 2.3e-15 in a few rounds
        calls = count_rule_calls(monkeypatch)
        mass = kernel_mass(CopulaSpec(FamilyId.FRANK, 40.0, 10), 0.5)
        assert mass == pytest.approx(1.0, rel=0.0, abs=1e-13) and len(calls) <= 5

    def test_margin_count_mismatch(self):
        spec = CopulaSpec(FamilyId.CLAYTON, 2.0, 3)
        with pytest.raises(ParameterError):
            var_for_spec(spec, [U] * 2, 0.05)


# ------------------------------------------------------------ tabulated margins

# (phi, phi_inverse) from the paper's generator table, evaluated with the
# module m: math for floats, or mpmath at the precision in force.  The
# oracles below share no code with archvar.
ORACLE_GENERATORS = {
    FamilyId.CLAYTON: (lambda th, t, m=math: m.expm1(-th * m.log(t)) / th,
                       lambda th, s, m=math: m.exp(-m.log1p(th * s) / th)),
    FamilyId.FRANK: (lambda th, t, m=math: -m.log(m.expm1(-th * t) / m.expm1(-th)),
                     lambda th, s, m=math: -m.log1p(m.exp(-s) * m.expm1(-th)) / th),
    FamilyId.GUMBEL_HOUGAARD: (lambda th, t, m=math: (-m.log(t)) ** th,
                               lambda th, s, m=math: m.exp(-(s ** (1.0 / th)))),
    FamilyId.JOE: (lambda th, t, m=math: -m.log1p(-((1.0 - t) ** th)),
                   lambda th, s, m=math: 1.0 - (-m.expm1(-s)) ** (1.0 / th)),
    FamilyId.ALI_MIKHAIL_HAQ: (lambda th, t, m=math: m.log1p(-th * (1.0 - t)) - m.log(t),
                               lambda th, s, m=math: (1.0 - th) / (m.exp(s) - th)),
}
TABLE_THETAS = {
    FamilyId.CLAYTON: 2.0,
    FamilyId.FRANK: 5.74,
    FamilyId.GUMBEL_HOUGAARD: 2.0,
    FamilyId.JOE: 2.4,
    FamilyId.ALI_MIKHAIL_HAQ: 0.3,
}
TABLE_ALPHAS = (0.01, 0.05, 0.5, 0.95)


def _table(draws: np.ndarray, knots: int) -> TabulatedMargin:
    """The empirical quantiles of ``draws`` at ``knots`` evenly spaced levels."""
    levels = (np.arange(knots) + 0.5) / knots
    return TabulatedMargin(levels, np.quantile(draws, levels))


def _lognormal_table(seed: int, knots: int = 200) -> TabulatedMargin:
    return _table(np.random.default_rng(seed).lognormal(0.0, 0.5, 20_000), knots)


def _oracle_table_var(family, theta, d, alpha, margin):
    """``(d-1) int_0^1 q(phi^-1(phi(alpha) x)) (1-x)^(d-2) dx`` by QUADPACK.

    The Beta form of the VaR integral, with the table's knots in ``x`` as
    breakpoints.
    """
    gen, gen_inv = ORACLE_GENERATORS[family]
    phi_a = gen(theta, alpha)
    levels, quantiles = margin.levels, margin.quantiles

    def f(x):
        u = gen_inv(theta, phi_a * x)
        return float(np.interp(u, levels, quantiles)) * (d - 1) * (1.0 - x) ** (d - 2)

    points = sorted(gen(theta, float(lv)) / phi_a for lv in levels if alpha < lv < 1.0)
    value, err = scipy_integrate.quad(f, 0.0, 1.0, points=points, limit=4 * len(points) + 200,
                                      epsabs=1e-15, epsrel=1e-13)
    assert err <= 1e-12 * abs(value)
    return value


TABLE_CASES = [(fam, d, alpha) for fam in TABLE_THETAS
               for d in ((2,) if fam is FamilyId.ALI_MIKHAIL_HAQ else (2, 3))
               for alpha in TABLE_ALPHAS]


class TestTabulatedMargins:
    @pytest.mark.parametrize("family,d,alpha", TABLE_CASES,
                             ids=[f"{f.value}-d{d}-a{a}" for f, d, a in TABLE_CASES])
    def test_matches_beta_form_oracle(self, family, d, alpha):
        margin = _lognormal_table(seed=11)
        spec = CopulaSpec(family, TABLE_THETAS[family], d)
        got = var_for_spec(spec, [margin] * d, alpha)
        want = _oracle_table_var(family, spec.theta, d, alpha, margin)
        assert got.components[0] == pytest.approx(want, rel=1e-9)
        assert got.abs_error_estimate[0] <= 1e-9 * abs(want)

    def test_generic_form_matches_beta_form_oracle(self):
        margin = _lognormal_table(seed=11)
        for family, d, alpha in TABLE_CASES:
            spec = CopulaSpec(family, TABLE_THETAS[family], d)
            got = var_generic(spec, [margin] * d, alpha).components[0]
            want = _oracle_table_var(family, spec.theta, d, alpha, margin)
            assert got == pytest.approx(want, rel=1e-9), (family, d, alpha)

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_zero_crossing_tables_give_finite_values(self, seed):
        # 300 knots from 50,000 standard normal draws: the quantiles change
        # sign inside the table
        margin = _table(np.random.default_rng(seed).standard_normal(50_000), 300)
        assert margin.quantiles[0] < 0.0 < margin.quantiles[-1]
        for family, theta in TABLE_THETAS.items():
            for d in ((2,) if family is FamilyId.ALI_MIKHAIL_HAQ else (2, 3, 10, 50)):
                spec = CopulaSpec(family, theta, d)
                for alpha in TABLE_ALPHAS:
                    res = var_for_spec(spec, [margin] * d, alpha)
                    assert np.all(np.isfinite(res.components)), (family, d, alpha)

    def test_first_pass_converges(self, monkeypatch):
        calls = count_rule_calls(monkeypatch)
        margin = _lognormal_table(seed=11)
        var_for_spec(CopulaSpec(FamilyId.CLAYTON, 2.0, 2), [margin] * 2, 0.95)
        assert len(calls) <= 3

    def test_dense_table_memory_is_bounded(self):
        # Clayton theta = 2, d = 3 has the weight K (A u^-3 - u^-5) with
        # A = alpha^-2 and K = 4 / (A - 1)^2, so a piecewise-linear quantile
        # integrates exactly, panel by panel.  Evaluated all at once, the
        # first pass over 100,000 knots peaked at about 60 MB.
        alpha = 0.05
        margin = _lognormal_table(seed=5, knots=100_000)
        edges = np.concatenate([[alpha], margin.levels[margin.levels > alpha], [1.0]])
        a_, k_ = alpha ** -2.0, 4.0 / (alpha ** -2.0 - 1.0) ** 2

        def mass(u):        # int w du, up to K
            return -a_ / (2.0 * u ** 2) + 1.0 / (4.0 * u ** 4)

        def moment(u):      # int u w du, up to K
            return -a_ / u + 1.0 / (3.0 * u ** 3)

        q = np.interp(edges, margin.levels, margin.quantiles)
        left, right = edges[:-1], edges[1:]
        slope = np.diff(q) / (right - left)
        m0 = mass(right) - mass(left)
        panels = q[:-1] * m0 + slope * (moment(right) - moment(left) - left * m0)
        want = k_ * math.fsum(panels)

        spec = CopulaSpec(FamilyId.CLAYTON, 2.0, 3)
        tracemalloc.start()
        try:
            got = var_for_spec(spec, [margin] * 3, alpha).components[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(want, rel=1e-9)
        assert peak < 12e6


# ------------------------------------------------------- several margins

# the benchmark's VaR grid: each family's Table-1 (AMH: acceptance) value and
# a strong one; at d = 10 also alpha = 1 - 1e-6, where the lognormal margin of
# Clayton and Frank stopped by roundoff on the symmetric mesh
LOCKSTEP_THETAS = {
    FamilyId.CLAYTON: (2.0, 10.0),
    FamilyId.FRANK: (5.74, 12.0),
    FamilyId.GUMBEL_HOUGAARD: (2.0, 6.0),
    FamilyId.JOE: (2.4, 6.0),
    FamilyId.ALI_MIKHAIL_HAQ: (0.3, 0.95),
}
LOCKSTEP_CASES = [(fam, th, d, alpha) for fam, thetas in LOCKSTEP_THETAS.items()
                  for th in thetas
                  for d in ((2,) if fam is FamilyId.ALI_MIKHAIL_HAQ else (3, 10))
                  for alpha in (0.05, 0.95) + ((1.0 - 1e-6,) if d == 10 else ())]


def _normal(mu: float, sigma: float) -> FunctionMargin:
    return FunctionMargin(lambda u: mu + sigma * special.ndtri(u))


def _lognormal(mu: float, sigma: float) -> FunctionMargin:
    return FunctionMargin(lambda u: np.exp(mu + sigma * special.ndtri(u)))


def _var_outcome(spec, margins, alpha):
    """Components, bounds and counts as bytes, or the exception's type, message and fields."""
    try:
        res = var_for_spec(spec, margins, alpha)
        return (res.components.tobytes(), res.abs_error_estimate.tobytes(),
                res.n_evals.tobytes(), res.n_splits.tobytes())
    except QuadratureError as exc:
        return type(exc), str(exc), repr(exc.estimate), repr(exc.error_bound), exc.splits
    except Exception as exc:
        return type(exc), str(exc)


def _mixed(d: int) -> list:
    """A cycle of distinct margins: smooth ones, and a table that has knots."""
    cycle = [U, _normal(2.0, 0.5), _lognormal(0.5, 0.25), _normal(5.0, 2.0),
             _lognormal_table(seed=11)]
    return [cycle[i % min(d, len(cycle))] for i in range(d)]


def _assert_each_as_alone(got, margins, alone, distinct):
    """Each component of the outcome ``got`` has the bits of its margin's call alone."""
    for k, dtype in enumerate((float, float, int, int)):
        comps = np.frombuffer(got[k], dtype=dtype)
        for i, m in enumerate(margins):
            single = np.frombuffer(alone[distinct.index(m)][k], dtype=dtype)
            assert comps[i].tobytes() == single[0].tobytes(), (k, i)


class TestLockstepMargins:
    """A call's distinct margins share the first pass, then each refines
    alone, and each gets what it gets in a call of its own."""

    @pytest.mark.parametrize("family,theta,d,alpha", LOCKSTEP_CASES,
                             ids=[f"{f.value}-{t}-d{d}-a{a}" for f, t, d, a in LOCKSTEP_CASES])
    def test_components_match_single_margin_calls(self, family, theta, d, alpha):
        spec = CopulaSpec(family, theta, d)
        margins = _mixed(d)
        distinct = list(dict.fromkeys(margins))
        alone = [_var_outcome(spec, [m] * d, alpha) for m in distinct]
        failed = [out for out in alone if isinstance(out[0], type)]
        got = _var_outcome(spec, margins, alpha)
        if failed:
            # the first distinct margin to fail, in margin order
            assert got == failed[0]
            return
        _assert_each_as_alone(got, margins, alone, distinct)

    @pytest.mark.parametrize("family,theta", [(FamilyId.CLAYTON, 2.0), (FamilyId.FRANK, 12.0),
                                              (FamilyId.JOE, 6.0)])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    def test_smooth_margins_and_tables_match_single_margin_calls(self, family, theta, alpha):
        # four smooth margins share the graded mesh and two tables have
        # meshes of their own, joined at their knots: each gets the value,
        # bound and counts it gets alone
        tables = [_lognormal_table(seed=11), _lognormal_table(seed=12)]
        margins = [tables[0]] + _mixed(4) + [tables[1], _mixed(4)[1]]
        spec = CopulaSpec(family, theta, len(margins))
        distinct = list(dict.fromkeys(margins))
        alone = [_var_outcome(spec, [m] * spec.d, alpha) for m in distinct]
        got = _var_outcome(spec, margins, alpha)
        assert not isinstance(got[0], type)
        _assert_each_as_alone(got, margins, alone, distinct)

    @staticmethod
    def _failing_margins():
        # finite on the 513-point check grid, but infinite above 1 - 1e-7,
        # where the graded mesh's first pass puts nodes
        infinite_tail = FunctionMargin(lambda u: np.where(u > 1.0 - 1e-7, np.inf, u))
        probed = []

        def fails_after_probe(u):
            if probed:
                raise ArithmeticError("margin callable failed")
            probed.append(u.size)
            return u

        return infinite_tail, FunctionMargin(fails_after_probe)

    @pytest.mark.parametrize("order", ["infinite-first", "raising-first"])
    def test_first_failing_margin_wins(self, order):
        infinite_tail, raising = self._failing_margins()
        pair = [infinite_tail, raising] if order == "infinite-first" else [raising, infinite_tail]
        spec = CopulaSpec(FamilyId.CLAYTON, 2.0, 3)
        if order == "infinite-first":
            with pytest.raises(QuadratureError, match="non-finite") as excinfo:
                var_for_spec(spec, [U] + pair, 0.05)
            assert np.isnan(excinfo.value.estimate) and excinfo.value.error_bound == np.inf
            assert excinfo.value.splits == 0
        else:
            with pytest.raises(ArithmeticError, match="margin callable failed"):
                var_for_spec(spec, [U] + pair, 0.05)

    @pytest.mark.parametrize("order", ["infinite-first", "raising-first"])
    def test_margins_before_a_failure_run_on(self, order):
        # the raising margin fails at its first split; the infinite one fails
        # in the first pass, which the call meets first, yet a margin loop
        # meets whichever comes first in margin order
        infinite_tail = self._failing_margins()[0]
        steps = []

        def fails_at_first_split(u):
            if u.size == 30:
                steps.append(1)
                raise ArithmeticError("margin failed at a split")
            return u

        raising = FunctionMargin(fails_at_first_split)
        pair = [infinite_tail, raising] if order == "infinite-first" else [raising, infinite_tail]
        spec = CopulaSpec(FamilyId.CLAYTON, 100.0, 3)    # a uniform margin needs a split
        if order == "infinite-first":
            with pytest.raises(QuadratureError, match="non-finite"):
                var_for_spec(spec, [U] + pair, 0.05)
            assert steps == []
        else:
            with pytest.raises(ArithmeticError, match="failed at a split"):
                var_for_spec(spec, [U] + pair, 0.05)
            assert steps == [1]

    def test_calls_are_the_first_pass_then_each_margins_rounds(self, monkeypatch):
        # smooth margins share the graded first pass; then each that missed
        # its tolerance refines alone, in margin order, in the rounds of its
        # call alone (at theta = 100 all four split)
        spec = CopulaSpec(FamilyId.CLAYTON, 100.0, 10)
        margins = _mixed(4) * 2 + _mixed(4)[:2]
        rounds = []
        for m in dict.fromkeys(margins):
            calls = count_rule_calls(monkeypatch)
            var_for_spec(spec, [m] * 10, 0.05)
            assert calls[0] == _graded_intervals(0.05)
            rounds.append(calls[1:])
            monkeypatch.undo()
        assert len(rounds) == 5 and all(rounds)
        calls = count_rule_calls(monkeypatch)
        var_for_spec(spec, margins, 0.05)
        assert calls == [_graded_intervals(0.05)] + sum(rounds, [])


def _graded_intervals(alpha: float) -> int:
    """The intervals of the graded mesh of a VaR at ``alpha``."""
    return var._graded_mesh(-math.log(alpha)).size - 1


class TestCounts:
    """``VarResult.n_evals`` and ``n_splits``, one per component, from the driver."""

    def test_first_pass_only_op(self, monkeypatch):
        # the graded mesh's intervals at 15 nodes each, and no split
        calls = count_rule_calls(monkeypatch)
        res = var_for_spec(CopulaSpec(FamilyId.CLAYTON, 2.0, 3), [U] * 3, 0.5)
        n = _graded_intervals(0.5)
        assert calls == [n] and n == quadrature._GRADED.size + 1
        assert res.n_evals.tolist() == [n * 15] * 3 and res.n_splits.tolist() == [0] * 3
        assert res.n_evals.dtype.kind == res.n_splits.dtype.kind == "i"
        assert not (res.n_evals.flags.writeable or res.n_splits.flags.writeable)

    def test_splits_are_the_halves_of_each_round(self, monkeypatch):
        calls = count_rule_calls(monkeypatch)
        res = var_for_spec(CopulaSpec(FamilyId.CLAYTON, 100.0, 3), [U] * 3, 0.05)
        splits = sum(calls[1:]) // 2
        assert len(calls) > 1 and res.n_splits.tolist() == [splits] * 3
        assert res.n_evals.tolist() == [15 * (_graded_intervals(0.05) + 2 * splits)] * 3

    def test_a_table_counts_its_own_mesh(self, monkeypatch):
        table = _lognormal_table(seed=11)
        calls = count_rule_calls(monkeypatch)
        res = var_for_spec(CopulaSpec(FamilyId.GUMBEL_HOUGAARD, 2.0, 2), [U, table], 0.05)
        n = _graded_intervals(0.05)
        assert calls[0] == n and calls[1] > n    # the graded mesh, then the table's
        first = 15 * np.array(calls[:2])
        assert (res.n_evals == first + 30 * res.n_splits).all()


# ---------------------------------------------- graded mesh and the reduced forms

def _mp_var(family, theta, d, alpha, q=lambda u: u):
    """VaR at 40 digits in the Beta form ``(d-1) int_0^1 q(phi^-1(phi(alpha) x))
    (1-x)^(d-2) dx``, which shares no integrand with the program's forms."""
    if family not in ORACLE_GENERATORS:
        raise ValueError(f"no mpmath generator for {family!r}")
    mp, (phi, inv) = mpmath, ORACLE_GENERATORS[family]
    with mp.workdps(40):
        th = mp.mpf(theta)
        pa = phi(th, mp.mpf(alpha), mp)
        # below x = 1e-30, u rounds to 1 at 40 digits; the piece left out is
        # below 1e-26 for the margins used here
        return float((d - 1) * mp.quad(lambda x: q(inv(th, pa * x, mp)) * (1 - x) ** (d - 2),
                                       [mp.mpf("1e-30"), 0.5, 1]))


def _mp_lognormal(u):
    """``exp(0.5 ndtri(u))`` in mpmath."""
    return mpmath.exp(0.5 * mpmath.sqrt(2) * mpmath.erfinv(2 * u - 1))


class _FirstPass(Exception):
    pass


def _first_pass_nodes(spec, alpha):
    """The t nodes of a reduced form's first pass, the form's weight there, and ``la``."""
    weight = FAMILIES[spec.family].var_form(spec, alpha)
    la = -math.log(alpha)
    seen = []

    def recording(t):
        seen.append(t.copy())
        raise _FirstPass

    with pytest.raises(_FirstPass):
        quadrature._integrate_all([var._u], recording, quadrature.DEFAULT_QUAD,
                                  [var._graded_mesh(la)])
    return seen[0], weight(seen[0]), la


MESH_THETAS = {
    FamilyId.CLAYTON: (0.01, 2.0, 10.0),
    FamilyId.FRANK: (1.0, 5.74, 12.0),
    FamilyId.GUMBEL_HOUGAARD: (1.0, 2.0, 60.0),
    FamilyId.JOE: (1.2, 2.4, 6.0),
    FamilyId.ALI_MIKHAIL_HAQ: (-0.7, 0.3, 0.95),
}
# alpha on a log grid in [1e-6, 1 - 1e-6], dense toward both ends
TAILS = 10.0 ** -np.linspace(6.0, math.log10(2.0), 16)
MESH_ALPHAS = tuple(TAILS) + tuple(1.0 - TAILS[::-1])


def _assert_nodes_inside(family, theta, alpha):
    spec = CopulaSpec(family, theta, 2 if family is FamilyId.ALI_MIKHAIL_HAQ else 3)
    t, w, la = _first_pass_nodes(spec, alpha)
    assert t.size == 15 * (var._graded_mesh(la).size - 1)
    assert np.all((t > 0.0) & (t < la)), (family, theta, alpha)
    u = var._u(t)
    assert np.all((u > 0.0) & (u < 1.0)), (family, theta, alpha)
    assert np.all(np.isfinite(w) & (w >= 0.0)), (family, theta, alpha)


class TestGradedMesh:
    """The first pass's nodes stay inside ``(0, la)``, their levels below
    u = 1, and each form's weight is finite there."""

    @pytest.mark.parametrize("family", list(MESH_THETAS), ids=lambda f: f.value)
    def test_first_pass_nodes_inside_on_the_alpha_grid(self, family):
        for theta in MESH_THETAS[family]:
            for alpha in MESH_ALPHAS:
                _assert_nodes_inside(family, theta, alpha)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(family=st.sampled_from(list(MESH_THETAS)), k=st.integers(0, 2),
           exponent=st.floats(math.log10(2.0), 6.0), upper=st.booleans())
    def test_first_pass_nodes_inside(self, family, k, exponent, upper):
        alpha = 1.0 - 10.0 ** -exponent if upper else 10.0 ** -exponent
        _assert_nodes_inside(family, MESH_THETAS[family][k], alpha)

    @pytest.mark.parametrize("theta, d, alpha, call", [
        (5.74, 10, 1.0 - 1e-6, kernel_mass),
        (12.0, 3, 0.9999, kernel_mass),
        (12.0, 3, 0.9999, "var"),
    ])
    def test_frank_near_one_is_never_silently_wrong(self, theta, d, alpha, call):
        # the Frank kernel loses digits near alpha = 1 (a carry-over defect);
        # with the deeper mesh these stop by roundoff where the shallower one
        # returned kernel_mass 1 + 8.2e-9 and 1 + 5.9e-9 and a VaR 1.8e-8 off
        spec = CopulaSpec(FamilyId.FRANK, theta, d)
        try:
            if call == "var":
                got, want = var_for_spec(spec, [U] * d, alpha).components[0], \
                    _mp_var(FamilyId.FRANK, theta, d, alpha)
            else:
                got, want = call(spec, alpha), 1.0
        except QuadratureError:
            return
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_u_rounds_below_one(self):
        # u = e^-t rounds onto 1 for t under about 1.1e-16; such nodes take
        # the largest u below 1, where the lognormal quantile is finite
        spec = CopulaSpec(FamilyId.JOE, 1.2, 3)
        alpha = 1.0 - 1e-6
        got = var_for_spec(spec, [_lognormal(0.0, 0.5)] * 3, alpha).components[0]
        assert got == pytest.approx(_mp_var(FamilyId.JOE, 1.2, 3, alpha, _mp_lognormal),
                                    rel=1e-10)
        assert var._u(np.array([0.0, 1e-17, 1e-15]))[:2].tolist() == [np.nextafter(1.0, 0.0)] * 2


# a grid like the bench's var_grid: each family's Table-1 theta and a strong
# one, its d and alpha, three closed-form margins and a cycle of four
FIRST_PASS_THETAS = {
    FamilyId.CLAYTON: (2.0, 10.0),
    FamilyId.FRANK: (5.74, 12.0),
    FamilyId.GUMBEL_HOUGAARD: (2.0, 6.0),
    FamilyId.JOE: (2.4, 6.0),
    FamilyId.ALI_MIKHAIL_HAQ: (0.3, 0.95),
}


def _cycle() -> tuple:
    """Four distinct smooth margins, and their quantiles in mpmath."""
    def ndtri(u):
        return mpmath.sqrt(2) * mpmath.erfinv(2 * u - 1)

    return ([U, _normal(2.0, 0.5), _lognormal(0.5, 0.25), _normal(5.0, 2.0)],
            [lambda u: u, lambda u: 2 + 0.5 * ndtri(u),
             lambda u: mpmath.exp(0.5 + 0.25 * ndtri(u)), lambda u: 5 + 2 * ndtri(u)])


class TestFirstPass:
    """The graded mesh resolves a quantile's singularity at ``t = 0`` and the
    kernel's middle, so most integrals converge without a split."""

    def test_most_calls_take_no_split(self):
        # 544 calls; 536 take no split (Clayton theta = 10, d = 50 at small
        # alpha split), against 345 on the symmetric mesh of decade steps
        closed, cycle = [U, _normal(3.0, 1.0), _lognormal(0.0, 0.5)], _cycle()[0]
        first = []
        for family, thetas in FIRST_PASS_THETAS.items():
            for theta in thetas:
                for d in (2,) if family is FamilyId.ALI_MIKHAIL_HAQ else (2, 3, 10, 50):
                    spec = CopulaSpec(family, theta, d)
                    for alpha in (0.01, 0.05, 0.5, 0.95):
                        for margins in [[m] * d for m in closed] + [
                                [cycle[i % 4] for i in range(d)]]:
                            first.append(var_for_spec(spec, margins, alpha).n_splits.max() == 0)
        assert len(first) == 544 and sum(first) >= 0.97 * len(first)

    @pytest.mark.parametrize("family, theta", [(FamilyId.CLAYTON, 2.0), (FamilyId.FRANK, 5.74),
                                               (FamilyId.GUMBEL_HOUGAARD, 1.0)])
    def test_mixed_margins_near_one(self, family, theta):
        # at d = 10, alpha = 1 - 1e-6 the symmetric mesh's call stopped by
        # roundoff on the lognormal margin; each component now converges
        alpha, (cycle, quantiles) = 1.0 - 1e-6, _cycle()
        got = var_for_spec(CopulaSpec(family, theta, 10), [cycle[i % 4] for i in range(10)],
                           alpha).components
        for j, q in enumerate(quantiles):
            assert got[j] == pytest.approx(_mp_var(family, theta, 10, alpha, q), rel=1e-8), j

    def test_frank_kernel_mass_near_one(self):
        # it stopped by roundoff, where Frank's public phi cancelled near 1
        mass = kernel_mass(CopulaSpec(FamilyId.FRANK, 12.0, 50), 1.0 - 1e-6)
        assert mass == pytest.approx(1.0, rel=0.0, abs=1e-8)


class TestReducedFormsAgainstMpmath:
    """Inputs where the reduced forms cancelled or underflowed."""

    @pytest.mark.parametrize("theta", [1e-6, 1e-10, 1e-13, 1e-17])
    @pytest.mark.parametrize("d", [2, 3])
    def test_clayton_small_theta(self, theta, d):
        # alpha^-theta - 1 cancelled: 1.2e-4 off at 1e-13, and 0 at 1e-17
        got = var_for_spec(CopulaSpec(FamilyId.CLAYTON, theta, d), [U] * d, 0.05)
        want = _mp_var(FamilyId.CLAYTON, theta, d, 0.05)
        assert got.components[0] == pytest.approx(want, rel=1e-12)

    def test_clayton_small_theta_near_one(self):
        # it stopped by roundoff; u - alpha keeps about 10 digits near alpha = 1
        alpha = 1.0 - 1e-6
        got = var_for_spec(CopulaSpec(FamilyId.CLAYTON, 0.01, 10), [U] * 10, alpha)
        assert got.components[0] == pytest.approx(
            _mp_var(FamilyId.CLAYTON, 0.01, 10, alpha), rel=1e-10)

    @pytest.mark.parametrize("family, theta, d", [(FamilyId.GUMBEL_HOUGAARD, 1.0, 3),
                                                  (FamilyId.JOE, 1.2, 50)])
    def test_lognormal_near_one_leaves_roundoff_noise_unsplit(self, family, theta, d):
        # near u = 1 the K15 error of many intervals is roundoff; a round that
        # split every interval above tol / (2N) split them, and six such
        # stalls stopped these by roundoff, where a largest-first split
        # converges to within 1.5e-10 of mpmath
        alpha = 1.0 - 1e-6
        got = var_for_spec(CopulaSpec(family, theta, d), [_lognormal(0.0, 0.5)] * d, alpha)
        assert got.components[0] == pytest.approx(
            _mp_var(family, theta, d, alpha, _mp_lognormal), rel=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_gumbel_large_theta_near_one(self, d):
        # la^theta underflowed to 0 at theta = 60, la = 1e-6
        alpha = 1.0 - 1e-6
        got = var_for_spec(CopulaSpec(FamilyId.GUMBEL_HOUGAARD, 60.0, d), [U] * d, alpha)
        assert got.components[0] == pytest.approx(
            _mp_var(FamilyId.GUMBEL_HOUGAARD, 60.0, d, alpha), rel=1e-10)

    @pytest.mark.parametrize("theta, d, alpha", [
        (20.0, 3, 0.95), (40.0, 3, 0.5), (40.0, 3, 1.0 - 1e-6), (12.0, 2, 1.0 - 1e-6),
        (5.74, 10, 1.0 - 1e-6),
    ])
    def test_frank_large_theta_and_near_one(self, theta, d, alpha):
        # the u-space ratio of expm1 terms near -1 lost its digits: the first
        # two stopped by roundoff, the third raised that phi(alpha)
        # underflows, and the fourth was 2.95e-7 off
        got = var_for_spec(CopulaSpec(FamilyId.FRANK, theta, d), [U] * d, alpha)
        assert got.components[0] == pytest.approx(_mp_var(FamilyId.FRANK, theta, d, alpha),
                                                  rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("theta", [-0.7, 0.3, 0.9])
    def test_amh_lognormal_near_one(self, theta):
        alpha = 1.0 - 1e-6
        got = var_for_spec(_amh(theta), [_lognormal(0.0, 0.5)] * 2, alpha)
        assert got.components[0] == pytest.approx(
            _mp_var(FamilyId.ALI_MIKHAIL_HAQ, theta, 2, alpha, _mp_lognormal), rel=1e-9)

    def test_mp_var_names_every_family(self):
        with pytest.raises(ValueError, match="no mpmath generator"):
            _mp_var("student", 2.0, 2, 0.5)
