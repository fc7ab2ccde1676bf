"""Marginal multivariate Value-at-Risk for Archimedean dependence.

Every routine here evaluates the same conditional-expectation integral

    VaR_alpha^i = (d-1)/phi(alpha)^(d-1) * int_alpha^1 q_i(u) beta_d(u, alpha) du

where ``q_i`` is the i-th marginal quantile function and ``beta_d`` the
kernel ``-phi'(u) [phi(alpha) - phi(u)]^(d-2)``.  ``var_generic`` works from
the generator alone; the family-specific routines use the algebraically
reduced integrands of their :class:`~archvar.families.Family` records (for
Gumbel and Joe in substituted variables that map the integration onto a
finite interval with tame endpoint behaviour).  One driver, ``_var``, runs
every one of these integrands.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, QuadratureError
from .families import FAMILIES, CopulaSpec, FamilyId, phi, phi_prime
from .margins import ConstantMargin, UniformMargin, checked_margins
from .quadrature import DEFAULT_QUAD, QuadConfig, graded_breakpoints, integrate

__all__ = ["VarResult", "var_generic", "var_clayton", "var_clayton_uniform", "var_frank",
           "var_gumbel", "var_joe", "var_amh", "kernel_mass", "var_for_spec"]


@dataclass(frozen=True)
class VarResult:
    """Per-component marginal VaR at level ``alpha`` with quadrature error bounds."""

    alpha: float
    components: np.ndarray
    abs_error_estimate: np.ndarray
    spec: CopulaSpec

    def __post_init__(self):
        object.__setattr__(self, "components", np.asarray(self.components, dtype=float))
        object.__setattr__(
            self, "abs_error_estimate", np.asarray(self.abs_error_estimate, dtype=float)
        )
        self.components.flags.writeable = False
        self.abs_error_estimate.flags.writeable = False


def _generic_form(spec: CopulaSpec, alpha: float):
    """The generator-form weight of :func:`var_generic`, any family."""
    phi_a = phi(spec, alpha)
    d = spec.d
    scale = (d - 1) / phi_a

    def weight(u: np.ndarray) -> np.ndarray:
        ratio = 1.0 - phi(spec, u) / phi_a
        return -phi_prime(spec, u) * ratio ** (d - 2) * scale

    return weight, alpha, 1.0, lambda u: u


def _kernel(form, spec: CopulaSpec, alpha: float):
    """``form(spec, alpha)``, with an underflowed ``phi(alpha)`` as a typed error.

    Every form divides by a multiple of ``phi(alpha)``, which rounds to 0
    when ``alpha`` is within rounding of 1 on the generator's scale (Frank
    ``theta = 40`` at ``alpha = 1 - 1e-6``).
    """
    try:
        return form(spec, alpha)
    except ZeroDivisionError:
        raise QuadratureError(
            f"phi(alpha) underflows to 0 for {spec.family.value} theta = "
            f"{spec.theta} at alpha = {alpha}; the VaR kernel cannot be "
            "normalized in double precision", float("nan"), float("inf"),
        ) from None


def _var(spec: CopulaSpec, margins, alpha: float, cfg: QuadConfig, form) -> VarResult:
    """VaR components from ``form``'s integrand.

    The integral runs once per distinct margin, so components sharing a
    margin receive bitwise-identical values.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"confidence level alpha must lie in (0, 1), got {alpha}")
    margins = checked_margins(margins, spec.d)
    weight, lo, hi, to_u = _kernel(form, spec, alpha)
    breaks = graded_breakpoints(lo, hi)
    values = np.empty(len(margins))
    errors = np.empty(len(margins))
    seen: list[tuple[object, float, float]] = []
    for i, m in enumerate(margins):
        hit = next(((v, e) for obj, v, e in seen if obj is m or obj == m), None)
        if hit is None:
            hit = integrate(lambda x: m(to_u(x)) * weight(x), lo, hi, cfg, breaks)
            seen.append((m, hit[0], hit[1]))
        values[i], errors[i] = hit
    return VarResult(alpha, values, errors, spec)


def var_generic(spec: CopulaSpec, margins, alpha: float,
                cfg: QuadConfig = DEFAULT_QUAD) -> VarResult:
    """VaR components from the generator-form integral, any family.

    The kernel is normalized inside the integrand (bracket expressed as a
    ratio against ``phi(alpha)``) so that large generator values cannot
    overflow the ``d - 1`` power.  This is the oracle the reduced forms are
    checked against: it shares no integrand with them.
    """
    return _var(spec, margins, alpha, cfg, _generic_form)


def _family_var(family: FamilyId, name: str, spec: CopulaSpec, margins, alpha: float,
                cfg: QuadConfig) -> VarResult:
    """A family's public routine: check the spec's family, run its record's form."""
    if spec.family is not family:
        raise ParameterError(f"{name} requires a {family.value} spec, got {spec.family.value}")
    return _var(spec, margins, alpha, cfg, FAMILIES[family].var_form)


def var_clayton(spec: CopulaSpec, margins, alpha: float,
                cfg: QuadConfig = DEFAULT_QUAD) -> VarResult:
    """Clayton VaR via the reduced integrand ``q(u) u^(-theta-1) (a^-theta - u^-theta)^(d-2)``."""
    return _family_var(FamilyId.CLAYTON, "var_clayton", spec, margins, alpha, cfg)


def var_clayton_uniform(theta: float, d: int, alpha: float,
                        cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Closed-form-integrand Clayton VaR with uniform margins (scalar).

    All components coincide, so a single number summarizes the vector.
    """
    spec = CopulaSpec(FamilyId.CLAYTON, theta, d)
    res = var_clayton(spec, [UniformMargin()] * d, alpha, cfg)
    return float(res.components[0])


def var_frank(spec: CopulaSpec, margins, alpha: float,
              cfg: QuadConfig = DEFAULT_QUAD) -> VarResult:
    """Frank VaR; restricted to ``theta > 0`` (the reduced form's domain)."""
    return _family_var(FamilyId.FRANK, "var_frank", spec, margins, alpha, cfg)


def var_gumbel(spec: CopulaSpec, margins, alpha: float,
               cfg: QuadConfig = DEFAULT_QUAD) -> VarResult:
    """Gumbel-Hougaard VaR on the log-substituted interval ``t in [0, -ln alpha]``.

    The substitution ``t = -ln u`` maps the upper endpoint ``u -> 1`` to 0
    and leaves a polynomial-type integrand.
    """
    return _family_var(FamilyId.GUMBEL_HOUGAARD, "var_gumbel", spec, margins, alpha, cfg)


def var_joe(spec: CopulaSpec, margins, alpha: float,
            cfg: QuadConfig = DEFAULT_QUAD) -> VarResult:
    """Joe VaR on the reflected interval ``t in [0, 1 - alpha]`` (``t = 1 - u``)."""
    return _family_var(FamilyId.JOE, "var_joe", spec, margins, alpha, cfg)


def var_amh(theta: float, margins, alpha: float,
            cfg: QuadConfig = DEFAULT_QUAD) -> VarResult:
    """Ali-Mikhail-Haq VaR (bivariate only).

    ``VaR = (1-theta)/ln[(1-theta(1-alpha))/alpha] * int_alpha^1 q(u)/(u [1-theta(1-u)]) du``.
    """
    margins = tuple(margins)
    if len(margins) != 2:
        raise DomainError(
            "Ali-Mikhail-Haq VaR is bivariate only (the family admits no "
            f"genuine Archimedean extension beyond d = 2); got {len(margins)} margins"
        )
    spec = CopulaSpec(FamilyId.ALI_MIKHAIL_HAQ, theta, 2)
    return _family_var(FamilyId.ALI_MIKHAIL_HAQ, "var_amh", spec, margins, alpha, cfg)


def kernel_mass(spec: CopulaSpec, alpha: float,
                cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Total mass ``(d-1)/phi(alpha)^(d-1) int_alpha^1 beta_d(u, alpha) du``.

    Analytically exactly 1 for every family, theta, d and alpha; a
    diagnostic of the quadrature and kernel implementation.  It integrates
    :func:`var_generic`'s weight, as the VaR of a unit margin (``1.0 * w``
    is exactly ``w``).
    """
    unit = [ConstantMargin(1.0)] * spec.d
    return float(_var(spec, unit, alpha, cfg, _generic_form).components[0])


def var_for_spec(spec: CopulaSpec, margins, alpha: float,
                 cfg: QuadConfig = DEFAULT_QUAD) -> VarResult:
    """VaR through the reduced integrand of ``spec``'s family record."""
    return _var(spec, margins, alpha, cfg, FAMILIES[spec.family].var_form)
