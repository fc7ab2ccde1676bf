"""Marginal multivariate Value-at-Risk for Archimedean dependence.

Every routine here evaluates the same conditional-expectation integral

    VaR_alpha^i = (d-1)/phi(alpha)^(d-1) * int_alpha^1 q_i(u) beta_d(u, alpha) du

where ``q_i`` is the i-th marginal quantile function and ``beta_d`` the
kernel ``-phi'(u) [phi(alpha) - phi(u)]^(d-2)``.  ``var_for_spec`` runs the
reduced integrand of the spec's :class:`~archvar.families.Family` record, its
``var_form`` (for Gumbel and Joe in substituted variables that map the
integration onto a finite interval with tame endpoint behaviour).
``var_generic`` works from the generator alone; ``kernel_mass`` integrates
its weight alone.  One driver, ``_var``, runs every one of these integrands,
a call's distinct margins in lockstep against the form's one weight.

The initial mesh is ``graded_breakpoints(lo, hi)``, 24 intervals reaching
1e-11 of the width from each end, so that smooth margins, the normal and
lognormal quantiles with their log singularity at ``u = 1`` included, mostly
converge in the first batched pass.  Each form also returns ``from_u``, the
inverse of its substitution ``to_u``: the identity, ``-log u`` for Gumbel
and ``1 - u`` for Joe, whose ``to_u`` rounds a ``u`` that would round onto 1
down to the largest double below 1.  A margin with ``knots`` (a tabulated
one) has a kink at each; ``_var`` maps them through ``from_u`` and adds them
to the initial mesh, so that every panel's integrand is smooth and the first
batched pass of the quadrature converges.  Each knot inside the interval
costs about 15 integrand evaluations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .families import FAMILIES, CopulaSpec, _identity, phi, phi_prime
from .margins import ConstantMargin, checked_margins
from .quadrature import DEFAULT_QUAD, QuadConfig, _integrate_all, graded_breakpoints

__all__ = ["VarResult", "var_generic", "kernel_mass", "var_for_spec"]


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

    return weight, alpha, 1.0, _identity, _identity


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

    The distinct margins integrate against one weight in lockstep, so
    components sharing a margin receive bitwise-identical values, each equal
    to the value it gets alone.  A failure raises the error of the first
    distinct margin, in margin order, whose integral fails.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"confidence level alpha must lie in (0, 1), got {alpha}")
    margins = checked_margins(margins, spec.d)
    weight, lo, hi, to_u, from_u = _kernel(form, spec, alpha)
    graded = graded_breakpoints(lo, hi)
    distinct: list = []
    slots = []
    for m in margins:
        slot = next((j for j, obj in enumerate(distinct) if obj is m or obj == m), None)
        if slot is None:
            slot = len(distinct)
            distinct.append(m)
        slots.append(slot)
    breaks = [graded if getattr(m, "knots", None) is None
              else np.concatenate([graded, from_u(m.knots)]) for m in distinct]
    parts = _integrate_all([lambda x, m=m: m(to_u(x)) for m in distinct], weight,
                           lo, hi, cfg, breaks)
    return VarResult(alpha, [parts[j][0] for j in slots], [parts[j][1] for j in slots], spec)


def var_generic(spec: CopulaSpec, margins, alpha: float,
                cfg: QuadConfig = DEFAULT_QUAD) -> VarResult:
    """VaR components from the generator-form integral, any family.

    The kernel is normalized inside the integrand (bracket expressed as a
    ratio against ``phi(alpha)``) so that large generator values cannot
    overflow the ``d - 1`` power.  This is the oracle the reduced forms are
    checked against: it shares no integrand with them.
    """
    return _var(spec, margins, alpha, cfg, _generic_form)


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
    """VaR through the reduced integrand of ``spec``'s family record, its ``var_form``."""
    return _var(spec, margins, alpha, cfg, FAMILIES[spec.family].var_form)
