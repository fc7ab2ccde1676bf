"""Marginal multivariate Value-at-Risk for Archimedean dependence.

Every routine here evaluates the same conditional-expectation integral

    VaR_alpha^i = (d-1)/phi(alpha)^(d-1) * int_alpha^1 q_i(u) beta_d(u, alpha) du

where ``q_i`` is the i-th marginal quantile function and ``beta_d`` the
kernel ``-phi'(u) [phi(alpha) - phi(u)]^(d-2)``, in the one variable
``t = -ln u`` on ``[0, -ln alpha]``.  ``var_for_spec`` integrates the weight
of the spec's :class:`~archvar.families.Family` record, its ``var_form``;
``var_generic`` works from the generator alone, and ``kernel_mass``
integrates its weight alone.  One driver, ``_var``, runs them all: it hands
the quadrature a call's distinct margins, which see ``u = e^-t`` below 1, to
integrate against one weight, each with its finished mesh, the graded one
(``graded_breakpoints(0, -ln alpha)``, graded toward the quantile's
singularity at ``t = 0``, less its points below ``t = 1e-12``, where ``u``
stops resolving ``1 - u``: up to 31 intervals, on which smooth margins
converge in the first pass) or, for a tabulated margin, that mesh with its
knots (its kinks) joined at ``-ln level``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .families import FAMILIES, CopulaSpec, phi, phi_prime
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
    n_evals: np.ndarray
    n_splits: np.ndarray

    def __post_init__(self):
        for name in ("components", "abs_error_estimate", "n_evals", "n_splits"):
            value = np.asarray(getattr(self, name), dtype=int if name[:2] == "n_" else float)
            value.setflags(write=False)
            object.__setattr__(self, name, value)


# the largest double below 1: e^-t rounds onto 1 for t under about 1e-16,
# where a quantile may be infinite
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


# the graded mesh has no point below this t: under it u = e^-t keeps fewer
# than 4 digits of 1 - u, and intervals there resolve only its rounding
_T_FLOOR = 1e-12


def _u(t: np.ndarray) -> np.ndarray:
    """The level ``u = e^-t`` of the nodes ``t``, below 1."""
    return np.minimum(np.exp(-t), _BELOW_ONE)


def _graded_mesh(la: float) -> np.ndarray:
    """``graded_breakpoints(0, la)`` at or above ``_T_FLOOR``, with both ends."""
    pts = graded_breakpoints(0.0, la)
    return np.concatenate(([0.0], pts[pts >= _T_FLOOR], [la]))


def _generic_form(spec: CopulaSpec, alpha: float):
    """The generator-form weight of :func:`var_generic`, any family."""
    phi_a = phi(spec, alpha)
    with np.errstate(over="ignore", divide="ignore"):    # |phi'| is largest at alpha
        if not (math.isfinite(phi_a) and math.isfinite(phi_prime(spec, alpha))):
            raise OverflowError("phi(alpha) or phi'(alpha) overflows")
    d = spec.d
    scale = (d - 1) / phi_a

    def weight(t: np.ndarray) -> np.ndarray:
        u = _u(t)
        ratio = 1.0 - phi(spec, u) / phi_a
        return -phi_prime(spec, u) * u * ratio ** (d - 2) * scale

    return weight


def _kernel(form, spec: CopulaSpec, alpha: float):
    """``form(spec, alpha)``, with a kernel out of the double range as a typed error.

    Every form divides by a multiple of ``phi(alpha)``, which rounds to 0
    when ``alpha`` is within rounding of 1 on the generator's scale (Frank
    ``theta = 800`` at ``alpha = 1 - 1e-6``); a form raises ``OverflowError``
    where a term would overflow at the nodes (``alpha = 5e-324``).
    """
    try:
        return form(spec, alpha)
    except (ZeroDivisionError, OverflowError) as exc:
        why = "phi(alpha) underflows to 0" if isinstance(exc, ZeroDivisionError) else exc
        raise QuadratureError(
            f"{why} for {spec.family.value} theta = {spec.theta} at alpha = {alpha}; the "
            "VaR kernel cannot be normalized in double precision", float("nan"), float("inf"),
        ) from None


def _var(spec: CopulaSpec, margins, alpha: float, cfg: QuadConfig, form) -> VarResult:
    """VaR components from ``form``'s integrand.  The distinct margins on
    one mesh share its first pass, then each refines alone, in margin order;
    each gets the bits it gets alone, and a failure raises the error of the
    first, in margin order."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"confidence level alpha must lie in (0, 1), got {alpha}")
    margins = checked_margins(margins, spec.d)
    weight = _kernel(form, spec, alpha)
    la = -math.log(alpha)
    graded = _graded_mesh(la)
    distinct: list = []
    slot = {}    # each margin object's distinct margin: d copies compare once
    for key, m in dict(zip(map(id, margins), margins)).items():
        slot[key] = next((j for j, obj in enumerate(distinct) if obj == m), len(distinct))
        if slot[key] == len(distinct):
            distinct.append(m)
    meshes = [graded] * len(distinct)
    for j, m in enumerate(distinct):
        if getattr(m, "knots", None) is not None:    # its kinks join the mesh
            t = -np.log(m.knots)
            mesh = np.sort(np.concatenate((graded, t[t < la])))    # np.unique, less its overhead
            meshes[j] = mesh[np.concatenate(([True], mesh[1:] > mesh[:-1]))]
    parts = _integrate_all([lambda t, m=m: m(_u(t)) for m in distinct], weight, cfg, meshes)
    # rows: values, bounds, evaluations, splits; one column per component
    table = np.array(parts).T.take(list(map(slot.__getitem__, map(id, margins))), axis=1)
    return VarResult(alpha, table[0], table[1], spec, *table[2:].astype(int))


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
