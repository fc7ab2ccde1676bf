"""Kendall-tau calibration: theta -> tau and its inverse for every family.

The formulas live in the family records of :mod:`archvar.families`: closed
forms for every family (``scipy.special`` Debye and digamma forms for Frank
and Joe), and Brent's method where no closed inverse exists.
"""
from __future__ import annotations

from .errors import RangeError
from .families import FAMILIES, CopulaSpec, FamilyId, family_record

__all__ = ["kendall_tau", "theta_from_tau", "tau_range"]


def kendall_tau(spec: CopulaSpec) -> float:
    """Population Kendall tau of the copula."""
    return FAMILIES[spec.family].tau(spec.theta)


def tau_range(family: FamilyId) -> tuple[float, float]:
    """Attainable tau interval ``(lo, hi)`` for the family.

    Interval endpoints attained by a valid theta: Gumbel-Hougaard and Joe
    attain 0 (theta = 1); Ali-Mikhail-Haq attains its minimum (theta = -1).
    Frank attains any tau from its value at theta = -709.78 (about -0.99438)
    up to 1, except 0.
    """
    return family_record(family).tau_range


def theta_from_tau(family: FamilyId, tau: float) -> float:
    """Dependence parameter whose Kendall tau equals ``tau``.

    Closed-form for Clayton (``2 tau/(1-tau)``) and Gumbel-Hougaard
    (``1/(1-tau)``); for Frank, Joe and Ali-Mikhail-Haq, Brent's method on
    ``ln |theta|`` over a fixed bracket that spans the whole domain, to a few
    ulps of ``ln |theta|``.  Raises :class:`RangeError` naming the attainable
    interval when ``tau`` cannot be reached by the family.
    """
    rec = family_record(family)
    tau = float(tau)
    if not rec.tau_ok(tau):
        lo, hi = rec.tau_range
        raise RangeError(
            f"tau = {tau} is unattainable for {family.value}; attainable "
            f"interval is [{lo:.6f}, {hi:.6f})",
            (lo, hi),
        )
    return rec.theta_from_tau(tau)
