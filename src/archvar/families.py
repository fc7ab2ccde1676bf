"""Archimedean copula families: one record per family, and the operations on them.

Five families are supported (Clayton, Frank, Gumbel-Hougaard, Joe,
Ali-Mikhail-Haq).  Each is characterized by a strictly decreasing generator
``phi`` with ``phi(1) = 0``; the copula is ``phi_inverse(sum phi(u_i))``.
Everything the library knows about a family is its :class:`Family` record in
``FAMILIES``; other modules look records up and never branch on the family.
All operations are pure, accept scalars or numpy arrays, and are safe to
call concurrently.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import DomainError, GeneratorInfinityError, ParameterError
from .quadrature import QuadConfig, graded_breakpoints, integrate

__all__ = ["FamilyId", "Family", "FAMILIES", "CopulaSpec", "phi", "phi_prime",
           "phi_inverse", "copula_cdf", "beta_kernel"]


class FamilyId(enum.Enum):
    """Tags for the supported Archimedean families."""

    CLAYTON = "clayton"
    FRANK = "frank"
    GUMBEL_HOUGAARD = "gumbel"
    JOE = "joe"
    ALI_MIKHAIL_HAQ = "amh"

    @classmethod
    def from_string(cls, name: str) -> "FamilyId":
        """Parse a family name, accepting common aliases."""
        key = name.strip().lower().replace("_", "-")
        aliases = {alias: fam for fam, rec in FAMILIES.items() for alias in rec.aliases}
        try:
            return aliases[key]
        except KeyError:
            raise ParameterError(
                f"unknown copula family {name!r}; expected one of "
                f"{sorted(set(aliases))}"
            ) from None


@dataclass(frozen=True)
class Family:
    """Everything the library knows about one family.

    Functions take ``theta`` first; ``phi``, ``phi_prime``, ``phi_inverse``
    and ``cdf(theta, d, pts)`` get 1-D arrays (``(n, d)`` points for ``cdf``)
    already checked for their domain.  ``frailty(keys, theta)`` draws the
    Marshall-Olkin latent ``V`` where ``frailty_ok(theta)``; ``latent_scale(theta)
    * V`` matches the generator as implemented, and ``conditional_rows(theta,
    base_key, rows)``, if set, samples where no frailty law exists.
    ``var_form(spec, alpha)`` returns ``(weight, lo, hi, to_u)``: the VaR of a
    margin ``q`` is ``int_lo^hi q(to_u(x)) weight(x) dx``.  ``tau_ok`` tells
    whether a Kendall tau is attainable, and ``tau_range`` is its interval.
    """

    name: str
    aliases: tuple
    theta_ok: Callable[[float], bool]
    theta_domain: str
    phi: Callable
    phi_prime: Callable
    phi_inverse: Callable
    cdf: Callable
    frailty: Callable
    frailty_ok: Callable[[float], bool]
    frailty_domain: str
    var_form: Callable
    tau: Callable[[float], float]
    tau_range: tuple
    tau_ok: Callable[[float], bool]
    theta_from_tau: Callable[[float], float]
    latent_scale: Callable[[float], float] = lambda theta: 1.0
    conditional_rows: Optional[Callable] = None
    bivariate_only: bool = False


@dataclass(frozen=True)
class CopulaSpec:
    """A fully specified copula: family tag, dependence parameter, dimension.

    ``theta`` must satisfy the family record's ``theta_domain``, and ``d``
    must be 2 for a bivariate-only family (Ali-Mikhail-Haq).  Boundary values
    that only arise as limits (Clayton ``theta = 0``, Frank ``theta = 0``)
    are rejected, not clamped.
    """

    family: FamilyId
    theta: float
    d: int

    def __post_init__(self):
        if not isinstance(self.family, FamilyId):
            raise ParameterError(f"family must be a FamilyId, got {self.family!r}")
        if not isinstance(self.d, (int, np.integer)) or isinstance(self.d, bool):
            raise ParameterError(f"dimension d must be an integer, got {self.d!r}")
        if self.d < 2:
            raise ParameterError(f"dimension d must be >= 2, got {self.d}")
        th = self.theta
        if not math.isfinite(th):
            raise ParameterError(f"theta must be finite, got {th}")
        rec = FAMILIES[self.family]
        if not rec.theta_ok(th):
            raise ParameterError(f"{rec.name} requires {rec.theta_domain}, got {th}")
        if rec.bivariate_only and self.d != 2:
            raise ParameterError(
                f"{rec.name} is bivariate only (no genuine Archimedean "
                f"extension to d >= 3); got d = {self.d}"
            )
        object.__setattr__(self, "theta", float(th))
        object.__setattr__(self, "d", int(self.d))


def _as_result(x: np.ndarray, scalar: bool):
    return float(x) if scalar else x


def _check_t_unit(t: np.ndarray, include_one: bool) -> None:
    hi_bad = (t > 1.0) if include_one else (t >= 1.0)
    if np.any(t < 0.0) or np.any(hi_bad) or np.any(np.isnan(t)):
        bracket = "(0, 1]" if include_one else "(0, 1)"
        raise DomainError(f"generator argument must lie in {bracket}")
    if np.any(t == 0.0):
        raise GeneratorInfinityError(
            "infinite generator value: phi diverges at t = 0 for every "
            "strict generator"
        )


def phi(spec: CopulaSpec, t) -> float | np.ndarray:
    """Generator ``phi_theta(t)`` on ``t in (0, 1]``.

    Strictly decreasing with ``phi(1) = 0``.  Raises
    :class:`GeneratorInfinityError` at ``t = 0``, where all five generators
    diverge, and :class:`DomainError` outside ``[0, 1]``.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    _check_t_unit(t_arr, include_one=True)
    out = FAMILIES[spec.family].phi(spec.theta, t_arr)
    return _as_result(out if not scalar else out[0], scalar)


def phi_prime(spec: CopulaSpec, t) -> float | np.ndarray:
    """Generator derivative ``phi'_theta(t)`` on ``t in (0, 1)``; always < 0."""
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    _check_t_unit(t_arr, include_one=False)
    out = FAMILIES[spec.family].phi_prime(spec.theta, t_arr)
    return _as_result(out if not scalar else out[0], scalar)


def phi_inverse(spec: CopulaSpec, s) -> float | np.ndarray:
    """Generator inverse on ``s >= 0``; ``phi_inverse(0) = 1`` exactly."""
    s_arr = np.asarray(s, dtype=float)
    scalar = s_arr.ndim == 0
    s_arr = np.atleast_1d(s_arr)
    if np.any(s_arr < 0.0) or np.any(np.isnan(s_arr)):
        raise DomainError("generator inverse argument must be >= 0")
    out = FAMILIES[spec.family].phi_inverse(spec.theta, s_arr)
    return _as_result(out if not scalar else out[0], scalar)


def copula_cdf(spec: CopulaSpec, u) -> float | np.ndarray:
    """Copula CDF at one point of shape ``(d,)`` or a batch ``(..., d)``.

    Coordinates must lie in ``[0, 1]``; any zero coordinate forces the value
    to 0.  Equals ``phi_inverse(sum_i phi(u_i))`` wherever both are defined.
    """
    u_arr = np.asarray(u, dtype=float)
    if u_arr.ndim == 0 or u_arr.shape[-1] != spec.d:
        raise ParameterError(
            f"point dimension mismatch: expected last axis of length {spec.d}, "
            f"got shape {u_arr.shape}"
        )
    if np.any(u_arr < 0.0) or np.any(u_arr > 1.0) or np.any(np.isnan(u_arr)):
        raise DomainError("copula arguments must lie in [0, 1]")
    scalar = u_arr.ndim == 1
    pts = u_arr.reshape(-1, spec.d)
    out = np.zeros(pts.shape[0])
    ok = ~np.any(pts == 0.0, axis=1)
    if np.any(ok):
        out[ok] = FAMILIES[spec.family].cdf(spec.theta, spec.d, pts[ok])
    if scalar:
        return float(out[0])
    return out.reshape(u_arr.shape[:-1])


def beta_kernel(spec: CopulaSpec, u, alpha: float) -> float | np.ndarray:
    """VaR integration kernel ``-phi'(u) [phi(alpha) - phi(u)]^(d-2)``.

    Defined for ``alpha in (0, 1)`` and ``u in [alpha, 1)``.  For ``d = 2``
    the bracket power is identically 1, including at ``u = alpha`` where the
    base vanishes (0^0 = 1 convention), so the kernel degenerates to
    ``-phi'(u)``.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)
    if np.any(u_arr < alpha) or np.any(u_arr >= 1.0) or np.any(np.isnan(u_arr)):
        raise DomainError(f"kernel argument must lie in [alpha, 1) = [{alpha}, 1)")
    bracket = phi(spec, alpha) - phi(spec, u_arr)
    out = -phi_prime(spec, u_arr) * bracket ** (spec.d - 2)
    return _as_result(out if not scalar else out[0], scalar)


# ------------------------------------------------------ shared by the records
#
# Records call rng samplers and ``integrate`` through module attributes at
# call time, never through references captured at import, so that wrapping
# those attributes (as a profiler or tracer does) sees every call.

def _identity(u: np.ndarray) -> np.ndarray:
    return u


def _log1m_pow(th: float, t: np.ndarray) -> np.ndarray:
    """``ln(1 - (1-t)^th)`` for ``t in (0, 1]`` at full relative precision.

    Uses the expm1 route while ``(1-t)^th`` is large and the log1p route
    once it is small; ``t = 1`` flows through to exactly 0.
    """
    with np.errstate(divide="ignore"):
        inner = th * np.log1p(-t)
    return np.where(
        inner > -0.6931471805599453,
        np.log(-np.expm1(inner)),
        np.log1p(-np.exp(inner)),
    )


_TAU_QUAD = QuadConfig(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=400)
_BISECT_TOL = 1e-10
_BISECT_CAP = 200


def _bisect_tau(tau_of_theta, target: float, lo: float, hi: float) -> float:
    """Bisection for a monotone-increasing tau(theta) on a valid bracket."""
    for _ in range(_BISECT_CAP):
        mid = 0.5 * (lo + hi)
        fmid = tau_of_theta(mid) - target
        if abs(fmid) <= _BISECT_TOL:
            return mid
        if fmid < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _bracket_up(tau_of_theta, target: float, lo: float, hi: float) -> tuple[float, float]:
    """Grow ``hi`` geometrically until tau(hi) exceeds the target."""
    for _ in range(200):
        if tau_of_theta(hi) >= target:
            return lo, hi
        lo, hi = hi, hi * 2.0
    raise RuntimeError(f"failed to bracket tau = {target}")


def _bracket_down(tau_of_theta, target: float, lo: float, hi: float) -> tuple[float, float]:
    """Shrink ``lo`` geometrically toward 0 until tau(lo) drops below the target."""
    for _ in range(200):
        if tau_of_theta(lo) <= target:
            return lo, hi
        lo, hi = lo * 0.5, lo
    raise RuntimeError(f"failed to bracket tau = {target}")


# --------------------------------------------------------------- Clayton

def _clayton_phi(th: float, t: np.ndarray) -> np.ndarray:
    # (t^-theta - 1)/theta, via expm1 for accuracy near t = 1;
    # overflow to inf at denormal t is the correct monotone limit
    with np.errstate(over="ignore"):
        return np.expm1(-th * np.log(t)) / th


def _clayton_phi_prime(th: float, t: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return -(t ** (-th - 1.0))


def _clayton_cdf(th: float, d: int, pts: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return (np.sum(pts ** -th, axis=1) - d + 1.0) ** (-1.0 / th)


def _clayton_var_form(spec: CopulaSpec, alpha: float):
    """Reduced integrand ``q(u) u^(-theta-1) (a^-theta - u^-theta)^(d-2)``."""
    th, d = spec.theta, spec.d
    denom = alpha ** -th - 1.0
    scale = (d - 1) * th / denom

    def weight(u: np.ndarray) -> np.ndarray:
        ratio = (alpha ** -th - u ** -th) / denom
        return u ** (-th - 1.0) * ratio ** (d - 2) * scale

    return weight, alpha, 1.0, _identity


_CLAYTON = Family(
    name="Clayton", aliases=("clayton",),
    theta_ok=lambda th: th > 0, theta_domain="theta > 0",
    phi=_clayton_phi,
    phi_prime=_clayton_phi_prime,
    phi_inverse=lambda th, s: np.exp(np.log1p(th * s) * (-1.0 / th)),
    cdf=_clayton_cdf,
    frailty=lambda keys, th: rng.gammas(keys, 1.0 / th),
    frailty_ok=lambda th: th > 0, frailty_domain="theta > 0",
    # the frailty is Gamma(1/theta, 1); the implemented generator carries a
    # 1/theta factor, so the matching latent scale is theta * V
    latent_scale=lambda th: th,
    var_form=_clayton_var_form,
    tau=lambda th: th / (th + 2.0),
    tau_range=(0.0, 1.0), tau_ok=lambda tau: 0.0 < tau < 1.0,
    theta_from_tau=lambda tau: 2.0 * tau / (1.0 - tau),
)


# ----------------------------------------------------------------- Frank

def _frank_var_form(spec: CopulaSpec, alpha: float):
    """Reduced Frank integrand; restricted to ``theta > 0``."""
    th, d = spec.theta, spec.d
    if th <= 0:
        raise DomainError(
            "Frank VaR is defined for dependence parameter in (0, inf); "
            f"got theta = {th}"
        )
    phi_a = float(-np.log(np.expm1(-th * alpha) / np.expm1(-th)))
    scale = (d - 1) / phi_a
    ea = np.expm1(-th * alpha)

    def weight(u: np.ndarray) -> np.ndarray:
        # -phi'(u) = theta/(e^(theta u) - 1); bracket = ln[(e^(-theta u)-1)/(e^(-theta a)-1)]
        ratio = np.log(np.expm1(-th * u) / ea) / phi_a
        return th / np.expm1(th * u) * ratio ** (d - 2) * scale

    return weight, alpha, 1.0, _identity


def _frank_tau(theta: float) -> float:
    """``1 - 4/theta (1 - D1(theta))`` with the Debye integral ``int_0^theta t/(e^t - 1) dt``.

    The quadrature nodes stay strictly inside, away from the removable point
    at t = 0.  The form cancels as theta -> 0 (11 % off at 1e-6), so below
    ``|theta| = 0.1`` its Taylor series is used, within 8e-16 relative there.
    """
    if abs(theta) < 0.1:
        return (theta / 9.0 - theta ** 3 / 900.0 + theta ** 5 / 52920.0
                - theta ** 7 / 2721600.0)
    a, b = (0.0, theta) if theta > 0 else (theta, 0.0)
    val, _ = integrate(lambda t: t / np.expm1(t), a, b, _TAU_QUAD)
    debye = val if theta > 0 else -val
    return 1.0 - 4.0 / theta * (1.0 - debye / theta)


def _frank_theta(tau: float) -> float:
    # tau is increasing in theta on either sign; solve on |tau| and
    # mirror, using tau(sign*th)*sign which is increasing for th > 0
    sign = 1.0 if tau > 0 else -1.0
    g = lambda th: sign * _frank_tau(sign * th)
    lo, hi = _bracket_up(g, abs(tau), 0.5, 1.0)
    lo, hi = _bracket_down(g, abs(tau), lo, hi)
    return sign * _bisect_tau(g, abs(tau), lo, hi)


_FRANK = Family(
    name="Frank", aliases=("frank",),
    theta_ok=lambda th: th != 0, theta_domain="theta != 0",
    # -ln[(e^(-theta t) - 1)/(e^(-theta) - 1)]; the ratio is positive
    # for either sign of theta
    phi=lambda th, t: -np.log(np.expm1(-th * t) / np.expm1(-th)),
    phi_prime=lambda th, t: -th / np.expm1(th * t),
    phi_inverse=lambda th, s: np.where(
        s == 0.0, 1.0, -np.log1p(np.exp(-s) * np.expm1(-th)) / th),
    cdf=lambda th, d, pts: -np.log1p(
        np.prod(np.expm1(-th * pts), axis=1) / np.expm1(-th) ** (d - 1)) / th,
    frailty=lambda keys, th: rng.log_series(keys, -np.expm1(-th)),
    frailty_ok=lambda th: th > 0, frailty_domain="theta > 0",
    var_form=_frank_var_form,
    tau=_frank_tau,
    tau_range=(-1.0, 1.0), tau_ok=lambda tau: -1.0 < tau < 1.0 and tau != 0.0,
    theta_from_tau=_frank_theta,
)


# ------------------------------------------------------- Gumbel-Hougaard

def _gumbel_var_form(spec: CopulaSpec, alpha: float):
    """Integrand on ``t in [0, -ln alpha]`` after the substitution ``t = -ln u``."""
    th, d = spec.theta, spec.d
    la = -np.log(alpha)
    scale = (d - 1) * th / la ** th

    def weight(t: np.ndarray) -> np.ndarray:
        ratio = 1.0 - (t / la) ** th
        return t ** (th - 1.0) * ratio ** (d - 2) * scale

    return weight, 0.0, la, lambda t: np.exp(-t)


_GUMBEL = Family(
    name="Gumbel-Hougaard", aliases=("gumbel", "gumbel-hougaard"),
    theta_ok=lambda th: th >= 1, theta_domain="theta >= 1",
    phi=lambda th, t: (-np.log(t)) ** th,
    phi_prime=lambda th, t: -th * (-np.log(t)) ** (th - 1.0) / t,
    phi_inverse=lambda th, s: np.exp(-(s ** (1.0 / th))),
    cdf=lambda th, d, pts: np.exp(-(np.sum((-np.log(pts)) ** th, axis=1) ** (1.0 / th))),
    frailty=lambda keys, th: rng.positive_stables(keys, 1.0 / th),
    frailty_ok=lambda th: th >= 1, frailty_domain="theta >= 1",
    var_form=_gumbel_var_form,
    tau=lambda th: 1.0 - 1.0 / th,
    tau_range=(0.0, 1.0), tau_ok=lambda tau: 0.0 <= tau < 1.0,
    theta_from_tau=lambda tau: 1.0 / (1.0 - tau),
)


# ------------------------------------------------------------------- Joe

def _joe_phi_inverse(th: float, s: np.ndarray) -> np.ndarray:
    # 1 - (1 - e^-s)^(1/theta); ln(1 - e^-s) needs the log1p route for
    # large s and the expm1 route for small s to keep full precision
    with np.errstate(divide="ignore"):
        log1m = np.where(
            s > 0.6931471805599453,
            np.log1p(-np.exp(-s)),
            np.log(-np.expm1(-s)),
        )
        return np.where(s == 0.0, 1.0, -np.expm1(log1m / th))


def _joe_cdf(th: float, d: int, pts: np.ndarray) -> np.ndarray:
    # 1 - [1 - prod_i (1 - (1-u_i)^theta)]^(1/theta)
    log_prod = np.sum(_log1m_pow(th, pts), axis=1)
    with np.errstate(divide="ignore"):
        return np.where(
            log_prod == 0.0,
            1.0,
            -np.expm1(np.log(-np.expm1(log_prod)) / th),
        )


def _joe_var_form(spec: CopulaSpec, alpha: float):
    """Integrand on the reflected interval ``t in [0, 1 - alpha]`` (``t = 1 - u``)."""
    th, d = spec.theta, spec.d
    phi_a = float(-np.log1p(-((1.0 - alpha) ** th)))
    scale = (d - 1) * th / phi_a

    def weight(t: np.ndarray) -> np.ndarray:
        one_minus_tth = -np.expm1(th * np.log(t))
        ratio = (np.log1p(-(t ** th)) + phi_a) / phi_a
        return t ** (th - 1.0) / one_minus_tth * ratio ** (d - 2) * scale

    return weight, 0.0, 1.0 - alpha, lambda t: 1.0 - t


def _joe_tau(theta: float) -> float:
    """Joe tau through the reflected integrand on (0, 1).

    With ``s = 1 - t`` the integrand is
    ``(1 - s^theta) ln(1 - s^theta) s^(1-theta)``; factoring ``s^theta`` out
    of the logarithm ratio keeps it finite for any theta:
    ``f(s) = s (1 - s^theta) ln(1 - s^theta)/s^theta``.
    """
    if theta == 1.0:
        return 0.0
    th = theta

    def f(s: np.ndarray) -> np.ndarray:
        sth = np.exp(th * np.log(s))
        one_m = -np.expm1(th * np.log(s))
        ratio = np.where(sth > 0.0, np.log1p(-sth) / np.where(sth > 0, sth, 1.0), -1.0)
        return s * one_m * ratio

    val, _ = integrate(f, 0.0, 1.0, _TAU_QUAD, graded_breakpoints(0.0, 1.0))
    return 1.0 + 4.0 / th * val


def _joe_theta(tau: float) -> float:
    if tau == 0.0:
        return 1.0
    lo, hi = _bracket_up(_joe_tau, tau, 1.0, 2.0)
    return _bisect_tau(_joe_tau, tau, lo, hi)


_JOE = Family(
    name="Joe", aliases=("joe",),
    theta_ok=lambda th: th >= 1, theta_domain="theta >= 1",
    phi=lambda th, t: -_log1m_pow(th, t),
    phi_prime=lambda th, t: -th * (1.0 - t) ** (th - 1.0) / (-np.expm1(th * np.log1p(-t))),
    phi_inverse=_joe_phi_inverse,
    cdf=_joe_cdf,
    frailty=lambda keys, th: rng.sibuyas(keys, 1.0 / th),
    frailty_ok=lambda th: th >= 1, frailty_domain="theta >= 1",
    var_form=_joe_var_form,
    tau=_joe_tau,
    tau_range=(0.0, 1.0), tau_ok=lambda tau: 0.0 <= tau < 1.0,
    theta_from_tau=_joe_theta,
)


# ------------------------------------------------------- Ali-Mikhail-Haq

def _amh_phi_inverse(th: float, s: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return (1.0 - th) / (np.exp(s) - th)


def _amh_conditional_rows(theta: float, base_key: int, rows: np.ndarray) -> np.ndarray:
    """Bivariate AMH rows for theta < 0 by closed-form conditional inversion.

    Solving ``v = dC/du1`` for ``u2`` reduces to a quadratic in ``w = 1 - u2``;
    the root ``(-B + sqrt(B^2 - 4AC))/(2A)`` is the one inside [0, 1].
    """
    keys = rng.substream_keys(base_key, rng.LABEL_CONDITIONAL, rows)
    u1 = rng.uniforms(keys, 0)
    v = rng.uniforms(keys, 1)
    b = 1.0 - u1
    qa = theta * (v * theta * b * b - 1.0)
    qb = 1.0 + theta - 2.0 * v * theta * b
    qc = v - 1.0
    w = (-qb + np.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)
    return np.column_stack([u1, 1.0 - w])


def _amh_var_form(spec: CopulaSpec, alpha: float):
    """``(1-theta)/ln[(1-theta(1-alpha))/alpha] * q(u)/(u [1-theta(1-u)])`` on ``[alpha, 1]``."""
    theta = spec.theta
    pre = (1.0 - theta) / np.log((1.0 - theta * (1.0 - alpha)) / alpha)

    def weight(u: np.ndarray) -> np.ndarray:
        return pre / (u * (1.0 - theta * (1.0 - u)))

    return weight, alpha, 1.0, _identity


_AMH_TAU_MIN = (5.0 - 8.0 * np.log(2.0)) / 3.0  # tau at theta = -1


def _amh_tau(theta: float) -> float:
    if theta == 0.0:
        return 0.0
    if abs(theta) < 1e-3:
        # series around 0: tau = (4/3) sum_k theta^k / (k (k+1) (k+2))
        k = np.arange(1, 7)
        return float(4.0 / 3.0 * np.sum(theta ** k / (k * (k + 1) * (k + 2))))
    return float(
        1.0 - 2.0 / 3.0 * (theta + (1.0 - theta) ** 2 * np.log1p(-theta)) / theta ** 2
    )


_AMH = Family(
    name="Ali-Mikhail-Haq", aliases=("amh", "ali-mikhail-haq"),
    theta_ok=lambda th: -1.0 <= th < 1.0,
    theta_domain="-1 <= theta < 1 (the generator degenerates at theta = 1)",
    bivariate_only=True,
    phi=lambda th, t: np.log1p(-th * (1.0 - t)) - np.log(t),
    # simplifies to -(1-theta)/(t (1 - theta(1-t)))
    phi_prime=lambda th, t: -(1.0 - th) / (t * (1.0 - th * (1.0 - t))),
    phi_inverse=_amh_phi_inverse,
    cdf=lambda th, d, pts: (pts[:, 0] * pts[:, 1]
                            / (1.0 - th * (1.0 - pts[:, 0]) * (1.0 - pts[:, 1]))),
    frailty=lambda keys, th: rng.geometrics(keys, 1.0 - th),
    frailty_ok=lambda th: 0.0 <= th < 1.0,
    frailty_domain="theta in [0, 1); negative theta uses conditional inversion instead",
    conditional_rows=_amh_conditional_rows,
    var_form=_amh_var_form,
    tau=_amh_tau,
    # the theta = -1 endpoint is attained; tolerate its last-ulp representations
    tau_range=(_AMH_TAU_MIN, 1.0 / 3.0),
    tau_ok=lambda tau: _AMH_TAU_MIN - 1e-12 <= tau < 1.0 / 3.0,
    theta_from_tau=lambda tau: (-1.0 if tau <= _AMH_TAU_MIN
                                else _bisect_tau(_amh_tau, tau, -1.0, 1.0 - 1e-12)),
)


FAMILIES = {
    FamilyId.CLAYTON: _CLAYTON,
    FamilyId.FRANK: _FRANK,
    FamilyId.GUMBEL_HOUGAARD: _GUMBEL,
    FamilyId.JOE: _JOE,
    FamilyId.ALI_MIKHAIL_HAQ: _AMH,
}
