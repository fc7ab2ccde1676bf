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
from scipy.special import polygamma, psi, spence

from . import rng
from .errors import DomainError, GeneratorInfinityError, ParameterError, _check_count

__all__ = ["FamilyId", "Family", "FAMILIES", "family_record", "CopulaSpec", "phi",
           "phi_prime", "phi_inverse", "copula_cdf", "beta_kernel"]


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
    Marshall-Olkin latent ``V`` where ``frailty_ok(theta)``; the keywords
    ``out`` and ``ws`` pass its sampler an output array and an
    ``rng.Workspace``.  ``latent_scale(theta) * V`` matches the generator as
    implemented, and ``conditional_rows(theta, base_key, rows)``, if set,
    samples where no frailty law exists.
    ``var_form(spec, alpha)`` returns ``(weight, lo, hi, to_u, from_u)``: the
    VaR of a margin ``q`` is ``int_lo^hi q(to_u(x)) weight(x) dx``, and
    ``from_u`` is the inverse of ``to_u``.  ``tau_ok`` tells
    whether a Kendall tau is attainable, and ``tau_range`` is its interval.
    ``bivariate_only(theta)`` is true where the generator gives a copula in
    ``d = 2`` only.
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
    bivariate_only: Callable[[float], bool] = lambda theta: False


def family_record(family) -> Family:
    """``family``'s record; :class:`ParameterError` unless it is a :class:`FamilyId`."""
    if not isinstance(family, FamilyId):
        raise ParameterError(f"family must be a FamilyId, got {family!r}")
    return FAMILIES[family]


@dataclass(frozen=True)
class CopulaSpec:
    """A fully specified copula: family tag, dependence parameter, dimension.

    ``theta`` must satisfy the family record's ``theta_domain``, and ``d``
    must be 2 where the record is bivariate only (Ali-Mikhail-Haq, and Frank
    with ``theta < 0``).  Boundary values
    that only arise as limits (Clayton ``theta = 0``, Frank ``theta = 0``)
    are rejected, not clamped.
    """

    family: FamilyId
    theta: float
    d: int

    def __post_init__(self):
        rec = family_record(self.family)
        object.__setattr__(self, "d", _check_count(self.d, "dimension d", 2))
        th = self.theta
        if not math.isfinite(th):
            raise ParameterError(f"theta must be finite, got {th}")
        if not rec.theta_ok(th):
            raise ParameterError(f"{rec.name} requires {rec.theta_domain}, got {th}")
        if rec.bivariate_only(th) and self.d != 2:
            raise ParameterError(
                f"{rec.name} at theta = {th} is bivariate only (no genuine "
                f"Archimedean extension to d >= 3); got d = {self.d}"
            )
        object.__setattr__(self, "theta", float(th))


def _elementwise(spec: CopulaSpec, fn, x, check, *check_args) -> float | np.ndarray:
    """``fn(theta, x)`` on ``x`` as a 1-D float array once ``check(x, *check_args)``
    passes; a float for a scalar ``x``."""
    arr = np.asarray(x, dtype=float)
    flat = np.atleast_1d(arr)
    check(flat, *check_args)
    out = fn(spec.theta, flat)
    return float(out[0]) if arr.ndim == 0 else out


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
    return _elementwise(spec, FAMILIES[spec.family].phi, t, _check_t_unit, True)


def phi_prime(spec: CopulaSpec, t) -> float | np.ndarray:
    """Generator derivative ``phi'_theta(t)`` on ``t in (0, 1)``; always < 0."""
    return _elementwise(spec, FAMILIES[spec.family].phi_prime, t, _check_t_unit, False)


def _check_s(s: np.ndarray) -> None:
    if np.any(s < 0.0) or np.any(np.isnan(s)):
        raise DomainError("generator inverse argument must be >= 0")


def phi_inverse(spec: CopulaSpec, s) -> float | np.ndarray:
    """Generator inverse on ``s >= 0``; ``phi_inverse(0) = 1`` exactly."""
    return _elementwise(spec, FAMILIES[spec.family].phi_inverse, s, _check_s)


def copula_cdf(spec: CopulaSpec, u) -> float | np.ndarray:
    """Copula CDF at one point of shape ``(d,)`` or a batch ``(..., d)``.

    Coordinates must lie in ``[0, 1]``; any zero coordinate gives ``+0.0``.
    Equals ``phi_inverse(sum_i phi(u_i))`` wherever both are defined.
    """
    u_arr = np.asarray(u, dtype=float)
    if u_arr.ndim == 0 or u_arr.shape[-1] != spec.d:
        raise ParameterError(
            f"point dimension mismatch: expected last axis of length {spec.d}, "
            f"got shape {u_arr.shape}"
        )
    if np.any(u_arr < 0.0) or np.any(u_arr > 1.0) or np.any(np.isnan(u_arr)):
        raise DomainError("copula arguments must lie in [0, 1]")
    # a zero coordinate reaches 0 through an exact infinity (Clayton, Gumbel,
    # Joe) or an exact zero product (Frank, Ali-Mikhail-Haq); no row needs a
    # path of its own
    with np.errstate(divide="ignore", over="ignore"):
        out = FAMILIES[spec.family].cdf(spec.theta, spec.d, u_arr.reshape(-1, spec.d))
    if u_arr.ndim == 1:
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

    def kernel(_theta, u_arr):
        bracket = phi(spec, alpha) - phi(spec, u_arr)
        return -phi_prime(spec, u_arr) * bracket ** (spec.d - 2)

    return _elementwise(spec, kernel, u, _check_kernel_arg, alpha)


def _check_kernel_arg(u: np.ndarray, alpha: float) -> None:
    if np.any(u < alpha) or np.any(u >= 1.0) or np.any(np.isnan(u)):
        raise DomainError(f"kernel argument must lie in [alpha, 1) = [{alpha}, 1)")


# ------------------------------------------------------ shared by the records
#
# Records call rng samplers through module attributes at call time, never
# through references captured at import, so that wrapping those attributes
# (as a profiler or tracer does) sees every call.

def _identity(u: np.ndarray) -> np.ndarray:
    return u


# the largest double below 1; a reflected ``u = 1 - t`` or ``u = e^-t``
# rounds onto 1 for t under about 1e-16, where a quantile may be infinite,
# so the t-space VaR forms round such u down to this instead
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _log1m_exp(x: np.ndarray) -> np.ndarray:
    """``ln(1 - e^x)`` for ``x <= 0`` at full relative precision.

    Uses the expm1 route while ``e^x`` is near 1 and the log1p route once it
    is at most 1/2 (both agree at ``x = -ln 2``); ``x = 0`` gives ``-inf``.
    """
    with np.errstate(divide="ignore"):
        return np.where(
            x > -0.6931471805599453,
            np.log(-np.expm1(x)),
            np.log1p(-np.exp(x)),
        )


def _log1m_pow(th: float, t: np.ndarray) -> np.ndarray:
    """``ln(1 - (1-t)^th)`` for ``t in [0, 1]``; ``t = 1`` flows through to exactly 0."""
    with np.errstate(divide="ignore"):
        return _log1m_exp(th * np.log1p(-t))


def _horner(coefs, x: float) -> float:
    """The polynomial with coefficients ``coefs``, highest power first, at ``x``."""
    total = 0.0
    for c in coefs:
        total = total * x + c
    return total


def _solve_tau(tau_of_theta, target: float, lo: float, hi: float) -> float:
    """The theta between ``lo`` and ``hi`` (one sign, ``|lo| < |hi|``) where the
    monotone ``tau_of_theta`` crosses ``target``, or ``hi`` where it does not.

    Brent's method (Brent 1973, ch. 4) on ``x = ln |theta|``: inverse
    quadratic or secant steps, and a bisection step where those would not
    shrink the bracket fast enough.  It stops when the bracket is a few ulps
    of ``x`` wide, so theta's relative error is about ``1e-15 max(1, |x|)``
    from denormals to 1e300.  ``scipy.optimize.brentq`` is the same method,
    but importing ``scipy.optimize`` takes about 0.3 s and 17 MB.
    """
    sign = math.copysign(1.0, hi)

    def f(x):
        return tau_of_theta(sign * math.exp(x)) - target

    a, b = math.log(abs(lo)), math.log(abs(hi))
    fa, fb = f(a), f(b)
    if (fa < 0.0) == (fb < 0.0):  # AMH targets within ulps of its range ends
        return hi
    # b is the best point, c the other end of the bracket, a the previous b;
    # d is the last step and e the one before
    c, fc = a, fa
    d = e = b - a
    eps = math.ulp(1.0)
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = eps * (2.0 * abs(b) + 0.5)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return sign * math.exp(b)
        if abs(e) >= tol and abs(fa) > abs(fb):
            # secant through a and b, or inverse quadratic through a, b and c;
            # taken only if it stays well inside the bracket and shrinks faster
            # than the step before last
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and 2.0 * p < abs(e * q):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)


# --------------------------------------------------------------- Clayton

def _clayton_phi(th: float, t: np.ndarray) -> np.ndarray:
    # (t^-theta - 1)/theta, via expm1 for accuracy near t = 1;
    # overflow to inf at denormal t is the correct monotone limit
    with np.errstate(over="ignore"):
        return np.expm1(-th * np.log(t)) / th


def _clayton_phi_prime(th: float, t: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return -(t ** (-th - 1.0))


def _clayton_var_form(spec: CopulaSpec, alpha: float):
    """Reduced integrand ``q(u) u^(-theta-1) (a^-theta - u^-theta)^(d-2)``.

    Each ``x^-theta`` enters as ``1 + expm1(-theta ln x)`` and the ones
    cancel exactly, so the bracket keeps its digits as theta -> 0, where
    ``alpha^-theta - 1`` loses them (and rounds to 0 at theta = 1e-17).
    """
    th, d = spec.theta, spec.d
    denom = float(np.expm1(-th * np.log(alpha)))
    scale = (d - 1) * th / denom

    def weight(u: np.ndarray) -> np.ndarray:
        ratio = (denom - np.expm1(-th * np.log(u))) / denom
        return u ** (-th - 1.0) * ratio ** (d - 2) * scale

    return weight, alpha, 1.0, _identity, _identity


_CLAYTON = Family(
    name="Clayton", aliases=("clayton",),
    theta_ok=lambda th: th > 0, theta_domain="theta > 0",
    phi=_clayton_phi,
    phi_prime=_clayton_phi_prime,
    phi_inverse=lambda th, s: np.exp(np.log1p(th * s) * (-1.0 / th)),
    cdf=lambda th, d, pts: (np.sum(pts ** -th, axis=1) - d + 1.0) ** (-1.0 / th),
    frailty=lambda keys, th, **buf: rng.gammas(keys, 1.0 / th, **buf),
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

    return weight, alpha, 1.0, _identity, _identity


# Frank's tau near 0 is theta times this polynomial in theta^2: 4 B_2n /
# ((2n+1) (2n)!) for the Bernoulli numbers B_16..B_2 (the Debye series,
# convergent for |theta| < 2 pi)
_FRANK_SERIES = (-3617 / 45350147082240000, 1 / 280215936000, -691 / 4249941696000,
                 1 / 131725440, -1 / 2721600, 1 / 52920, -1 / 900, 1 / 9)


def _frank_tau(theta: float) -> float:
    """``sign(theta) [1 - 4/a (1 - D/a)]`` with ``a = |theta|`` and the Debye integral
    ``D = int_0^a t/(e^t - 1) dt = pi^2/6 - Li2(e^-a) + a ln(1 - e^-a)`` (Genest 1987).

    ``Li2(z) = spence(1 - z)``.  The form cancels as theta -> 0 (by 1e-11
    relative at ``|theta| = 0.1``), so below ``|theta| = 0.5`` its Taylor
    series to the theta^15 term is used, within 3e-16 relative there.
    """
    if abs(theta) < 0.5:
        return theta * _horner(_FRANK_SERIES, theta * theta)
    a = abs(theta)
    em = -math.expm1(-a)
    debye = math.pi ** 2 / 6.0 - float(spence(em)) + a * math.log(em)
    return math.copysign(1.0 - 4.0 / a * (1.0 - debye / a), theta)


def _frank_theta_ok(th: float) -> bool:
    # every Frank value divides by expm1(-theta); below theta = -709.7827 it
    # overflows, and the copula and generator turn to nan and inf
    with np.errstate(over="ignore"):
        return th != 0 and bool(np.isfinite(np.expm1(-th)))


# tau at theta = -709.78: lower taus would calibrate to a theta the domain
# rejects, which ends 0.0027 lower
_FRANK_TAU_MIN = _frank_tau(-709.78)

# the largest theta whose log-series frailty parameter 1 - e^-theta rounds
# below 1 (just under 54 ln 2); above it the parameter is 1.0 and the law
# degenerates
_FRANK_FRAILTY_MAX = 37.42994775023704


_FRANK = Family(
    name="Frank", aliases=("frank",),
    theta_ok=_frank_theta_ok,
    theta_domain="theta != 0 and theta >= -709.7827 (expm1(-theta) must be finite)",
    # theta < 0 gives a copula in d = 2 only: in d = 3 at theta = -5 the box
    # [0.30, 0.32] x [0.98, 1]^2 has C-volume -2.46e-5
    bivariate_only=lambda th: th < 0,
    # -ln[(e^(-theta t) - 1)/(e^(-theta) - 1)]; the ratio is positive
    # for either sign of theta
    phi=lambda th, t: -np.log(np.expm1(-th * t) / np.expm1(-th)),
    phi_prime=lambda th, t: -th / np.expm1(th * t),
    phi_inverse=lambda th, s: np.where(
        s == 0.0, 1.0, -np.log1p(np.exp(-s) * np.expm1(-th)) / th),
    cdf=lambda th, d, pts: -np.log1p(
        np.prod(np.expm1(-th * pts), axis=1) / np.expm1(-th) ** (d - 1)) / th,
    frailty=lambda keys, th, **buf: rng.log_series(keys, -np.expm1(-th), **buf),
    frailty_ok=lambda th: 0 < th <= _FRANK_FRAILTY_MAX,
    frailty_domain=f"0 < theta <= {_FRANK_FRAILTY_MAX!r} (1 - e^-theta must round below 1)",
    var_form=_frank_var_form,
    tau=_frank_tau,
    tau_range=(_FRANK_TAU_MIN, 1.0),
    tau_ok=lambda tau: _FRANK_TAU_MIN <= tau < 1.0 and tau != 0.0,
    # sign(theta) = sign(tau)
    theta_from_tau=lambda tau: _solve_tau(
        _frank_tau, tau, math.copysign(5e-324, tau), math.copysign(1e300, tau)),
)


# ------------------------------------------------------- Gumbel-Hougaard

def _gumbel_var_form(spec: CopulaSpec, alpha: float):
    """Integrand on ``t in [0, -ln alpha]`` after the substitution ``t = -ln u``."""
    th, d = spec.theta, spec.d
    la = float(-np.log(alpha))
    # (t/la)^(theta-1) / la, not t^(theta-1) / la^theta, which underflows
    # (theta = 60 at alpha = 1 - 1e-6)
    scale = (d - 1) * th / la

    def weight(t: np.ndarray) -> np.ndarray:
        r = t / la
        return r ** (th - 1.0) * (1.0 - r ** th) ** (d - 2) * scale

    return (weight, 0.0, la, lambda t: np.minimum(np.exp(-t), _BELOW_ONE),
            lambda u: -np.log(u))


_GUMBEL = Family(
    name="Gumbel-Hougaard", aliases=("gumbel", "gumbel-hougaard"),
    theta_ok=lambda th: th >= 1, theta_domain="theta >= 1",
    phi=lambda th, t: (-np.log(t)) ** th,
    phi_prime=lambda th, t: -th * (-np.log(t)) ** (th - 1.0) / t,
    phi_inverse=lambda th, s: np.exp(-(s ** (1.0 / th))),
    cdf=lambda th, d, pts: np.exp(-(np.sum((-np.log(pts)) ** th, axis=1) ** (1.0 / th))),
    frailty=lambda keys, th, **buf: rng.positive_stables(keys, 1.0 / th, **buf),
    frailty_ok=lambda th: th >= 1, frailty_domain="theta >= 1",
    var_form=_gumbel_var_form,
    tau=lambda th: 1.0 - 1.0 / th,
    tau_range=(0.0, 1.0), tau_ok=lambda tau: 0.0 <= tau < 1.0,
    theta_from_tau=lambda tau: 1.0 / (1.0 - tau),
)


# ------------------------------------------------------------------- Joe

def _joe_cdf(th: float, d: int, pts: np.ndarray) -> np.ndarray:
    # 1 - [1 - prod_i (1 - (1-u_i)^theta)]^(1/theta); ``0.0 -`` turns the
    # -0.0 that a zero coordinate leaves into +0.0 and is exact elsewhere
    log_prod = np.sum(_log1m_pow(th, pts), axis=1)
    return np.where(
        log_prod == 0.0,
        1.0,
        0.0 - np.expm1(np.log(-np.expm1(log_prod)) / th),
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

    return (weight, 0.0, 1.0 - alpha, lambda t: np.minimum(1.0 - t, _BELOW_ONE),
            lambda u: 1.0 - u)


def _joe_tau(theta: float) -> float:
    """``1 - a [psi(1 + a) - psi(2)]/(a - 1)`` with ``a = 2/theta``.

    The divided difference takes ``a - 1`` as ``(1 + a) - 2``, which is exact,
    so it matches the argument psi sees.  Within 1e-4 of ``a = 1`` (theta = 2)
    it is the cubic Taylor polynomial of ``psi(1 + a) - psi(2)`` divided by
    ``a - 1``, where the difference would cancel.
    """
    if theta == 1.0:
        return 0.0
    a = 2.0 / theta
    x = (1.0 + a) - 2.0
    if abs(x) < 1e-4:
        c1, c2, c3 = polygamma([1, 2, 3], 2.0) / [1.0, 2.0, 6.0]
        slope = c1 + x * (c2 + x * c3)
    else:
        slope = (psi(1.0 + a) - psi(2.0)) / x
    return float(1.0 - a * slope)


_JOE = Family(
    name="Joe", aliases=("joe",),
    theta_ok=lambda th: th >= 1, theta_domain="theta >= 1",
    phi=lambda th, t: -_log1m_pow(th, t),
    phi_prime=lambda th, t: -th * (1.0 - t) ** (th - 1.0) / (-np.expm1(th * np.log1p(-t))),
    # 1 - (1 - e^-s)^(1/theta)
    phi_inverse=lambda th, s: np.where(s == 0.0, 1.0, -np.expm1(_log1m_exp(-s) / th)),
    cdf=_joe_cdf,
    frailty=lambda keys, th, **buf: rng.sibuyas(keys, 1.0 / th, **buf),
    frailty_ok=lambda th: th >= 1, frailty_domain="theta >= 1",
    var_form=_joe_var_form,
    tau=_joe_tau,
    tau_range=(0.0, 1.0), tau_ok=lambda tau: 0.0 <= tau < 1.0,
    theta_from_tau=lambda tau: 1.0 if tau == 0.0 else _solve_tau(_joe_tau, tau, 1.0, 1e300),
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

    return weight, alpha, 1.0, _identity, _identity


_AMH_TAU_MIN = (5.0 - 8.0 * np.log(2.0)) / 3.0  # tau at theta = -1


# AMH's tau near 0 is theta times this polynomial in theta: 4 / (3 k (k+1) (k+2))
# for k = 16..1
_AMH_SERIES = tuple(4 / (3 * k * (k + 1) * (k + 2)) for k in range(16, 0, -1))


def _amh_tau(theta: float) -> float:
    # the closed form cancels as theta -> 0 (by about 3 eps/theta^2 relative),
    # so below |theta| = 0.1 the series is used; its truncation is 1e-18 relative
    if abs(theta) < 0.1:
        return theta * _horner(_AMH_SERIES, theta)
    return float(1.0 - 2.0 / 3.0 * (theta + (1.0 - theta) ** 2 * np.log1p(-theta)) / theta ** 2)


_AMH = Family(
    name="Ali-Mikhail-Haq", aliases=("amh", "ali-mikhail-haq"),
    theta_ok=lambda th: -1.0 <= th < 1.0,
    theta_domain="-1 <= theta < 1 (the generator degenerates at theta = 1)",
    bivariate_only=lambda th: True,
    phi=lambda th, t: np.log1p(-th * (1.0 - t)) - np.log(t),
    # simplifies to -(1-theta)/(t (1 - theta(1-t)))
    phi_prime=lambda th, t: -(1.0 - th) / (t * (1.0 - th * (1.0 - t))),
    phi_inverse=_amh_phi_inverse,
    cdf=lambda th, d, pts: (pts[:, 0] * pts[:, 1]
                            / (1.0 - th * (1.0 - pts[:, 0]) * (1.0 - pts[:, 1]))),
    frailty=lambda keys, th, **buf: rng.geometrics(keys, 1.0 - th, **buf),
    frailty_ok=lambda th: 0.0 <= th < 1.0,
    frailty_domain="theta in [0, 1); negative theta uses conditional inversion instead",
    conditional_rows=_amh_conditional_rows,
    var_form=_amh_var_form,
    tau=_amh_tau,
    # the theta = -1 endpoint is attained; tolerate its last-ulp representations
    tau_range=(_AMH_TAU_MIN, 1.0 / 3.0),
    tau_ok=lambda tau: _AMH_TAU_MIN - 1e-12 <= tau < 1.0 / 3.0,
    # sign(theta) = sign(tau), and tau(-1) is the least tau
    theta_from_tau=lambda tau: (
        -1.0 if tau <= _AMH_TAU_MIN else 0.0 if tau == 0.0 else _solve_tau(
            _amh_tau, tau, math.copysign(5e-324, tau), 1.0 - 1e-12 if tau > 0.0 else -1.0)),
)


FAMILIES = {
    FamilyId.CLAYTON: _CLAYTON,
    FamilyId.FRANK: _FRANK,
    FamilyId.GUMBEL_HOUGAARD: _GUMBEL,
    FamilyId.JOE: _JOE,
    FamilyId.ALI_MIKHAIL_HAQ: _AMH,
}
