"""Independent reference values for the benchmark's checks.

Everything here is written from the paper's generator table and imports
nothing from ``archvar``, so a check never compares a code path with itself.
The VaR integral is taken in its Beta form

    VaR_i = (d-1) * INT_0^1 q_i(phi^-1(phi(alpha) x)) (1-x)^(d-2) dx,

a different variable, integrand and quadrature (QUADPACK through
``scipy.integrate.quad``) from the program's u-space G7/K15 integrals.
Where double precision cannot reach the check tolerance (Frank at large
theta, Clayton at tiny theta near alpha = 1) the same integral is taken in
mpmath at 40 digits.

Families are named by the strings ``clayton``, ``frank``, ``gumbel``,
``joe`` and ``amh``.  A margin is a tuple:

* ``("uniform",)``
* ``("normal", mu, sigma)`` and ``("lognormal", mu, sigma)``
* ``("table", levels, quantiles)``: piecewise linear, clamped at both ends
"""
from __future__ import annotations

import bisect
import math
import warnings

import mpmath
from scipy import integrate, special

_LN2 = math.log(2.0)


# ---------------------------------------------------------------- generators

def phi(fam: str, th, t, m=math):
    """Generator phi(t) on (0, 1]; ``m`` is ``math`` or ``mpmath``."""
    if fam == "clayton":
        return m.expm1(-th * m.log(t)) / th
    if fam == "frank":
        return -m.log(m.expm1(-th * t) / m.expm1(-th))
    if fam == "gumbel":
        return (-m.log(t)) ** th
    if fam == "joe":
        return -m.log1p(-((1 - t) ** th))
    if fam == "amh":
        return m.log1p(-th * (1 - t)) - m.log(t)
    raise ValueError(f"unknown family {fam!r}")


def phi_inverse(fam: str, th, s, m=math) -> tuple:
    """``(u, 1 - u)`` for ``u = phi^-1(s)``, each to full relative precision.

    Returning the complement keeps quantiles finite where ``u`` rounds to 1.
    """
    if fam == "clayton":
        lu = -m.log1p(th * s) / th
        return m.exp(lu), -m.expm1(lu)
    if fam == "frank":
        u = -m.log1p(m.exp(-s) * m.expm1(-th)) / th
        return u, m.log1p(m.expm1(th) * -m.expm1(-s)) / th
    if fam == "gumbel":
        r = s ** (1 / th)
        return m.exp(-r), -m.expm1(-r)
    if fam == "joe":
        log1m = m.log1p(-m.exp(-s)) if s > _LN2 else m.log(-m.expm1(-s))
        return -m.expm1(log1m / th), m.exp(log1m / th)
    if fam == "amh":
        e = m.exp(-s)
        den = 1 - th * e
        return (1 - th) * e / den, -m.expm1(-s) / den
    raise ValueError(f"unknown family {fam!r}")


def copula_cdf(fam: str, th: float, us) -> float:
    """``C(u_1, ..., u_d) = phi^-1(sum phi(u_i))`` for a point inside (0, 1)^d."""
    return phi_inverse(fam, th, sum(phi(fam, th, u) for u in us))[0]


# ------------------------------------------------------------------- margins

def quantile(margin: tuple, u: float, ubar: float) -> float:
    """Quantile of a margin at level ``u`` with complement ``ubar = 1 - u``."""
    kind = margin[0]
    if kind == "uniform":
        return u
    if kind in ("normal", "lognormal"):
        z = special.ndtri(u) if u < 0.5 else -special.ndtri(ubar)
        x = margin[1] + margin[2] * float(z)
        return x if kind == "normal" else math.exp(x)
    if kind == "table":
        levels, quantiles = margin[1], margin[2]
        k = bisect.bisect_right(levels, u)
        if k == 0:
            return quantiles[0]
        if k == len(levels):
            return quantiles[-1]
        w = (u - levels[k - 1]) / (levels[k] - levels[k - 1])
        return quantiles[k - 1] + w * (quantiles[k] - quantiles[k - 1])
    raise ValueError(f"unknown margin kind {kind!r}")


def _knots_in_x(fam: str, th, alpha, margin: tuple, m=math) -> list:
    """Table knots inside (alpha, 1), mapped to x = phi(level) / phi(alpha)."""
    if margin[0] != "table":
        return []
    phi_a = phi(fam, th, alpha, m)
    return sorted(phi(fam, th, lv, m) / phi_a for lv in margin[1] if alpha < lv < 1.0)


# ------------------------------------------------------- VaR, conditional SD

def _moment(fam, th, d, alpha, margin, power):
    phi_a = phi(fam, th, alpha)

    def f(x):
        u, ubar = phi_inverse(fam, th, phi_a * x)
        return quantile(margin, u, ubar) ** power * (d - 1) * (1.0 - x) ** (d - 2)

    points = _knots_in_x(fam, th, alpha, margin)
    with warnings.catch_warnings():
        # QUADPACK warns when it cannot reach epsrel = 1e-12; the bound it
        # returns is checked below instead
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(f, 0.0, 1.0, points=points or None,
                                    limit=max(200, 4 * len(points)),
                                    epsabs=1e-14, epsrel=1e-12)
    if not err <= 1e-11 * max(1.0, abs(value)):
        raise ArithmeticError(f"reference quadrature error {err:.2e} for "
                              f"{fam} theta={th} d={d} alpha={alpha}")
    return value


def var(fam: str, th: float, d: int, alpha: float, margin: tuple,
        precise: bool = False) -> float:
    """Marginal VaR ``E[q(U_i) | C(U) = alpha]`` of one component."""
    if precise:
        return _var_mp(fam, th, d, alpha, margin)
    return _moment(fam, th, d, alpha, margin, 1)


def conditional_sd(fam: str, th: float, d: int, alpha: float, margin: tuple) -> float:
    """SD of ``q(U_i)`` on the level set ``{C(U) = alpha}``."""
    mean = _moment(fam, th, d, alpha, margin, 1)
    return math.sqrt(_moment(fam, th, d, alpha, margin, 2) - mean * mean)


# mpmath path: the same formulas at 40 digits

def _mp_phi_prime(fam, th, t):
    mp = mpmath
    if fam == "clayton":
        return -t ** (-th - 1)
    if fam == "frank":
        return -th / mp.expm1(th * t)
    if fam == "gumbel":
        return -th * (-mp.log(t)) ** (th - 1) / t
    if fam == "joe":
        return -th * (1 - t) ** (th - 1) / (1 - (1 - t) ** th)
    if fam == "amh":
        return (th - 1) / (t * (1 - th * (1 - t)))
    raise ValueError(f"unknown family {fam!r}")


def _var_mp(fam, th, d, alpha, margin):
    with mpmath.workdps(40):
        th_m = mpmath.mpf(th)
        phi_a = phi(fam, th_m, mpmath.mpf(alpha), mpmath)

        def f(x):
            u, ubar = phi_inverse(fam, th_m, phi_a * x, mpmath)
            return quantile(margin, float(u), float(ubar)) * (d - 1) * (1 - x) ** (d - 2)

        points = _knots_in_x(fam, th_m, mpmath.mpf(alpha), margin, mpmath)
        return float(mpmath.quad(f, [0] + points + [1]))


# ----------------------------------------------------------------- Kendall tau

def kendall_tau(fam: str, th: float) -> float:
    """Population Kendall tau ``1 + 4 INT_0^1 phi/phi'`` (tanh-sinh, 30 digits)."""
    with mpmath.workdps(30):
        th_m = mpmath.mpf(th)

        def ratio(t):
            return phi(fam, th_m, t, mpmath) / _mp_phi_prime(fam, th_m, t)

        return float(1 + 4 * mpmath.quad(ratio, [0, 1]))


def kendall_h1_sd(fam: str, th: float, rows) -> float:
    """SD of the Hajek projection ``4 C(u, v) - 2u - 2v + 1`` over ``rows``.

    The SE of the sample Kendall tau of n rows is ``2 * sd / sqrt(n)``.
    """
    vals = [4.0 * copula_cdf(fam, th, (u, v)) - 2.0 * u - 2.0 * v + 1.0
            for u, v in rows]
    mean = math.fsum(vals) / len(vals)
    return math.sqrt(math.fsum((x - mean) ** 2 for x in vals) / (len(vals) - 1))
