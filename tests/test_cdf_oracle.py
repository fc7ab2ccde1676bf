"""Frank and Joe ``copula_cdf`` against the definition, evaluated by mpmath.

The oracle is each family's textbook closed form, written here from its
definition and evaluated at enough digits to survive its own cancellation:
Frank's ``1 + prod_i (e^(-theta u_i) - 1) / (e^(-theta) - 1)^(d-1)`` is
about ``e^(-theta C)``, so it needs about ``theta / ln 10`` digits (300 at
theta = 700), and Joe's ``1 - [...]^(1/theta)`` near 0 needs about
``-log10 C`` more.  Nothing here calls archvar but ``copula_cdf`` itself and,
for one Frank case, ``sample_copula`` for the points.
"""
import math

import numpy as np
import pytest

from archvar import CopulaSpec, FamilyId, Seed, copula_cdf, sample_copula

mpmath = pytest.importorskip("mpmath")

POINTS = 40


def frank_exact(theta: float, row) -> float:
    th = mpmath.mpf(theta)
    with mpmath.workdps(40 + int(abs(theta) / math.log(10.0))):
        ratio = mpmath.fprod(mpmath.expm1(-th * mpmath.mpf(u)) for u in row)
        ratio /= mpmath.expm1(-th) ** (len(row) - 1)
        return float(-mpmath.log1p(ratio) / th)


def joe_exact(theta: float, row) -> float:
    th = mpmath.mpf(theta)
    with mpmath.workdps(80):
        prod = mpmath.fprod(1 - (1 - mpmath.mpf(u)) ** th for u in row)
        return float(1 - (1 - prod) ** (1 / th))


def worst_relative_error(spec: CopulaSpec, pts: np.ndarray, exact) -> float:
    got = copula_cdf(spec, pts)
    want = np.array([exact(spec.theta, row) for row in pts])
    assert np.all(want > 0.0)
    return float(np.max(np.abs(got - want) / want))


def uniform_points(d: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(size=(POINTS, d))


@pytest.mark.parametrize("theta", [1e-6, 0.5, 5.74, 20.0, 30.0, 40.0, 75.0, 200.0, 700.0,
                                   -5.0, -40.0, -300.0, -709.0])
def test_frank_cdf_matches_the_definition(theta):
    # the ratio of expm1 terms rounds towards -1 as theta grows; as theta
    # falls, the logs of the terms share a growing ln theta that cancels; a
    # negative theta is a copula in d = 2 only
    bound = 5e-13 if theta <= -300.0 else 1e-13
    for d in (2,) if theta < 0 else (2, 3, 10):
        spec = CopulaSpec(FamilyId.FRANK, theta, d)
        assert worst_relative_error(spec, uniform_points(d, 17), frank_exact) <= bound, d


def test_frank_cdf_on_its_own_sample_near_the_sampling_limit():
    # theta = 37.4 is inside the sampling domain; the sample's rows lie near
    # the diagonal, where the product of expm1 terms cancels most
    spec = CopulaSpec(FamilyId.FRANK, 37.4, 3)
    pts = sample_copula(spec, 200, Seed(4)).data
    assert worst_relative_error(spec, pts, frank_exact) <= 1e-13


@pytest.mark.parametrize("theta", [1.0, 1.2, 2.4, 6.0, 30.0])
@pytest.mark.parametrize("d", [2, 10, 50])
def test_joe_cdf_matches_the_definition(theta, d):
    # at d = 50 the values fall to about 1e-22 at theta = 1, where 1 minus a
    # power of a number near 1 cancels
    spec = CopulaSpec(FamilyId.JOE, theta, d)
    assert worst_relative_error(spec, uniform_points(d, 19), joe_exact) <= 1e-13
