"""Adaptive Gauss-Kronrod (G7/K15) quadrature with per-interval error bounds.

The integrand is evaluated only at nodes strictly inside each interval, so
endpoint singularities that are integrable (or merely removable) never get
touched directly.  Intervals suspected of endpoint structure can be seeded
with a graded initial mesh via ``graded_breakpoints``, and known kinks of the
integrand passed as further breakpoints.  The first pass costs 15
evaluations per initial interval, so it grows linearly with the number of
breakpoints; it runs ``_CHUNK_INTERVALS`` intervals at a time, so its memory
does not.

Refinement splits the interval with the largest error bound.  It raises
:class:`QuadratureError` after ``max_subdivisions`` splits, or earlier when
roundoff, not the mesh, sets the error (QUADPACK QAG's ``iroff1`` test,
Piessens et al. 1983; see ``_MAX_STALLS``).  QAG's second counter, for
children whose error exceeds their parent's, is left out: it stops integrals
that converge, such as ``cos(200 x) e^-x`` on ``[0, 10]`` at tolerance 1e-10.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, QuadratureError, _check_count

__all__ = ["QuadConfig", "integrate", "graded_breakpoints"]

# 15-point Kronrod nodes on (-1, 1); the odd-index entries are the embedded
# 7-point Gauss nodes.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)

# Initial intervals per batch of the first pass.  It exceeds the 11 intervals
# of the graded mesh, so an integral without further breakpoints makes one
# batch.
_CHUNK_INTERVALS = 1024

# A split is a stall when its children's summed value lies within
# _STALL_REL_CHANGE of the parent's and their summed error bound is at least
# _STALL_ERR_RATIO of the parent's; _MAX_STALLS stalls end the integration.
_STALL_REL_CHANGE = 1e-5
_STALL_ERR_RATIO = 0.99
_MAX_STALLS = 6


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budget for adaptive quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ParameterError("quadrature tolerances must be positive")
        object.__setattr__(self, "max_subdivisions",
                           _check_count(self.max_subdivisions, "max_subdivisions"))


DEFAULT_QUAD = QuadConfig()


def graded_breakpoints(a: float, b: float) -> np.ndarray:
    """Initial mesh refined geometrically toward both endpoints."""
    width = b - a
    offsets = np.array([1e-7, 1e-5, 1e-3, 1e-2, 1e-1])
    pts = np.concatenate([a + width * offsets, b - width * offsets])
    return np.unique(pts[(pts > a) & (pts < b)])


def _rule(f, lefts: np.ndarray, rights: np.ndarray):
    """Apply G7/K15 to a batch of intervals in a single call to ``f``.

    Returns per-interval Kronrod values and QUADPACK-style error estimates.
    The weighted sums are BLAS gemv calls, whose last bits depend on how many
    rows share a call and on the Gauss slice ``fv[:, _GAUSS_IDX]`` being
    F-ordered.  So ``_CHUNK_INTERVALS`` and the two-interval calls of the
    refinement are part of the bits that ``tests/test_bitwise.py`` pins.
    """
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (lefts + rights)
    nodes = mid[:, None] + half[:, None] * _XK[None, :]
    fv = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if np.any(~np.isfinite(fv)):
        raise QuadratureError(
            "integrand returned a non-finite value", float("nan"), float("inf")
        )
    resk = half * (fv @ _WK)
    resg = half * (fv[:, _GAUSS_IDX] @ _WG)
    # scale-aware error model: resasc measures the integrand's variation
    reskh = resk / (2.0 * half)
    resasc = half * (np.abs(fv - reskh[:, None]) @ _WK)
    raw = np.abs(resk - resg)
    err = np.where(
        (resasc != 0.0) & (raw != 0.0),
        resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc == 0, 1, resasc)) ** 1.5),
        raw,
    )
    return resk, err


def integrate(f, a: float, b: float, cfg: QuadConfig = DEFAULT_QUAD,
              breakpoints=()) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, b]`` adaptively.

    ``f`` must accept a 1-D array of nodes (all strictly inside ``(a, b)``)
    and return values of the same shape.  Returns ``(value, error_bound)``.
    Raises :class:`QuadratureError`, carrying the partial estimate and the
    number of splits made, if ``f`` returns a non-finite value, if the
    tolerance is not met within ``cfg.max_subdivisions`` interval splits, or
    if ``_MAX_STALLS`` splits show that roundoff keeps it from being met.
    """
    if not b > a:
        raise ParameterError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
    edges = np.unique(np.concatenate([
        [a, b], np.asarray(breakpoints, dtype=float).ravel()
    ]))
    edges = edges[(edges >= a) & (edges <= b)]
    lefts, rights = edges[:-1], edges[1:]
    parts = [_rule(f, lefts[k:k + _CHUNK_INTERVALS], rights[k:k + _CHUNK_INTERVALS])
             for k in range(0, lefts.size, _CHUNK_INTERVALS)]
    vals = np.concatenate([v for v, _ in parts])
    errs = np.concatenate([e for _, e in parts])
    total = float(np.sum(vals))
    total_err = float(np.sum(errs))
    if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        return total, total_err
    # heap of (-error, left, right, value, error)
    heap = [(-float(e), float(l), float(r), float(v), float(e))
            for l, r, v, e in zip(lefts, rights, vals, errs)]
    heapq.heapify(heap)
    splits = stalls = 0
    while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if stalls >= _MAX_STALLS:
            raise QuadratureError(
                f"quadrature stopped by roundoff after {splits} subdivisions: "
                f"{stalls} splits left the estimate and its error bound almost "
                f"unchanged (estimate {total!r}, error bound {total_err:.3e})",
                total, total_err, splits,
            )
        if splits >= cfg.max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge within {cfg.max_subdivisions} "
                f"subdivisions (estimate {total!r}, error bound {total_err:.3e})",
                total, total_err, splits,
            )
        neg_err, left, right, value, err = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        if mid <= left or mid >= right:
            # interval at floating-point resolution; cannot refine further
            heapq.heappush(heap, (0.0, left, right, value, 0.0))
            total_err -= err
            continue
        try:
            v2, e2 = _rule(f, np.array([left, mid]), np.array([mid, right]))
        except QuadratureError as exc:
            raise QuadratureError(str(exc), exc.estimate, exc.error_bound, splits) from None
        area, area_err = float(v2.sum()), float(e2.sum())
        total += area - value
        total_err += area_err - err
        if (abs(area - value) <= _STALL_REL_CHANGE * abs(area)
                and area_err >= _STALL_ERR_RATIO * err):
            stalls += 1
        heapq.heappush(heap, (-float(e2[0]), left, mid, float(v2[0]), float(e2[0])))
        heapq.heappush(heap, (-float(e2[1]), mid, right, float(v2[1]), float(e2[1])))
        splits += 1
    return total, total_err
