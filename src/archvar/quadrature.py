"""Adaptive Gauss-Kronrod (G7/K15) quadrature with per-interval error bounds.

One call integrates ``f_b(x) w(x)`` for each ``f_b`` of a batch
(``_integrate_all``; :func:`integrate` is its one-integral case) from a
sorted mesh with both ends: the graded mesh (``graded_breakpoints``, deep
toward the left end, where an integrand may be singular) and any known
kinks.  Nodes lie strictly inside each interval, so integrable or removable
endpoint singularities are never evaluated.  The first pass calls
``w`` once on ``_CHUNK_INTERVALS`` intervals of a mesh, then each ``f_b``
sharing it, and tests their integrals in one reduction; most converge there,
each with the bits it gets alone.  A first pass that fails runs each
integral again alone, in order, and the first of those runs to fail raises,
as a loop would.  Then each integral above its tolerance ``tol`` refines
alone, in order (``_refine``), in rounds like ``scipy.integrate.quad_vec``'s:
it bisects, largest error first, the fewest of its ``N`` intervals with an
error above ``tol / (2N)`` that leave at most ``tol / 2``, but never one
whose halves' outer nodes would round onto its ends (its error stays in the
bound).  An integral raises :class:`QuadratureError` after
``max_subdivisions`` splits, when unsplittable intervals hold more than
``tol``, or when ``_MAX_STALLS`` splits left value and error almost
unchanged (QUADPACK QAG's ``iroff1``, Piessens et al. 1983).  QAG's second
counter, for children whose error exceeds their parent's, is left out: it
stops integrals that converge, such as ``cos(200 x) e^-x`` on ``[0, 10]``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, QuadratureError, _check_count, _check_positive

__all__ = ["QuadConfig", "integrate", "graded_breakpoints"]

# 15-point Kronrod nodes on (-1, 1), symmetric about 0, and their weights; the
# odd-index nodes are the embedded 7-point Gauss nodes.
_X = np.array([0.207784955007898, 0.405845151377397, 0.586087235467691, 0.741531185599394,
               0.864864423359769, 0.949107912342759, 0.991455371120813])
_XK = np.concatenate([-_X[::-1], [0.0], _X])
_W = np.array([0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
               0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728])
_WK = np.concatenate([_W, _W[-2::-1]])
_G = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469])
_WG = np.concatenate([_G, _G[-2::-1]])
_GAUSS_IDX = np.arange(1, 15, 2)

# Initial intervals per batch of the first pass, more than the graded mesh's 31.
_CHUNK_INTERVALS = 1024

# The graded mesh: its points' distances from the left end as fractions of
# the width, ascending.  Half-decade steps from 1e-11 to 0.1 resolve a
# singularity at the left end, such as the log singularity of a normal or
# lognormal quantile at u = 1 (t = 0), and nine points grade the rest lightly
# toward the smooth right end, so that both converge in the first pass.
# The decades are parsed, not powers, so that each is the double nearest it.
_DECADES = [float(f"1e{k}") for k in range(-11, 0)]
_GRADED = np.array(sorted(_DECADES + [x * math.sqrt(10.0) for x in _DECADES[:-1]])
                   + [0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95, 0.98, 0.995])

# A split is a stall when its children's summed value lies within
# _STALL_REL_CHANGE of the parent's and their summed error bound is at least
# _STALL_ERR_RATIO of the parent's; _MAX_STALLS stalls end the integration.
_STALL_REL_CHANGE = 1e-5
_STALL_ERR_RATIO = 0.99
_MAX_STALLS = 6

_NON_FINITE = "integrand returned a non-finite value"


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budget for adaptive quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol"):
            object.__setattr__(self, name, _check_positive(getattr(self, name), name))
        object.__setattr__(self, "max_subdivisions",
                           _check_count(self.max_subdivisions, "max_subdivisions"))


DEFAULT_QUAD = QuadConfig()


def _check_bounds(a: float, b: float) -> None:
    # false for NaN too; where true, the half-width is > 0 and any sum of two ends finite
    if not (0.5 * (b - a) > 0.0 and math.isfinite(2.0 * max(abs(a), abs(b)))):
        raise ParameterError(f"integration bounds must be finite with a < b, a half-width "
                             f"above 0 and |a|, |b| below half the largest double, got [{a}, {b}]")


def graded_breakpoints(a: float, b: float) -> np.ndarray:
    """Initial mesh at ``_GRADED`` fractions of the width from ``a``, graded
    toward ``a``, less the points that round onto an end or onto their
    neighbour."""
    _check_bounds(a, b)
    # ascending as built, so one comparison drops the duplicates
    pts = np.concatenate(([a], a + (b - a) * _GRADED))
    return pts[1:][(pts[1:] > pts[:-1]) & (pts[1:] < b)]


def _errors(resk, resg, resasc) -> np.ndarray:
    """QUADPACK's per-interval error estimates; ``|K15 - G7|`` where ``resasc`` is 0."""
    raw = np.abs(resk - resg)
    if np.count_nonzero(resasc) == resasc.size:    # none is flat: np.where would copy
        return resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5)
    flat = resasc == 0.0
    scaled = resasc * np.minimum(1.0, (200.0 * raw / np.where(flat, 1.0, resasc)) ** 1.5)
    return np.where(flat, raw, scaled)


def _rule(fs, w, mid: np.ndarray, half: np.ndarray):
    """G7/K15 for each ``fs[i](x) w(x)`` on the intervals ``mid +- half``,
    ``w`` (``None`` for 1) called once, first: the first pass's (1-D
    ``mid``), summed as stacked gemv calls, or a round's halves (``mid`` of
    shape ``(2, n)``), summed by ``einsum``.  Returns the values and error
    bounds, one row per integrand, or ``None`` if a value is not finite; an
    integrand's or ``w``'s exception propagates.  In the first pass each
    integrand gets the bits it gets alone (``tests/test_elementwise_bits.py``)."""
    nodes = mid[..., None] + half[..., None] * _XK
    fv = np.empty((len(fs),) + nodes.shape)
    wv = None if w is None else np.asarray(w(nodes.ravel()), dtype=float).reshape(nodes.shape)
    for f, row in zip(fs, fv):
        row[...] = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if wv is not None:
        fv *= wv
    # checked before any arithmetic: a matmul over +inf and -inf warns
    if np.count_nonzero(np.isfinite(fv)) < fv.size:
        return None
    # scale-aware error model: resasc measures the integrand's variation
    if mid.ndim == 1:
        resk = half * (fv @ _WK)
        resg = half * (_WG @ fv.transpose(0, 2, 1).take(_GAUSS_IDX, axis=1))
        resasc = half * (np.abs(fv - (resk / (2.0 * half))[..., None]) @ _WK)
    else:
        resk = half * np.einsum("...j,j->...", fv, _WK)
        resg = half * np.einsum("...j,j->...", fv[..., 1::2], _WG)
        resasc = half * np.einsum("...j,j->...", np.abs(fv - (resk / (2.0 * half))[..., None]), _WK)
    return resk, _errors(resk, resg, resasc)


def _narrow(left, right, scale: float) -> np.ndarray:
    """Indices of the intervals too narrow to split: the outermost K15 nodes
    of their halves, as ``_rule`` places them, would not lie strictly inside.
    ``scale`` bounds ``|left|`` and ``|right|``; wider than ``1e-12 scale``, an
    interval is some 70 times wider than the narrowest that holds them."""
    near = (right - left <= 1e-12 * scale).nonzero()[0]
    if near.size:
        left, right = left[near], right[near]
        mid = 0.5 * (left + right)
        near = near[(left >= 0.5 * (left + mid) - 0.5 * (mid - left) * _X[-1])
                    | (0.5 * (mid + right) + 0.5 * (right - mid) * _X[-1] >= right)]
    return near


def _refine(f, w, cfg: QuadConfig, mesh: np.ndarray, sums: np.ndarray, total: float,
            error: float) -> tuple[float, float, int, int]:
    """Bisect the intervals of one integral's first pass on ``mesh``, whose
    values and error bounds are the rows of ``sums``, in rounds until it
    meets its tolerance.  Returns ``(value, error_bound, evaluations,
    splits)``; a failed round's error carries the estimate, bound and splits
    from before it."""
    if error <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):    # most stop here
        return total, error, 15 * sums.shape[1], 0
    part = np.concatenate(([mesh[:-1]], [mesh[1:]], sums))    # lefts, rights, values, bounds
    scale, splits, stalls = max(-mesh[0], mesh[-1]), 0, 0
    while True:
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if error <= tol:
            return total, error, 15 * (part.shape[1] + splits), splits
        if stalls >= _MAX_STALLS:
            why = (f"stopped by roundoff after {splits} subdivisions: {stalls} "
                   "splits left the estimate and its error bound almost unchanged")
        elif splits >= cfg.max_subdivisions:
            why = f"did not converge within {cfg.max_subdivisions} subdivisions"
        else:
            errs, thr, stuck = part[3], tol / (2 * part.shape[1]), 0.0
            narrow = _narrow(part[0], part[1], scale)
            if narrow.size:    # those above thr hold stuck error, and sort last
                narrow = narrow[errs[narrow] > thr]
                stuck, errs = float(errs[narrow].sum()), errs.copy()
                errs[narrow] = 0.0
            # the fewest above thr, largest first, that leave at most tol / 2
            order = (-errs).argsort(kind="stable")
            errs = errs.take(order)
            k = min(int(errs.cumsum().searchsorted(error - tol / 2)) + 1, errs.size)
            pick = order[:k if errs[k - 1] > thr else np.count_nonzero(errs > thr)]
            pick = pick[:cfg.max_subdivisions - splits]
            if stuck <= tol and pick.size:
                old = part.take(pick, axis=1)
                bounds = old.take([0, 1, 1], axis=0)    # rows: lefts, mids, rights
                bounds[1] = 0.5 * (bounds[0] + bounds[2])
                width = bounds[1:] - bounds[:2]    # of the halves [left; right] of column j of old
                try:
                    ve = _rule([f], w, 0.5 * (bounds[:2] + bounds[1:]), 0.5 * width)
                except QuadratureError as exc:
                    raise QuadratureError(str(exc), exc.estimate, exc.error_bound, splits) from None
                if ve is None:
                    raise QuadratureError(_NON_FINITE, total, error, splits)
                (values,), (errors,) = ve    # the rows of its one integrand
                kids = np.concatenate((bounds[:2], bounds[1:], values, errors)).reshape(4, 2, -1)
                area = kids[2:, 0] + kids[2:, 1]    # the halves' summed values and error bounds
                stalls += int(np.count_nonzero(
                    (np.abs(area[0] - old[2]) <= _STALL_REL_CHANGE * np.abs(area[0]))
                    & (area[1] >= _STALL_ERR_RATIO * old[3])))
                # the left halves take their parents' places, the right ones follow
                part = np.concatenate((part, kids[:, 1]), axis=1)
                part[:, pick] = kids[:, 0]
                total, error = np.add.reduce(part[2:], axis=1).tolist()
                splits += pick.size
                continue
            why = (f"stopped at floating-point resolution after {splits} subdivisions: "
                   f"intervals too narrow to split hold {stuck:.3e} of the error bound")
        raise QuadratureError(f"quadrature {why} (estimate {total!r}, error "
                              f"bound {error:.3e})", total, error, splits)


def _integrate_all(fs, w, cfg: QuadConfig, edges) -> list[tuple[float, float, int, int]]:
    """:func:`integrate` each ``f(x) w(x)``, ``f`` in ``fs``, ``w`` ``None``
    for 1, from the mesh ``edges[i]``; integrals given one object share
    their first-pass calls, then each refines alone, in order.  Returns
    ``[(value, error_bound, evaluations, splits), ...]``, or raises what a
    loop over ``fs`` would: a round's failure at once, and a failed first
    pass by running each integral again alone, in order, with the bits it
    got there; the first of those runs to fail raises."""
    groups: dict[int, list] = {}
    for i, mesh in enumerate(edges):
        groups.setdefault(id(mesh), []).append(i)
    first = [None] * len(fs)    # each integral's mesh, sums, estimate and bound
    try:
        for members in groups.values():
            mesh = edges[members[0]]
            sums = np.zeros((len(members), 2, mesh.size - 1))    # values and error bounds
            for c in range(0, mesh.size - 1, _CHUNK_INTERVALS):
                lefts, rights = mesh[:-1][c:c + _CHUNK_INTERVALS], mesh[1:][c:c + _CHUNK_INTERVALS]
                ve = _rule([fs[i] for i in members], w, 0.5 * (lefts + rights),
                           0.5 * (rights - lefts))
                if ve is None:
                    raise QuadratureError(_NON_FINITE, float("nan"), float("inf"))
                sums[:, 0, c:c + lefts.size], sums[:, 1, c:c + lefts.size] = ve
            for i, (total, error), part in zip(members, np.add.reduce(sums, axis=2).tolist(), sums):
                first[i] = (mesh, part, total, error)
    except Exception as exc:
        if len(fs) == 1:
            raise
        failed = exc
    else:
        return [_refine(f, w, cfg, *start) for f, start in zip(fs, first)]
    # each integral alone, in order: the first to fail raises
    for f, mesh in zip(fs, edges):
        _integrate_all([f], w, cfg, [mesh])
    raise failed


def integrate(f, a: float, b: float, cfg: QuadConfig = DEFAULT_QUAD,
              breakpoints=()) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, b]`` adaptively.

    ``f`` must accept a 1-D array of nodes (all strictly inside ``(a, b)``)
    and return values of the same shape.  Returns ``(value, error_bound)``.
    Raises :class:`ParameterError` unless ``0.5 (b - a) > 0`` and
    ``2 max(|a|, |b|)`` is finite, and
    :class:`QuadratureError`, carrying the partial estimate, its error bound
    and the number of intervals split, if ``f`` returns a non-finite value
    (in the first pass: estimate ``nan``, bound ``inf``), if the tolerance is
    not met within ``cfg.max_subdivisions`` splits, or if roundoff keeps it
    from being met.
    """
    _check_bounds(a, b)
    edges = np.unique(np.concatenate(([a, b], np.ravel(breakpoints))))
    return _integrate_all([f], None, cfg, [edges[(edges >= a) & (edges <= b)]])[0][:2]
