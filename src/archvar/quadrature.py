"""Adaptive Gauss-Kronrod (G7/K15) quadrature with per-interval error bounds.

Nodes lie strictly inside each interval, so integrable or removable endpoint
singularities are never evaluated.  A graded initial mesh
(``graded_breakpoints``) and known kinks passed as breakpoints let most
integrands converge in the first pass, run ``_CHUNK_INTERVALS`` at a time.

Refinement runs in rounds, like ``scipy.integrate.quad_vec``'s subdivision.
An integral above its tolerance ``tol`` bisects, largest error first, the
fewest of its ``N`` intervals with an error above ``tol / (2N)`` that leave
at most ``tol / 2`` unsplit, but never an interval whose halves' outermost
nodes would round onto its ends: its error stays in the bound.  It raises
:class:`QuadratureError` after ``max_subdivisions`` splits (a round splits
its largest-error intervals up to the budget), when such intervals keep its
error above ``tol``, or when ``_MAX_STALLS`` splits left value and error
almost unchanged (QUADPACK QAG's ``iroff1``, Piessens et al. 1983).  QAG's
second counter, for children whose error exceeds their parent's, is left
out: it stops integrals that converge, such as ``cos(200 x) e^-x`` on
``[0, 10]``.  Integrals ``f_b(x) w(x)`` that share ``w`` and an interval run
in lockstep (``_integrate_all``): a round's halves of all of them go into one
rule call that evaluates ``w`` once, and each gets the bits it gets alone.
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

# Initial intervals per batch of the first pass, more than the graded mesh's 24.
_CHUNK_INTERVALS = 1024

# The graded mesh: its points' distances from each end as fractions of the
# width, ascending; the last, 0.5, is the midpoint.  It is deep enough that
# the log singularity of a normal or lognormal quantile at u = 1 and a
# smooth integrand's middle converge in the first pass.  A point nearer its
# end than _FLOOR is dropped: the K15 nodes of a narrower end interval can
# round onto u = 1 under a VaR form's substitution.
_GRADED = np.array([1e-11, 1e-9, 1e-7, 1e-5, 1e-4, 1e-3, 1e-2, 3e-2, 0.1, 0.2, 0.35, 0.5])
_FLOOR = 1e-13

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
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ParameterError(f"integration bounds must be finite with a < b, got [{a}, {b}]")


def graded_breakpoints(a: float, b: float) -> np.ndarray:
    """Initial mesh at ``_GRADED`` fractions of the width from each end, the
    midpoint once, less the points within ``_FLOOR`` of their end and those
    that round onto an end or onto their neighbour."""
    _check_bounds(a, b)
    dist = (b - a) * _GRADED
    dist = dist[dist >= _FLOOR]
    # ascending as built, so one comparison drops the duplicates; the last
    # point kept then equals b, and is cut
    pts = np.concatenate(([a], a + dist, b - dist[-2::-1], [b]))
    pts = pts[1:][pts[1:] > pts[:-1]]
    return pts[:-1]


def _errors(resk, resg, resasc) -> np.ndarray:
    """QUADPACK's per-interval error estimates."""
    raw = np.abs(resk - resg)
    flat = resasc == 0.0
    scaled = resasc * np.minimum(1.0, (200.0 * raw / np.where(flat, 1.0, resasc)) ** 1.5)
    return np.where(flat, raw, scaled)


def _rule(fs, w, mid: np.ndarray, half: np.ndarray, rows=None):
    """G7/K15 on the intervals ``mid +- half``: ``rows[i]`` of them for ``fs[i](x) w(x)``,
    or all of them (``rows=None``, the first pass: ``(count, k)`` results).

    ``w`` (``None`` for 1) is called once on all nodes, then each ``f`` on its
    own.  Returns the values and error bounds of the leading integrands that
    succeeded, their count, and ``None`` or what stopped the next one: the
    exception its callable (or ``w``) raised, or ``_NON_FINITE``.  Each gets
    the bits it gets alone: stacked BLAS sums give each its 2-D sums
    (``tests/test_elementwise_bits.py``), and einsum's row sums ignore the
    rows beside them.
    """
    nodes = mid[:, None] + half[:, None] * _XK
    shared = rows is None
    rows = [slice(None)] * len(fs) if shared else rows
    fv = np.empty((len(fs),) + nodes.shape if shared else nodes.shape)
    done, failure, wv = 0, None, None
    try:
        if w is not None:
            wv = np.asarray(w(nodes.ravel()), dtype=float).reshape(nodes.shape)
        for f, r in zip(fs, rows):
            x = nodes[r]
            fv[done if shared else r] = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
            done += 1
    except Exception as exc:    # raised once the integrals before it have run on
        failure = exc
    fv = fv[:done] if shared else fv[:rows[done - 1].stop if done else 0]
    if wv is not None:
        fv *= wv if shared else wv[:len(fv)]
    # checked before any arithmetic: a matmul over +inf and -inf warns
    if not np.isfinite(fv).all():
        done = next(j for j, r in enumerate(rows) if not np.isfinite(fv[j if shared else r]).all())
        fv = fv[:done] if shared else fv[:rows[done].start]
        failure = _NON_FINITE
    # scale-aware error model: resasc measures the integrand's variation
    if shared:
        resk = half * (fv @ _WK)
        resg = half * (_WG @ fv.transpose(0, 2, 1).take(_GAUSS_IDX, axis=1))
        resasc = half * (np.abs(fv - (resk / (2.0 * half))[..., None]) @ _WK)
    else:
        half = half[:len(fv)]
        resk = half * np.einsum("ij,j->i", fv, _WK)
        resg = half * np.einsum("ij,j->i", fv[:, 1::2], _WG)
        resasc = half * np.einsum("ij,j->i", np.abs(fv - (resk / (2.0 * half))[:, None]), _WK)
    return resk, _errors(resk, resg, resasc), done, failure


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


def _integrate_all(fs, w, a: float, b: float, cfg: QuadConfig,
                   breakpoints) -> list[tuple[float, float]]:
    """:func:`integrate` each ``f(x) w(x)``, ``f`` in ``fs``, in lockstep.

    ``w`` is ``None`` for 1; ``breakpoints[i]`` seeds the mesh of ``fs[i]``,
    and integrals given the same object share their first-pass rule calls.
    Returns ``[(value, error_bound), ...]``, or raises what a loop over ``fs``
    would raise: once integral ``i`` fails, those after it stop and those
    before it run on.  A failed round carries the estimate and bound from
    before it.
    """
    _check_bounds(a, b)
    groups: dict[int, list] = {}
    for i, points in enumerate(breakpoints):
        groups.setdefault(id(points), []).append(i)
    parts = {}    # each integral's partition, by rows: lefts, rights, values, error bounds
    failure, stop = None, len(fs)    # the integrals from ``stop`` on have stopped
    for members in groups.values():
        edges = np.unique(np.concatenate([[a, b], np.ravel(breakpoints[members[0]])]))
        edges = edges[(edges >= a) & (edges <= b)]
        part = np.empty((len(members), 4, edges.size - 1))
        part[:, 0], part[:, 1] = edges[:-1], edges[1:]
        for c in range(0, edges.size - 1, _CHUNK_INTERVALS):
            lefts, rights = part[0, :2, c:c + _CHUNK_INTERVALS]
            run = [i for i in members if i < stop]
            if not run:
                break
            v, e, done, exc = _rule([fs[i] for i in run], w, 0.5 * (lefts + rights),
                                    0.5 * (rights - lefts))
            part[:done, 2, c:c + lefts.size], part[:done, 3, c:c + lefts.size] = v, e
            if exc is not None:
                stop = run[done]
                failure = (QuadratureError(_NON_FINITE, float("nan"), float("inf"))
                           if exc is _NON_FINITE else exc)
        parts.update((i, part[k]) for k, i in enumerate(members) if i < stop)
    out: list = [None] * len(fs)
    splits, stalls = dict.fromkeys(parts, 0), dict.fromkeys(parts, 0)
    live = sorted(parts)
    while live:
        cuts = []    # (integral, picked intervals, their columns, estimate, bound)
        for i in live:
            if i >= stop:
                break
            part = parts[i]
            total, error = np.add.reduce(part[2:], axis=1).tolist()
            tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
            if error <= tol:
                out[i] = (total, error)
                continue
            pick = (part[3] > tol / (2 * part.shape[1])).nonzero()[0]
            cols = part.take(pick, axis=1)
            narrow, stuck = _narrow(cols[0], cols[1], max(-a, b)), 0.0
            if narrow.size:
                stuck = float(cols[3, narrow].sum())
                pick, cols = np.delete(pick, narrow), np.delete(cols, narrow, axis=1)
            if stalls[i] >= _MAX_STALLS:
                why = (f"stopped by roundoff after {splits[i]} subdivisions: {stalls[i]} "
                       "splits left the estimate and its error bound almost unchanged")
            elif splits[i] >= cfg.max_subdivisions:
                why = f"did not converge within {cfg.max_subdivisions} subdivisions"
            elif stuck > tol or not pick.size:    # the unpicked hold at most tol / 2
                why = (f"stopped at floating-point resolution after {splits[i]} subdivisions: "
                       f"intervals too narrow to split hold {stuck:.3e} of the error bound")
            else:
                if pick.size > 1:    # the fewest, largest first, that leave <= tol / 2
                    order = (-cols[3]).argsort(kind="stable")
                    order = order[:cols[3].take(order).cumsum().searchsorted(error - tol / 2) + 1]
                    pick, cols = pick.take(order), cols.take(order, axis=1)
                room = cfg.max_subdivisions - splits[i]
                cuts.append((i, pick[:room], cols[:, :room], total, error))
                continue
            failure, stop = QuadratureError(f"quadrature {why} (estimate {total!r}, error "
                                            f"bound {error:.3e})", total, error, splits[i]), i
            break
        if not cuts:
            break
        old = np.concatenate([cut[2] for cut in cuts], axis=1)
        mids = 0.5 * (old[0] + old[1])
        # rows 2j and 2j + 1 hold the halves of picked interval j
        kid_lefts, kid_rights = np.array([[old[0], mids], [mids, old[1]]]).transpose(
            0, 2, 1).reshape(2, -1)
        sizes = [2 * cut[1].size for cut in cuts]
        rows = [slice(end - size, end) for size, end in zip(sizes, np.cumsum(sizes).tolist())]
        v, e, done, exc = _rule([fs[cut[0]] for cut in cuts], w, 0.5 * (kid_lefts + kid_rights),
                                0.5 * (kid_rights - kid_lefts), rows)
        if exc is not None:
            i, _, _, total, error = cuts[done]
            if exc is _NON_FINITE:
                exc = QuadratureError(_NON_FINITE, total, error, splits[i])
            elif isinstance(exc, QuadratureError):
                exc = QuadratureError(str(exc), exc.estimate, exc.error_bound, splits[i])
            failure, stop = exc, i
        n = v.size // 2
        area, area_err = v[0::2] + v[1::2], e[0::2] + e[1::2]
        stalled = ((np.abs(area - old[2, :n]) <= _STALL_REL_CHANGE * np.abs(area))
                   & (area_err >= _STALL_ERR_RATIO * old[3, :n]))
        kids = np.array([kid_lefts[:2 * n], kid_rights[:2 * n], v, e])
        for (i, pick, *_), r in zip(cuts[:done], rows):
            stalls[i] += int(np.count_nonzero(stalled[r.start // 2:r.stop // 2]))
            splits[i] += pick.size
            # the left halves take their parents' places, the right ones follow
            parts[i][:, pick] = kids[:, r.start:r.stop:2]
            parts[i] = np.concatenate([parts[i], kids[:, r.start + 1:r.stop:2]], axis=1)
        live = [cut[0] for cut in cuts[:done]]
    if failure is not None:
        raise failure
    return out


def integrate(f, a: float, b: float, cfg: QuadConfig = DEFAULT_QUAD,
              breakpoints=()) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, b]`` adaptively.

    ``f`` must accept a 1-D array of nodes (all strictly inside ``(a, b)``)
    and return values of the same shape.  Returns ``(value, error_bound)``.
    Raises :class:`ParameterError` unless ``a < b`` are finite, and
    :class:`QuadratureError`, carrying the partial estimate, its error bound
    and the number of intervals split, if ``f`` returns a non-finite value
    (in the first pass: estimate ``nan``, bound ``inf``), if the tolerance is
    not met within ``cfg.max_subdivisions`` splits, or if roundoff keeps it
    from being met.
    """
    return _integrate_all([f], None, a, b, cfg, [breakpoints])[0]
