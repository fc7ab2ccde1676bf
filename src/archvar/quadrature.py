"""Adaptive Gauss-Kronrod (G7/K15) quadrature with per-interval error bounds.

The integrand is evaluated only at nodes strictly inside each interval, so
endpoint singularities that are integrable (or merely removable) never get
touched directly.  Intervals suspected of endpoint structure can be seeded
with a graded initial mesh via ``graded_breakpoints`` (24 intervals, to 1e-11
of the width from each end), and known kinks of the integrand passed as
further breakpoints.  The first pass costs 15 evaluations per initial
interval, so it grows linearly with the number of breakpoints; it runs
``_CHUNK_INTERVALS`` intervals at a time, so its memory does not.

Refinement splits the interval with the largest error bound, unless the
outermost node of either half would round onto the interval's end: such an
interval is at floating-point resolution and is never split, but its error
stays in the bound.  It raises :class:`QuadratureError` after ``max_subdivisions``
splits, when such intervals alone hold more error than the tolerance, or
when roundoff, not the mesh, sets the error (QUADPACK QAG's ``iroff1`` test,
Piessens et al. 1983; see ``_MAX_STALLS``).  QAG's second counter, for
children whose error exceeds their parent's, is left out: it stops integrals
that converge, such as ``cos(200 x) e^-x`` on ``[0, 10]`` at tolerance 1e-10.

Integrals ``f_b(x) w(x)`` that share a weight ``w`` and an interval run in
lockstep (``_integrate_all``, which ``integrate`` calls with one integrand).
Each keeps its own heap, tolerances, stall count and stop; each step splits
one interval of every integral still running, in one batched rule
evaluation that calls ``w`` once.  Every integral gets the value, error
bound and split count, to the bit, that it gets alone (see ``_rule``).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, QuadratureError, _check_count, _check_positive

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
_XK_EDGE = float(_XK[-1])

# Initial intervals per batch of the first pass.  It exceeds the 24 intervals
# of the graded mesh, so an integral without further breakpoints makes one
# batch.
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


def graded_breakpoints(a: float, b: float) -> np.ndarray:
    """Initial mesh refined geometrically toward both endpoints.

    The points lie at ``_GRADED`` fractions of the width from each end, the
    midpoint once, less those within ``_FLOOR`` of their end and those that
    round onto an end or onto their neighbour.
    """
    dist = (b - a) * _GRADED
    dist = dist[dist >= _FLOOR]
    # ascending as built, so one comparison drops the duplicates; the last
    # point kept then equals b, and is cut
    pts = np.concatenate(([a], a + dist, b - dist[-2::-1], [b]))
    pts = pts[1:][pts[1:] > pts[:-1]]
    return pts[:-1]


def _rule(fs, w, mid: np.ndarray, half: np.ndarray):
    """Apply G7/K15 to ``k`` intervals of each integrand ``f(x) w(x)``, ``f`` in ``fs``.

    ``mid`` and ``half`` hold the intervals' midpoints and half-widths:
    ``(k,)`` when every integrand shares them, ``(len(fs), k)`` when not.
    ``w`` (``None`` for 1) is called once on all nodes, then each ``f``, in
    order, on its own flattened ``(k, 15)`` nodes.  Returns ``(resk, resg,
    resasc, failure)``: the ``(n, k)`` Kronrod and Gauss values and
    variation measures of the leading ``n`` integrands that succeeded, and
    ``failure``, ``None`` or what stopped the next one: the exception its
    callable (or ``w``) raised, or ``_NON_FINITE``.

    The weighted sums are BLAS gemv calls, one per integrand on its ``k``
    rows.  Their last bits depend on that row count and on each Gauss slice
    being F-ordered, as ``fv[:, _GAUSS_IDX]`` leaves a 2-D ``fv``; so every
    integrand gets the bits it gets alone, and ``_CHUNK_INTERVALS`` and the
    two-interval steps of the refinement are part of the bits that
    ``tests/test_bitwise.py`` pins.
    """
    nodes = mid[..., None] + half[..., None] * _XK
    shared = nodes.ndim == 2
    fv = np.empty((len(fs),) + nodes.shape[-2:])
    done, failure = 0, None
    try:
        if w is not None:
            wv = np.asarray(w(nodes.ravel()), dtype=float).reshape(nodes.shape)
        for f in fs:
            x = nodes if shared else nodes[done]
            fv[done] = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
            done += 1
    except Exception as exc:    # raised once the integrals before it have run on
        failure = exc
    fv = fv[:done]
    if w is not None and done:
        fv *= wv if shared else wv[:done]
    # checked before any arithmetic: a matmul over +inf and -inf warns
    if not np.isfinite(fv).all():
        done = next(i for i in range(done) if not np.isfinite(fv[i]).all())
        fv, failure = fv[:done], _NON_FINITE
    if not shared:
        half = half[:done]
    resk = half * (fv @ _WK)
    resg = half * (_WG @ fv.transpose(0, 2, 1).take(_GAUSS_IDX, axis=1))
    # scale-aware error model: resasc measures the integrand's variation
    reskh = resk / (2.0 * half)
    resasc = half * (np.abs(fv - reskh[..., None]) @ _WK)
    return resk, resg, resasc, failure


def _errors(resk, resg, resasc) -> np.ndarray:
    """QUADPACK's per-interval error estimates, for the first pass's arrays."""
    raw = np.abs(resk - resg)
    return np.where(
        (resasc != 0.0) & (raw != 0.0),
        resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc == 0, 1, resasc)) ** 1.5),
        raw,
    )


def _step_errors(resk, resg, resasc) -> tuple[list, list]:
    """``resk`` and :func:`_errors` as flat lists, computed on Python floats.

    A refinement step has two intervals per integral, too few for numpy's
    per-call cost to pay.  Python floats round as numpy does, so the
    estimates have the bits of :func:`_errors`; only the ``** 1.5`` stays
    numpy's, because libm's ``pow`` rounds differently.
    """
    values = resk.ravel().tolist()
    raws = [abs(k - g) for k, g in zip(values, resg.ravel().tolist())]
    ascs = resasc.ravel().tolist()
    powers = (np.array([200.0 * r / (s if s != 0.0 else 1.0)
                        for r, s in zip(raws, ascs)]) ** 1.5).tolist()
    return values, [s * (1.0 if p >= 1.0 else p) if s != 0.0 and r != 0.0 else r
                    for r, s, p in zip(raws, ascs, powers)]


def _halves_hold_nodes(left: float, mid: float, right: float) -> bool:
    """Whether the outermost K15 nodes of the two halves, as ``_rule`` places
    them, lie strictly inside ``(left, right)``."""
    return (left < 0.5 * (left + mid) - 0.5 * (mid - left) * _XK_EDGE
            and 0.5 * (mid + right) + 0.5 * (right - mid) * _XK_EDGE < right)


@dataclass(slots=True)
class _Integral:
    """One integral's refinement: a heap of ``(-error, left, right, value, error)``,
    and ``split``, the ``(left, mid, right, value, error)`` that this step splits."""

    index: int
    heap: list
    total: float
    error: float
    splits: int = 0
    stalls: int = 0
    stuck: float = 0.0    # the error of intervals too narrow to split
    split: tuple = ()


def _integrate_all(fs, w, a: float, b: float, cfg: QuadConfig,
                   breakpoints) -> list[tuple[float, float]]:
    """:func:`integrate` each ``f(x) w(x)``, ``f`` in ``fs``, in lockstep.

    ``w`` is ``None`` for a weight of 1, and ``breakpoints[i]`` seeds the
    mesh of ``fs[i]``; integrals given the same breakpoints object share
    their first-pass rule calls.  Returns ``[(value, error_bound), ...]`` in
    ``fs`` order.  If an integral fails, this raises the exception that a
    loop over ``fs`` would raise, that of the first integral to fail in
    ``fs`` order: once integral ``i`` fails, the integrals after it stop and
    those before it run on.  A failed refinement step carries the running
    estimate and bound from before it.
    """
    if not b > a:
        raise ParameterError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    groups: dict[int, list] = {}
    for i, points in enumerate(breakpoints):
        groups.setdefault(id(points), []).append(i)
    out: list = [None] * len(fs)
    live: list[_Integral] = []
    failure, stop = None, len(fs)    # the integrals from ``stop`` on have stopped
    for members in groups.values():
        edges = np.unique(np.concatenate([
            [a, b], np.asarray(breakpoints[members[0]], dtype=float).ravel()
        ]))
        edges = edges[(edges >= a) & (edges <= b)]
        lefts, rights = edges[:-1], edges[1:]
        vals = np.empty((len(members), lefts.size))
        errs = np.empty_like(vals)
        for c in range(0, lefts.size, _CHUNK_INTERVALS):
            chunk = slice(c, c + _CHUNK_INTERVALS)
            run = [i for i in members if i < stop]
            if not run:
                break
            resk, resg, resasc, exc = _rule([fs[i] for i in run], w,
                                            0.5 * (lefts[chunk] + rights[chunk]),
                                            0.5 * (rights[chunk] - lefts[chunk]))
            vals[:len(resk), chunk] = resk
            errs[:len(resk), chunk] = _errors(resk, resg, resasc)
            if exc is not None:
                stop = run[len(resk)]
                failure = (QuadratureError(_NON_FINITE, float("nan"), float("inf"))
                           if exc is _NON_FINITE else exc)
        for i, v, e in zip(members, vals, errs):
            if i >= stop:
                break
            total, total_err = float(np.sum(v)), float(np.sum(e))
            if total_err <= max(abs_tol, rel_tol * abs(total)):
                out[i] = (total, total_err)
                continue
            heap = [(-ei, li, ri, vi, ei) for li, ri, vi, ei
                    in zip(lefts.tolist(), rights.tolist(), v.tolist(), e.tolist())]
            heapq.heapify(heap)
            live.append(_Integral(i, heap, total, total_err))
    live = sorted((st for st in live if st.index < stop), key=lambda st: st.index)
    while live:
        batch = []    # the integrals that split an interval in this step
        for st in live:
            if st.index >= stop:
                break
            while st.error > (tol := max(abs_tol, rel_tol * abs(st.total))):
                if st.stalls >= _MAX_STALLS:
                    failure, stop = QuadratureError(
                        f"quadrature stopped by roundoff after {st.splits} subdivisions: "
                        f"{st.stalls} splits left the estimate and its error bound almost "
                        f"unchanged (estimate {st.total!r}, error bound {st.error:.3e})",
                        st.total, st.error, st.splits,
                    ), st.index
                    break
                if st.splits >= cfg.max_subdivisions:
                    failure, stop = QuadratureError(
                        f"quadrature did not converge within {cfg.max_subdivisions} "
                        f"subdivisions (estimate {st.total!r}, error bound {st.error:.3e})",
                        st.total, st.error, st.splits,
                    ), st.index
                    break
                if st.stuck > tol or not st.heap:
                    failure, stop = QuadratureError(
                        f"quadrature stopped at floating-point resolution after {st.splits} "
                        f"subdivisions: intervals too narrow to split hold {st.stuck:.3e} of "
                        f"the error bound (estimate {st.total!r}, error bound {st.error:.3e})",
                        st.total, st.error, st.splits,
                    ), st.index
                    break
                _, left, right, value, err = heapq.heappop(st.heap)
                mid = 0.5 * (left + right)
                if not _halves_hold_nodes(left, mid, right):
                    # at floating-point resolution: the interval leaves the
                    # heap, and its error stays in the bound
                    st.stuck += err
                    continue
                st.split = (left, mid, right, value, err)
                batch.append(st)
                break
            else:
                out[st.index] = (st.total, st.error)
        if not batch:
            break
        cuts = [st.split[:3] for st in batch]    # (left, mid, right)
        resk, resg, resasc, exc = _rule(
            [fs[st.index] for st in batch], w,
            np.array([(0.5 * (l + m), 0.5 * (m + r)) for l, m, r in cuts]),
            np.array([(0.5 * (m - l), 0.5 * (r - m)) for l, m, r in cuts]),
        )
        live = batch[:len(resk)]
        if exc is not None:
            st = batch[len(resk)]
            if exc is _NON_FINITE:
                exc = QuadratureError(_NON_FINITE, st.total, st.error, st.splits)
            elif isinstance(exc, QuadratureError):
                exc = QuadratureError(str(exc), exc.estimate, exc.error_bound, st.splits)
            failure, stop = exc, st.index
        v, e = _step_errors(resk, resg, resasc)
        for j, st in enumerate(live):
            left, mid, right, value, err = st.split
            v0, v1, e0, e1 = v[2 * j], v[2 * j + 1], e[2 * j], e[2 * j + 1]
            area, area_err = v0 + v1, e0 + e1
            st.total += area - value
            st.error += area_err - err
            if (abs(area - value) <= _STALL_REL_CHANGE * abs(area)
                    and area_err >= _STALL_ERR_RATIO * err):
                st.stalls += 1
            heapq.heappush(st.heap, (-e0, left, mid, v0, e0))
            heapq.heappush(st.heap, (-e1, mid, right, v1, e1))
            st.splits += 1
    if failure is not None:
        raise failure
    return out


def integrate(f, a: float, b: float, cfg: QuadConfig = DEFAULT_QUAD,
              breakpoints=()) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, b]`` adaptively.

    ``f`` must accept a 1-D array of nodes (all strictly inside ``(a, b)``)
    and return values of the same shape.  Returns ``(value, error_bound)``.
    Raises :class:`QuadratureError`, carrying the partial estimate and its
    error bound and the number of splits made, if ``f`` returns a non-finite
    value, if the tolerance is not met within ``cfg.max_subdivisions``
    interval splits, or if ``_MAX_STALLS`` splits show that roundoff keeps it
    from being met.  A non-finite value in the first pass leaves no partial
    estimate: the error carries ``nan`` and ``inf``.
    """
    return _integrate_all([f], None, a, b, cfg, [breakpoints])[0]
