"""Level-set Monte Carlo VaR estimator and the replication study around it.

One replication draws a fresh copula sample, keeps the rows whose exact
copula value lies within ``h`` of the target level ``alpha``, maps the kept
pseudo-observations through the marginal quantile functions and averages
them componentwise.  A study repeats this over independent seed streams and
aggregates mean / SD / bias / RMSE against the quadrature value.

A study's replication selects radially.  Under the frailty construction a
row has ``C(U) = phi_inverse(R)`` with ``R = sum_i E_i / V``, so
``|C(U) - alpha| <= h`` is ``R in [phi(alpha + h), phi(alpha - h)]``.  The
rows are drawn in blocks of ``_BLOCK_ROWS``, as :func:`sample_copula` draws
them; a block keeps the ``E_i / V`` of its selected rows and drops the rest,
and only the kept rows are mapped to ``U``.  Each worker of a study draws its
replications through one workspace of block-sized buffers, reused from block
to block, so memory is a few blocks whatever ``n`` is and no block faults in
fresh pages.  A block draws the exact ``V`` only for candidate rows: those
whose ``S = sum_i E_i`` over the ends of an interval that holds ``V`` (the
record's ``latent_bounds``, or ``V`` itself) can reach the window.  A
candidate's ``V`` and ``R`` are computed as for every row, so the kept rows
and their bits do not change.  Families without a frailty law at their
theta draw blocks by conditional inversion and select them on the copula
CDF.
:func:`estimate_var_once` selects a whole sample on the copula CDF and is the
independent u-space check of the radial selection.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (EmptyLevelSetError, ParameterError, StudyError, _check_count,
                     _check_positive)
from .families import FAMILIES, CopulaSpec, copula_cdf, phi, phi_inverse
from .margins import checked_margins
from .quadrature import DEFAULT_QUAD, QuadConfig
from .rng import Seed, Workspace
from .sampling import (_BLOCK_ROWS, _OPEN_HI, _OPEN_LO, Sample, _blocks, _exponentials,
                       _frailty_blocks, _has_frailty, _latent)
from .var import var_for_spec

__all__ = ["McConfig", "McStats", "estimate_var_once", "run_study", "stats_table_rows"]


@dataclass(frozen=True)
class McConfig:
    """Configuration of one Monte Carlo convergence study."""

    spec: CopulaSpec
    margins: tuple
    n: int
    replications: int
    h: float
    alpha: float
    seed: Seed
    quad: QuadConfig = field(default=DEFAULT_QUAD)

    def __post_init__(self):
        object.__setattr__(self, "margins", checked_margins(self.margins, self.spec.d))
        object.__setattr__(self, "n", _check_count(self.n, "sample size"))
        object.__setattr__(self, "replications",
                           _check_count(self.replications, "replication count"))
        _check_level_set(self.alpha, self.h)


def _check_level_set(alpha: float, h: float) -> None:
    _check_positive(h, "level-set tolerance h")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")


@dataclass(frozen=True)
class McStats:
    """Study outcome.

    ``std_dev`` is the across-replication sample standard deviation of the
    per-replication estimates (denominator M-1; 0 by convention for a single
    replication), ``bias`` the absolute gap between the replication mean and
    the quadrature value, and ``rmse = sqrt(bias^2 + std_dev^2)``, so that
    ``rmse^2 - bias^2`` recovers the across-replication variance exactly.
    ``estimates`` ``(kept, d)`` and ``counts`` ``(kept,)`` hold each kept
    replication's estimate and selection count, in replication order.
    """

    mean: np.ndarray
    std_dev: np.ndarray
    bias: np.ndarray
    rmse: np.ndarray
    theoretical: np.ndarray
    estimates: np.ndarray
    counts: np.ndarray
    mean_selected_count: float
    failed_replications: int
    config: McConfig

    def __post_init__(self):
        for name, dtype in (("mean", float), ("std_dev", float), ("bias", float),
                            ("rmse", float), ("theoretical", float),
                            ("estimates", float), ("counts", np.int64)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def estimate_var_once(sample: Sample, spec: CopulaSpec, alpha: float, h: float,
                      margins) -> tuple[np.ndarray, int]:
    """One level-set VaR estimate from a single sample.

    Selects rows with ``|C(U) - alpha| <= h`` using the exact parametric
    copula, maps selected rows through the margins and returns their
    componentwise mean together with the selection count.  Raises
    :class:`EmptyLevelSetError` instead of returning a silent zero when no
    row qualifies.  This is the u-space check of the radial selection that
    :func:`run_study` makes.
    """
    _check_level_set(alpha, h)
    margins = checked_margins(margins, spec.d)
    values = copula_cdf(spec, sample.data)
    selected = np.abs(values - alpha) <= h
    count = int(np.count_nonzero(selected))
    if count == 0:
        raise EmptyLevelSetError(
            f"no sample point fell within h = {h} of the copula level "
            f"alpha = {alpha}; increase the sample size or the tolerance h"
        )
    return _margin_means(sample.data[selected], margins), count


def _margin_means(rows: np.ndarray, margins) -> np.ndarray:
    """Each column of the ``(count, d)`` selected rows mapped by its margin and averaged."""
    return np.array([float(np.mean(margin(rows[:, i]))) for i, margin in enumerate(margins)])


def _one_replication(cfg: McConfig, r: int, ws: Workspace, bounds):
    """Replication ``r``'s estimate and count, or ``None`` when no row is selected.

    Equal bit for bit to ``estimate_var_once(sample_copula(cfg.spec, cfg.n,
    seed_r), ...)``: the same rows are kept, in the same order, and go
    through the same ``phi_inverse``, clip and margins.  Only the kept rows
    are ever mapped to ``U``.  ``ws`` holds the block buffers, and
    ``bounds`` is :func:`_latent_bounds`'s.
    """
    spec, alpha, h = cfg.spec, cfg.alpha, cfg.h
    base = cfg.seed.with_stream(cfg.seed.stream_id + r).base_key()
    if bounds is None:
        kept = [[c[sel] for c in cols] for _, cols in _blocks(spec, base, cfg.n, ws)
                for sel in [np.abs(copula_cdf(spec, cols.T) - alpha) <= h]]
    else:
        # C(U) = phi_inverse(R) is decreasing in R; a window end past 0 or 1
        # bounds nothing
        r_lo = phi(spec, alpha + h) if alpha + h < 1.0 else 0.0
        r_hi = phi(spec, alpha - h) if alpha - h > 0.0 else np.inf
        kept = list(_screened(spec, base, cfg.n, ws, bounds, r_lo, r_hi))
    count = sum(block[0].size for block in kept)
    if count == 0:
        return None
    data = np.empty((count, spec.d))
    for i in range(spec.d):
        # a contiguous column, as sample_copula passes: numpy's vector loops
        # for exp and log may round a strided one differently
        col = np.concatenate([block[i] for block in kept])
        data[:, i] = col if bounds is None else phi_inverse(spec, col)
    np.clip(data, _OPEN_LO, _OPEN_HI, out=data)
    return _margin_means(data, cfg.margins), count


def _latent_bounds(spec: CopulaSpec):
    """A study's ``bounds(keys, ws)``, built once: its record's, or the exact
    ``V`` as both ends; ``None`` without a frailty law."""
    if not _has_frailty(spec):
        return None
    make = FAMILIES[spec.family].latent_bounds
    return (make and make(spec.theta)) or (
        lambda keys, ws: (_latent(spec, keys, ws.take("v", keys.shape[0]), ws),) * 2)


def _screened(spec: CopulaSpec, base: int, n: int, ws: Workspace, bounds, r_lo, r_hi):
    """Per block, the ``d`` columns ``E_i / V`` of the rows with ``R`` in
    ``[r_lo, r_hi]``, drawing the exact ``V`` of candidate rows only.

    ``R`` and ``S / V``, ``S = sum_i E_i``, differ by ``d`` roundings: a row
    is a candidate unless ``S / hi`` or ``S / lo`` is past the window widened
    by a slack for them.  Rows of an open window, and bounds with an end at
    0, inf or NaN, are candidates; an exact ``V`` screens on ``S / V``.  A
    candidate's ``V`` and ``R`` are those of drawing every ``V``, so the kept
    rows, their order and bits are too.
    """
    slack = 4.0 * (spec.d + 1) * np.finfo(float).eps
    lo_cut, hi_cut = r_lo * (1.0 - slack), r_hi * (1.0 + slack)
    if r_lo == 0.0 or r_hi == np.inf:
        lo_cut, hi_cut = -np.inf, np.inf
    for _, ekeys, vkeys in _frailty_blocks(base, n, ws):
        m = vkeys.shape[0]
        lo, hi = bounds(vkeys, ws)
        cols = _exponentials(spec, ekeys, ws)
        # S adds the columns in order, as R does
        s = np.add(cols[0], cols[1], out=ws.take("total", m))
        for e in cols[2:]:
            s += e
        cand, tmp = (ws.take(name, m, np.bool_) for name in ("sel", "sel.hi"))
        with np.errstate(divide="ignore"):
            q = np.divide(s, hi, out=s if lo is hi else ws.take("q", m))
            np.less_equal(q, hi_cut, out=cand)
            if lo is not hi:
                np.divide(s, lo, out=q)
        cand &= np.greater_equal(q, lo_cut, out=tmp)
        if lo is not hi:
            bounded = np.greater(lo, 0.0, out=tmp)
            bounded &= np.less(hi, np.inf, out=ws.take("sel.end", m, np.bool_))
            cand |= np.logical_not(bounded, out=bounded)
        v = lo[cand] if lo is hi else _latent(spec, vkeys[cand], None, ws)
        quotients = [e[cand] / v for e in cols]
        total = quotients[0] + quotients[1]
        for x in quotients[2:]:
            total += x
        sel = (total >= r_lo) & (total <= r_hi)
        yield [x[sel] for x in quotients]


def _replications(cfg: McConfig, reps: range, bounds) -> list:
    """The outcomes of replications ``reps``, drawn through one workspace."""
    ws = Workspace(min(cfg.n, _BLOCK_ROWS))
    return [_one_replication(cfg, r, ws, bounds) for r in reps]


def run_study(cfg: McConfig, jobs: int = 1) -> McStats:
    """Run ``cfg.replications`` independent replications and aggregate.

    Replication ``r`` draws its sample from seed stream
    ``cfg.seed.stream_id + r``.  Each of the ``jobs`` workers takes a
    contiguous chunk of replications; results are reduced in replication
    order, so the outcome is identical for every ``jobs`` value.  The
    sampler's parameter errors and the quadrature's come before any draw.
    Replications with an empty level-set neighborhood are counted in
    ``failed_replications`` and excluded from the aggregates.  ``jobs`` must
    be an integer >= 1.
    """
    jobs = _check_count(jobs, "jobs")
    bounds = _latent_bounds(cfg.spec)
    theo = var_for_spec(cfg.spec, cfg.margins, cfg.alpha, cfg.quad).components
    m = cfg.replications
    workers = min(jobs, m)
    chunks = [range(m * j // workers, m * (j + 1) // workers) for j in range(workers)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda reps: _replications(cfg, reps, bounds), chunks))
    else:
        parts = [_replications(cfg, chunks[0], bounds)]
    outcomes = [out for part in parts for out in part]
    kept = [out for out in outcomes if out is not None]
    failed = m - len(kept)
    if not kept:
        raise StudyError(
            f"all {m} replications produced empty level-set neighborhoods "
            f"(n = {cfg.n}, h = {cfg.h})"
        )
    estimates = np.stack([est for est, _ in kept])
    counts = np.array([cnt for _, cnt in kept], dtype=np.int64)
    mean = estimates.mean(axis=0)
    if estimates.shape[0] > 1:
        std = estimates.std(axis=0, ddof=1)
    else:
        std = np.zeros(cfg.spec.d)
    bias = np.abs(mean - theo)
    rmse = np.sqrt(bias ** 2 + std ** 2)
    return McStats(
        mean=mean,
        std_dev=std,
        bias=bias,
        rmse=rmse,
        theoretical=theo,
        estimates=estimates,
        counts=counts,
        mean_selected_count=float(counts.mean()),
        failed_replications=failed,
        config=cfg,
    )


def stats_table_rows(stats: McStats, label: str, per_component: bool = False):
    """Serialize a study into delimited rows (n, copula, mean, SD, bias, RMSE, theo).

    The default collapses the exchangeable components into their average,
    matching the one-number-per-study report layout; ``per_component=True``
    emits one row per component with a component index column.
    """
    cfg = stats.config
    if per_component:
        return [
            (cfg.n, label, i + 1, stats.mean[i], stats.std_dev[i], stats.bias[i],
             stats.rmse[i], stats.theoretical[i])
            for i in range(cfg.spec.d)
        ]
    return [(
        cfg.n, label,
        float(stats.mean.mean()), float(stats.std_dev.mean()),
        float(stats.bias.mean()), float(stats.rmse.mean()),
        float(stats.theoretical.mean()),
    )]
