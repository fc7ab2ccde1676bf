"""Level-set Monte Carlo VaR estimator and the replication study around it.

One replication draws a fresh copula sample, keeps the rows whose exact
copula value lies within ``h`` of the target level ``alpha``, maps the kept
pseudo-observations through the marginal quantile functions and averages
them componentwise.  A study repeats this over independent seed streams and
aggregates mean / SD / bias / RMSE against the quadrature value.

Each replication's kept rows come from ``sampling._level_set``, built once
per study: bit for bit the rows of ``sample_copula``'s sample that
:func:`estimate_var_once` keeps.  Each study worker draws its chunk of
replications in one call and only averages the rows it is handed, one
replication at a time.  :func:`estimate_var_once` is the independent
u-space check of that selection.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (EmptyLevelSetError, ParameterError, StudyError, _check_count,
                     _check_positive)
from .families import CopulaSpec, copula_cdf
from .margins import checked_margins
from .quadrature import DEFAULT_QUAD, QuadConfig
from .rng import Seed
from .sampling import Sample, _level_set
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


def _replications(cfg: McConfig, reps: range, draw) -> list:
    """The outcomes of replications ``reps``, each its estimate and count or
    ``None`` when no row is selected, drawn in one call of the study's
    ``draw``: ``estimate_var_once(sample_copula(cfg.spec, cfg.n, seed_r), ...)``
    bit for bit."""
    bases = [cfg.seed.with_stream(cfg.seed.stream_id + r).base_key() for r in reps]
    return [(_margin_means(rows, cfg.margins), rows.shape[0]) if rows.shape[0] else None
            for rows in draw(bases, cfg.n)]


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
    draw = _level_set(cfg.spec, cfg.alpha, cfg.h)
    theo = var_for_spec(cfg.spec, cfg.margins, cfg.alpha, cfg.quad).components
    m = cfg.replications
    workers = min(jobs, m)
    chunks = [range(m * j // workers, m * (j + 1) // workers) for j in range(workers)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda reps: _replications(cfg, reps, draw), chunks))
    else:
        parts = [_replications(cfg, chunks[0], draw)]
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
