"""Level-set Monte Carlo VaR estimator and the replication study around it.

One replication draws a fresh copula sample, keeps the rows whose exact
copula value lies within ``h`` of the target level ``alpha``, maps the kept
pseudo-observations through the marginal quantile functions and averages
them componentwise.  A study repeats this over independent seed streams and
aggregates mean / SD / bias / RMSE against the quadrature value.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyLevelSetError, ParameterError, StudyError
from .families import CopulaSpec, copula_cdf
from .margins import checked_margins
from .quadrature import DEFAULT_QUAD, QuadConfig
from .rng import Seed
from .sampling import Sample, sample_copula
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
        if self.n < 1:
            raise ParameterError(f"sample size must be >= 1, got {self.n}")
        if self.replications < 1:
            raise ParameterError(
                f"replication count must be >= 1, got {self.replications}"
            )
        _check_level_set(self.alpha, self.h)


def _check_level_set(alpha: float, h: float) -> None:
    if not h > 0:
        raise ParameterError(f"level-set tolerance h must be > 0, got {h}")
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
    """

    mean: np.ndarray
    std_dev: np.ndarray
    bias: np.ndarray
    rmse: np.ndarray
    theoretical: np.ndarray
    mean_selected_count: float
    failed_replications: int
    config: McConfig

    def __post_init__(self):
        for name in ("mean", "std_dev", "bias", "rmse", "theoretical"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def estimate_var_once(sample: Sample, spec: CopulaSpec, alpha: float, h: float,
                      margins) -> tuple[np.ndarray, int]:
    """One level-set VaR estimate from a single sample.

    Selects rows with ``|C(U) - alpha| <= h`` using the exact parametric
    copula, maps selected rows through the margins and returns their
    componentwise mean together with the selection count.  Raises
    :class:`EmptyLevelSetError` instead of returning a silent zero when no
    row qualifies.
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
    rows = sample.data[selected]
    est = np.empty(spec.d)
    for i, margin in enumerate(margins):
        est[i] = float(np.mean(margin(rows[:, i])))
    return est, count


def _one_replication(cfg: McConfig, r: int):
    seed_r = cfg.seed.with_stream(cfg.seed.stream_id + r)
    sample = sample_copula(cfg.spec, cfg.n, seed_r)
    try:
        return estimate_var_once(sample, cfg.spec, cfg.alpha, cfg.h, cfg.margins)
    except EmptyLevelSetError:
        return None


def run_study(cfg: McConfig, jobs: int = 1) -> McStats:
    """Run ``cfg.replications`` independent replications and aggregate.

    Replication ``r`` draws its sample from seed stream
    ``cfg.seed.stream_id + r``; results are reduced in replication order, so
    the outcome is identical for every ``jobs`` value.  Replications with an
    empty level-set neighborhood are counted in ``failed_replications`` and
    excluded from the aggregates.  ``jobs`` must be >= 1.
    """
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    m = cfg.replications
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(lambda r: _one_replication(cfg, r), range(m)))
    else:
        outcomes = [_one_replication(cfg, r) for r in range(m)]
    kept = [out for out in outcomes if out is not None]
    failed = m - len(kept)
    if not kept:
        raise StudyError(
            f"all {m} replications produced empty level-set neighborhoods "
            f"(n = {cfg.n}, h = {cfg.h})"
        )
    estimates = np.stack([est for est, _ in kept])
    counts = np.array([cnt for _, cnt in kept], dtype=float)
    theo = var_for_spec(cfg.spec, cfg.margins, cfg.alpha, cfg.quad).components
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
