"""Seeded sampling from the copula families and rank-based diagnostics.

Sampling uses the Marshall-Olkin frailty construction
``U_i = phi_inverse(E_i / V)`` with i.i.d. unit exponentials ``E_i`` and a
latent variable ``V`` whose Laplace transform equals the generator inverse.
Every draw is keyed by (seed, row, purpose, counter) through
:mod:`archvar.rng`, so a sample is a pure function of its seed and may be
produced in independently generated row blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DomainError, ParameterError
from .families import FAMILIES, CopulaSpec, FamilyId, family_record, phi_inverse
from .rng import Seed

__all__ = ["Sample", "sample_copula", "sample_frailty", "empirical_kendall_tau",
           "write_sample"]

_OPEN_LO = np.nextafter(0.0, 1.0)
_OPEN_HI = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class Sample:
    """An n-by-d matrix of pseudo-observations in (0, 1) with its provenance."""

    data: np.ndarray
    seed: Seed
    spec: CopulaSpec

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=float)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def sample_frailty(family: FamilyId, theta: float, seed: Seed, n: int) -> np.ndarray:
    """Draw ``n`` variates of the family's frailty law (its record's ``frailty``).

    Laws: Clayton -> Gamma(1/theta, rate 1); Frank -> logarithmic series
    with parameter ``1 - e^-theta``; Gumbel-Hougaard -> positive stable with
    index ``1/theta``; Joe -> Sibuya(1/theta); Ali-Mikhail-Haq with
    ``theta in [0, 1)`` -> geometric with success probability ``1 - theta``.
    """
    if n < 1:
        raise ParameterError(f"frailty count must be >= 1, got {n}")
    rec = family_record(family)
    if not rec.frailty_ok(theta):
        raise DomainError(
            f"{rec.name} frailty sampling requires {rec.frailty_domain}, got {theta}"
        )
    keys = rng.substream_keys(seed.base_key(), rng.LABEL_FRAILTY,
                              np.arange(n, dtype=np.uint64))
    return rec.frailty(keys, theta)


def sample_copula(spec: CopulaSpec, n: int, seed: Seed) -> Sample:
    """Draw ``n`` i.i.d. rows from the copula with uniform margins."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ParameterError(f"sample size must be an integer >= 1, got {n!r}")
    n = int(n)
    rec = FAMILIES[spec.family]
    base = seed.base_key()
    rows = np.arange(n, dtype=np.uint64)
    if rec.frailty_ok(spec.theta):
        ekeys = rng.substream_keys(base, rng.LABEL_EXPONENTIAL, rows)
        v = sample_frailty(spec.family, spec.theta, seed, n)
        v *= rec.latent_scale(spec.theta)
        data = np.empty((n, spec.d))
        for i in range(spec.d):
            e = rng.exponentials(ekeys, i)
            data[:, i] = phi_inverse(spec, e / v)
    elif rec.conditional_rows is not None:
        data = rec.conditional_rows(spec.theta, base, rows)
    else:
        raise DomainError(
            f"sampling the {rec.name} family is supported for "
            f"{rec.frailty_domain} only (the frailty construction needs it)"
        )
    np.clip(data, _OPEN_LO, _OPEN_HI, out=data)
    return Sample(data, seed, spec)


def empirical_kendall_tau(sample, pair: tuple[int, int] = (0, 1)) -> float:
    """Concordance-based Kendall tau of one column pair.

    Merge-count (Knight) with tie corrections; raises
    :class:`DomainError` on a degenerate (constant) column.
    """
    data = sample.data if isinstance(sample, Sample) else np.asarray(sample, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ParameterError("need an (n, d) array with n >= 2")
    i, j = pair
    x = data[:, i]
    y = data[:, j]
    n = x.shape[0]
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    y_sorted = np.sort(y)
    n0 = n * (n - 1) // 2
    tie_x = _tie_pairs(xs)
    tie_y = _tie_pairs(y_sorted)
    if tie_x == n0 or tie_y == n0:
        raise DomainError("degenerate column: all pairs tied, tau undefined")
    tie_xy = _tie_pairs(xs, ys)
    discordant = _count_inversions(np.searchsorted(y_sorted, ys, side="left"))
    concordant_minus = n0 - tie_x - tie_y + tie_xy - 2 * discordant
    return concordant_minus / np.sqrt(float(n0 - tie_x) * float(n0 - tie_y))


def _tie_pairs(*sorted_cols: np.ndarray) -> int:
    """Pairs of rows equal in every column; equal rows must be adjacent."""
    same = np.ones(sorted_cols[0].shape[0] - 1, dtype=bool)
    for col in sorted_cols:
        same &= col[1:] == col[:-1]
    # run boundaries, with one past the end: their gaps are the run lengths
    lengths = np.diff(np.flatnonzero(np.concatenate([[True], ~same, [True]])))
    return int(np.sum(lengths * (lengths - 1) // 2))


def _count_inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for integer ranks in [0, n).

    A bottom-up merge count: at width ``w`` the positions form blocks of
    ``2w``, and each block's left half is paired with its right half.  Keying
    ranks by ``block * n + rank`` lets one sort of all right halves and one
    ``searchsorted`` of all left halves count every block's cross pairs.
    """
    n = ranks.shape[0]
    pos = np.arange(n)
    inv = 0
    w = 1
    while w < n:
        block = pos // (2 * w)
        key = block * n + ranks
        right = (pos & w) != 0
        below = np.searchsorted(np.sort(key[right]), key[~right], side="left")
        # the right halves of all earlier blocks are full: block * w keys
        inv += int(np.sum(below - block[~right] * w))
        w *= 2
    return inv


def write_sample(sample: Sample, path) -> None:
    """Write a sample as headered comma-delimited text, rows at full precision."""
    spec = sample.spec
    header_cols = ",".join(f"u{i + 1}" for i in range(sample.dim))
    meta = [
        f"# family = {spec.family.value}",
        f"# theta = {spec.theta!r}",
        f"# d = {spec.d}",
        f"# n = {sample.rows}",
        f"# seed = {sample.seed.value}",
        f"# stream_id = {sample.seed.stream_id}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(meta) + "\n")
        fh.write(header_cols + "\n")
        np.savetxt(fh, sample.data, fmt="%.17g", delimiter=",")
