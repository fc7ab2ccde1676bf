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


def _has_frailty(spec: CopulaSpec) -> bool:
    """Whether ``spec`` samples by the frailty construction (else by its record's
    ``conditional_rows``); :class:`DomainError` where neither route exists."""
    rec = FAMILIES[spec.family]
    if rec.frailty_ok(spec.theta):
        return True
    if rec.conditional_rows is None:
        raise DomainError(
            f"sampling the {rec.name} family is supported for "
            f"{rec.frailty_domain} only (the frailty construction needs it)"
        )
    return False


def _ratios(spec: CopulaSpec, base: int, rows: np.ndarray):
    """The generator values ``S_i = E_i / V`` of ``rows``, one column at a time.

    ``V`` is the frailty times the record's ``latent_scale``, so that
    ``U_i = phi_inverse(S_i)`` and the row's copula value is
    ``phi_inverse(sum_i S_i)``.  Every draw is keyed by its row, so a block
    of rows gets the bits it would get inside a larger sample.
    """
    rec = FAMILIES[spec.family]
    ekeys, vkeys = rng.substream_keys(base, (rng.LABEL_EXPONENTIAL, rng.LABEL_FRAILTY), rows)
    v = rec.frailty(vkeys, spec.theta)
    v *= rec.latent_scale(spec.theta)
    return (rng.exponentials(ekeys, i) / v for i in range(spec.d))


def sample_copula(spec: CopulaSpec, n: int, seed: Seed) -> Sample:
    """Draw ``n`` i.i.d. rows from the copula with uniform margins."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ParameterError(f"sample size must be an integer >= 1, got {n!r}")
    n = int(n)
    base = seed.base_key()
    rows = np.arange(n, dtype=np.uint64)
    if _has_frailty(spec):
        ratios = _ratios(spec, base, rows)      # draws V before data exists
        data = np.empty((n, spec.d))
        for i, s in enumerate(ratios):
            data[:, i] = phi_inverse(spec, s)
    else:
        data = FAMILIES[spec.family].conditional_rows(spec.theta, base, rows)
    np.clip(data, _OPEN_LO, _OPEN_HI, out=data)
    return Sample(data, seed, spec)


def empirical_kendall_tau(sample, pair: tuple[int, int] = (0, 1)) -> float:
    """Kendall tau-b of one column pair, by Knight's O(n log n) merge count.

    Each column is replaced by its min-ranks, the count of entries strictly
    below each entry, whose sum is the column's number of untied pairs.  One
    sort of the codes ``rx * n + ry`` orders the rows by x, and by y within
    x ties; the min-ranks of the sorted codes count the pairs that differ
    in x or in y, and the inversions of its y ranks the discordant pairs.
    Every count is an exact integer, so the result does not depend on the
    order of the rows.

    Raises :class:`ParameterError` on a NaN in either column or a column
    index outside ``[0, d)``, and :class:`DomainError` on a constant column.
    """
    data = sample.data if isinstance(sample, Sample) else np.asarray(sample, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ParameterError("need an (n, d) array with n >= 2")
    d = data.shape[1]
    if len(pair) != 2 or not all(isinstance(k, (int, np.integer)) and 0 <= k < d
                                 for k in pair):
        raise ParameterError(f"pair must be two column indices in [0, {d}), got {pair!r}")
    x = data[:, pair[0]]
    y = data[:, pair[1]]
    if np.isnan(x).any() or np.isnan(y).any():
        raise ParameterError("Kendall tau of a column with NaN entries is undefined")
    n = x.shape[0]
    rx, ry = _min_ranks(x), _min_ranks(y)
    untied_x, untied_y = int(rx.sum()), int(ry.sum())
    if untied_x == 0 or untied_y == 0:
        raise DomainError("degenerate column: all pairs tied, tau undefined")
    code = np.sort(rx * n + ry)
    untied_xy = int(_sorted_min_ranks(code).sum())
    discordant = _count_inversions(code % n)
    # the pairs untied in both columns, less twice the discordant ones
    concordant_minus = untied_x + untied_y - untied_xy - 2 * discordant
    return concordant_minus / np.sqrt(float(untied_x) * float(untied_y))


def _min_ranks(col: np.ndarray) -> np.ndarray:
    """Each entry's count of strictly smaller entries, from one ``argsort``."""
    order = np.argsort(col)
    ranks = np.empty(col.shape[0], dtype=np.int64)
    ranks[order] = _sorted_min_ranks(col[order])
    return ranks


def _sorted_min_ranks(s: np.ndarray) -> np.ndarray:
    """The min-ranks of the sorted array ``s``: each entry's index, except
    that a run of ties takes the index of its first element."""
    first = np.arange(s.shape[0], dtype=np.int64)
    first[1:][s[1:] == s[:-1]] = 0
    return np.maximum.accumulate(first, out=first)


def _count_inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for integer ranks in [0, n).

    A bottom-up merge count: at width ``w`` the positions form blocks of
    ``2w``, and each block's left half is paired with its right half.  One
    sort of the tagged keys ``((block * n + rank) << 1) | is_right`` orders
    every block's ranks at once, left before right on equal ranks, so that
    ties are not counted.  A left element's count of right elements before
    it in its block is then its sorted index, less the left elements and
    the full right halves of earlier blocks before it.
    """
    n = ranks.shape[0]
    pos = np.arange(n)
    tagged = ranks << 1
    inv = 0
    w, level = 1, 0                             # w == 2 ** level
    while w < n:
        key = (pos >> (level + 1)) * (2 * n)    # block, shifted past the tag
        key += tagged
        key |= (pos >> level) & 1               # is_right
        key.sort()
        at = np.flatnonzero((key & 1) == 0)
        # the m-th left element (from 0) lies in block m // w, whose sorted
        # keys start at 2w * (m // w) and hold m % w left elements before it
        m = pos[:at.shape[0]]
        inv += int(np.sum(at)) - int(np.sum(m + m // w * w))
        w, level = 2 * w, level + 1
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
