"""Seeded sampling from the copula families and rank-based diagnostics.

Sampling uses the Marshall-Olkin frailty construction
``U_i = phi_inverse(E_i / V)`` with i.i.d. unit exponentials ``E_i`` and a
latent variable ``V`` whose Laplace transform equals the generator inverse.
Every draw is keyed by (seed, row, purpose, counter) through
:mod:`archvar.rng`, so a sample is a pure function of its seed.  It is drawn
in row blocks through one workspace of block-sized buffers, the path the
Monte Carlo study takes too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DomainError, ParameterError, _check_count
from .families import FAMILIES, CopulaSpec, FamilyId, family_record, phi_inverse
from .rng import Seed

__all__ = ["Sample", "sample_copula", "sample_frailty", "empirical_kendall_tau",
           "write_sample"]

_OPEN_LO = np.nextafter(0.0, 1.0)
_OPEN_HI = np.nextafter(1.0, 0.0)

# Rows per block of a draw: a block's columns stay in cache, and a draw's
# temporaries are a few blocks whatever its n.
_BLOCK_ROWS = 1 << 15


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
    n = _check_count(n, "frailty count")
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
        rec.frailty(np.empty(0, dtype=np.uint64), spec.theta)   # its parameter checks
        return True
    if rec.conditional_rows is None:
        raise DomainError(
            f"sampling the {rec.name} family is supported for "
            f"{rec.frailty_domain} only (the frailty construction needs it)"
        )
    return False


def _blocks(spec: CopulaSpec, base: int, n: int, ws: rng.Workspace):
    """The ``n``-row sample keyed by ``base``, block by block, as ``(start, cols)``.

    Where ``spec`` has a frailty law, ``cols`` holds the generator values
    ``S_i = E_i / V`` of rows ``start, start + 1, ...``: ``V`` is the frailty
    times the record's ``latent_scale``, so that ``U_i = phi_inverse(S_i)``
    and the row's copula value is ``phi_inverse(sum_i S_i)``.  The columns
    are buffers of ``ws``, which the next block overwrites.  Elsewhere
    ``cols`` holds the clipped ``U`` columns drawn by conditional inversion.
    Every draw is keyed by its row, so a block gets the bits it would get
    inside a larger sample.
    """
    rec = FAMILIES[spec.family]
    radial = _has_frailty(spec)
    for start in range(0, n, _BLOCK_ROWS):
        m = min(_BLOCK_ROWS, n - start)
        rows = ws.row_range(start, m)
        if not radial:
            u = rec.conditional_rows(spec.theta, base, rows)
            yield start, np.clip(u, _OPEN_LO, _OPEN_HI, out=u).T
            continue
        ekeys, vkeys = (ws.take(name, m, np.uint64) for name in ("ekeys", "vkeys"))
        rng.substream_keys(base, (rng.LABEL_EXPONENTIAL, rng.LABEL_FRAILTY), rows,
                           (ekeys, vkeys), ws)
        v = rec.frailty(vkeys, spec.theta, out=ws.take("v", m), ws=ws)
        v *= rec.latent_scale(spec.theta)
        cols = [rng.exponentials(ekeys, i, ws.take(f"s{i}", m), ws) for i in range(spec.d)]
        for s in cols:
            s /= v
        yield start, cols


def sample_copula(spec: CopulaSpec, n: int, seed: Seed) -> Sample:
    """Draw ``n`` i.i.d. rows from the copula with uniform margins; a
    :class:`ParameterError` if they do not fit in memory."""
    n = _check_count(n, "sample size")
    radial = _has_frailty(spec)
    ws = rng.Workspace(min(n, _BLOCK_ROWS))
    data = None
    for start, cols in _blocks(spec, seed.base_key(), n, ws):
        if data is None:
            # after the workspace's buffers: freed, they leave a hole below
            # the sample that the allocator keeps, not a free heap top that
            # it trims, so a Kendall tau of the sample next reuses pages
            # already faulted in (at 1e5 rows, 0 minor faults a tau call,
            # against about 500 with the sample allocated first)
            try:
                data = np.empty((n, spec.d))
            except (MemoryError, ValueError):   # ValueError: past the largest array
                raise ParameterError(f"sample of n = {n}, d = {spec.d} does not fit in memory")
        block = data[start:start + len(cols[0])]
        for i, col in enumerate(cols):
            block[:, i] = phi_inverse(spec, col) if radial else col
    np.clip(data, _OPEN_LO, _OPEN_HI, out=data)
    return Sample(data, seed, spec)


def empirical_kendall_tau(sample, pair: tuple[int, int] = (0, 1)) -> float:
    """Kendall tau-b of one column pair, by Knight's O(n log n) merge count.

    Each column is replaced by its min-ranks, the count of entries strictly
    below each entry, whose sum is the column's number of untied pairs.  One
    sort of the codes ``rx << b | ry``, ``b`` bits a rank, orders the rows
    by x, and by y within x ties; the min-ranks of the sorted codes count
    the pairs that differ in x or in y, and the inversions of its y ranks
    the discordant pairs.  The codes overwrite the x ranks.  Every count is
    an exact integer, so the result does not depend on the order of the rows.

    Raises :class:`ParameterError` on 2^31 rows or more (the merge count's
    ``uint32`` keys would wrap), a NaN in either column or a ``pair`` that is
    not two column indices in ``[0, d)``, and :class:`DomainError` on a
    constant column.
    """
    data = sample.data if isinstance(sample, Sample) else np.asarray(sample, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ParameterError("need an (n, d) array with n >= 2")
    if data.shape[0] >= 1 << 31:
        raise ParameterError(f"Kendall tau takes fewer than 2^31 rows, got {data.shape[0]}")
    d = data.shape[1]
    cols = tuple(pair) if np.iterable(pair) else ()
    if len(cols) != 2 or not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                                 and 0 <= k < d for k in cols):
        raise ParameterError(f"pair must be two column indices in [0, {d}), got {pair!r}")
    x = data[:, cols[0]]
    y = data[:, cols[1]]
    if np.isnan(x).any() or np.isnan(y).any():
        raise ParameterError("Kendall tau of a column with NaN entries is undefined")
    n = x.shape[0]
    rx, ry = _min_ranks(x), _min_ranks(y)
    untied_x, untied_y = int(rx.sum()), int(ry.sum())
    if untied_x == 0 or untied_y == 0:
        raise DomainError("degenerate column: all pairs tied, tau undefined")
    bits = (n - 1).bit_length()
    code = np.left_shift(rx, bits, out=rx)     # the codes, over the x ranks
    code |= ry
    del rx, ry                                  # ry's buffer goes before the count's
    code.sort()
    untied_xy = int(_sorted_min_ranks(code).sum())
    code &= (1 << bits) - 1                     # the y ranks, rows in code order
    discordant = _count_inversions(code)
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
    tied = s[1:] == s[:-1]
    if tied.any():                              # else each index is its min-rank
        first[1:][tied] = 0
        np.maximum.accumulate(first, out=first)
    return first


def _count_inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for integer ranks in [0, n), n < 2^31.

    A bottom-up merge count over the ``uint32`` keys ``2 * rank + is_right``.
    The first pass counts the inversions inside each block of 8 keys with 28
    compares of strided columns, and those among the last ``n % 8`` keys pair
    by pair; it sorts nothing.  From width ``w = 8`` on, each block of ``2w``
    keys is a row of a 2-D view, the short last block a row of its own.  A
    sorted row puts left before right on equal ranks, and a left key's index
    less the left keys before it counts the right keys below it, whatever the
    order within each half; over ``b`` rows of ``m`` keys these sum to
    ``b (m(m-1)/2 - w(w-1)/2)`` less the column sums of the ``is_right`` bits
    dotted with ``arange(m)``.
    """
    n = ranks.shape[0]
    # one chunk: freed, its size lifts glibc's mmap threshold past a tau's temps,
    # so a repeated tau takes no minor faults (four buffers: 1,560 at 1e5 rows)
    store = np.empty((3, n), dtype=np.int64)
    pos, sums = store[0], store[1]
    pos[:] = np.arange(n)
    key, bit = store[2].view(np.uint32).reshape(2, n)
    np.left_shift(ranks, 1, out=key, casting="unsafe")
    # row sorts of 2, 4 and 8 keys cost numpy's per-row overhead, not compares
    full = n // 8 * 8
    c = [key[i:full:8] for i in range(8)]       # tags clear: > on keys is > on ranks
    inv = sum(int(np.count_nonzero(c[i] > c[j])) for i in range(8) for j in range(i + 1, 8))
    tail = key[full:].tolist()
    inv += sum(a > b for k, a in enumerate(tail) for b in tail[k + 1:])
    w = 8
    while w < n:
        full = n // (2 * w) * 2 * w
        key &= 0xFFFFFFFE                           # clear the tags
        for keys, bits in ((key[:full], bit[:full]), (key[full:], bit[full:])):
            m = min(2 * w, keys.shape[0])
            if m <= w:                              # no row, or no right half
                continue
            rows = keys.reshape(-1, m)
            b = rows.shape[0]
            rows[:, w:] |= 1
            rows.sort(axis=1)
            bits = np.bitwise_and(rows, 1, out=bits.reshape(b, m))
            # int64 sums: uint64 ones dotted with int64 positions go through float64
            col = bits.sum(axis=0, dtype=np.int64, out=sums[:m])
            inv += b * (m * (m - 1) // 2 - w * (w - 1) // 2) - int(np.dot(col, pos[:m]))
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
