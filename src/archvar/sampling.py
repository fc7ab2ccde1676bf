"""Seeded sampling from the copula families and rank-based diagnostics.

Sampling uses the Marshall-Olkin frailty construction
``U_i = phi_inverse(E_i / V)`` with i.i.d. unit exponentials ``E_i`` and a
latent variable ``V`` whose Laplace transform equals the generator inverse.
Every draw is keyed by (seed, row, purpose, counter) through
:mod:`archvar.rng`, so a sample is a pure function of its seed.  A sample
and a study's level set (:func:`_level_set`) map generator values to ``U``
in one place (:func:`_u`) and are drawn in row blocks, each call through one
workspace of block-sized buffers: a study worker draws its chunk of
replications in one batched pass, with one resolve of the screened
candidates per block's worth, whichever replications they come from.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DomainError, ParameterError, _check_count
from .families import (FAMILIES, CopulaSpec, FamilyId, copula_cdf, family_record, phi,
                       phi_inverse)
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
    try:
        rows = np.arange(n, dtype=np.uint64)
    except (MemoryError, ValueError):   # ValueError: past the largest array
        raise ParameterError(f"frailty sample of n = {n} does not fit in memory")
    return rec.frailty(rng.substream_keys(seed.base_key(), rng.LABEL_FRAILTY, rows), theta)


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


def _latent(spec: CopulaSpec, keys: np.ndarray, out, ws: rng.Workspace) -> np.ndarray:
    """The frailty of ``keys`` times the record's ``latent_scale``."""
    v = FAMILIES[spec.family].frailty(keys, spec.theta, out=out, ws=ws)
    v *= FAMILIES[spec.family].latent_scale(spec.theta)
    return v


def _frailty_blocks(base: int, n: int, ws: rng.Workspace):
    """The ``n``-row sample keyed by ``base`` as ``(start, ekeys, vkeys)`` per
    block: the exponential and frailty keys of rows ``start, start + 1, ...``,
    buffers of ``ws`` that the next block overwrites.  Every draw is keyed by
    its row, so a block gets the bits it would get inside a larger sample."""
    for start in range(0, n, _BLOCK_ROWS):
        m = min(_BLOCK_ROWS, n - start)
        ekeys, vkeys = (ws.take(name, m, np.uint64) for name in ("ekeys", "vkeys"))
        rng.substream_keys(base, (rng.LABEL_EXPONENTIAL, rng.LABEL_FRAILTY),
                           ws.row_range(start, m), (ekeys, vkeys), ws)
        yield start, ekeys, vkeys


def _quotients(d: int, ekeys: np.ndarray, v, ws: rng.Workspace) -> list:
    """The ``d`` columns ``E_i / V`` of the exponential keys ``ekeys``, in the
    buffers ``s0, s1, ...`` of ``ws``: every row's generator values, in a
    sample's block and in a study's batch of candidates alike."""
    m = ekeys.shape[0]
    cols = [rng.exponentials(ekeys, i, ws.take(f"s{i}", m), ws) for i in range(d)]
    for s in cols:
        s /= v
    return cols


def _u(spec: CopulaSpec, s: np.ndarray) -> np.ndarray:
    """``U = phi_inverse(s)`` of a column of generator values, clipped in place
    into ``(0, 1)``.  ``s`` is a contiguous column in every draw: numpy's
    vector loops for exp and log may round a strided one differently."""
    u = phi_inverse(spec, s)
    return np.clip(u, _OPEN_LO, _OPEN_HI, out=u)


def _blocks(spec: CopulaSpec, base: int, n: int, ws: rng.Workspace):
    """The ``n``-row sample keyed by ``base``, block by block, as ``(start,
    cols)``: the clipped ``U`` columns of a block's rows, ``U_i =
    phi_inverse(E_i / V)`` where ``spec`` has a frailty law, ``V`` the frailty
    times the record's ``latent_scale``, and elsewhere drawn by conditional
    inversion."""
    if _has_frailty(spec):
        for start, ekeys, vkeys in _frailty_blocks(base, n, ws):
            v = _latent(spec, vkeys, ws.take("v", vkeys.shape[0]), ws)
            yield start, [_u(spec, s) for s in _quotients(spec.d, ekeys, v, ws)]
        return
    rec = FAMILIES[spec.family]
    for start in range(0, n, _BLOCK_ROWS):
        u = rec.conditional_rows(spec.theta, base, ws.row_range(start, min(_BLOCK_ROWS, n - start)))
        yield start, np.clip(u, _OPEN_LO, _OPEN_HI, out=u).T


def _level_set(spec: CopulaSpec, alpha: float, h: float):
    """A study's ``draw(bases, n)``, built once from ``(spec, alpha, h)``:
    for each key of ``bases`` in turn, the clipped rows ``U`` with ``|C(U) -
    alpha| <= h`` of the ``n``-row sample keyed by it, in row order, as a
    fresh C-contiguous ``(count, d)`` array, drawn through one workspace per
    call: :func:`sample_copula`'s rows bit for bit.  A frailty family keeps
    :func:`_screened`'s rows, on a window of ``R`` computed here; the others
    select each block on the copula CDF.
    """
    if not _has_frailty(spec):
        def draw(bases, n):
            ws = rng.Workspace(min(n, _BLOCK_ROWS))
            for base in bases:
                yield np.concatenate([u[np.abs(copula_cdf(spec, u) - alpha) <= h]
                                      for _, cols in _blocks(spec, base, n, ws) for u in [cols.T]])
        return draw
    bounds = _latent_bounds(spec)
    # C(U) = phi_inverse(R) is decreasing in R; a window end past 0 or 1
    # bounds nothing
    r_lo = phi(spec, alpha + h) if alpha + h < 1.0 else 0.0
    r_hi = phi(spec, alpha - h) if alpha - h > 0.0 else np.inf
    return lambda bases, n: _screened(spec, bases, n, rng.Workspace(min(n, _BLOCK_ROWS)),
                                      bounds, r_lo, r_hi)


def _latent_bounds(spec: CopulaSpec):
    """``bounds(keys, ws)`` for :func:`_screened`, built once: the record's,
    or the exact ``V`` as the one pair ``(V, V)``."""
    make = FAMILIES[spec.family].latent_bounds
    return (make and make(spec.theta)) or (
        lambda keys, ws: ((_latent(spec, keys, ws.take("v", keys.shape[0]), ws),) * 2,))


def _screened(spec: CopulaSpec, bases, n: int, ws: rng.Workspace, bounds, r_lo, r_hi):
    """For each key of ``bases`` in turn, the clipped ``(count, d)`` rows ``U``
    with ``R = sum_i E_i / V`` in ``[r_lo, r_hi]`` of the ``n``-row sample it
    keys, in row order, drawing the exact ``V`` of :func:`_candidates` only.

    Blocks keep their candidates' exponential keys and exact ``V`` or frailty
    keys, in row order and across replications, each tagged with its
    replication, and :func:`_resolve` takes them in one batch once a block's
    worth has gathered, or at the end: the counter-based stream draws their
    ``E_i`` again from their keys, and their exact ``V`` in one call.  A
    candidate's ``E_i``, ``V`` and ``R`` are computed as for every row, and
    every step is elementwise, so where a batch is cut moves no bit.  A
    replication's rows are handed on once its last candidate has resolved;
    until then they are held, so memory is a few blocks and one
    replication's rows.
    """
    # |S / V - R| <= d eps R to first order (each rounds d - 1 sums and, in
    # weight, one quotient); the slack covers the cuts' rounding too.  At d eps
    # a row drops only where all 2 d roundings are extreme at once: 4e7 random
    # rows reached 1.88 eps at d = 2 and 2.42 eps at d = 3
    slack = 4.0 * (spec.d + 1) * np.finfo(float).eps
    # the cuts on -S / V: -S / hi >= hi_cut is S / hi <= -hi_cut, exactly
    cuts = -r_lo * (1.0 - slack), -r_hi * (1.0 + slack)
    if r_lo == 0.0 or r_hi == np.inf:
        cuts = np.inf, -np.inf
    batch, gathered, held, done = [], 0, {}, 0
    for rep, base in enumerate(bases):
        for _, ekeys, vkeys in _frailty_blocks(base, n, ws):
            ekeys, last, exact = _candidates(spec, ekeys, vkeys, ws, bounds, *cuts)
            k = ekeys.shape[0]
            if batch and gathered + k > _BLOCK_ROWS:
                _resolve(spec, batch, exact, r_lo, r_hi, ws, held)
                batch, gathered = [], 0
            if not batch:
                # every candidate of the replications before this one has resolved
                for done in range(done, rep):
                    yield np.concatenate(held.pop(done, [np.empty((0, spec.d))]))
                done = rep
            if k:
                batch.append((ekeys, last, np.full(k, rep)))
                gathered += k
    if batch:
        _resolve(spec, batch, exact, r_lo, r_hi, ws, held)
    for done in range(done, len(bases)):
        yield np.concatenate(held.pop(done, [np.empty((0, spec.d))]))


def _candidates(spec: CopulaSpec, ekeys, vkeys, ws: rng.Workspace, bounds, lo_cut, hi_cut):
    """A block's candidate rows as ``(ekeys, last, exact)``, in row order:
    their exponential keys, and their exact ``V`` if ``exact``, else their
    frailty keys.

    A block sums its rows' ``log u_i`` in column order into ``-S``, ``S =
    sum_i E_i``, bit for bit (rounding commutes with negation), in two
    columns, not ``d``.  ``bounds`` gives pairs ``(lo, hi)``, one of which
    holds each row's ``V``: Gumbel's one interval, Joe's two inversion
    points, or the exact ``V`` as the lone pair ``(V, V)``.  A row is a
    candidate if for one of its pairs neither ``S / hi`` nor ``S / lo`` is
    past the window widened by a slack (the cuts on ``-S / V``), or the pair
    has an end at 0, inf or NaN; every row of an open window is one.
    """
    m = vkeys.shape[0]
    pairs = bounds(vkeys, ws)
    # the log u_i added in order, as R adds the E_i
    neg_s, log_u = ws.take("total", m), ws.take("log_u", m)
    np.log(rng.uniforms(ekeys, 0, neg_s, ws), out=neg_s)
    for i in range(1, spec.d):
        neg_s += np.log(rng.uniforms(ekeys, i, log_u, ws), out=log_u)
    # a lone pair (V, V) is the exact V, whose quotient may overwrite -S
    exact = len(pairs) == 1 and pairs[0][0] is pairs[0][1]
    q = neg_s if exact else ws.take("q", m)
    cand, hit, tmp = (ws.take(name, m, np.bool_) for name in ("sel", "sel.hit", "sel.end"))
    cand.fill(False)
    for lo, hi in pairs:
        bounded = np.greater(lo, 0.0, out=hit)
        bounded &= np.less(hi, np.inf, out=tmp)
        cand |= np.logical_not(bounded, out=hit)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.greater_equal(np.divide(neg_s, hi, out=q), hi_cut, out=hit)
            if lo is not hi:
                np.divide(neg_s, lo, out=q)
        hit &= np.less_equal(q, lo_cut, out=tmp)
        cand |= hit
    return ekeys[cand], (pairs[0][0] if exact else vkeys)[cand], exact


def _resolve(spec: CopulaSpec, batch: list, exact: bool, r_lo, r_hi, ws: rng.Workspace,
             held: dict) -> None:
    """Append to ``held[r]`` replication ``r``'s clipped rows ``U`` among the
    candidates of ``batch`` with ``R`` in ``[r_lo, r_hi]``, in row order; an
    entry of ``batch`` holds a block's candidate exponential keys, their
    exact ``V`` or, unless ``exact``, their frailty keys, and their
    replications.  The ``E_i`` are drawn again from their keys."""
    ekeys, last, reps = (np.concatenate(parts) for parts in zip(*batch))
    quotients = _quotients(spec.d, ekeys, last if exact else _latent(spec, last, None, ws), ws)
    total = quotients[0] + quotients[1]
    for x in quotients[2:]:
        total += x
    sel = (total >= r_lo) & (total <= r_hi)
    u = np.empty((np.count_nonzero(sel), spec.d))
    for i, x in enumerate(quotients):
        u[:, i] = _u(spec, x[sel])
    reps = reps[sel]
    starts = np.flatnonzero(np.diff(reps, prepend=-1))   # each replication's first row
    for rep, rows in zip(reps[starts].tolist(), np.split(u, starts[1:])):
        held.setdefault(rep, []).append(rows)


def sample_copula(spec: CopulaSpec, n: int, seed: Seed) -> Sample:
    """Draw ``n`` i.i.d. rows from the copula with uniform margins; a
    :class:`ParameterError` if they do not fit in memory."""
    n = _check_count(n, "sample size")
    ws = rng.Workspace(min(n, _BLOCK_ROWS))
    data = None
    for start, cols in _blocks(spec, seed.base_key(), n, ws):
        if data is None:
            # after the first block: allocated first, it cost the sample_tau
            # bench 5 % of its ops_per_s (33.5 against 35.5 on 2 cores), until
            # one workspace serves the sample and the tau (ROADMAP direction 17)
            try:
                data = np.empty((n, spec.d))
            except (MemoryError, ValueError):   # ValueError: past the largest array
                raise ParameterError(f"sample of n = {n}, d = {spec.d} does not fit in memory")
        block = data[start:start + len(cols[0])]
        for i, col in enumerate(cols):
            block[:, i] = col
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
