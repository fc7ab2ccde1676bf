"""Counter-based deterministic random number generation.

The generator is a keyed SplitMix64-style avalanche: for a 64-bit ``key``
and draw counter ``i``, the output word is

    out(key, i) = mix64(key + (i + 1) * GOLDEN)        (mod 2^64)

where ``GOLDEN = 0x9E3779B97F4A7C15`` and ``mix64`` is the standard
SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Keys are derived hierarchically: a :class:`Seed` (``value``, ``stream_id``)
yields a base key; per-row keys come from mixing the row index into the base
key; per-purpose substreams (frailty draws vs. exponentials vs. inversion
uniforms) mix in distinct labels.  Every draw is therefore a pure function
of ``(value, stream_id, row, label, counter)``: samples are reproducible
bit-for-bit at the integer level regardless of batch splitting or
parallelism, and row blocks can be generated independently.

Uniform doubles are ``((word >> 11) + 0.5) * 2^-53``, inside ``(0, 1)``
except for one word in 2^53: at ``word >> 11 = 2^53 - 1`` the sum rounds to
2^53 and the uniform is exactly 1.0.

The samplers write in place, into an ``out`` array and the buffers of a
:class:`Workspace` that a block-by-block caller reuses, so that no block
faults in fresh pages.  Each step keeps its expression's association on
contiguous arrays, and powers use ``**=`` (numpy's ``**`` fast paths), so a
reused workspace moves no bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ParameterError

__all__ = ["Seed", "mix64_int", "substream_keys", "uniforms"]

_MASK64 = (1 << 64) - 1
_GOLDEN_INT = 0x9E3779B97F4A7C15
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_S11 = np.uint64(11)
_ONE = np.uint64(1)
_INV53 = 1.0 / 9007199254740992.0  # 2^-53

# substream labels
LABEL_FRAILTY = 0x7F4A7C15
LABEL_EXPONENTIAL = 0x2545F491
LABEL_CONDITIONAL = 0x9E3779B9


class Workspace:
    """Named buffers that a block draw reuses from block to block.

    ``take(name, n, dtype)`` returns the first ``n`` entries of the buffer
    called ``name``, allocated at its first use with ``max(n, rows)``
    entries.  A buffer keeps its contents until its name is taken and
    written again, so each user keeps to names of its own; ``"mix"`` is the
    hash's scratch and is free again whenever a call returns.
    """

    def __init__(self, rows: int):
        self.rows = rows
        self._bufs = {}
        self._index = np.empty(0, dtype=np.uint64)

    def take(self, name: str, n: int, dtype=np.float64) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.shape[0] < n:
            buf = self._bufs[name] = np.empty(max(n, self.rows), dtype=dtype)
        return buf[:n]

    def row_range(self, start: int, n: int) -> np.ndarray:
        """The uint64 row indices ``start, ..., start + n - 1``."""
        if self._index.shape[0] < n:
            self._index = np.arange(max(n, self.rows), dtype=np.uint64)
        return np.add(self._index[:n], np.uint64(start),
                      out=self.take("rows", n, np.uint64))


def _buffers(keys: np.ndarray, out, ws):
    """``keys``' count, ``out`` or a new array for the draw, and ``ws`` or a
    new workspace, which allocates only what is taken from it."""
    n = keys.shape[0]
    return n, np.empty(n) if out is None else out, Workspace(0) if ws is None else ws


def _mix64(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """The finalizer applied to ``z`` in place; ``tmp`` is a scratch of its shape."""
    tmp = np.empty_like(z) if tmp is None else tmp
    z ^= np.right_shift(z, _S30, out=tmp)
    z *= _M1
    z ^= np.right_shift(z, _S27, out=tmp)
    z *= _M2
    z ^= np.right_shift(z, _S31, out=tmp)
    return z


def mix64_int(x: int) -> int:
    """SplitMix64 finalizer on a Python int taken mod 2^64 (for scalar key derivation)."""
    return int(_mix64(np.array([x & _MASK64], dtype=np.uint64))[0])


# each label's mixed key, the value substream_keys folds into the row key
_LABEL_KEYS = {label: np.uint64(mix64_int(label))
               for label in (LABEL_FRAILTY, LABEL_EXPONENTIAL, LABEL_CONDITIONAL)}


@dataclass(frozen=True)
class Seed:
    """Reproducibility handle: (value, stream_id) pins the whole sample."""

    value: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("value", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ParameterError(f"seed {name} must be an integer, got {v!r}")
            if not 0 <= int(v) < 1 << 64:
                raise ParameterError(f"seed {name} must fit in 64 unsigned bits, got {v}")
        object.__setattr__(self, "value", int(self.value))
        object.__setattr__(self, "stream_id", int(self.stream_id))

    def base_key(self) -> int:
        """64-bit key mixing value and stream."""
        return mix64_int(mix64_int(self.value) ^ mix64_int(self.stream_id ^ _GOLDEN_INT))

    def with_stream(self, stream_id: int) -> "Seed":
        return Seed(self.value, stream_id)


def substream_keys(base_key: int, label: int | tuple, rows: np.ndarray, out=None,
                   ws: Workspace | None = None):
    """Per-row substream keys for a purpose label, one of the ``LABEL_*``
    constants; ``rows`` is a uint64 array.

    A tuple of labels gives a tuple of key arrays, one per label, from one
    pass of the row hash; ``out``, a tuple of arrays, one per label,
    receives them.
    """
    labels = label if isinstance(label, tuple) else (label,)
    keys = out or tuple(np.empty(rows.shape[0], dtype=np.uint64) for _ in labels)
    tmp = (Workspace(0) if ws is None else ws).take("mix", rows.shape[0], np.uint64)
    # the row key goes in the last output, which takes the last label
    row_key = np.add(rows, _ONE, out=keys[-1])
    _mix64(row_key, tmp)
    row_key ^= np.uint64(base_key)
    _mix64(row_key, tmp)
    for lab, key in zip(labels, keys):
        _mix64(np.bitwise_xor(row_key, _LABEL_KEYS[lab], out=key), tmp)
    return keys if isinstance(label, tuple) else keys[0]


def _words(keys: np.ndarray, counter, out: np.ndarray | None = None,
           tmp: np.ndarray | None = None) -> np.ndarray:
    # exact in Python ints for a scalar counter; a uint64 array wraps, as the
    # mask does
    offset = np.uint64(((counter + 1) * _GOLDEN_INT) & _MASK64)
    return _mix64(np.add(keys, offset, out=out), tmp)


def uniforms(keys: np.ndarray, counter, out: np.ndarray | None = None,
             ws: Workspace | None = None) -> np.ndarray:
    """One double in (0, 1] (1.0 for one word in 2^53) per key at the given counter."""
    n, out, ws = _buffers(keys, out, ws)
    tmp = ws.take("mix", n, np.uint64)
    words = _words(keys, counter, out.view(np.uint64), tmp)
    np.add(np.right_shift(words, _S11, out=tmp), 0.5, out=out)
    out *= _INV53
    return out


def exponentials(keys: np.ndarray, counter, out: np.ndarray | None = None,
                 ws: Workspace | None = None) -> np.ndarray:
    """Unit exponentials by inversion; one counter per draw."""
    out = uniforms(keys, counter, out, ws)
    return np.negative(np.log(out, out=out), out=out)


def gammas(keys: np.ndarray, shape: float, out: np.ndarray | None = None,
           ws: Workspace | None = None) -> np.ndarray:
    """Gamma(shape, rate 1) via Marsaglia-Tsang squeeze with shape boost.

    Consumes a variable number of counters per key (3 per rejection trial,
    plus 1 for the boost uniform when ``shape < 1``).  Every key still
    rejecting after ``k`` trials is at the same counter, so one scalar counter
    serves all of them, and results do not depend on batching.
    """
    if not 0.0 < shape < np.inf:
        raise ParameterError(f"gamma shape must be positive and finite, got {shape}")
    n, out, ws = _buffers(keys, out, ws)
    counter = 0
    boost = None
    a = shape
    if a < 1.0:
        boost = uniforms(keys, counter, ws.take("gamma.boost", n), ws)
        boost **= 1.0 / a
        counter += 1
        a += 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    todo, trial_keys = None, keys           # None: every key, at its own index
    guard = 0
    while trial_keys.size:
        guard += 1
        if guard > 512:
            raise RuntimeError("gamma rejection sampler failed to terminate")
        m = trial_keys.shape[0]
        x, v, bound, tmp = (ws.take(f"gamma.{i}", m) for i in range(4))
        ok, accept = (ws.take(name, m, np.bool_) for name in ("gamma.ok", "gamma.accept"))
        # x = sqrt(-2 log u1) cos(2 pi u2), v = (1 + c x)^3
        uniforms(trial_keys, counter, x, ws)
        np.log(x, out=x)
        x *= -2.0
        np.sqrt(x, out=x)
        uniforms(trial_keys, counter + 1, tmp, ws)
        tmp *= 2.0 * np.pi
        np.cos(tmp, out=tmp)
        x *= tmp
        np.multiply(x, c, out=v)
        v += 1.0
        v **= 3
        # accept where v > 0 and log u3 < 0.5 x x + d (1 - v + log v)
        np.greater(v, 0.0, out=ok)
        bound.fill(1.0)
        np.copyto(bound, v, where=ok)
        np.log(bound, out=bound)
        bound += np.subtract(1.0, v, out=tmp)
        bound *= d
        np.multiply(x, 0.5, out=tmp)
        tmp *= x
        bound += tmp
        uniforms(trial_keys, counter + 2, tmp, ws)
        np.log(tmp, out=tmp)
        np.less(tmp, bound, out=accept)
        accept &= ok
        counter += 3
        v *= d
        rejected = np.logical_not(accept, out=ok)
        if todo is None:
            np.copyto(out, v, where=accept)
            todo = np.flatnonzero(rejected)
        else:
            out[todo[accept]] = v[accept]
            todo = todo[rejected]
        trial_keys = np.take(keys, todo, out=ws.take("gamma.keys", todo.shape[0], np.uint64))
    if boost is not None:
        out *= boost
    return out


def positive_stables(keys: np.ndarray, alpha: float, out: np.ndarray | None = None,
                     ws: Workspace | None = None) -> np.ndarray:
    """Positive stable variates with Laplace transform ``exp(-s^alpha)``.

    Kanter/Chambers-Mallows-Stuck representation for ``0 < alpha < 1``:
    with ``T ~ U(0, pi)`` and ``E ~ Exp(1)``,

        V = sin(alpha T) sin((1-alpha) T)^((1-alpha)/alpha)
            / (sin(T)^(1/alpha) E^((1-alpha)/alpha))

    ``alpha = 1`` is the degenerate point mass at 1.  Two counters per draw.
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"stable index must lie in (0, 1], got {alpha}")
    n, out, ws = _buffers(keys, out, ws)
    if alpha == 1.0:
        out.fill(1.0)
        return out
    t, e, tmp = (ws.take(f"stable.{i}", n) for i in range(3))
    uniforms(keys, 0, t, ws)
    t *= np.pi
    np.negative(np.log(uniforms(keys, 1, e, ws), out=e), out=e)
    # sin(alpha t) / sin(t)^(1/alpha) * (sin((1-alpha) t) / e)^((1-alpha)/alpha)
    np.multiply(t, alpha, out=out)
    np.sin(out, out=out)
    np.sin(t, out=tmp)
    tmp **= 1.0 / alpha
    out /= tmp
    np.multiply(t, 1.0 - alpha, out=tmp)
    np.sin(tmp, out=tmp)
    tmp /= e
    tmp **= (1.0 - alpha) / alpha
    out *= tmp
    return out


_CELLS = 4096                                # cells in u0 = T / pi of the stable table
_TINY, _HUGE = 2.0 ** -1000, 2.0 ** 1000     # inside the normal range, with room


def positive_stable_bounds(alpha: float):
    """``bounds(keys, ws)``, the :func:`stable_interval` of each key's uniforms
    with a table of Kanter's ``K`` built once; ``None`` for the point mass."""
    if alpha == 1.0:
        return None
    # K at the cell ends u0 = j / 4096, j = -1 ... 4097, with T rounded as drawn
    t = np.arange(-1, _CELLS + 2) / _CELLS * np.pi
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sa, sc, st = np.sin(t * alpha), np.sin(t * (1.0 - alpha)), np.sin(t) ** (1.0 / alpha)
        k = sa / st * sc ** ((1.0 - alpha) / alpha)
    # each sine is unimodal on (0, pi), so its least value over a cell is at
    # an end: a cell whose factors could leave the normal range is unbounded
    safe = (sa >= _TINY) & (sc >= _TINY) & (st >= _TINY)
    safe[[0, -1]] = False                       # outside (0, pi)
    bounded = safe[:-3] & safe[3:]
    # cell j widened to ends j - 1 and j + 2, and by a slack for the rounding
    # of the sampler's steps, which its powers amplify
    slack = 64.0 * (1.0 / alpha + 1.0) * np.finfo(float).eps
    # sin(alpha T) / sin(T)^(1/alpha) <= 1 / min(st) in a bounded cell, so a
    # variate of at least lo_min keeps the sampler's other factor normal
    lo_min = _TINY * max(1.0, 1.0 / np.min(st, where=safe, initial=1.0))
    table = ((1.0 - alpha) / alpha, np.where(bounded, k[:-3] * (1.0 - slack), 0.0),
             np.where(bounded, k[3:] * (1.0 + slack), np.inf), lo_min)
    return lambda keys, ws: stable_interval(
        *(uniforms(keys, i, ws.take(f"stable.{i}", keys.shape[0]), ws) for i in range(2)),
        table, ws)


def stable_interval(u0, u1, table, ws: Workspace):
    """``[lo, hi]`` in ``ws`` that holds the :func:`positive_stables` variate
    drawn from the uniforms ``u0`` (``T = pi u0``) and ``u1`` (``E = -log u1``).

    The variate is ``K(T) / E^((1-alpha)/alpha)``, and Kanter's ``K`` increases
    on ``(0, pi)`` (Kanter 1975, Ann. Probab. 3(4)): ``E``'s power is computed,
    ``K`` bounded by ``u0``'s cell.  A row is ``[0, inf]`` where the power or a
    factor of the sampler could leave the normal range, as ``E^59`` does at
    ``theta = 60``.  ``u0`` and ``u1`` are overwritten.
    """
    a, klo, khi, lo_min = table
    m = u0.shape[0]
    lo, hi = ws.take("v", m), ws.take("stable.2", m)
    cell = ws.take("mix", m, np.uint64).view(np.intp)
    epow = np.negative(np.log(u1, out=u1), out=u1)
    with np.errstate(over="ignore"):
        epow **= a
        wild = (epow < _TINY) | (epow > _HUGE)
        np.copyto(epow, 1.0, where=wild)
        # a u0 of 1, which the uniforms give once in 2^53, clips to the last cell
        np.copyto(cell, np.multiply(u0, _CELLS, out=u0), casting="unsafe")
        np.divide(np.take(klo, cell, out=lo, mode="clip"), epow, out=lo)
        np.divide(np.take(khi, cell, out=hi, mode="clip"), epow, out=hi)
    wild |= (lo < lo_min) | (hi > _HUGE)
    np.copyto(lo, 0.0, where=wild)
    np.copyto(hi, np.inf, where=wild)
    return lo, hi


def sibuya_bounds(alpha: float):
    """``bounds(keys, ws)``, the :func:`sibuya_interval` of each key's uniform;
    ``None`` for the point mass."""
    if alpha == 1.0:
        return None
    return lambda keys, ws: sibuya_interval(
        uniforms(keys, 0, ws.take("sibuya.u", keys.shape[0]), ws), alpha, ws)


def sibuya_interval(u, alpha: float, ws: Workspace):
    """``[lo, hi]`` in ``ws`` that holds the :func:`sibuyas` variate drawn from
    the uniform ``u``: where ``u > alpha`` the floor or the ceiling of the
    inversion's ``ginv``, at least ``Gamma(2 - alpha)^(-1/alpha) >= 1``
    (Hofert 2011, CSDA 55); elsewhere 1, where ``ginv`` is below that bound,
    which is under 2.  Masks are applied by arithmetic, far cheaper here
    than a masked copy."""
    lo, hi = ws.take("v", u.shape[0]), ws.take("sibuya.0", u.shape[0])
    # ginv as sibuyas computes it
    np.subtract(1.0, u, out=hi)
    hi *= np.exp(gammaln(1.0 - alpha))
    with np.errstate(divide="ignore", over="ignore"):
        hi **= -1.0 / alpha
    np.maximum(np.floor(hi, out=lo), 1.0, out=lo)
    np.multiply(np.ceil(hi, out=hi), u > alpha, out=hi)
    return lo, np.maximum(hi, 1.0, out=hi)


def sibuyas(keys: np.ndarray, alpha: float, out: np.ndarray | None = None,
            ws: Workspace | None = None) -> np.ndarray:
    """Sibuya(alpha) variates (pgf ``1 - (1-z)^alpha``), one uniform each.

    Inversion of the exact survival function ``P(V > n) = 1/(n B(n, 1-alpha))``
    through its asymptotic inverse, corrected by one comparison; ``alpha = 1``
    is the point mass at 1.
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"Sibuya index must lie in (0, 1], got {alpha}")
    n, out, ws = _buffers(keys, out, ws)
    out.fill(1.0)
    if alpha == 1.0:
        return out
    u = uniforms(keys, 0, ws.take("sibuya.u", n), ws)
    big = np.greater(u, alpha, out=ws.take("sibuya.big", n, np.bool_))
    k = int(np.count_nonzero(big))
    if k:
        ub, ginv, fl, log_surv, tmp = (ws.take(f"sibuya.{i}", k) for i in range(5))
        np.compress(big, u, out=ub)
        np.subtract(1.0, ub, out=ginv)
        ginv *= np.exp(gammaln(1.0 - alpha))
        ginv **= -1.0 / alpha
        np.floor(ginv, out=fl)
        # survival at floor(ginv): 1/(fl * B(fl, 1-alpha))
        np.log(fl, out=log_surv)
        log_surv += gammaln(fl, out=tmp)
        log_surv += gammaln(1.0 - alpha)
        np.add(fl, 1.0, out=tmp)
        tmp -= alpha
        log_surv -= gammaln(tmp, out=tmp)
        np.negative(log_surv, out=log_surv)
        np.log1p(np.negative(ub, out=tmp), out=tmp)
        np.ceil(ginv, out=ginv)
        np.copyto(fl, ginv, where=np.less(tmp, log_surv, out=ws.take("sibuya.up", k, np.bool_)))
        out[big] = fl
    return out


def log_series(keys: np.ndarray, p: float, out: np.ndarray | None = None,
               ws: Workspace | None = None) -> np.ndarray:
    """Logarithmic-series variates on {1, 2, ...} with parameter ``p in (0, 1)``.

    Kemp's second accelerated (LK) inversion; two counters per draw.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError(f"log-series parameter must lie in (0, 1), got {p}")
    n, out, ws = _buffers(keys, out, ws)
    h = np.log1p(-p)
    u2 = uniforms(keys, 0, ws.take("logser.u2", n), ws)
    out.fill(1.0)
    low = np.less_equal(u2, p, out=ws.take("logser.low", n, np.bool_))
    k = int(np.count_nonzero(low))
    if k:
        low_keys = np.compress(low, keys, out=ws.take("logser.keys", k, np.uint64))
        q, u2l, big_k, tmp = (ws.take(f"logser.{i}", k) for i in range(4))
        uniforms(low_keys, 1, q, ws)
        q *= h
        np.negative(np.expm1(q, out=q), out=q)
        np.compress(low, u2, out=u2l)
        np.log(u2l, out=big_k)
        big_k /= np.log(q, out=tmp)
        big_k += 1.0
        np.floor(big_k, out=big_k)
        # big_k where u2l < q q; elsewhere 1 where u2l > q (>= q q) and 2 otherwise
        cmp = ws.take("logser.cmp", k, np.bool_)
        np.copyto(big_k, 2.0, where=np.greater_equal(u2l, np.multiply(q, q, out=tmp), out=cmp))
        np.copyto(big_k, 1.0, where=np.greater(u2l, q, out=cmp))
        out[low] = big_k
    return out


def geometrics(keys: np.ndarray, success_p: float, out: np.ndarray | None = None,
               ws: Workspace | None = None) -> np.ndarray:
    """Geometric variates on {1, 2, ...} with success probability ``success_p``."""
    if not 0.0 < success_p <= 1.0:
        raise ParameterError(f"geometric parameter must lie in (0, 1], got {success_p}")
    _, out, ws = _buffers(keys, out, ws)
    if success_p == 1.0:
        out.fill(1.0)
        return out
    np.log(uniforms(keys, 0, out, ws), out=out)
    out /= np.log1p(-success_p)
    np.floor(out, out=out)
    out += 1.0
    return out
