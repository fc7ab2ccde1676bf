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

Uniform doubles are ``((word >> 11) + 0.5) * 2^-53``, strictly inside
``(0, 1)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ParameterError

__all__ = ["Seed", "mix64_int", "substream_keys", "uniforms"]

_MASK64 = (1 << 64) - 1
_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
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


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def mix64_int(x: int) -> int:
    """SplitMix64 finalizer on a Python int taken mod 2^64 (for scalar key derivation)."""
    return int(_mix64(np.array([x & _MASK64], dtype=np.uint64))[0])


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


def substream_keys(base_key: int, label: int | tuple, rows: np.ndarray):
    """Per-row substream keys for a purpose label; ``rows`` is a uint64 array.

    A tuple of labels gives a tuple of key arrays, one per label, from one
    pass of the row hash.
    """
    rk = _mix64(np.uint64(base_key) ^ _mix64(rows + _ONE))
    if isinstance(label, tuple):
        return tuple(_mix64(rk ^ np.uint64(mix64_int(lab))) for lab in label)
    return _mix64(rk ^ np.uint64(mix64_int(label)))


def _words(keys: np.ndarray, counter) -> np.ndarray:
    if isinstance(counter, np.ndarray):
        return _mix64(keys + (counter + _ONE) * _GOLDEN)
    # scalar counters: form the offset in exact Python ints (numpy scalar
    # multiplies warn on wraparound, array ops do not)
    offset = ((int(counter) + 1) * _GOLDEN_INT) & _MASK64
    return _mix64(keys + np.uint64(offset))


def uniforms(keys: np.ndarray, counter) -> np.ndarray:
    """One double in (0, 1) per key at the given counter (scalar or array)."""
    return ((_words(keys, counter) >> _S11).astype(np.float64) + 0.5) * _INV53


def exponentials(keys: np.ndarray, counter) -> np.ndarray:
    """Unit exponentials by inversion; one counter per draw."""
    return -np.log(uniforms(keys, counter))


def gammas(keys: np.ndarray, shape: float) -> np.ndarray:
    """Gamma(shape, rate 1) via Marsaglia-Tsang squeeze with shape boost.

    Consumes a variable number of counters per key (3 per rejection trial,
    plus 1 for the boost uniform when ``shape < 1``).  Every key still
    rejecting after ``k`` trials is at the same counter, so one scalar counter
    serves all of them, and results do not depend on batching.
    """
    if not 0.0 < shape < np.inf:
        raise ParameterError(f"gamma shape must be positive and finite, got {shape}")
    n = keys.shape[0]
    counter = 0
    boost = None
    a = shape
    if a < 1.0:
        boost = uniforms(keys, counter) ** (1.0 / a)
        counter += 1
        a += 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(n)
    todo = np.arange(n)
    guard = 0
    while todo.size:
        guard += 1
        if guard > 512:
            raise RuntimeError("gamma rejection sampler failed to terminate")
        u1 = uniforms(keys, counter)
        u2 = uniforms(keys, counter + 1)
        u3 = uniforms(keys, counter + 2)
        counter += 3
        x = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        v = (1.0 + c * x) ** 3
        ok = v > 0.0
        logv = np.log(np.where(ok, v, 1.0))
        accept = ok & (np.log(u3) < 0.5 * x * x + d * (1.0 - v + logv))
        out[todo[accept]] = d * v[accept]
        todo, keys = todo[~accept], keys[~accept]
    return out * boost if boost is not None else out


def positive_stables(keys: np.ndarray, alpha: float) -> np.ndarray:
    """Positive stable variates with Laplace transform ``exp(-s^alpha)``.

    Kanter/Chambers-Mallows-Stuck representation for ``0 < alpha < 1``:
    with ``T ~ U(0, pi)`` and ``E ~ Exp(1)``,

        V = sin(alpha T) sin((1-alpha) T)^((1-alpha)/alpha)
            / (sin(T)^(1/alpha) E^((1-alpha)/alpha))

    ``alpha = 1`` is the degenerate point mass at 1.  Two counters per draw.
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"stable index must lie in (0, 1], got {alpha}")
    n = keys.shape[0]
    if alpha == 1.0:
        return np.ones(n)
    t = np.pi * uniforms(keys, 0)
    e = -np.log(uniforms(keys, 1))
    return (np.sin(alpha * t) / np.sin(t) ** (1.0 / alpha)
            * (np.sin((1.0 - alpha) * t) / e) ** ((1.0 - alpha) / alpha))


def sibuyas(keys: np.ndarray, alpha: float) -> np.ndarray:
    """Sibuya(alpha) variates (pgf ``1 - (1-z)^alpha``), one uniform each.

    Inversion of the exact survival function ``P(V > n) = 1/(n B(n, 1-alpha))``
    through its asymptotic inverse, corrected by one comparison; ``alpha = 1``
    is the point mass at 1.
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"Sibuya index must lie in (0, 1], got {alpha}")
    n = keys.shape[0]
    if alpha == 1.0:
        return np.ones(n)
    u = uniforms(keys, 0)
    out = np.ones(n)
    big = u > alpha
    if np.any(big):
        ub = u[big]
        ginv = ((1.0 - ub) * np.exp(gammaln(1.0 - alpha))) ** (-1.0 / alpha)
        fl = np.floor(ginv)
        # survival at floor(ginv): 1/(fl * B(fl, 1-alpha))
        log_surv = -(np.log(fl) + gammaln(fl) + gammaln(1.0 - alpha)
                     - gammaln(fl + 1.0 - alpha))
        out[big] = np.where(np.log1p(-ub) < log_surv, np.ceil(ginv), fl)
    return out


def log_series(keys: np.ndarray, p: float) -> np.ndarray:
    """Logarithmic-series variates on {1, 2, ...} with parameter ``p in (0, 1)``.

    Kemp's second accelerated (LK) inversion; two counters per draw.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError(f"log-series parameter must lie in (0, 1), got {p}")
    n = keys.shape[0]
    h = np.log1p(-p)
    u2 = uniforms(keys, 0)
    out = np.ones(n)
    low = u2 <= p
    if np.any(low):
        u1 = uniforms(keys[low], 1)
        q = -np.expm1(u1 * h)
        u2l = u2[low]
        big_k = np.floor(1.0 + np.log(u2l) / np.log(q))
        out[low] = np.where(u2l < q * q, big_k, np.where(u2l > q, 1.0, 2.0))
    return out


def geometrics(keys: np.ndarray, success_p: float) -> np.ndarray:
    """Geometric variates on {1, 2, ...} with success probability ``success_p``."""
    if not 0.0 < success_p <= 1.0:
        raise ParameterError(f"geometric parameter must lie in (0, 1], got {success_p}")
    n = keys.shape[0]
    if success_p == 1.0:
        return np.ones(n)
    u = uniforms(keys, 0)
    return 1.0 + np.floor(np.log(u) / np.log1p(-success_p))
