"""Marginal quantile functions.

A margin is any callable mapping levels ``u in (0, 1)`` (scalar or array) to
marginal quantiles.  The VaR integrals only ever evaluate margins strictly
inside ``(0, 1)``.  Constructors validate monotonicity on a fixed grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["UniformMargin", "ConstantMargin", "TabulatedMargin", "FunctionMargin",
           "checked_margins"]

_CHECK_GRID = np.linspace(1e-6, 1.0 - 1e-6, 513)


def checked_margins(margins, d: int) -> tuple:
    """``margins`` as a tuple, once it holds ``d`` callables."""
    margins = tuple(margins)
    if len(margins) != d:
        raise ParameterError(f"expected {d} margins, got {len(margins)}")
    for m in margins:
        if not callable(m):
            raise ParameterError(f"margin {m!r} is not callable")
    return margins


@dataclass(frozen=True)
class UniformMargin:
    """Identity quantile map: the uniform distribution on [0, 1]."""

    def __call__(self, u):
        return np.asarray(u, dtype=float)


@dataclass(frozen=True)
class ConstantMargin:
    """Degenerate margin concentrated at ``value``."""

    value: float

    def __call__(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.value)


class TabulatedMargin:
    """Piecewise-linear quantile function through ``(levels, quantiles)`` knots.

    Both columns must be strictly increasing with levels inside (0, 1);
    levels outside the tabulated range evaluate to the nearest end quantile.
    """

    def __init__(self, levels, quantiles):
        levels = np.asarray(levels, dtype=float)
        quantiles = np.asarray(quantiles, dtype=float)
        if levels.ndim != 1 or levels.shape != quantiles.shape or levels.size < 2:
            raise ParameterError("tabulated margin needs two equal-length columns")
        if np.any(~np.isfinite(levels)) or np.any(~np.isfinite(quantiles)):
            raise ParameterError("tabulated margin entries must be finite")
        if np.any(levels <= 0.0) or np.any(levels >= 1.0):
            raise ParameterError("tabulated levels must lie strictly inside (0, 1)")
        if np.any(np.diff(levels) <= 0.0) or np.any(np.diff(quantiles) <= 0.0):
            raise ParameterError("tabulated margin columns must be strictly increasing")
        self.levels = levels
        self.quantiles = quantiles

    def __call__(self, u):
        return np.interp(np.asarray(u, dtype=float), self.levels, self.quantiles)

    def __eq__(self, other):
        return (
            isinstance(other, TabulatedMargin)
            and np.array_equal(self.levels, other.levels)
            and np.array_equal(self.quantiles, other.quantiles)
        )

    def __hash__(self):
        return hash((self.levels.tobytes(), self.quantiles.tobytes()))


class FunctionMargin:
    """Wrap an arbitrary vectorized quantile callable.

    Nondecreasing behaviour and finiteness are checked on a 513-point grid
    at construction.  Equality is identity-based.
    """

    def __init__(self, fn):
        probe = np.asarray(fn(_CHECK_GRID), dtype=float)
        if probe.shape != _CHECK_GRID.shape:
            raise ParameterError("margin callable must be vectorized and shape-preserving")
        if np.any(~np.isfinite(probe)):
            raise ParameterError("margin callable must be finite on (0, 1)")
        if np.any(np.diff(probe) < 0.0):
            raise ParameterError("margin callable must be nondecreasing on (0, 1)")
        self._fn = fn

    def __call__(self, u):
        return np.asarray(self._fn(np.asarray(u, dtype=float)), dtype=float)
