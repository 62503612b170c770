"""Precision-weighted signal-quality metrics for sequential estimates.

Both metrics compare a series against its weighted moving average over a
centered window of bandwidth k: the local relative standard error captures
local noise, the weighted median absolute difference captures local slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError

DEFAULT_BANDWIDTH = 100


@dataclass(frozen=True)
class WeightedSeries:
    """A finite series x with finite positive precisions w and an even bandwidth k."""

    x: np.ndarray
    w: np.ndarray
    k: int = DEFAULT_BANDWIDTH

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        w = np.asarray(self.w, dtype=np.float64)
        if x.ndim != 1 or w.shape != x.shape:
            raise DomainError("x and w must be 1-d of equal length")
        if not np.all(np.isfinite(x)):
            raise DomainError("series values must be finite")
        if not np.all((w > 0) & (w < np.inf)):
            raise DomainError("weights must be finite and positive")
        if self.k < 0 or self.k % 2 != 0:
            raise DomainError("bandwidth k must be even and nonnegative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)


def _window_sums(v: np.ndarray, k: int) -> np.ndarray:
    """Sliding sums over windows [i - k/2, i + k/2] clipped to the series."""
    n = v.size
    half = k // 2
    cs = np.concatenate([[0.0], np.cumsum(v)])
    hi = np.minimum(np.arange(n) + half, n - 1)
    lo = np.maximum(np.arange(n) - half, 0)
    return cs[hi + 1] - cs[lo]


def weighted_moving_average(series: WeightedSeries) -> np.ndarray:
    """Per-window weighted mean of x with weights w."""
    return _window_sums(series.w * series.x, series.k) / _window_sums(series.w, series.k)


def lrse(series: WeightedSeries) -> float:
    """Local relative standard error around the weighted moving average.

    sqrt(mean of (w_i / wbar_i)^2 (x_i - xbar_i)^2), with wbar the plain
    moving average of the weights over the same windows.
    """
    if series.x.size < 2:
        raise DomainError("series must have at least two points")
    xbar = weighted_moving_average(series)
    wbar = _window_sums(series.w, series.k) / _window_sums(np.ones(series.x.size), series.k)
    return float(np.sqrt(np.mean((series.w / wbar) ** 2 * (series.x - xbar) ** 2)))


def wmad(series: WeightedSeries) -> float:
    """Weighted median absolute difference: median of k |xbar_{i+1} - xbar_i|."""
    if series.x.size < 2:
        raise DomainError("series must have at least two points")
    xbar = weighted_moving_average(series)
    return float(np.median(series.k * np.abs(np.diff(xbar))))
