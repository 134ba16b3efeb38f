"""Streaming mean / variance for the metrics collector and replicated results."""

from __future__ import annotations

import math


class WelfordAccumulator:
    """Streaming mean / variance accumulator (Welford's algorithm)."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    @property
    def count(self) -> int:
        """Number of observations folded in so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Running mean (0.0 before any observation)."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n - 1 denominator); 0 with fewer than two observations."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def stdev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def confidence_halfwidth(self, z: float = 1.96) -> float:
        """Half-width of the normal-approximation confidence interval for the mean."""
        if self._count < 2:
            return 0.0
        return z * self.stdev / math.sqrt(self._count)
