"""Drifting workload regimes: schedule resolution and the migrating hot spot.

The paper's premise is that no single protocol wins everywhere — which only
matters when the workload actually *moves*.  A :class:`DriftConfig` attached
to a :class:`~repro.common.config.WorkloadConfig` describes how the regime
changes over the transaction stream; this module turns that schedule into
per-arrival effective parameters:

* :class:`DriftResolver` maps a stream position ``u`` in ``[0, 1]`` onto the
  effective arrival rate, read fraction and hot-spot shape, either piecewise
  (step changes at segment boundaries) or smoothly (linear interpolation
  between control points);
* :class:`MigratingHotspotOverlay` composes a moving hot region with *any*
  base access pattern: each item draw falls inside the current hot window
  with the resolved probability and otherwise delegates to the base pattern,
  so Zipfian or site-skewed baselines keep their cold-tail shape while the
  hot spot wanders across the item space.

Both are driven exclusively through the caller's RNG streams, so drifting
runs stay deterministic under a fixed seed, and a ``drift=None`` workload
never enters this module at all — legacy streams are bit-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.common.config import DriftConfig, DriftSegment, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.common.ids import ItemId
from repro.workload.access_patterns import AccessPattern


@dataclass(frozen=True)
class RegimeShape:
    """The effective workload knobs at one position of the transaction stream."""

    arrival_rate: float
    read_fraction: float
    hotspot_probability: float
    hotspot_fraction: float
    hotspot_center: float


class DriftResolver:
    """Resolves a :class:`DriftConfig` to effective knobs per stream position.

    ``resolve(u)`` answers "what does the workload look like at fraction
    ``u`` of the stream?".  Piecewise mode holds each control point's values
    until the next control point that names the same knob; smooth mode
    interpolates each scalar knob linearly between consecutive control
    points, anchored at the base workload's value before the first control
    point that names it.
    """

    def __init__(self, workload: WorkloadConfig) -> None:
        if workload.drift is None:
            raise ConfigurationError("DriftResolver needs a workload with a drift schedule")
        self._drift: DriftConfig = workload.drift
        self._base = RegimeShape(
            arrival_rate=workload.arrival_rate,
            read_fraction=workload.read_fraction,
            hotspot_probability=workload.hotspot_probability,
            hotspot_fraction=workload.hotspot_fraction,
            # The legacy hot region sits at the front of the item space;
            # its centre is therefore half the hot fraction.
            hotspot_center=workload.hotspot_fraction / 2.0,
        )
        # Per knob: the list of (at, value) control points, base-anchored.
        self._tracks = {
            name: self._track(name) for name in DriftSegment.FIELDS
        }

    def _track(self, name: str) -> List["tuple[float, float]"]:
        """Control points ``(at, value)`` for one knob, anchored at the base value."""
        points: List[tuple[float, float]] = [(0.0, getattr(self._base, name))]
        for segment in self._drift.segments:
            value = getattr(segment, name)
            if value is not None:
                if points[0][0] == segment.at:  # a segment at 0.0 replaces the anchor
                    points[0] = (segment.at, float(value))
                else:
                    points.append((segment.at, float(value)))
        return points

    def _value(self, name: str, u: float) -> float:
        points = self._tracks[name]
        if self._drift.mode == "smooth":
            return self._interpolated(points, u)
        value = points[0][1]
        for at, point_value in points:
            if u >= at:
                value = point_value
            else:
                break
        return value

    @staticmethod
    def _interpolated(points: List["tuple[float, float]"], u: float) -> float:
        previous_at, previous_value = points[0]
        if u <= previous_at:
            return previous_value
        for at, value in points[1:]:
            if u < at:
                span = at - previous_at
                if span <= 0:
                    return value
                weight = (u - previous_at) / span
                return previous_value + weight * (value - previous_value)
            previous_at, previous_value = at, value
        return previous_value

    def resolve(self, u: float) -> RegimeShape:
        """The effective regime at stream fraction ``u`` (clamped to ``[0, 1]``)."""
        u = min(1.0, max(0.0, u))
        return RegimeShape(
            arrival_rate=self._value("arrival_rate", u),
            read_fraction=self._value("read_fraction", u),
            hotspot_probability=self._value("hotspot_probability", u),
            hotspot_fraction=self._value("hotspot_fraction", u),
            hotspot_center=self._value("hotspot_center", u),
        )


class MigratingHotspotOverlay(AccessPattern):
    """A moving hot region layered over an arbitrary base access pattern.

    With the current regime's ``hotspot_probability`` an access falls
    uniformly inside a contiguous window of ``hotspot_fraction * num_items``
    items centred (modulo the item space) on ``hotspot_center``; otherwise
    the draw delegates to the base pattern.  The window wraps around the end
    of the item space so a migrating centre never clips.

    The overlay is stateful per generator: the generator calls
    :meth:`set_regime` before each transaction's draw, so one transaction
    sees one coherent regime.
    """

    #: Rejection budget per requested item before the deterministic fill-in
    #: (reachable only when ``count`` approaches ``num_items``).
    _MAX_REJECTIONS_PER_ITEM = 64

    def __init__(self, base: AccessPattern, num_items: int) -> None:
        super().__init__(num_items)
        self._base = base
        self._probability = 0.0
        self._window_start = 0
        self._window_size = 1

    def set_regime(self, shape: RegimeShape) -> None:
        """Adopt the hot-spot knobs of ``shape`` for subsequent draws."""
        self._probability = shape.hotspot_probability
        self._window_size = max(1, int(round(self._num_items * shape.hotspot_fraction)))
        center = shape.hotspot_center % 1.0
        self._window_start = (
            int(round(center * self._num_items)) - self._window_size // 2
        ) % self._num_items

    def window(self) -> "tuple[int, int]":
        """Current hot window as ``(start, size)``; it wraps modulo the item space."""
        return self._window_start, self._window_size

    def _hot_item(self, rng: random.Random) -> int:
        return (self._window_start + rng.randrange(self._window_size)) % self._num_items

    def draw(self, rng: random.Random, count: int, site: Optional[int] = None) -> List[ItemId]:
        """Draw ``count`` distinct items under the current regime."""
        count = self._clamp_count(count)
        chosen: set = set()
        attempts_left = self._MAX_REJECTIONS_PER_ITEM * count
        while len(chosen) < count and attempts_left > 0:
            attempts_left -= 1
            if rng.random() < self._probability:
                chosen.add(self._hot_item(rng))
            else:
                for item in self._base.draw(rng, 1, site=site):
                    chosen.add(item)
        # A saturated hot window plus an unlucky base pattern can exhaust the
        # budget; fill deterministically so the draw always terminates.
        if len(chosen) < count:
            for item in range(self._num_items):
                if item not in chosen:
                    chosen.add(item)
                    if len(chosen) == count:
                        break
        return sorted(chosen)
