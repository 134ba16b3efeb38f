"""Access patterns: how transactions pick the data items they touch.

Four strategies are provided (see DESIGN.md, "Key design decisions" on why
structured skew matters for concurrency-control experiments):

* :class:`UniformAccessPattern` — every item equally likely;
* :class:`HotspotAccessPattern` — the classic b-c hot-region model;
* :class:`ZipfianAccessPattern` — rank-frequency skew with exponent ``theta``;
* :class:`SiteSkewedAccessPattern` — each site mostly touches its own
  contiguous partition of the item space.

All patterns draw through the caller's :class:`random.Random` stream only, so
a fixed seed yields a fixed access sequence regardless of process or machine.
"""

from __future__ import annotations

import abc
import bisect
import random
from typing import List, Optional

from repro.common.config import SystemConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.common.ids import ItemId


class AccessPattern(abc.ABC):
    """Strategy for drawing the set of distinct items a transaction accesses."""

    def __init__(self, num_items: int) -> None:
        if num_items < 1:
            raise ConfigurationError("an access pattern needs at least one item")
        self._num_items = num_items

    @property
    def num_items(self) -> int:
        """Size of the item space draws come from."""
        return self._num_items

    @abc.abstractmethod
    def draw(self, rng: random.Random, count: int, site: Optional[int] = None) -> List[ItemId]:
        """Draw ``count`` distinct item ids.

        ``site`` identifies the issuing site for patterns whose skew is
        site-dependent; site-agnostic patterns ignore it.
        """

    def _clamp_count(self, count: int) -> int:
        return max(1, min(count, self._num_items))


class UniformAccessPattern(AccessPattern):
    """Every data item is equally likely to be accessed."""

    def draw(self, rng: random.Random, count: int, site: Optional[int] = None) -> List[ItemId]:
        """Draw ``count`` distinct items uniformly."""
        count = self._clamp_count(count)
        return sorted(rng.sample(range(self._num_items), count))


class HotspotAccessPattern(AccessPattern):
    """A fraction of accesses concentrates on a small "hot" region of the database.

    With probability ``hot_probability`` an access falls uniformly inside the
    first ``hot_fraction`` of the item space; otherwise it is uniform over the
    rest.  This is the classic b-c contention model used by the 1980s
    concurrency-control simulation studies, and it lets experiments raise data
    contention without raising the arrival rate.
    """

    def __init__(self, num_items: int, hot_fraction: float, hot_probability: float) -> None:
        super().__init__(num_items)
        if not 0.0 < hot_fraction <= 1.0:
            raise ConfigurationError("hot fraction must be within (0, 1]")
        if not 0.0 <= hot_probability <= 1.0:
            raise ConfigurationError("hot probability must be within [0, 1]")
        self._hot_size = max(1, int(round(num_items * hot_fraction)))
        self._hot_probability = hot_probability

    @property
    def hot_size(self) -> int:
        """Number of items in the hot region."""
        return self._hot_size

    def draw(self, rng: random.Random, count: int, site: Optional[int] = None) -> List[ItemId]:
        """Draw ``count`` distinct items under the b-c hot-region model."""
        count = self._clamp_count(count)
        if self._hot_probability >= 1.0 and count > self._hot_size:
            # Every draw lands in the hot region, which is too small: take all
            # of it and fill the remainder uniformly (the rejection loop below
            # could never terminate).
            chosen = set(range(self._hot_size))
            while len(chosen) < count:
                chosen.add(rng.randrange(self._num_items))
            return sorted(chosen)
        chosen = set()
        # Rejection-sample until we have `count` distinct items; bounded because
        # count <= num_items (and count <= hot_size when only the hot branch
        # is reachable).
        while len(chosen) < count:
            if rng.random() < self._hot_probability:
                item = rng.randrange(self._hot_size)
            else:
                item = rng.randrange(self._num_items)
            chosen.add(item)
        return sorted(chosen)


class ZipfianAccessPattern(AccessPattern):
    """Zipf-distributed access: item ``i`` is drawn with probability ∝ ``(i+1)^-theta``.

    The smallest item ids are the hottest, matching the convention of the
    hot-spot pattern (the hot region is the front of the item space).  The
    cumulative weights are precomputed once so a draw is one uniform variate
    plus a binary search.
    """

    #: Rejection budget per requested item before the deterministic fill-in
    #: kicks in (only reachable when ``count`` approaches ``num_items`` under
    #: extreme skew).
    _MAX_REJECTIONS_PER_ITEM = 64

    def __init__(self, num_items: int, theta: float = 0.8) -> None:
        super().__init__(num_items)
        if theta <= 0:
            raise ConfigurationError("zipf theta must be positive")
        self._theta = theta
        cumulative: List[float] = []
        total = 0.0
        for rank in range(num_items):
            total += (rank + 1) ** -theta
            cumulative.append(total)
        self._cumulative = cumulative
        self._total_weight = total

    @property
    def theta(self) -> float:
        """The Zipf skew exponent."""
        return self._theta

    def probability(self, item: int) -> float:
        """The marginal probability of drawing ``item`` in one access."""
        if not 0 <= item < self._num_items:
            raise ConfigurationError("item out of range")
        return (item + 1) ** -self._theta / self._total_weight

    def draw(self, rng: random.Random, count: int, site: Optional[int] = None) -> List[ItemId]:
        """Draw ``count`` distinct items Zipf-distributed by rank."""
        count = self._clamp_count(count)
        chosen: set = set()
        attempts_left = self._MAX_REJECTIONS_PER_ITEM * count
        uniform, cumulative, total = rng.random, self._cumulative, self._total_weight
        last = self._num_items - 1
        while len(chosen) < count and attempts_left > 0:
            attempts_left -= 1
            chosen.add(min(bisect.bisect_left(cumulative, uniform() * total), last))
        # Under extreme skew the cold tail may be practically unreachable by
        # rejection sampling; fill the remainder deterministically from the
        # coldest (highest-id) unchosen items so the draw always terminates.
        if len(chosen) < count:
            for item in range(self._num_items - 1, -1, -1):
                if item not in chosen:
                    chosen.add(item)
                    if len(chosen) == count:
                        break
        return sorted(chosen)


class SiteSkewedAccessPattern(AccessPattern):
    """Each site mostly accesses its own contiguous partition of the item space.

    The item space is split into ``num_sites`` near-equal contiguous
    partitions; with probability ``locality`` an access falls uniformly inside
    the issuing site's partition, otherwise uniformly over the whole database.
    With replicated copies this is the "mostly local" workload that rewards
    protocols with cheap local reads; with ``locality=0`` it degenerates to
    the uniform pattern.
    """

    def __init__(self, num_items: int, num_sites: int, locality: float = 0.85) -> None:
        super().__init__(num_items)
        if num_sites < 1:
            raise ConfigurationError("at least one site is required")
        if not 0.0 <= locality <= 1.0:
            raise ConfigurationError("site locality must be within [0, 1]")
        self._num_sites = num_sites
        self._locality = locality

    @property
    def num_sites(self) -> int:
        """Number of site partitions the item space is split into."""
        return self._num_sites

    def partition(self, site: int) -> "tuple[int, int]":
        """Half-open ``[start, end)`` item range owned by ``site``."""
        if not 0 <= site < self._num_sites:
            raise ConfigurationError("site out of range")
        start = site * self._num_items // self._num_sites
        end = (site + 1) * self._num_items // self._num_sites
        return start, end

    def draw(self, rng: random.Random, count: int, site: Optional[int] = None) -> List[ItemId]:
        """Draw ``count`` distinct items, mostly from ``site``'s own partition."""
        count = self._clamp_count(count)
        if site is None:
            # Site-agnostic callers (e.g. pattern unit tests) get uniform draws.
            return sorted(rng.sample(range(self._num_items), count))
        start, end = self.partition(site % self._num_sites)
        if self._locality >= 1.0 and count > end - start:
            # Every draw lands in the local partition, which is too small:
            # take all of it and fill the remainder uniformly (the rejection
            # loop below could never terminate).
            chosen = set(range(start, end))
            while len(chosen) < count:
                chosen.add(rng.randrange(self._num_items))
            return sorted(chosen)
        chosen = set()
        while len(chosen) < count:
            if end > start and rng.random() < self._locality:
                item = start + rng.randrange(end - start)
            else:
                item = rng.randrange(self._num_items)
            chosen.add(item)
        return sorted(chosen)


def build_access_pattern(system: SystemConfig, workload: WorkloadConfig) -> AccessPattern:
    """The access pattern selected by ``workload.access_pattern``.

    The default ``"uniform"`` keeps the legacy shortcut — a positive
    ``hotspot_probability`` still yields the hot-spot pattern — so that
    configurations predating the ``access_pattern`` field generate
    bit-identical item streams.
    """
    name = workload.access_pattern
    if name == "zipfian":
        return ZipfianAccessPattern(system.num_items, theta=workload.zipf_theta)
    if name == "site-skewed":
        return SiteSkewedAccessPattern(
            system.num_items, system.num_sites, locality=workload.site_locality
        )
    if name == "hotspot" or workload.hotspot_probability > 0.0:
        return HotspotAccessPattern(
            system.num_items, workload.hotspot_fraction, workload.hotspot_probability
        )
    return UniformAccessPattern(system.num_items)
