"""Named, independently seeded random-number streams.

Each stochastic component (arrival process, transaction shapes, network
delays, protocol choice, ...) draws from its own :class:`random.Random`
instance so that, for example, changing the arrival rate does not perturb the
sequence of transaction sizes — the standard variance-reduction practice for
simulation studies.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """Factory of named pseudo-random streams derived from one master seed."""

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically on first use."""
        if name not in self._streams:
            # Derive the substream seed from the master seed and the name with
            # a stable hash (not the built-in hash(), which is salted per
            # process) so every run with the same master seed is identical.
            digest = hashlib.sha256(f"{self._master_seed}:{name}".encode("utf-8")).digest()
            derived = int.from_bytes(digest[:8], "big")
            self._streams[name] = random.Random(derived)
        return self._streams[name]

    def exponential(self, name: str, mean: float) -> float:
        """Draw an exponential variate with the given mean (0 when the mean is 0)."""
        if mean <= 0:
            return 0.0
        return self.stream(name).expovariate(1.0 / mean)
