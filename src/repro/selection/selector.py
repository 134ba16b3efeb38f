"""The per-transaction protocol selector (Section 5.2).

For every arriving transaction the selector evaluates ``STL_2PL``,
``STL_T/O`` and ``STL_PA`` with the current parameter estimates and picks the
protocol with the smallest expected system-throughput loss.  Two engineering
details beyond the paper's prose:

* **Exploration.**  Measured parameters only exist for protocols that have
  actually been used, so the first ``exploration_transactions`` arrivals are
  assigned round-robin across the three protocols.  This is the natural
  realisation of the paper's remark that the parameters are "collected
  periodically".
* **Class caching.**  The paper suggests pre-computing STL per transaction
  class; we cache the breakdown by ``(num_reads, num_writes)`` and invalidate
  the cache whenever the parameter estimates are refreshed, which bounds the
  per-arrival cost to a dictionary lookup in steady state.
* **Estimation modes.**  ``"cumulative"`` (the default) re-reads the
  run-so-far averages at every refresh; ``"adaptive"`` drives a
  :class:`~repro.selection.parameters.DecayingParameterEstimator` so the
  estimates track a *drifting* workload; ``"frozen"`` keeps refreshing only
  until the measured warm-up estimates exist
  (:meth:`~repro.selection.parameters.ParameterEstimator.is_warm`) and then
  pins them for the rest of the run — the stale-estimate baseline the E9
  drift experiment compares against.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.config import SystemConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.common.protocol_names import Protocol
from repro.common.transactions import TransactionSpec
from repro.selection.parameters import DecayingParameterEstimator, ParameterEstimator
from repro.selection.stl import STLBreakdown, ThroughputLossModel
from repro.system.metrics import MetricsCollector

_PROTOCOL_ORDER = (
    Protocol.TWO_PHASE_LOCKING,
    Protocol.TIMESTAMP_ORDERING,
    Protocol.PRECEDENCE_AGREEMENT,
)

#: Estimation modes accepted by the selector (and the CLI / task layer).
SELECTION_MODES = ("cumulative", "adaptive", "frozen")


class STLProtocolSelector:
    """Chooses a concurrency-control protocol per transaction by minimum STL."""

    def __init__(
        self,
        estimator: ParameterEstimator,
        *,
        exploration_transactions: int = 30,
        refresh_interval: int = 25,
        time_steps: int = 32,
        mode: str = "cumulative",
    ) -> None:
        if mode not in SELECTION_MODES:
            raise ConfigurationError(
                f"unknown selection mode {mode!r}; choose one of {', '.join(SELECTION_MODES)}"
            )
        self._estimator = estimator
        self._exploration_transactions = exploration_transactions
        self._refresh_interval = max(1, refresh_interval)
        self._time_steps = time_steps
        self._mode = mode
        self._decisions = 0
        self._refreshes = 0
        self._frozen = False
        self._cache: Dict[Tuple[int, int], STLBreakdown] = {}
        self._model: Optional[ThroughputLossModel] = None
        self._costs: Dict[Protocol, object] = {}
        self._refresh()

    @classmethod
    def from_configs(
        cls,
        system: SystemConfig,
        workload: WorkloadConfig,
        *,
        exploration_transactions: int = 30,
        refresh_interval: int = 25,
        mode: str = "cumulative",
        decay: float = 0.5,
    ) -> "STLProtocolSelector":
        """Build a selector seeded with configuration-derived priors.

        ``mode="adaptive"`` plugs in a
        :class:`~repro.selection.parameters.DecayingParameterEstimator`
        (sliding window, ``decay`` weight per refresh epoch); the other
        modes use the cumulative estimator.
        """
        estimator: ParameterEstimator
        if mode == "adaptive":
            estimator = DecayingParameterEstimator(system, workload, decay=decay)
        else:
            estimator = ParameterEstimator(system, workload)
        return cls(
            estimator,
            exploration_transactions=exploration_transactions,
            refresh_interval=refresh_interval,
            mode=mode,
        )

    # ---------------------------------------------------------------- #
    # Wiring
    # ---------------------------------------------------------------- #

    def bind_metrics(self, metrics: MetricsCollector) -> None:
        """Feed run-time measurements into the parameter estimator."""
        self._estimator.bind_metrics(metrics)
        self._refresh()

    @property
    def decisions(self) -> int:
        """Number of protocol choices made so far (exploration included)."""
        return self._decisions

    @property
    def mode(self) -> str:
        """The estimation mode: ``cumulative``, ``adaptive`` or ``frozen``."""
        return self._mode

    @property
    def refreshes(self) -> int:
        """How many times the estimates were re-read and the class cache dropped."""
        return self._refreshes

    # ---------------------------------------------------------------- #
    # Selection
    # ---------------------------------------------------------------- #

    def choose(self, spec: TransactionSpec, now: float) -> Protocol:
        """Protocol for ``spec`` (the hook installed into the request issuers)."""
        self._decisions += 1
        if self._decisions <= self._exploration_transactions:
            return _PROTOCOL_ORDER[(self._decisions - 1) % len(_PROTOCOL_ORDER)]
        since_exploration = self._decisions - self._exploration_transactions
        on_tick = (since_exploration - 1) % self._refresh_interval == 0
        if self._mode == "frozen":
            # Keep refreshing on the normal cadence until the measured
            # estimates exist (exploration commits are still in flight at
            # the first post-exploration decision), then pin them — and the
            # class cache built from them — for the rest of the run.
            # Freezing any earlier would pin configuration priors instead
            # of warm-up measurements.
            if not self._frozen and on_tick:
                self._refresh()
                if self._estimator.is_warm():
                    self._frozen = True
        elif on_tick:
            self._refresh()
        return Protocol.from_name(self.breakdown(spec).best())

    def breakdown(self, spec: TransactionSpec) -> STLBreakdown:
        """The three STL values for ``spec`` under the current estimates."""
        key = (spec.num_reads, spec.num_writes)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        assert self._model is not None
        breakdown = self._model.evaluate(
            spec,
            self._costs[Protocol.TWO_PHASE_LOCKING],
            self._costs[Protocol.TIMESTAMP_ORDERING],
            self._costs[Protocol.PRECEDENCE_AGREEMENT],
        )
        self._cache[key] = breakdown
        return breakdown

    # ---------------------------------------------------------------- #
    # Internals
    # ---------------------------------------------------------------- #

    def _refresh(self) -> None:
        """Re-read the parameter estimates and drop the per-class cache.

        In adaptive mode this first advances the estimator's sliding window
        (:meth:`~repro.selection.parameters.ParameterEstimator.refresh_observations`,
        a no-op for the cumulative estimator), so each refresh sees the
        decayed blend of recent epochs rather than run-so-far averages.
        """
        self._refreshes += 1
        self._estimator.refresh_observations()
        load = self._estimator.system_parameters()
        self._model = ThroughputLossModel(load, time_steps=self._time_steps)
        self._costs = {
            protocol: self._estimator.protocol_parameters(protocol)
            for protocol in Protocol
        }
        self._cache.clear()
