"""Dynamic concurrency-control selection (Section 5 of the paper).

The selection machinery has three parts:

* :mod:`repro.selection.parameters` — the system-load and per-protocol cost
  parameters the paper lists in Section 5.2 (average lock times, abort /
  rejection / back-off probabilities, per-queue throughputs), estimated either
  from configuration priors or from run-time measurements.
* :mod:`repro.selection.stl` — the System Throughput Loss model: the
  recursive ``STL'`` function of Section 5.1 evaluated by dynamic
  programming, and its specialisations ``STL_2PL``, ``STL_T/O``, ``STL_PA``.
* :mod:`repro.selection.selector` — the per-transaction selector that
  computes the three STL values for each arriving transaction and picks the
  protocol with the smallest loss.
"""

from repro._exports import lazy_exports

__all__ = [
    "DecayingParameterEstimator",
    "ParameterEstimator",
    "ProtocolCostParameters",
    "SELECTION_MODES",
    "STLProtocolSelector",
    "SystemLoadParameters",
    "ThroughputLossModel",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.selection.parameters": (
            "DecayingParameterEstimator",
            "ParameterEstimator",
            "ProtocolCostParameters",
            "SystemLoadParameters",
        ),
        "repro.selection.selector": ("SELECTION_MODES", "STLProtocolSelector"),
        "repro.selection.stl": ("ThroughputLossModel",),
    },
)
