"""Workload generation: open arrivals of synthetic transactions.

The paper's performance discussion (Sections 1 and 5) is parameterised by the
transaction arrival rate ``lambda``, the transaction size ``st`` (number of
data items accessed), the read/write mix ``Q_r`` and the access skew.  The
generator produces a deterministic (seeded) stream of
:class:`~repro.common.transactions.TransactionSpec` objects realising those
parameters, split across the request issuers of the system.

Beyond the paper's uniform/hot-spot shapes, :mod:`repro.workload.scenarios`
registers named end-to-end profiles (Zipfian skew, bursty arrivals,
site-local access, bimodal sizes) documented in DESIGN.md.
"""

from repro._exports import lazy_exports

__all__ = [
    "AccessPattern",
    "ArrivalProcess",
    "BurstyArrivalProcess",
    "DriftResolver",
    "HotspotAccessPattern",
    "MigratingHotspotOverlay",
    "PoissonArrivalProcess",
    "RegimeShape",
    "Scenario",
    "SiteSkewedAccessPattern",
    "TransactionGenerator",
    "UniformAccessPattern",
    "ZipfianAccessPattern",
    "all_scenarios",
    "build_access_pattern",
    "build_arrival_process",
    "generate_workload",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "scenario_names",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.workload.access_patterns": (
            "AccessPattern",
            "HotspotAccessPattern",
            "SiteSkewedAccessPattern",
            "UniformAccessPattern",
            "ZipfianAccessPattern",
            "build_access_pattern",
        ),
        "repro.workload.drift": ("DriftResolver", "MigratingHotspotOverlay", "RegimeShape"),
        "repro.workload.generator": (
            "ArrivalProcess",
            "BurstyArrivalProcess",
            "PoissonArrivalProcess",
            "TransactionGenerator",
            "build_arrival_process",
            "generate_workload",
        ),
        "repro.workload.scenarios": (
            "Scenario",
            "all_scenarios",
            "get_scenario",
            "register_scenario",
            "run_scenario",
            "scenario_names",
        ),
    },
)
