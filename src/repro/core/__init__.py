"""The paper's contribution: the Precedence-Assignment Model and the unified scheme.

Layout
------

``precedence``
    The unified precedence space (UPS) of Section 4.1 — timestamps plus the
    2PL-goes-last tie-breaking rules — as a totally ordered value type.
``requests``
    The request records exchanged between request issuers and queue managers.
``locks``
    The four lock modes of the semi-lock protocol (RL, WL, SRL, SWL), the
    conflict relation, and the per-copy lock table.
``data_queue``
    ``QUEUE(j)`` with its ``HD(j)`` head-of-queue rule.
``queue_manager``
    The unified queue manager: precedence assignment via the protocol
    policies, precedence enforcement via the semi-lock protocol.
``protocols``
    The per-protocol precedence-assignment policies (2PL, T/O, PA) and the
    policy registry (the paper's future-work item: new algorithms plug in by
    registering a policy).
``deadlock``
    Wait-for graph and the periodic deadlock detector for 2PL transactions.
``serializability``
    The conflict-graph oracle used to validate Theorem 2 on every run.

All classes in this package are pure state machines: they take the current
simulated time as an argument and return *effects* (grants, back-offs,
rejections) rather than sending messages themselves, which makes them easy to
unit test; :mod:`repro.system` wires them to the simulated network.
"""

from repro._exports import lazy_exports

__all__ = [
    "BackoffIssued",
    "ConflictGraph",
    "DataQueue",
    "DeadlockDetector",
    "Effect",
    "GrantIssued",
    "GrantedLock",
    "LockMode",
    "LockTable",
    "Precedence",
    "QueueManager",
    "QueuedRequest",
    "Request",
    "RequestRejected",
    "WaitForGraph",
    "check_serializable",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.data_queue": ("DataQueue", "QueuedRequest"),
        "repro.core.deadlock": ("DeadlockDetector", "WaitForGraph"),
        "repro.core.effects": ("BackoffIssued", "Effect", "GrantIssued", "RequestRejected"),
        "repro.core.locks": ("GrantedLock", "LockMode", "LockTable"),
        "repro.core.precedence": ("Precedence",),
        "repro.core.queue_manager": ("QueueManager",),
        "repro.core.requests": ("Request",),
        "repro.core.serializability": ("ConflictGraph", "check_serializable"),
    },
)
