"""Pluggable atomic-commit layer: one-phase commit and the 2PC family.

See :mod:`repro.commit.base` for the interface and registry;
:mod:`repro.commit.one_phase`, :mod:`repro.commit.two_phase` and
:mod:`repro.commit.presumed` for the four built-in protocols (one-phase,
presumed-nothing two-phase, presumed-abort, presumed-commit);
:mod:`repro.commit.participant` for the per-site 2PC participant actor
(including the cooperative termination protocol); and
:mod:`repro.commit.audit` for the write-all atomicity audit.
"""

from repro._exports import lazy_exports

__all__ = [
    "AckMessage",
    "CommitProtocol",
    "CommitParticipantActor",
    "DecisionMessage",
    "OnePhaseCommit",
    "PeerQuery",
    "PeerReply",
    "PrepareRequest",
    "PresumedAbortCommit",
    "PresumedCommitCommit",
    "ReplicaReport",
    "StatusQuery",
    "StatusReply",
    "TwoPhaseCommit",
    "VoteMessage",
    "check_replica_convergence",
    "commit_participant_name",
    "commit_protocol_names",
    "create_commit_protocol",
    "register_commit_protocol",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.commit.audit": ("ReplicaReport", "check_replica_convergence"),
        "repro.commit.base": (
            "CommitProtocol",
            "commit_protocol_names",
            "create_commit_protocol",
            "register_commit_protocol",
        ),
        "repro.commit.messages": (
            "AckMessage",
            "DecisionMessage",
            "PeerQuery",
            "PeerReply",
            "PrepareRequest",
            "StatusQuery",
            "StatusReply",
            "VoteMessage",
        ),
        "repro.commit.one_phase": ("OnePhaseCommit",),
        "repro.commit.participant": ("CommitParticipantActor", "commit_participant_name"),
        "repro.commit.presumed": ("PresumedAbortCommit", "PresumedCommitCommit"),
        "repro.commit.two_phase": ("TwoPhaseCommit",),
    },
)
