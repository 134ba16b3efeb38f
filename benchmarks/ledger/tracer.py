"""Span tracer installed from outside the program, for the traced run only.

The tracer wraps the *public* functions at each layer boundary (class
attributes for methods; the importing module's global for functions that are
imported by value) and listens to ``Simulator.add_trace_hook`` for event
labels.  Spans are not stored one by one — a 2,000-transaction run opens about
a million — but folded into per-bucket totals in memory as they close and read
out once, when the run ends.

* A **self span** pushes a frame on a stack; when it closes, its duration minus
  the part covered by child spans is added to its bucket.  Inside
  ``Simulator.run`` the root frame and every message-delivery event belong to
  ``sim.kernel_self_s``, so the self buckets partition ``sim.loop_s`` exactly.
  Self spans record only while a loop is open (``recording``), which keeps the
  batch oracle's own ``ExecutionLog.record`` calls out of the storage bucket.
* A **phase span** just adds its duration to a phase total.

``uninstall`` puts back the very objects ``install`` replaced.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

KERNEL = "sim.kernel_self_s"
COORDINATOR = "system.coordinator_self_s"
PARTICIPANT = "commit.participant_self_s"
STREAMING_AUDIT = "core.streaming_audit_self_s"
BATCH_AUDIT = "core.batch_audit_s"

#: Self-span wrappers: bucket -> (module, class, method names).  ``record_*``
#: expands to every method of the class with that prefix.
SELF_SPANS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    (KERNEL, "repro.sim.events", "EventQueue", ("push",)),
    ("sim.network_send_self_s", "repro.sim.network", "Network", ("send",)),
    (
        COORDINATOR,
        "repro.system.coordinator",
        "RequestIssuerActor",
        ("handle", "submit_transaction"),
    ),
    (
        "core.queue_manager_self_s",
        "repro.system.queue_manager_actor",
        "QueueManagerActor",
        ("handle",),
    ),
    (PARTICIPANT, "repro.commit.participant", "CommitParticipantActor", ("handle",)),
    (
        "storage.execution_log_self_s",
        "repro.storage.log",
        "ExecutionLog",
        ("record", "remove_transaction", "note_quiesced", "retire_transaction"),
    ),
    (
        "storage.commit_log_self_s",
        "repro.storage.log",
        "SiteCommitLog",
        ("log_begin", "log_prepared", "log_decision", "record_ack", "truncate"),
    ),
    (
        STREAMING_AUDIT,
        "repro.core.streaming",
        "IncrementalSerializabilityChecker",
        ("entry_recorded", "entries_withdrawn", "transaction_quiesced", "note_commit"),
    ),
    (STREAMING_AUDIT, "repro.commit.audit", "StreamingReplicaAuditor", ("value_written",)),
    ("system.metrics_self_s", "repro.system.metrics", "MetricsCollector", ("record_*",)),
    ("selection.choose_self_s", "repro.selection.selector", "STLProtocolSelector", ("choose",)),
    ("live.transport_send_self_s", "repro.live.tcp", "TcpTransport", ("send",)),
    ("live.wire_decode_self_s", "repro.live.wire", "FrameDecoder", ("feed",)),
)

#: Phase-span wrappers: phase -> (module, owner or None for a module global, names).
PHASE_SPANS: Tuple[Tuple[str, str, Any, Tuple[str, ...]], ...] = (
    # Imported by value into repro.system.database, so rebound *there*.
    (
        BATCH_AUDIT,
        "repro.system.database",
        None,
        ("check_serializable", "check_replica_convergence"),
    ),
    (BATCH_AUDIT, "repro.core.streaming", "IncrementalSerializabilityChecker", ("finalize",)),
    (BATCH_AUDIT, "repro.commit.audit", "StreamingReplicaAuditor", ("report",)),
)

#: Event label (text before its first ``-``) -> the bucket its span belongs to.
#: Message deliveries (``kind:sender->receiver``) and everything else fall to
#: the kernel; the receiving actor's wrapped ``handle`` takes its own share.
EVENT_BUCKETS: Dict[str, str] = {
    "deadlock": "core.deadlock_scan_self_s",
    "restart": COORDINATOR,
    "execute": COORDINATOR,
    "request": COORDINATOR,  # request-timeout-<tid>
    "release": COORDINATOR,  # release-timeout-<tid>
    "prepare": COORDINATOR,  # prepare-timeout-<tid>
    "in": PARTICIPANT,  # in-doubt-<tid>
}


def event_bucket(label: str, default: Any = KERNEL) -> Any:
    """The self bucket of the event (or live timer) labelled ``label``."""
    return EVENT_BUCKETS.get(label.split("-", 1)[0], default)


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.phase_s: Dict[str, float] = defaultdict(float)
        self.frames_encoded = 0
        self.bytes_encoded = 0
        self.recording = False
        self._stack: List[List[Any]] = []  # open self spans: [bucket, start, child seconds]
        self._undo: List[Tuple[Any, str, Any]] = []

    # ---------------------------------------------------------------- #
    # Spans
    # ---------------------------------------------------------------- #

    def _open(self, bucket: str, now: float) -> None:
        self._stack.append([bucket, now, 0.0])

    def _close(self, now: float) -> None:
        bucket, start, children = self._stack.pop()
        duration = now - start
        self.self_s[bucket] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def self_span(self, bucket: str, function: Callable) -> Callable:
        """``function`` wrapped in a self span (a pass-through while not recording)."""

        def traced(*args, **kwargs):
            if not self.recording:
                return function(*args, **kwargs)
            self._open(bucket, perf_counter())
            try:
                return function(*args, **kwargs)
            finally:
                self._close(perf_counter())

        traced.__wrapped__ = function
        return traced

    def phase_span(self, phase: str, function: Callable) -> Callable:
        """``function`` wrapped so that its duration is added to ``phase``."""

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.phase_s[phase] += perf_counter() - start

        timed.__wrapped__ = function
        return timed

    def on_event(self, _time: float, label: str) -> None:
        """Trace hook: the previous event's span ends where this one's begins."""
        now = perf_counter()
        if len(self._stack) > 1:
            self._close(now)
        self._open(event_bucket(label), now)

    def _traced_loop(self, run: Callable) -> Callable:
        """``Simulator.run`` as the root span: ``sim.loop_s`` and the kernel's frame."""
        tracer = self

        def traced_run(simulator, *args, **kwargs):
            simulator.add_trace_hook(tracer.on_event)
            start = perf_counter()
            tracer._open(KERNEL, start)
            tracer.recording = True
            try:
                return run(simulator, *args, **kwargs)
            finally:
                tracer.recording = False
                end = perf_counter()
                while tracer._stack:
                    tracer._close(end)
                tracer.phase_s["sim.loop_s"] += end - start

        traced_run.__wrapped__ = run
        return traced_run

    def _traced_schedule(self, schedule: Callable) -> Callable:
        """``TcpTransport.schedule`` handing labelled timers on inside a self span."""
        tracer = self

        def traced_schedule(transport, delay, callback, *, label="", site=None):
            bucket = event_bucket(label, default=None)
            if bucket is not None:
                callback = tracer.self_span(bucket, callback)
            return schedule(transport, delay, callback, label=label, site=site)

        traced_schedule.__wrapped__ = schedule
        return traced_schedule

    def _traced_encode(self, encode: Callable) -> Callable:
        """``encode_message`` in a self span that also counts frames and bytes."""
        tracer = self
        spanned = self.self_span("live.wire_encode_self_s", encode)

        def traced_encode(message):
            frame = spanned(message)
            tracer.frames_encoded += 1
            tracer.bytes_encoded += len(frame)
            return frame

        traced_encode.__wrapped__ = encode
        return traced_encode

    # ---------------------------------------------------------------- #
    # Installation
    # ---------------------------------------------------------------- #

    def _replace(self, owner: Any, name: str, wrap: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[name]
        self._undo.append((owner, name, original))
        setattr(owner, name, wrap(original))

    def install(self) -> None:
        """Wrap every layer boundary; undone by :meth:`uninstall`."""
        for bucket, module_name, class_name, names in SELF_SPANS:
            owner = getattr(importlib.import_module(module_name), class_name)
            for name in names:
                if name.endswith("*"):
                    matches = [n for n in vars(owner) if n.startswith(name[:-1])]
                else:
                    matches = [name]
                for match in matches:
                    self._replace(owner, match, lambda f, b=bucket: self.self_span(b, f))
        for phase, module_name, class_name, names in PHASE_SPANS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            for name in names:
                self._replace(owner, name, lambda f, p=phase: self.phase_span(p, f))
        simulator = importlib.import_module("repro.sim.simulator").Simulator
        self._replace(simulator, "run", self._traced_loop)
        tcp = importlib.import_module("repro.live.tcp")
        self._replace(tcp.TcpTransport, "schedule", self._traced_schedule)
        # encode_message is imported by value into repro.live.tcp: rebind it there.
        self._replace(tcp, "encode_message", self._traced_encode)

    def uninstall(self) -> None:
        """Put back every object :meth:`install` replaced, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
