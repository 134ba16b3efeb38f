"""Cluster plumbing for live mode: port allocation and daemon supervision.

Two supervisors exist, one per deployment shape:

* :class:`InProcessCluster` — every site daemon as an asyncio task inside
  the current process and event loop.  This is what the differential test
  harness and experiment E12 use: one process, real localhost TCP sockets
  between the sites, deterministic teardown, and daemon failures re-raised
  into the caller instead of leaking as orphaned tasks.
* :class:`SubprocessCluster` — one OS process per site running
  ``repro.cli serve``, with stdout/stderr captured per site.  This is the
  "really separate processes" shape the CI ``live-smoke`` job exercises
  (``repro.cli drive --spawn``).

:func:`run_live` ties a supervisor and a
:class:`~repro.live.driver.LiveDriver` together into the one-call entry
point everything else (tests, E12, the CLI) shares.
"""

from __future__ import annotations

import asyncio
import socket
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.transactions import TransactionSpec
from repro.live.daemon import SiteDaemon, live_system
from repro.live.driver import LiveDriver, LiveRunError, LiveRunResult
from repro.live.tcp import ClusterMap


def free_ports(count: int, host: str = "127.0.0.1") -> Tuple[int, ...]:
    """Allocate ``count`` currently-free TCP ports on ``host``.

    The sockets are bound (port 0 → kernel-assigned), their port numbers
    read, and only then closed, so no two calls in one process race each
    other; a parallel process could still grab a port in the window before
    the daemon binds it, which the daemons surface as a bind error rather
    than a hang.
    """
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
        return tuple(sock.getsockname()[1] for sock in sockets)
    finally:
        for sock in sockets:
            sock.close()


def local_cluster_map(ports: Sequence[int], host: str = "127.0.0.1") -> ClusterMap:
    """Build a cluster map placing site ``i`` at ``host:ports[i]``."""
    return {site: (host, port) for site, port in enumerate(ports)}


class InProcessCluster:
    """All site daemons as asyncio tasks in the current event loop.

    Use as an async context manager::

        async with InProcessCluster(system, cluster) as daemons:
            result = await LiveDriver(system, cluster, specs).run()

    Exiting the context stops every daemon and re-raises the first daemon
    failure (if any), so a crashed site fails the caller loudly.
    """

    def __init__(self, system: SystemConfig, cluster: ClusterMap, **daemon_options) -> None:
        self._system = live_system(system)
        self._cluster = dict(cluster)
        self._daemon_options = daemon_options
        self.daemons: List[SiteDaemon] = []
        self._tasks: List[asyncio.Task] = []

    async def __aenter__(self) -> "InProcessCluster":
        for site in sorted(self._cluster):
            daemon = SiteDaemon(
                site, self._system, self._cluster, **self._daemon_options
            )
            self.daemons.append(daemon)
            self._tasks.append(asyncio.get_running_loop().create_task(daemon.serve()))
        # Let every listener bind before the caller starts dialing (the
        # transports would retry anyway; this just keeps logs quiet).
        await asyncio.sleep(0)
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        for daemon in self.daemons:
            daemon.request_shutdown()
        results = await asyncio.gather(*self._tasks, return_exceptions=True)
        if exc is None:
            for outcome in results:
                if isinstance(outcome, BaseException) and not isinstance(
                    outcome, asyncio.CancelledError
                ):
                    raise LiveRunError(f"site daemon failed: {outcome!r}") from outcome

    def site_errors(self) -> Dict[int, List[BaseException]]:
        """Actor/transport errors captured per site (empty when healthy)."""
        return {
            daemon.site: list(daemon.transport.errors)
            for daemon in self.daemons
            if daemon.transport.errors
        }


class SubprocessCluster:
    """One ``repro.cli serve`` OS process per site, logs captured per site.

    ``serve_args`` must be the CLI arguments that reconstruct the *same*
    system configuration the driver uses (scenario name and overrides);
    site number and cluster addresses are appended per process.  Logs land
    in ``log_dir/site-N.log`` and are attached to the failure message when
    a daemon dies or must be killed, which is what keeps the CI smoke job
    debuggable.
    """

    def __init__(
        self,
        cluster: ClusterMap,
        serve_args: Sequence[str],
        log_dir: Path,
        *,
        stop_grace: float = 5.0,
    ) -> None:
        self._cluster = dict(cluster)
        self._serve_args = list(serve_args)
        self._log_dir = Path(log_dir)
        self._stop_grace = stop_grace
        self._processes: Dict[int, subprocess.Popen] = {}
        self._logs: Dict[int, Path] = {}

    def start(self) -> None:
        """Spawn every site daemon."""
        self._log_dir.mkdir(parents=True, exist_ok=True)
        ports = ",".join(
            f"{host}:{port}" for _, (host, port) in sorted(self._cluster.items())
        )
        for site in sorted(self._cluster):
            log_path = self._log_dir / f"site-{site}.log"
            handle = log_path.open("wb")
            command = [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--site",
                str(site),
                "--cluster",
                ports,
                *self._serve_args,
            ]
            self._logs[site] = log_path
            self._processes[site] = subprocess.Popen(
                command, stdout=handle, stderr=subprocess.STDOUT
            )
            handle.close()

    def check_alive(self) -> None:
        """Raise :class:`LiveRunError` (with logs) if any daemon exited."""
        for site, process in self._processes.items():
            code = process.poll()
            if code is not None:
                raise LiveRunError(
                    f"site {site} daemon exited with status {code}:\n"
                    f"{self._tail(site)}"
                )

    def stop(self) -> None:
        """Terminate every daemon, escalating to kill after the grace period."""
        for process in self._processes.values():
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + self._stop_grace
        for process in self._processes.values():
            remaining = max(deadline - time.monotonic(), 0.1)
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=self._stop_grace)
        self._processes.clear()

    def _tail(self, site: int, limit: int = 4000) -> str:
        log_path = self._logs.get(site)
        if log_path is None or not log_path.exists():
            return "<no log captured>"
        text = log_path.read_text(errors="replace")
        return text[-limit:]

    def __enter__(self) -> "SubprocessCluster":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def live_setup(
    scenario_name: str,
    *,
    transactions: Optional[int] = None,
    arrival_rate: Optional[float] = None,
    commit: str = "two-phase",
    num_sites: Optional[int] = None,
) -> Tuple[SystemConfig, List[TransactionSpec]]:
    """Resolve a registered scenario into the live system + workload specs.

    ``serve`` and ``drive`` (and the differential harness) all build their
    configuration through this one function with the same flags, which is
    what guarantees every daemon and the driver agree on the replica
    catalog, the commit protocol and the exact transaction specs.

    Dynamic protocol selection is rejected: the live daemons run with a
    static per-spec protocol assignment (``assign_protocols=True``), the
    same way a non-dynamic simulated run does.

    ``num_sites`` overrides the scenario's site count (e.g. the CI smoke
    job's 3-site cluster); it is applied before the workload is generated,
    so the replica catalog and the specs' origin sites follow it.
    """
    # Imported lazily: the scenario registry pulls in the analysis layer,
    # which live daemons serving traffic never need.
    from repro.common.config import ProtocolMix
    from repro.common.errors import ConfigurationError
    from repro.common.protocol_names import Protocol
    from repro.workload.generator import TransactionGenerator
    from repro.workload.scenarios import get_scenario

    scenario = get_scenario(scenario_name).configured(
        transactions=transactions, arrival_rate=arrival_rate
    )
    if scenario.dynamic_selection:
        raise ConfigurationError(
            f"scenario {scenario_name!r} uses dynamic protocol selection, "
            "which live mode does not support (protocols are assigned "
            "per-spec before submission)"
        )
    system = scenario.system.with_overrides(
        commit=replace(scenario.system.commit, protocol=commit)
    )
    if num_sites is not None:
        system = system.with_overrides(num_sites=num_sites)
    system = live_system(system)
    workload = scenario.workload
    if scenario.protocol is not None:
        workload = workload.with_overrides(
            protocol_mix=ProtocolMix.pure(Protocol.from_name(scenario.protocol))
        )
    specs = list(TransactionGenerator(system, workload, assign_protocols=True).generate())
    return system, specs


def run_live(
    system: SystemConfig,
    specs: Sequence[TransactionSpec],
    *,
    cluster: Optional[ClusterMap] = None,
    host: str = "127.0.0.1",
    request_timeout: Optional[float] = 5.0,
    **driver_options,
) -> LiveRunResult:
    """Run ``specs`` against an in-process live cluster, end to end.

    Boots one :class:`~repro.live.daemon.SiteDaemon` per site on free
    localhost ports (unless ``cluster`` pins the addresses), drives the
    workload through a :class:`~repro.live.driver.LiveDriver`, and tears
    the cluster down — the one-call live counterpart of
    :func:`repro.system.runner.run_simulation`.  ``request_timeout`` is the
    daemons' liveness watchdog (live mode runs no deadlock detector, so a
    2PL cycle is broken by timing out and restarting an attempt).
    """
    prepared = live_system(system)

    async def _run() -> LiveRunResult:
        addresses = cluster
        if addresses is None:
            addresses = local_cluster_map(free_ports(prepared.num_sites, host), host)
        async with InProcessCluster(
            prepared, addresses, request_timeout=request_timeout
        ):
            driver = LiveDriver(prepared, addresses, specs, **driver_options)
            return await driver.run()

    return asyncio.run(_run())
