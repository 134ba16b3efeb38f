"""Command-line interface for running simulations, sweeps and scenarios.

Four subcommands are provided::

    python -m repro.cli run      --protocol PA --arrival-rate 30 --transactions 300
    python -m repro.cli sweep    --experiment e1 --rates 5 20 60 --jobs 4
    python -m repro.cli scenario zipf-hotspot --replications 5 --jobs 4
    python -m repro.cli store    table runs.jsonl

``run`` executes a single workload under one protocol (or the dynamic
selector) and prints the result summary; ``sweep`` runs one entry of the
experiment registry (:mod:`repro.analysis.experiments`, DESIGN.md's index
E1-E12) with configurable parameters and prints the result table, naming
on stderr any flag the experiment does not read; ``scenario`` runs a named end-to-end workload
profile from the registry in :mod:`repro.workload.scenarios` (``--list``
shows them all; ``--windows PATH`` additionally writes the per-window
time series of every replication); ``store`` inspects a result store
without running anything.  ``--jobs N`` fans simulation runs across N
worker processes; results are bit-identical to a serial run.

``sweep`` and ``scenario`` accept ``--store PATH`` to persist every
completed run in a content-addressed result store and to reuse cached runs
instead of re-simulating them — an interrupted ``--jobs N`` sweep resumed
against the same store loses nothing, and a warm re-run executes zero
simulation tasks.  ``--resume`` insists the store file already exists
(fail-fast against path typos); ``--force`` re-executes even cached points
and appends the fresh results.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.experiments import (
    Experiment,
    all_experiments,
    get_experiment,
    run_experiment,
)
from repro.analysis.tables import (
    STORE_COLUMNS,
    kv_table,
    rows_to_table,
    store_rows,
    windowed_table,
)
from repro.commit import commit_protocol_names
from repro.common.config import CommitConfig, SystemConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.store import ResultStore
from repro.system.runner import run_simulation
from repro.workload.scenarios import all_scenarios, get_scenario

#: Default transaction count of ``run``/``sweep`` when ``--transactions``
#: is not given (E9-E12 instead fall back to each scenario's own size).
DEFAULT_TRANSACTIONS = 300

#: What each ``sweep`` flag feeds: registry parameters, ``system.<field>`` /
#: ``workload.<field>`` of the configs built from the flags, or ``tasks``
#: (the runner of simulation tasks).  An experiment that reads none of a
#: flag's targets ignores it (see :meth:`Experiment.reads`).
SWEEP_FLAG_TARGETS = {
    "sites": ("system.num_sites",),
    "items": ("system.num_items",),
    "replication": ("system.replication_factor",),
    "seed": ("system.seed", "workload.seed"),
    "detection_period": ("system.deadlock_detection_period",),
    "restart_delay": ("system.restart_delay",),
    "no_semi_locks": ("system.semi_locks_enabled",),
    "switch_after": ("system.protocol_switch_threshold",),
    "commit": ("system.commit", "commit"),
    "audit": ("system.audit",),
    "arrival_rate": ("workload.arrival_rate", "arrival_rate"),
    "transactions": ("workload.num_transactions", "transactions"),
    "min_size": ("workload.min_size",),
    "max_size": ("workload.max_size",),
    "read_fraction": ("workload.read_fraction",),
    "hotspot": ("workload.hotspot_probability",),
    "access_pattern": ("workload.access_pattern",),
    "arrival_process": ("workload.arrival_process",),
    "rates": ("rates",),
    "sizes": ("sizes",),
    "scenarios": ("scenarios",),
    "jobs": ("tasks",),
    "store": ("tasks",),
    "resume": ("tasks",),
    "force": ("tasks",),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser with the ``run``/``sweep``/``scenario``/``store`` subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Unified concurrency control (Wang & Li, ICDE 1988) — simulation runner"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    experiments = all_experiments()

    def reading(param: str) -> str:
        return "/".join(e.id for e in experiments if param in e.params)

    run_parser = subparsers.add_parser("run", help="run one workload and print its summary")
    _add_system_arguments(run_parser)
    _add_workload_arguments(run_parser)
    run_parser.add_argument(
        "--protocol",
        choices=["2PL", "T/O", "PA", "mixed", "dynamic"],
        default="mixed",
        help="concurrency control method (default: a uniform mix of the three)",
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="regenerate one of the experiments from DESIGN.md"
    )
    _add_system_arguments(sweep_parser)
    _add_workload_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--experiment",
        choices=[experiment.id for experiment in experiments],
        required=True,
        help=f"experiment id from the DESIGN.md index (E1-E{len(experiments)})",
    )
    sweep_parser.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[5.0, 20.0, 60.0],
        help=f"arrival rates for {reading('rates')} (transactions per time unit)",
    )
    sweep_parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[1, 4, 8],
        help=f"transaction sizes for {reading('sizes')}",
    )
    sweep_parser.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="NAME",
        help=f"scenarios for {reading('scenarios')} (defaults: "
        + "; ".join(
            f"{e.id} {', '.join(e.params['scenarios'])}"
            for e in experiments
            if "scenarios" in e.params
        )
        + ")",
    )
    _add_jobs_argument(sweep_parser)
    _add_store_arguments(sweep_parser)

    scenario_parser = subparsers.add_parser(
        "scenario",
        help="run a named workload scenario from the registry (see DESIGN.md)",
    )
    scenario_parser.add_argument(
        "name",
        nargs="?",
        default=None,
        help="scenario name (omit with --list to enumerate)",
    )
    scenario_parser.add_argument(
        "--list", action="store_true", help="list the registered scenarios and exit"
    )
    scenario_parser.add_argument(
        "--replications",
        type=int,
        default=3,
        help="number of independent replications (seeds 0..R-1)",
    )
    scenario_parser.add_argument(
        "--transactions",
        type=int,
        default=None,
        help="override the scenario's transaction count",
    )
    scenario_parser.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        help="override the scenario's arrival rate",
    )
    scenario_parser.add_argument(
        "--windows",
        default=None,
        metavar="PATH",
        help="write the per-window time series of every replication to this file",
    )
    _add_jobs_argument(scenario_parser)
    _add_store_arguments(scenario_parser)

    store_parser = subparsers.add_parser(
        "store", help="inspect a result store without running any simulation"
    )
    store_parser.add_argument(
        "action",
        choices=["stats", "table"],
        help="stats: accounting summary; table: render the stored summaries",
    )
    store_parser.add_argument("path", help="path to the result store (JSONL)")

    serve_parser = subparsers.add_parser(
        "serve",
        help="run one site of a live cluster as a networked daemon",
    )
    _add_live_arguments(serve_parser)
    serve_parser.add_argument(
        "--site", type=int, required=True, help="the site this daemon hosts"
    )

    drive_parser = subparsers.add_parser(
        "drive",
        help="replay a scenario's workload against a live cluster and audit it",
    )
    _add_live_arguments(drive_parser)
    drive_parser.add_argument(
        "--spawn",
        action="store_true",
        help="spawn the site daemons as subprocesses on free ports "
        "(otherwise --cluster must point at already-running daemons)",
    )
    drive_parser.add_argument(
        "--pacing",
        type=float,
        default=0.0,
        help="wall-clock seconds per unit of arrival time (0: submit "
        "immediately in arrival order)",
    )
    drive_parser.add_argument(
        "--compute-scale",
        type=float,
        default=0.1,
        help="factor applied to each transaction's compute time",
    )
    drive_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=300.0,
        help="hard wall-clock deadline for the whole run (seconds)",
    )
    drive_parser.add_argument(
        "--log-dir",
        default="live-logs",
        metavar="PATH",
        help="with --spawn: directory for the captured per-site daemon logs",
    )
    drive_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the run summary as JSON to this file",
    )
    return parser


def _add_live_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags ``serve`` and ``drive`` share; both sides must pass the same
    scenario flags so they derive identical catalogs and workloads."""
    parser.add_argument(
        "--scenario",
        default="uniform-baseline",
        help="registered scenario supplying the system and workload",
    )
    parser.add_argument(
        "--transactions",
        type=int,
        default=None,
        help="override the scenario's transaction count",
    )
    parser.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        help="override the scenario's arrival rate",
    )
    parser.add_argument(
        "--num-sites",
        type=int,
        default=None,
        help="override the scenario's site count (applied before workload "
        "generation, so daemons and driver still agree)",
    )
    parser.add_argument(
        "--commit",
        choices=[name for name in commit_protocol_names() if name != "one-phase"],
        default="two-phase",
        help="atomic-commit layer (one-phase cannot run over a real network)",
    )
    parser.add_argument(
        "--cluster",
        default=None,
        metavar="HOST:PORT,...",
        help="listen addresses of sites 0..N-1, comma-separated "
        "(required for serve; required for drive without --spawn)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=2.0,
        help="per-attempt liveness watchdog of the site daemons (seconds)",
    )


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "persist completed runs in this content-addressed result store "
            "and reuse cached runs instead of re-simulating them"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="require the --store file to exist (fail fast on a mistyped path)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="with --store: re-execute every run even when cached, appending fresh results",
    )


def _open_store(args: argparse.Namespace) -> Optional[ResultStore]:
    """Validate the store flags and open the store (or return ``None``)."""
    if args.store is None:
        if args.resume or args.force:
            raise ConfigurationError("--resume/--force make sense only together with --store")
        return None
    if args.resume and args.force:
        raise ConfigurationError("--resume (reuse cached runs) contradicts --force (recompute)")
    path = Path(args.store)
    if args.resume and not path.exists():
        raise ConfigurationError(f"--resume: store {path} does not exist")
    return ResultStore(path)


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the simulation runs (results are identical to --jobs 1)",
    )


def _add_system_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sites", type=int, default=4, help="number of sites")
    parser.add_argument("--items", type=int, default=64, help="number of logical data items")
    parser.add_argument("--replication", type=int, default=1, help="copies per data item")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument(
        "--detection-period", type=float, default=0.2, help="deadlock detection period"
    )
    parser.add_argument("--restart-delay", type=float, default=0.02, help="restart back-off delay")
    parser.add_argument(
        "--no-semi-locks",
        action="store_true",
        help="use the naive lock-everything enforcement instead of semi-locks",
    )
    parser.add_argument(
        "--switch-after",
        type=int,
        default=None,
        help="switch a transaction to PA after this many aborts (future-work item 4)",
    )
    parser.add_argument(
        "--commit",
        choices=list(commit_protocol_names()),
        default=None,
        help="atomic-commit layer (default one-phase: the paper's implicit commit; "
        "two-phase: presumed-nothing 2PC; e12 defaults to two-phase)",
    )
    parser.add_argument(
        "--audit",
        choices=list(SystemConfig.AUDIT_MODES),
        default="batch",
        help="audit pipeline (batch: whole-log oracle at the end; streaming: "
        "incremental oracle with bounded resident state, same verdict)",
    )


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arrival-rate", type=float, default=20.0, help="arrival rate lambda")
    parser.add_argument(
        "--transactions",
        type=int,
        default=None,
        help=f"number of transactions (default {DEFAULT_TRANSACTIONS}; "
        "e9-e12 default to each scenario's own size)",
    )
    parser.add_argument("--min-size", type=int, default=2, help="minimum transaction size")
    parser.add_argument("--max-size", type=int, default=6, help="maximum transaction size")
    parser.add_argument("--read-fraction", type=float, default=0.6, help="fraction of reads")
    parser.add_argument(
        "--hotspot", type=float, default=0.0, help="probability an access hits the hot region"
    )
    parser.add_argument(
        "--access-pattern",
        choices=list(WorkloadConfig.ACCESS_PATTERNS),
        default="uniform",
        help="item-selection skew (uniform, hotspot, zipfian, site-skewed)",
    )
    parser.add_argument(
        "--arrival-process",
        choices=list(WorkloadConfig.ARRIVAL_PROCESSES),
        default="poisson",
        help="arrival process shape at the configured mean rate",
    )


def _system_from_args(args: argparse.Namespace) -> SystemConfig:
    return SystemConfig(
        num_sites=args.sites,
        num_items=args.items,
        replication_factor=args.replication,
        deadlock_detection_period=args.detection_period,
        restart_delay=args.restart_delay,
        semi_locks_enabled=not args.no_semi_locks,
        protocol_switch_threshold=args.switch_after,
        commit=CommitConfig(protocol=args.commit or "one-phase"),
        audit=args.audit,
        seed=args.seed,
    )


def _workload_from_args(args: argparse.Namespace) -> WorkloadConfig:
    transactions = args.transactions if args.transactions is not None else DEFAULT_TRANSACTIONS
    return WorkloadConfig(
        arrival_rate=args.arrival_rate,
        num_transactions=transactions,
        min_size=args.min_size,
        max_size=args.max_size,
        read_fraction=args.read_fraction,
        hotspot_probability=args.hotspot,
        access_pattern=args.access_pattern,
        arrival_process=args.arrival_process,
        seed=args.seed + 1,
    )


def _command_run(args: argparse.Namespace) -> int:
    system = _system_from_args(args)
    workload = _workload_from_args(args)
    protocol = None if args.protocol in ("mixed", "dynamic") else args.protocol
    result = run_simulation(
        system,
        workload,
        protocol=protocol,
        dynamic_selection=args.protocol == "dynamic",
    )
    print(kv_table(result.summary()))
    return 0 if result.serializable else 1


def _report_store(store: Optional[ResultStore]) -> None:
    """Cache accounting on stderr so tables on stdout stay byte-identical."""
    if store is not None:
        print(store.report(), file=sys.stderr)


def _command_sweep(args: argparse.Namespace) -> int:
    experiment = get_experiment(args.experiment)
    ignored = _ignored_flags(args, experiment)
    if ignored:
        print(f"note: {experiment.id} ignores {', '.join(ignored)}", file=sys.stderr)
    params = {
        "system": _system_from_args(args),
        "workload": _workload_from_args(args),
        "rates": args.rates,
        "sizes": args.sizes,
        "arrival_rate": args.arrival_rate,
    }
    # Unset, these fall back to the experiment's own defaults.
    for name in ("transactions", "scenarios", "commit"):
        if getattr(args, name) is not None:
            params[name] = getattr(args, name)
    store = _open_store(args)
    rows = run_experiment(
        experiment.id, params, jobs=args.jobs, store=store, force=args.force
    )
    print(rows_to_table(rows))
    _report_store(store)
    all_serializable = all(row.get("serializable", True) for row in rows)
    # E12's verdict row carries the differential harness's gate.
    all_equivalent = all(
        bool(row["equivalent"]) for row in rows if row.get("mode") == "equal"
    )
    return 0 if all_serializable and all_equivalent else 1


def _ignored_flags(args: argparse.Namespace, experiment: Experiment) -> List[str]:
    """The sweep flags set away from their defaults that ``experiment`` does not read."""
    defaults = vars(build_parser().parse_args(["sweep", "--experiment", experiment.id]))
    ignored = []
    for dest, targets in SWEEP_FLAG_TARGETS.items():
        if getattr(args, dest) == defaults[dest]:
            continue
        if not any(
            experiment.points is not None if target == "tasks" else experiment.reads(target)
            for target in targets
        ):
            ignored.append("--" + dest.replace("_", "-"))
    return ignored


def _command_scenario(args: argparse.Namespace) -> int:
    if args.list or args.name is None:
        rows = [
            {"scenario": scenario.name, "description": scenario.description}
            for scenario in all_scenarios()
        ]
        print(rows_to_table(rows))
        # A bare `scenario` without a name is a usage error; `--list` is not.
        return 0 if args.list else 2
    try:
        scenario = get_scenario(args.name)
    except ConfigurationError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.replications < 1:
        print("at least one replication is required", file=sys.stderr)
        return 2
    configured = scenario.configured(
        transactions=args.transactions, arrival_rate=args.arrival_rate
    )
    store = _open_store(args)
    result = configured.run(
        seeds=tuple(range(args.replications)),
        jobs=args.jobs,
        store=store,
        force=args.force,
    )
    print(rows_to_table([result.as_row()]))
    if args.windows is not None:
        _write_windows(Path(args.windows), configured.name, result)
    _report_store(store)
    return 0 if result.all_serializable else 1


def _write_windows(path: Path, name: str, result) -> None:
    """Write the per-window time series of every replication to ``path``.

    One table per replication, in seed order, headed by the scenario name
    and the replication index.  Stored summaries round-trip through JSON
    unchanged, so the file is byte-identical between cache-cold, parallel
    and resumed runs.
    """
    sections = []
    for index, summary in enumerate(result.summaries):
        sections.append(f"== {name} · replication {index} ==")
        sections.append(windowed_table(summary))
        sections.append("")
    path.write_text("\n".join(sections), encoding="utf-8")


def _command_store(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if not path.exists():
        print(f"store {path} does not exist", file=sys.stderr)
        return 2
    store = ResultStore(path)
    if args.action == "stats":
        print(
            kv_table(
                {
                    "path": str(store.path),
                    "entries": len(store),
                    "corrupt_lines_skipped": store.corrupt_lines,
                    "file_bytes": path.stat().st_size,
                }
            )
        )
        return 0
    print(rows_to_table(store_rows(store), STORE_COLUMNS))
    return 0


def _parse_cluster(text: str):
    """Parse ``host:port,host:port,...`` into a site → address map.

    Each port must lie in 1-65535, so a mistyped port is a configuration
    error here rather than a bind failure in a daemon or a driver waiting
    out its connect deadline.
    """
    addresses = {}
    for site, part in enumerate(text.split(",")):
        host, _, port = part.strip().rpartition(":")
        if not host or not port.isdigit():
            raise ConfigurationError(f"malformed cluster address {part!r}")
        if not 1 <= int(port) <= 65535:
            raise ConfigurationError(
                f"cluster address {part.strip()!r}: port must be in 1-65535"
            )
        addresses[site] = (host, int(port))
    return addresses


def _command_serve(args: argparse.Namespace) -> int:
    """Run one site daemon until the driver's ``ctl_shutdown`` arrives."""
    import asyncio

    from repro.live.cluster import live_setup
    from repro.live.daemon import SiteDaemon

    if args.cluster is None:
        raise ConfigurationError("serve requires --cluster")
    cluster = _parse_cluster(args.cluster)
    if args.site not in cluster:
        raise ConfigurationError(
            f"--site {args.site} has no address in the {len(cluster)}-site cluster"
        )
    system, _ = live_setup(
        args.scenario,
        transactions=args.transactions,
        arrival_rate=args.arrival_rate,
        commit=args.commit,
        num_sites=args.num_sites,
    )
    if system.num_sites != len(cluster):
        raise ConfigurationError(
            f"scenario {args.scenario!r} has {system.num_sites} sites but the "
            f"cluster map lists {len(cluster)} addresses"
        )

    async def _serve() -> None:
        daemon = SiteDaemon(
            args.site, system, cluster, request_timeout=args.request_timeout
        )
        print(
            f"site {args.site} serving {args.scenario!r} "
            f"({args.commit}) on {cluster[args.site][0]}:{cluster[args.site][1]}",
            file=sys.stderr,
            flush=True,
        )
        await daemon.serve()

    asyncio.run(_serve())
    return 0


def _command_drive(args: argparse.Namespace) -> int:
    """Replay a scenario against a live cluster; print and gate on the audit."""
    import json

    from repro.live.cluster import (
        SubprocessCluster,
        free_ports,
        live_setup,
        local_cluster_map,
    )
    from repro.live.driver import LiveRunError, drive_cluster

    if args.cluster is None and not args.spawn:
        raise ConfigurationError("drive requires --cluster, or --spawn to boot one")
    system, specs = live_setup(
        args.scenario,
        transactions=args.transactions,
        arrival_rate=args.arrival_rate,
        commit=args.commit,
        num_sites=args.num_sites,
    )
    if args.cluster is not None:
        cluster = _parse_cluster(args.cluster)
    else:
        cluster = local_cluster_map(free_ports(system.num_sites))

    def _drive() -> "object":
        return drive_cluster(
            system,
            cluster,
            specs,
            pacing=args.pacing,
            compute_scale=args.compute_scale,
            drain_timeout=args.drain_timeout,
        )

    try:
        if args.spawn:
            serve_args = ["--scenario", args.scenario, "--commit", args.commit]
            if args.transactions is not None:
                serve_args += ["--transactions", str(args.transactions)]
            if args.arrival_rate is not None:
                serve_args += ["--arrival-rate", str(args.arrival_rate)]
            if args.num_sites is not None:
                serve_args += ["--num-sites", str(args.num_sites)]
            serve_args += ["--request-timeout", str(args.request_timeout)]
            with SubprocessCluster(cluster, serve_args, Path(args.log_dir)) as spawned:
                spawned.check_alive()
                result = _drive()
        else:
            result = _drive()
    except LiveRunError as error:
        print(f"live run failed: {error}", file=sys.stderr)
        return 1
    summary = result.summary()
    print(kv_table(summary))
    if args.output is not None:
        Path(args.output).write_text(
            json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )
    ok = (
        result.serializable
        and result.atomic
        and result.committed == result.submitted
        and not result.conflicting_decisions()
    )
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        if args.command == "run":
            return _command_run(args)
        if args.command == "scenario":
            return _command_scenario(args)
        if args.command == "store":
            return _command_store(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "drive":
            return _command_drive(args)
        return _command_sweep(args)
    except ConfigurationError as error:
        print(f"configuration error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
