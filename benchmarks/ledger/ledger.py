"""The parent process: spawns one child per run, gates, aggregates, compares.

Three modes share :func:`spawn` and :func:`gate`:

* the **full ledger** (no ``--workload``): every workload, untraced repeats
  interleaved round-robin and one traced run each, written as one JSON document;
* one **driver run** (``--workload W --seed N --seconds S --trace 0|1``): fresh
  children of one workload for ``S`` seconds, medians printed as one JSON line;
* ``--compare A.json B.json``: each end-to-end metric's bound applied per
  (metric, workload).

Never more than one child runs at a time, and this process imports nothing of
the program, so a child has a core to itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from benchmarks.ledger import spec

ROOT = Path(__file__).resolve().parents[2]
SCHEMA = 1
#: Hard limit on one child: the live drain deadline (30 s) plus the paced
#: submission (12 s) fits; anything longer is a wedge and is killed.
CHILD_TIMEOUT_S = 60.0
#: A driver run's child ``k`` uses workload seed ``seed * PANEL_STRIDE + k``.
PANEL_STRIDE = 1000


# --------------------------------------------------------------------------- #
# Running and checking children
# --------------------------------------------------------------------------- #


def spawn(name: str, seed: int, trace: bool) -> Dict[str, Any]:
    """Run workload ``name`` once in a fresh interpreter and return its record.

    A child that hangs, dies or prints no record becomes a failed record (every
    transaction counted as failed), never an exception here.
    """
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src"), *filter(None, [environment.get("PYTHONPATH")])]
    )
    command = [
        sys.executable,
        "-m",
        "benchmarks.ledger.child",
        "--workload",
        name,
        "--seed",
        str(seed),
        "--trace",
        str(int(trace)),
        "--started",
        repr(time.monotonic()),
    ]
    failure = None
    try:
        finished = subprocess.run(
            command,
            cwd=ROOT,
            env=environment,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        failure = f"killed after {CHILD_TIMEOUT_S:.0f} s"
    else:
        lines = finished.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            failure = f"exit status {finished.returncode}: {finished.stderr[-2000:]}"
    return {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "ok": False,
        "submitted": spec.WORKLOADS[name].transactions,
        "committed": 0,
        "violations": ["child process failed"],
        "error": failure,
    }


def failed_transactions(record: Dict[str, Any]) -> int:
    """Transactions of one run that count as failed (all of them if it is not ok)."""
    if not record["ok"]:
        return record["submitted"]
    return record["submitted"] - record["committed"]


def gate(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Correctness violations across the runs of one workload.

    Every run must pass its own checks; simulator runs of the same seed, traced
    or not, must also agree on the summary digest and on every count metric.
    """
    problems = [
        f"{record['workload']} run {index}: {'; '.join(record['violations'])}"
        for index, record in enumerate(records)
        if not record["ok"]
    ]
    by_seed: Dict[int, List[Dict[str, Any]]] = {}
    for record in records:
        if record["ok"] and "summary_sha256" in record:
            by_seed.setdefault(record["seed"], []).append(record)
    for seed, good in by_seed.items():
        where = f"{good[0]['workload']} seed {seed}"
        if len({record["summary_sha256"] for record in good}) > 1:
            problems.append(f"{where}: repeats disagree on summary_sha256")
        if any(record["counts"] != good[0]["counts"] for record in good):
            problems.append(f"{where}: repeats disagree on a count metric")
    return problems


def spread(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, sample count and the samples themselves."""
    if len(values) > 1:
        first, _, third = statistics.quantiles(values, n=4)
    else:
        first = third = values[0]
    return {
        "median": statistics.median(values),
        "q1": first,
        "q3": third,
        "n": len(values),
        "samples": list(values),
    }


def end_to_end_samples(records: Iterable[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Per metric, the values of the untraced runs that completed."""
    samples: Dict[str, List[float]] = {}
    for record in records:
        if record["ok"] and not record["traced"]:
            for name, value in record["end_to_end"].items():
                samples.setdefault(name, []).append(value)
    return samples


def per_layer_values(
    workload: spec.Workload, records: Sequence[Dict[str, Any]]
) -> Dict[str, float]:
    """Per-layer metrics of one workload: medians over its traced runs.

    Counts come from the same runs (they repeat exactly on the simulator);
    ``trace_overhead_ratio`` and ``live.collapsed_runs`` need the untraced runs.
    """
    traced = [r for r in records if r["ok"] and r["traced"] and "per_layer" in r]
    untraced = [r for r in records if r["ok"] and not r["traced"]]
    values: Dict[str, float] = {}
    for source in ("per_layer", "counts"):
        for name in traced[0][source] if traced else ():
            values[name] = statistics.median(record[source][name] for record in traced)
    if traced and untraced:
        values["trace_overhead_ratio"] = statistics.median(
            r["wall_s"] for r in traced
        ) / statistics.median(r["wall_s"] for r in untraced)
    if workload.live and untraced:
        typical = statistics.median(r["end_to_end"]["commit_latency_p50_ms"] for r in untraced)
        values["live.collapsed_runs"] = sum(
            r["end_to_end"]["commit_latency_p98_ms"] > 10.0 * typical for r in untraced
        )
    return values


# --------------------------------------------------------------------------- #
# The full ledger
# --------------------------------------------------------------------------- #


def run_ledger(seed: int) -> Dict[str, Any]:
    """Every workload: interleaved untraced repeats, then one traced run each."""
    records: Dict[str, List[Dict[str, Any]]] = {name: [] for name in spec.WORKLOADS}
    for repeat in range(max(w.repeats for w in spec.WORKLOADS.values())):
        for name, workload in spec.WORKLOADS.items():
            if repeat < workload.repeats:
                records[name].append(spawn(name, seed, trace=False))
                print(f"  {name} repeat {repeat + 1}/{workload.repeats}", file=sys.stderr)
    for name in spec.WORKLOADS:
        records[name].append(spawn(name, seed, trace=True))
        print(f"  {name} traced", file=sys.stderr)

    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "seed": seed,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "workloads": {},
    }
    for name, workload in spec.WORKLOADS.items():
        runs = records[name]
        submitted = sum(record["submitted"] for record in runs)
        end_to_end = {
            metric: {"unit": spec.metric_unit(metric), **spread(values)}
            for metric, values in end_to_end_samples(runs).items()
        }
        end_to_end["failed_fraction"] = {
            "unit": "ratio",
            **spread([sum(failed_transactions(record) for record in runs) / submitted]),
        }
        digests = list({r["summary_sha256"] for r in runs if "summary_sha256" in r})
        document["workloads"][name] = {
            "why": workload.why,
            "runs": len(runs),
            "violations": gate(runs),
            "errors": [record["error"] for record in runs if record.get("error")],
            # Disagreeing repeats are a violation above; then there is no digest.
            "summary_sha256": digests[0] if len(digests) == 1 else None,
            "end_to_end": end_to_end,
            "per_layer": {
                metric: {"unit": spec.metric_unit(metric), "value": value}
                for metric, value in per_layer_values(workload, runs).items()
            },
        }
    return document


def print_ledger(document: Dict[str, Any]) -> None:
    """Every metric of every workload, by name, with its unit."""
    for name, entry in document["workloads"].items():
        print(f"\n== {name}  ({entry['runs']} runs, seed {document['seed']})")
        if entry["summary_sha256"] is not None:
            print(f"  summary_sha256 {entry['summary_sha256']}")
        for metric, cell in entry["end_to_end"].items():
            print(
                f"  {metric:32s} {cell['median']:14.6g} {cell['unit']:8s} "
                f"[q1 {cell['q1']:.6g}, q3 {cell['q3']:.6g}, n={cell['n']}]"
            )
        for metric, cell in entry["per_layer"].items():
            print(f"  {metric:32s} {cell['value']:14.6g} {cell['unit']}")
        for problem in entry["violations"]:
            print(f"  VIOLATION {problem}")


# --------------------------------------------------------------------------- #
# One driver run
# --------------------------------------------------------------------------- #


def run_for(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload for ``seconds`` and print the driver's JSON line.

    Untraced children run back to back while the next one still fits, child
    ``k`` on the workload generated from ``seed * PANEL_STRIDE + k``: how much
    work a transaction costs depends on the generated workload (by 10% and more
    on ``drift-adaptive``), and a median over a panel of workloads is steadier
    from one ``--seed`` to the next than any single one.  With ``trace`` each
    untraced child is followed by a traced child of the same seed, which gives
    the overhead ratio its reference and puts the pair through :func:`gate`.
    """
    workload = spec.WORKLOADS[name]
    began = time.monotonic()
    records: List[Dict[str, Any]] = []
    longest = 0.0
    while True:
        child_seed = seed * PANEL_STRIDE + len(records) // (2 if trace else 1)
        for traced in (False, True) if trace else (False,):
            launched = time.monotonic()
            records.append(spawn(name, child_seed, trace=traced))
            longest = max(longest, time.monotonic() - launched)
        if time.monotonic() - began + longest * (2 if trace else 1) > seconds:
            break

    problems = gate(records)
    for problem in problems:
        print(f"VIOLATION {problem}", file=sys.stderr)
    samples = end_to_end_samples(records)
    attempted = sum(record["submitted"] for record in records)
    failed = sum(map(failed_transactions, records))
    if trace:
        # The driver wants every name on every workload: a layer that did not
        # run did no work (0), and so reads a metric that does not apply.
        layers = per_layer_values(workload, records)
        values = {metric: layers.get(metric, 0.0) for metric in spec.PER_LAYER}
        for metric in spec.END_TO_END_SCOPED:
            values[metric] = statistics.median(samples[metric]) if metric in samples else 0.0
        values["failed_fraction"] = failed / attempted
    else:
        if not all(metric in samples for metric in spec.END_TO_END):
            print("no run completed; nothing to report", file=sys.stderr)
            return 1
        values = {metric: statistics.median(samples[metric]) for metric in spec.END_TO_END}
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    metric: {"value": value, "unit": spec.metric_unit(metric)}
                    for metric, value in values.items()
                },
            }
        )
    )
    return 1 if problems else 0


# --------------------------------------------------------------------------- #
# Comparing two ledgers
# --------------------------------------------------------------------------- #


def verdict(name: str, parent: Dict[str, Any], change: Dict[str, Any]) -> Dict[str, Any]:
    """Apply metric ``name``'s bound to one (metric, workload) pair.

    ``regression``: the change's median is worse than the parent's by more than
    the bound.  ``unresolved``: it is not, but either side's interquartile
    range is wider than the bound, so "unchanged" cannot be claimed — unless
    every run of the change reads better than every run of the parent.
    """
    if name in spec.END_TO_END:
        _, better, bound = spec.END_TO_END[name]
    else:
        _, better, bound, _ = spec.END_TO_END_SCOPED[name]
    sign = 1.0 if better == "lower" else -1.0
    base = parent["median"]
    worse_by = sign * (change["median"] - base)
    relative = worse_by / base if base else worse_by
    widest = max(
        (cell["q3"] - cell["q1"]) / cell["median"] if cell["median"] else 0.0
        for cell in (parent, change)
    )
    all_better = max(sign * v for v in change["samples"]) < min(
        sign * v for v in parent["samples"]
    )
    if relative > bound:
        outcome = "regression"
    elif widest > bound and not all_better:
        outcome = "unresolved"
    else:
        outcome = "ok"
    return {"verdict": outcome, "worse_by": relative, "bound": bound, "spread": widest}


def compare(parent_path: str, change_path: str) -> int:
    """Print one row per (end-to-end metric, workload); 1 if any regressed."""
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    regressions = 0
    print(
        f"{'workload':24s} {'metric':24s} {'unit':8s} {'parent':>12s} {'change':>12s} "
        f"{'worse by':>9s} {'bound':>6s}  verdict"
    )
    for name, before in parent["workloads"].items():
        after = change["workloads"].get(name)
        if after is None:
            print(f"{name:24s} missing from {change_path}")
            regressions += 1
            continue
        for metric, cell in before["end_to_end"].items():
            if metric not in after["end_to_end"]:
                continue
            other = after["end_to_end"][metric]
            row = verdict(metric, cell, other)
            regressions += row["verdict"] == "regression"
            print(
                f"{name:24s} {metric:24s} {cell['unit']:8s} {cell['median']:12.5g} "
                f"{other['median']:12.5g} {row['worse_by']:+9.1%} {row['bound']:6.0%}  "
                f"{row['verdict']}"
            )
        if before["summary_sha256"] is not None:
            same = before["summary_sha256"] == after["summary_sha256"]
            counts = all(
                before["per_layer"].get(metric) == after["per_layer"].get(metric)
                for metric in spec.EXACT_COUNTS
            )
            print(
                f"{name:24s} summary_sha256 {'identical' if same else 'DIFFERS'}, "
                f"count metrics {'identical' if counts else 'DIFFER'}"
            )
    return 1 if regressions else 0


# --------------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------------- #


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m benchmarks.ledger`` and ``run.py``."""
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED, help="workload seed")
    parser.add_argument("--out", help="write the full ledger to this JSON file")
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), help="one driver run")
    parser.add_argument("--seconds", type=float, default=25.0, help="length of a driver run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program is not here: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload:
        return run_for(args.workload, args.seed, args.seconds, bool(args.trace))
    document = run_ledger(args.seed)
    print_ledger(document)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    failed = any(entry["violations"] for entry in document["workloads"].values())
    return 1 if failed else 0
