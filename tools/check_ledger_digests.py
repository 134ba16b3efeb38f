#!/usr/bin/env python
"""The ledger's machine-independent gates (``make ledger-digests``).

Runs every simulator workload of the perf ledger once — untraced, in this
process, at the ledger's seed — and fails (exit 1) unless its
``summary_sha256`` and every exactly-repeating count (``spec.EXACT_COUNTS``)
equal what the newest committed ``BENCH_PR<N>.json`` recorded.  Timings are
not looked at, so the check means the same on any machine: a change that
must not alter behaviour reproduces the digests; one that alters it on
purpose commits a new ``BENCH_PR<N>.json`` (``make bench-ledger N=<N>``).

Usage::

    PYTHONPATH=src python tools/check_ledger_digests.py [--ledger BENCH_PR24.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from typing import List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from benchmarks.ledger import spec  # noqa: E402  (sys.path set up above)
from benchmarks.ledger.child import measure  # noqa: E402


def newest_ledger(root: pathlib.Path = ROOT) -> pathlib.Path:
    """The committed ``BENCH_PR<N>.json`` with the largest ``N`` (parents excluded)."""
    numbered = [
        (int(match.group(1)), path)
        for path in root.glob("BENCH_PR*.json")
        if (match := re.fullmatch(r"BENCH_PR(\d+)\.json", path.name))
    ]
    if not numbered:
        raise SystemExit(f"no BENCH_PR<N>.json under {root}")
    return max(numbered)[1]


def check(ledger: pathlib.Path) -> List[str]:
    """Every mismatch between fresh runs and ``ledger``, as printable lines."""
    recorded = json.loads(ledger.read_text())
    failures: List[str] = []
    for name, workload in spec.WORKLOADS.items():
        if workload.live:
            continue
        expected = recorded["workloads"][name]
        record = measure(name, recorded["seed"])
        found = len(failures)
        if not record["ok"]:
            failures.append(f"{name}: {record['violations']} {record.get('error') or ''}")
        else:
            if record["summary_sha256"] != expected["summary_sha256"]:
                failures.append(
                    f"{name}: summary_sha256 {record['summary_sha256']} != "
                    f"{expected['summary_sha256']}"
                )
            for metric in spec.EXACT_COUNTS:
                want = expected["per_layer"][metric]["value"]
                got = record["counts"][metric]
                if got != want:
                    failures.append(f"{name}: {metric} {got} != {want}")
        print(f"{name}: {'ok' if len(failures) == found else 'DIFFERS'}")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Exit 0 when every simulator workload reproduces the recorded ledger."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    ledger = args.ledger or newest_ledger()
    print(f"checking against {ledger.name}")
    failures = check(ledger)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
