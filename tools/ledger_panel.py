#!/usr/bin/env python
"""Sweep a ledger workload over the benchmark driver's seed panel (``make ledger-panel``).

The driver's run ``--seed N`` executes child ``k`` on workload seed
``N * 1000 + k`` for as many ``k`` as fit into its 25 s, so a faster program
visits seeds a slower one never reached.  This runs every child of bases
``--bases`` (e.g. ``1-10``) with ``k < --count`` exactly as the driver does
(``ledger.spawn``: fresh interpreter, killed after its 60 s limit) and lists
the seeds that fail a correctness gate, raise, or do not finish — the hang
PR 24 found on ``drift-adaptive`` seeds 4059 and 9019 shows up here as two
killed children.  Exit 1 if any seed is listed.

Usage::

    python tools/ledger_panel.py --workload drift-adaptive --bases 1-10 --count 60
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from benchmarks.ledger import spec  # noqa: E402  (sys.path set up above)
from benchmarks.ledger.ledger import PANEL_STRIDE, spawn  # noqa: E402


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the panel and print one line per bad seed."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--bases", default="1-10", help="driver seeds: N or FIRST-LAST")
    parser.add_argument("--count", type=int, default=60, help="children per base (k < count)")
    args = parser.parse_args(argv)
    first, _, last = args.bases.partition("-")
    seeds = [
        base * PANEL_STRIDE + k
        for base in range(int(first), int(last or first) + 1)
        for k in range(args.count)
    ]
    bad = 0
    for seed in seeds:
        record = spawn(args.workload, seed, trace=False)
        if not record["ok"]:
            bad += 1
            error = (record.get("error") or "").strip().splitlines()
            print(f"seed {seed}: {record['violations']} {error[-1] if error else ''}", flush=True)
    print(f"{args.workload}: {len(seeds)} seeds, {bad} failed or were killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
