#!/usr/bin/env python
"""Reachability gate (``make reach``): no function under ``src/repro`` that
no product entry point runs, unless the allowlist says why it stays.

Runs the program's entry points in this one process with a profile hook
(``sys.setprofile`` and ``threading.setprofile``) that records every code
object entered.  The hook goes in before ``repro`` is imported, so functions
that run at import time count as reached.  The entry points are:

* ``cli scenario`` for every registered scenario at 80 transactions;
* ``cli run`` for each ``--protocol``, in batch mode, with
  ``--audit streaming`` and with ``--commit two-phase --replication 2``;
* ``cli sweep`` E1-E11 at 60 transactions, and E12 on ``uniform-baseline``
  at 40 (its daemons run in-process);
* a ``--store`` / ``--windows`` scenario run, its ``--resume`` and
  ``--force`` re-runs, ``store stats``, ``store table`` and
  ``scenario --list``;
* every script in ``examples/``, run as ``__main__``.

It then walks ``src/repro`` with ``ast`` and exits 1 when a function was
never entered and no allowlist line covers it, or when an allowlist line is
stale (it names a function that was entered or no longer exists).  A
function nested in another is judged with its enclosing function: it needs
its own line only when the enclosing one ran.

Allowlist lines (``tools/reachability_allowlist.txt``) read
``path:Qualname  # reason``, with ``path`` relative to ``src/repro``; a
``path:Class.*`` line covers the methods of one class.  Each reason starts
with one of :data:`REASONS`.

Usage::

    python tools/reachability.py [--allowlist PATH] [--report]

``--report`` lists every unreached function with its line count, listed or
not, grouped by file.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import pathlib
import re
import sys
import tempfile
import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = pathlib.Path(__file__).resolve().parent / "reachability_allowlist.txt"

#: The reasons an allowlist line may give (each reason starts with one).
REASONS = (
    "error path",
    "live mode only",
    "runs in --jobs pool workers",
    "read by benchmarks/",
    "public API in repro.__all__",
    "test observation point",
    "open ROADMAP item",
)

_LINE = re.compile(r"^(?P<path>[\w/]+\.py):(?P<name>[\w.<>*]+)\s+#\s*(?P<reason>\S.*)$")


@dataclass(frozen=True)
class Function:
    """One ``def`` under ``src/repro``: where it is and how long it is."""

    path: str
    qualname: str
    first_line: int
    lines: int
    parent: Optional[Tuple[str, int]]

    @property
    def key(self) -> Tuple[str, int]:
        """``(path, first line)``, the line a code object reports as ``co_firstlineno``."""
        return (self.path, self.first_line)


def _is_abstract(decorator: ast.expr) -> bool:
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
    return name == "abstractmethod"


def functions_in(path: pathlib.Path) -> List[Function]:
    """Every function and method defined in ``path``, nested ones included.

    An ``@abstractmethod`` is a declaration whose body never runs, so it is
    left out.
    """
    relative = path.relative_to(PACKAGE).as_posix()
    found: List[Function] = []

    def visit(node: ast.AST, prefix: str, parent: Optional[Tuple[str, int]]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", parent)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_abstract(decorator) for decorator in child.decorator_list):
                    continue
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                function = Function(
                    relative,
                    prefix + child.name,
                    first,
                    child.end_lineno - first + 1,
                    parent,
                )
                found.append(function)
                visit(child, f"{function.qualname}.<locals>.", function.key)
            else:
                visit(child, prefix, parent)

    visit(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return found


def all_functions() -> List[Function]:
    """Every function under ``src/repro``, in file order."""
    return [
        function
        for path in sorted(PACKAGE.rglob("*.py"))
        for function in functions_in(path)
    ]


def parse_allowlist(path: pathlib.Path) -> Tuple[Dict[str, int], List[str]]:
    """``(entries, errors)``: each ``path:Qualname`` with its line number,
    and one message per malformed line."""
    entries: Dict[str, int] = {}
    errors: List[str] = []
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE.match(line)
        if match is None:
            errors.append(f"{path.name}:{number}: not 'path:Qualname  # reason': {line}")
            continue
        if not match["reason"].startswith(REASONS):
            errors.append(f"{path.name}:{number}: reason must start with one of {REASONS}")
        target = f"{match['path']}:{match['name']}"
        if target in entries:
            errors.append(f"{path.name}:{number}: {target} is listed twice")
        entries[target] = number
    return entries, errors


def _quietly(label: str, call: Callable[[], object]) -> None:
    """Run ``call()`` with its output captured; the output is shown only if it raises."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            call()
    except BaseException:
        print(out.getvalue(), file=sys.stderr)
        raise
    print(f"  ran {label}", file=sys.stderr)


def run_entry_points() -> None:
    """Run every product entry point once (see the module docstring)."""
    import runpy

    from repro.cli import main
    from repro.workload.scenarios import all_scenarios

    def cli(*argv: str) -> None:
        def call() -> None:
            code = main(list(argv))
            if code != 0:
                raise SystemExit(f"entry point failed with exit code {code}: cli {' '.join(argv)}")

        _quietly("cli " + " ".join(argv), call)

    for scenario in all_scenarios():
        cli("scenario", scenario.name, "--transactions", "80", "--replications", "1")
    modes = ((), ("--audit", "streaming"), ("--commit", "two-phase", "--replication", "2"))
    for protocol in ("2PL", "T/O", "PA", "mixed", "dynamic"):
        for mode in modes:
            cli("run", "--protocol", protocol, "--transactions", "80", *mode)
    for number in range(1, 12):
        cli("sweep", "--experiment", f"e{number}", "--transactions", "60")
    cli("sweep", "--experiment", "e12", "--scenarios", "uniform-baseline", "--transactions", "40")
    with tempfile.TemporaryDirectory() as scratch:
        store = str(pathlib.Path(scratch) / "runs.jsonl")
        windows = str(pathlib.Path(scratch) / "windows.txt")
        common = ("scenario", "zipf-hotspot", "--transactions", "80", "--replications", "2")
        cli(*common, "--store", store, "--windows", windows)
        cli(*common, "--store", store, "--resume", "--windows", windows)
        cli(*common, "--store", store, "--force")
        cli("store", "stats", store)
        cli("store", "table", store)
    cli("scenario", "--list")
    for script in sorted((ROOT / "examples").glob("*.py")):
        path = str(script)
        _quietly(f"examples/{script.name}", lambda: runpy.run_path(path, run_name="__main__"))


def trace_entry_points() -> Set[Tuple[str, int]]:
    """``(path, first line)`` of every ``src/repro`` code object the entry points entered."""
    entered: Set[object] = set()
    add = entered.add

    def hook(frame, event, arg):  # noqa: ARG001 - the profile-hook signature
        add(frame.f_code)

    sys.path.insert(0, str(ROOT / "src"))
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run_entry_points()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = str(PACKAGE) + "/"
    return {
        (code.co_filename[len(prefix):], code.co_firstlineno)
        for code in entered
        if code.co_filename.startswith(prefix)
    }


def check(
    functions: Sequence[Function], entered: Set[Tuple[str, int]], allowlist: pathlib.Path
) -> Tuple[List[Function], List[str], List[str]]:
    """``(unreached, unlisted, stale)``.

    ``unreached`` holds the functions no entry point entered (a nested one
    only when its enclosing function ran), ``unlisted`` one printable line
    per unreached function no allowlist line covers, and ``stale`` one per
    stale or malformed allowlist line.
    """
    entries, stale = parse_allowlist(allowlist)
    unreached = [
        function
        for function in functions
        if function.key not in entered
        and (function.parent is None or function.parent in entered)
    ]
    used: Set[str] = set()
    unlisted: List[str] = []
    for function in unreached:
        exact = f"{function.path}:{function.qualname}"
        whole_class = f"{function.path}:{function.qualname.rpartition('.')[0]}.*"
        if exact in entries:
            used.add(exact)
        elif whole_class in entries:
            used.add(whole_class)
        else:
            unlisted.append(
                f"unreached and not allowlisted: {exact} "
                f"(src/repro/{function.path}:{function.first_line}, {function.lines} lines)"
            )
    for target in sorted(set(entries) - used):
        stale.append(
            f"stale allowlist line {entries[target]}: {target} "
            "was entered by an entry point or no longer exists"
        )
    return unreached, unlisted, stale


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--allowlist", type=pathlib.Path, default=ALLOWLIST)
    parser.add_argument(
        "--report", action="store_true", help="list every unreached function by file"
    )
    args = parser.parse_args(argv)
    entered = trace_entry_points()
    functions = all_functions()
    unreached, unlisted, stale = check(functions, entered, args.allowlist)
    if args.report:
        by_file: Dict[str, List[Function]] = defaultdict(list)
        for function in unreached:
            by_file[function.path].append(function)
        for path, group in sorted(by_file.items(), key=lambda kv: -sum(f.lines for f in kv[1])):
            print(f"{path}: {len(group)} functions, {sum(f.lines for f in group)} lines")
            for function in group:
                print(f"    {function.qualname} ({function.lines})")
    print(
        f"reachability: {len(functions)} functions "
        f"({sum(f.lines for f in functions)} lines) under src/repro; "
        f"{len(unreached)} unreached ({sum(f.lines for f in unreached)} lines), "
        f"{len(unreached) - len(unlisted)} of them allowlisted"
    )
    for line in unlisted + stale:
        print(line)
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
