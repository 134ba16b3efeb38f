#!/usr/bin/env python
"""Cross-reference checker for the documentation (``make check-docs``).

Fails (exit 1) when the source tree's documentation references drift:

1. **Markdown files** — every ``*.md`` file name mentioned in ``src/``,
   ``tests/``, ``benchmarks/``, ``tools/``, the ``Makefile``, ``README.md``
   or ``DESIGN.md`` must exist in the repository.
2. **Experiment ids** — every ``E<n>`` id cited in an experiment context
   (a line that also mentions ``experiment``/``DESIGN``) must be an entry
   of the experiment registry (``repro.analysis.experiments``).  Ranges
   like ``E1-E9`` / ``E1–E9`` are expanded.  Ids such as the paper's
   *condition* (E1)/(E2) are out of scope and ignored.
3. **Experiment index** — DESIGN.md's index table must list exactly the
   registry's experiments, each with the registry's title (no drift in
   either direction; the registry is the source, the CLI's ``sweep``
   choices are generated from it).
4. **Scenario examples** — every ``repro.cli scenario <name>`` example in
   the Markdown docs must name a registered scenario.
5. **Module references** — every dotted ``repro.*`` path mentioned in a
   narrative document (``README.md``, ``DESIGN.md``, ``docs/architecture.md``,
   ``docs/determinism.md``) must resolve to a module under ``src/`` (a
   trailing attribute such as ``repro.store.task_key`` is allowed, but the
   module part must exist).
6. **Docstring coverage** — every public module, class, function and method
   in ``src/repro/`` must carry a docstring; coverage below
   ``DOCSTRING_COVERAGE_THRESHOLD`` fails, and each undocumented item is
   listed individually.

Run from anywhere; the repository root is derived from this file.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterable, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Directories whose Python files are scanned for references.
SOURCE_DIRS = ("src", "tests", "benchmarks", "tools")
#: Top-level documentation that is scanned (and must itself exist).
DOC_FILES = (
    "README.md",
    "DESIGN.md",
    "ROADMAP.md",
    "Makefile",
    "docs/architecture.md",
    "docs/determinism.md",
)
#: Narrative documents whose dotted ``repro.*`` references and scenario
#: examples must resolve (the hand-written prose, not the generated API).
NARRATIVE_DOCS = ("README.md", "DESIGN.md", "docs/architecture.md", "docs/determinism.md")

MD_REFERENCE = re.compile(r"\b([A-Za-z0-9_.-]+\.md)\b")
EXPERIMENT_RANGE = re.compile(r"\bE(\d+)\s*[-–]\s*E(\d+)\b")
EXPERIMENT_ID = re.compile(r"\bE(\d+)\b")
EXPERIMENT_CONTEXT = re.compile(r"experiment|DESIGN", re.IGNORECASE)
#: One row of DESIGN.md's experiment index: ``| E<n> | title | ...``.
DESIGN_INDEX_ROW = re.compile(r"^\|\s*E(\d+)\s*\|\s*(.+?)\s*\|")
SCENARIO_EXAMPLE = re.compile(r"repro\.cli\s+scenario\s+([a-z0-9][a-z0-9-]*)")
MODULE_REFERENCE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")

#: Markdown names that are allowed to be referenced without existing here
#: (none at present; extend when citing external documents).
EXTERNAL_MD: Set[str] = set()


def iter_scanned_files() -> Iterable[Path]:
    for name in DOC_FILES:
        path = ROOT / name
        if path.exists():
            yield path
    for directory in SOURCE_DIRS:
        base = ROOT / directory
        if base.is_dir():
            yield from sorted(base.rglob("*.py"))


def load_experiments():
    """The experiment registry's entries, imported from ``src/``."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.analysis.experiments import all_experiments
    finally:
        sys.path.pop(0)
    return all_experiments()


def cited_experiment_ids(path: Path) -> Iterable[Tuple[int, str]]:
    """(id, line) pairs for experiment-context citations in ``path``."""
    for line in path.read_text(encoding="utf-8").splitlines():
        if not EXPERIMENT_CONTEXT.search(line):
            continue
        covered: Set[int] = set()
        for match in EXPERIMENT_RANGE.finditer(line):
            low, high = int(match.group(1)), int(match.group(2))
            for identifier in range(low, high + 1):
                covered.add(identifier)
                yield identifier, line.strip()
        for match in EXPERIMENT_ID.finditer(line):
            identifier = int(match.group(1))
            if identifier not in covered:
                yield identifier, line.strip()


def check_markdown_references(errors: List[str]) -> None:
    known_md = {path.name for path in ROOT.rglob("*.md")}
    for path in iter_scanned_files():
        for line_number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for match in MD_REFERENCE.finditer(line):
                name = match.group(1)
                if name in EXTERNAL_MD:
                    continue
                if name not in known_md:
                    errors.append(
                        f"{path.relative_to(ROOT)}:{line_number}: reference to "
                        f"missing document {name!r}"
                    )


def check_experiment_ids(errors: List[str]) -> None:
    defined = {int(experiment.id[1:]) for experiment in load_experiments()}
    for path in iter_scanned_files():
        if path.suffix == ".py" and path.name == "check_docs.py":
            continue
        for identifier, line in cited_experiment_ids(path):
            if identifier not in defined:
                errors.append(
                    f"{path.relative_to(ROOT)}: cites experiment E{identifier} "
                    f"that the registry does not define ({line[:80]})"
                )


def experiment_index_errors(design_text: str, experiments: Sequence[object]) -> List[str]:
    """Drift between DESIGN.md's index table and the registry's ``(id, title)`` pairs."""
    titles = {experiment.id.upper(): experiment.title for experiment in experiments}
    rows = {}
    for line in design_text.splitlines():
        match = DESIGN_INDEX_ROW.match(line.strip())
        if match:
            rows[f"E{match.group(1)}"] = match.group(2)
    errors = [
        f"DESIGN.md: index row {identifier} has no registry entry"
        for identifier in rows
        if identifier not in titles
    ]
    for identifier, title in titles.items():
        if identifier not in rows:
            errors.append(f"DESIGN.md: the index lacks registry entry {identifier}")
        elif rows[identifier] != title:
            errors.append(
                f"DESIGN.md: index row {identifier} reads {rows[identifier]!r}, "
                f"the registry's title is {title!r}"
            )
    return errors


def check_experiment_index(errors: List[str]) -> None:
    design = ROOT / "DESIGN.md"
    if design.exists():
        text = design.read_text(encoding="utf-8")
        errors.extend(experiment_index_errors(text, load_experiments()))


def check_scenario_examples(errors: List[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.workload.scenarios import all_scenarios
    except Exception as error:  # pragma: no cover - import environment problem
        errors.append(f"could not import the scenario registry: {error}")
        return
    finally:
        sys.path.pop(0)
    known = {scenario.name for scenario in all_scenarios()}
    for name in NARRATIVE_DOCS:
        path = ROOT / name
        if not path.exists():
            continue
        for line_number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            # The capture group cannot match flags like --list, so every hit
            # is a scenario name that must resolve.
            for match in SCENARIO_EXAMPLE.finditer(line):
                if match.group(1) not in known:
                    errors.append(
                        f"{name}:{line_number}: scenario example "
                        f"{match.group(1)!r} is not registered"
                    )


def _module_exists(parts: List[str]) -> bool:
    """True when ``src/<parts>`` is a module file or a package directory."""
    base = ROOT / "src"
    return (base.joinpath(*parts).with_suffix(".py")).exists() or (
        base.joinpath(*parts) / "__init__.py"
    ).exists()


def check_module_references(errors: List[str]) -> None:
    """Dotted ``repro.*`` references in the docs must resolve under ``src/``.

    A reference may carry one trailing attribute (``repro.store.task_key``);
    everything before it must be an importable module or package.
    """
    for name in NARRATIVE_DOCS:
        path = ROOT / name
        if not path.exists():
            continue
        for line_number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for match in MODULE_REFERENCE.finditer(line):
                parts = match.group(0).split(".")
                if _module_exists(parts) or _module_exists(parts[:-1]):
                    continue
                errors.append(
                    f"{name}:{line_number}: module reference {match.group(0)!r} "
                    "does not resolve under src/"
                )


#: Minimum fraction of public definitions in ``src/repro/`` that must carry a
#: docstring.  Held at 1.0: every public module/class/function is documented,
#: and the generated API reference (``make api-docs``) depends on it.
DOCSTRING_COVERAGE_THRESHOLD = 1.0


def iter_public_definitions(tree: ast.Module) -> Iterable[Tuple[str, int, bool]]:
    """``(qualified name, line, documented)`` for each public def/class in ``tree``.

    Public means every path component lacks a leading underscore; nested
    definitions inside functions are out of scope (they are implementation
    detail, not API).
    """

    def visit(node: ast.AST, prefix: str) -> Iterable[Tuple[str, int, bool]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name.startswith("_"):
                    continue
                qualified = f"{prefix}{child.name}"
                yield qualified, child.lineno, ast.get_docstring(child) is not None
                if isinstance(child, ast.ClassDef):
                    yield from visit(child, qualified + ".")

    yield from visit(tree, "")


def check_docstring_coverage(errors: List[str]) -> None:
    """Docstring-coverage gate over every public definition in ``src/repro``."""
    package = ROOT / "src" / "repro"
    total = 0
    documented = 0
    undocumented: List[str] = []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(ROOT)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += 1
        if ast.get_docstring(tree) is not None:
            documented += 1
        else:
            undocumented.append(f"{relative}:1: module docstring missing")
        for name, line, has_doc in iter_public_definitions(tree):
            total += 1
            if has_doc:
                documented += 1
            else:
                undocumented.append(f"{relative}:{line}: {name} is undocumented")
    coverage = documented / total if total else 1.0
    if coverage < DOCSTRING_COVERAGE_THRESHOLD:
        errors.append(
            f"docstring coverage {documented}/{total} ({coverage:.1%}) is below the "
            f"{DOCSTRING_COVERAGE_THRESHOLD:.0%} threshold"
        )
        errors.extend(f"  {item}" for item in undocumented)


def main() -> int:
    errors: List[str] = []
    for required in ("README.md", "DESIGN.md"):
        if not (ROOT / required).exists():
            errors.append(f"{required}: missing")
    check_markdown_references(errors)
    check_experiment_ids(errors)
    check_experiment_index(errors)
    check_scenario_examples(errors)
    check_module_references(errors)
    check_docstring_coverage(errors)
    if errors:
        print("check-docs: FAILED")
        for error in errors:
            print(f"  - {error}")
        return 1
    print("check-docs: all documentation cross-references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
