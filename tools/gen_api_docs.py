#!/usr/bin/env python
"""Generate the Markdown API reference for ``repro.*`` (``make api-docs``).

One page per module under ``src/repro/`` plus an ``index.md``, written to
``docs/api/``.  Everything is extracted statically with :mod:`ast` — module,
class and function docstrings, and signatures taken verbatim from the source
lines — so the output is deterministic across Python versions and machines.
The pages are generated, not committed: ``make check-docs`` writes them
before it resolves the hand-written docs' links into them.

Usage::

    python tools/gen_api_docs.py            # (re)write docs/api/

The docstring-coverage gate in ``tools/check_docs.py`` guarantees every
public definition rendered here actually has prose to show.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
OUTPUT = ROOT / "docs" / "api"

HEADER = "<!-- generated by tools/gen_api_docs.py; edit docstrings, not this file -->"


def module_name(path: Path) -> str:
    """Dotted module name of ``path`` (``__init__.py`` names its package)."""
    relative = path.relative_to(PACKAGE.parent)
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def signature_of(node: ast.AST, lines: List[str]) -> str:
    """The raw-source signature of a def/class, without decorators or colon."""
    start = node.lineno - 1
    body_start = node.body[0].lineno - 1 if node.body else start + 1
    segment = lines[start:body_start] or [lines[start]]
    text = " ".join(part.strip() for part in segment).strip()
    if ":" in text:
        # Cut at the block colon (the last one outside brackets).
        depth = 0
        for index in range(len(text) - 1, -1, -1):
            char = text[index]
            if char in ")]}":
                depth += 1
            elif char in "([{":
                depth -= 1
            elif char == ":" and depth == 0:
                text = text[:index]
                break
    return text


def first_line(docstring: str) -> str:
    """The summary line of a docstring."""
    return docstring.strip().splitlines()[0]


def _doc_block(docstring: str) -> List[str]:
    return [docstring.strip(), ""]


def render_function(node: ast.AST, lines: List[str], depth: int) -> List[str]:
    """Markdown section for one function or method."""
    heading = "#" * depth
    marker = ""
    for decorator in getattr(node, "decorator_list", []):
        if isinstance(decorator, ast.Name) and decorator.id == "property":
            marker = " *(property)*"
        elif isinstance(decorator, ast.Name) and decorator.id in ("classmethod", "staticmethod"):
            marker = f" *({decorator.id})*"
        elif isinstance(decorator, ast.Attribute) and decorator.attr == "setter":
            marker = " *(setter)*"
    out = [f"{heading} `{node.name}`{marker}", ""]
    out += ["```python", signature_of(node, lines), "```", ""]
    docstring = ast.get_docstring(node)
    if docstring:
        out += _doc_block(docstring)
    return out


def render_class(node: ast.ClassDef, lines: List[str]) -> List[str]:
    """Markdown section for one class and its public methods."""
    out = [f"## `{node.name}`", ""]
    out += ["```python", signature_of(node, lines), "```", ""]
    docstring = ast.get_docstring(node)
    if docstring:
        out += _doc_block(docstring)
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if child.name.startswith("_"):
                continue
            out += render_function(child, lines, depth=3)
    return out


def render_module(path: Path) -> Tuple[str, str]:
    """``(Markdown page, summary line)`` for one module."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    name = module_name(path)
    out = [HEADER, "", f"# `{name}`", ""]
    docstring = ast.get_docstring(tree)
    if docstring:
        out += _doc_block(docstring)
    classes = [
        child
        for child in ast.iter_child_nodes(tree)
        if isinstance(child, ast.ClassDef) and not child.name.startswith("_")
    ]
    functions = [
        child
        for child in ast.iter_child_nodes(tree)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not child.name.startswith("_")
    ]
    for node in classes:
        out += render_class(node, lines)
    if functions:
        out += ["## Functions", ""]
        for node in functions:
            out += render_function(node, lines, depth=3)
    summary = first_line(docstring) if docstring else ""
    return "\n".join(out).rstrip() + "\n", summary


def iter_modules() -> Iterable[Path]:
    """Every Python file of the package, in deterministic order."""
    return sorted(PACKAGE.rglob("*.py"))


def render_index(pages: Dict[str, str], summaries: Dict[str, str]) -> str:
    """The index page: one table row per module."""
    out = [
        HEADER,
        "",
        "# `repro` API reference",
        "",
        "Generated from the package docstrings by `tools/gen_api_docs.py`",
        "(`make api-docs`); `make check-docs` enforces that every public",
        "module, class and function carries the docstring rendered here.",
        "Narrative entry points: [experiments.md](experiments.md) lists the",
        "experiment registry's entries and their bench cases;",
        "`docs/architecture.md` walks the layer map and",
        "`docs/determinism.md` states the determinism contract.",
        "",
        "| Module | Summary |",
        "| --- | --- |",
    ]
    for name in sorted(pages):
        summary = summaries.get(name, "")
        out.append(f"| [`{name}`]({name}.md) | {summary} |")
    return "\n".join(out) + "\n"


def render_experiments() -> str:
    """The experiment index page: one row per entry of the experiment registry.

    The rows come from ``repro.analysis.experiments`` itself — the registry
    the CLI's ``sweep``, the parametrised bench and ``make check-docs``
    read — so this page cannot drift from what runs.
    """
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.analysis.experiments import all_experiments
    finally:
        sys.path.pop(0)
    out = [
        HEADER,
        "",
        "# Experiment index",
        "",
        "Every entry of the experiment registry in",
        "[`repro.analysis.experiments`](repro.analysis.experiments.md): its id,",
        "the question it answers, the parameters it reads, and its case in",
        "`benchmarks/bench_experiments.py`, which runs it at bench size and",
        "asserts its checks.  Rationale and table-reading notes live in",
        "DESIGN.md.  Run any experiment via",
        "`python -m repro.cli sweep --experiment <id>`.",
        "",
        "| Id | Question | Parameters | Bench case |",
        "| --- | --- | --- | --- |",
    ]
    for experiment in all_experiments():
        params = ", ".join(f"`{name}`" for name in experiment.params)
        out.append(
            f"| {experiment.id.upper()} | {experiment.title} | {params} "
            f"| `test_experiment[{experiment.id}]` |"
        )
    out += [
        "",
        "Benchmarks without an experiment id: `benchmarks/bench_store.py`",
        "(result-store micros) and the perf ledger under `benchmarks/ledger/`.",
    ]
    return "\n".join(out) + "\n"


def generate() -> Dict[str, str]:
    """All pages keyed by output file name (without directory)."""
    pages: Dict[str, str] = {}
    summaries: Dict[str, str] = {}
    module_pages: Dict[str, str] = {}
    for path in iter_modules():
        name = module_name(path)
        module_pages[name], summaries[name] = render_module(path)
    for name, content in module_pages.items():
        pages[f"{name}.md"] = content
    pages["index.md"] = render_index(module_pages, summaries)
    pages["experiments.md"] = render_experiments()
    return pages


def write(pages: Dict[str, str]) -> Tuple[int, int]:
    """Write the pages; returns ``(written, removed)`` counts."""
    OUTPUT.mkdir(parents=True, exist_ok=True)
    written = 0
    for name, content in pages.items():
        target = OUTPUT / name
        if not target.exists() or target.read_text(encoding="utf-8") != content:
            target.write_text(content, encoding="utf-8")
            written += 1
    removed = 0
    for stale in OUTPUT.glob("*.md"):
        if stale.name not in pages:
            stale.unlink()
            removed += 1
    return written, removed


def main() -> int:
    """Entry point: (re)write every page."""
    pages = generate()
    written, removed = write(pages)
    print(f"api-docs: {len(pages)} pages ({written} updated, {removed} removed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
