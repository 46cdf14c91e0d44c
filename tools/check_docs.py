#!/usr/bin/env python
"""Grep-based documentation checker: stale references fail CI.

Checks, over README.md, EXPERIMENTS.md, DESIGN.md, and docs/:

1. relative markdown links resolve, including ``#anchor`` fragments
   (GitHub heading slugification);
2. referenced repository file paths exist (``benchmarks/foo.py``,
   ``docs/bar.md`` — tokens with a directory part and a .py/.md suffix,
   checked against the repo root and ``src/``);
3. dotted ``repro.*`` references import: the longest module prefix is
   imported and any remaining components are resolved with getattr, so
   a renamed function or class rots loudly;
4. every ``--flag`` token names a real option of a CLI tool in
   ``src/repro/cli.py`` — read off the live parsers, so a flag generated
   from a shared group counts like a hand-written one (plus a small
   allowlist for third-party tools like pytest's ``--benchmark-only``);
5. the scenario-DSL reference table in ``docs/scenarios.md`` is the
   one generated from the live schema (``repro.scenario.SCHEMA``), row
   for row: a documented key the schema dropped fails, so does a schema
   key the table never mentions, and so does a type, default,
   description or constraint that a record has since changed;
6. the metric tables of ``docs/observability.md`` hold one row per row
   of the series catalog (``repro.obs.CATALOG``) and no other: name,
   label keys, kind and unit cell for cell (the meaning cell may say
   more than the help text does), so a series cannot be exported
   undocumented — checked without running a sensor.

Zero third-party dependencies; run as
``PYTHONPATH=src python tools/check_docs.py``.  Exit code 0 when the
docs are honest, 1 with one line per stale reference otherwise.
``python tools/check_docs.py scenario-table`` prints the table of
check 5 instead, to paste over a stale one.
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from pathlib import Path
from unittest import mock

REPO = Path(__file__).resolve().parent.parent

DOC_FILES = [
    REPO / "README.md",
    REPO / "EXPERIMENTS.md",
    REPO / "DESIGN.md",
    *sorted((REPO / "docs").glob("*.md")),
]

#: flags that belong to tools other than ours (pytest-benchmark, pip).
FLAG_ALLOWLIST = {"--benchmark-only", "--upgrade"}

LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.+?)\s*$", re.MULTILINE)
PATH_RE = re.compile(r"`([A-Za-z0-9_.\-]+(?:/[A-Za-z0-9_.\-]+)+\.(?:py|md))`")
DOTTED_RE = re.compile(r"\brepro((?:\.[A-Za-z_][A-Za-z_0-9]*)+)\b")
FLAG_RE = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]+)\b")


def github_slug(heading: str) -> str:
    """GitHub's anchor slugification, close enough for our headings."""
    heading = re.sub(r"`([^`]*)`", r"\1", heading)  # strip code spans
    heading = heading.lower()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    return {github_slug(h) for h in HEADING_RE.findall(path.read_text())}


def option_strings(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of a parser and of its sub-commands."""
    out: set[str] = set()
    for action in parser._actions:
        out.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= option_strings(sub)
    return out


def cli_flags() -> set[str]:
    """Every ``--flag`` of every live parser in ``repro.cli``: each
    ``*_main`` runs up to its ``parse_args`` call, where the finished
    parser is read instead of an argv."""
    import repro.cli

    flags: set[str] = set()

    def harvest(parser, *_args, **_kwargs):
        flags.update(option_strings(parser))
        raise SystemExit

    with mock.patch.object(argparse.ArgumentParser, "parse_args", harvest):
        for name in repro.cli.__all__:
            try:
                getattr(repro.cli, name)([])
            except SystemExit:
                pass
    return {flag for flag in flags if flag.startswith("--")}


def check_links(path: Path, text: str, errors: list[str]) -> None:
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, fragment = target.partition("#")
        dest = (path.parent / base).resolve() if base else path
        if not dest.exists():
            errors.append(f"{path.name}: broken link target {target!r}")
            continue
        if fragment and dest.suffix == ".md":
            if fragment not in anchors_of(dest):
                errors.append(
                    f"{path.name}: broken anchor {target!r} "
                    f"(no heading slugs to {fragment!r})")


def check_file_paths(path: Path, text: str, errors: list[str]) -> None:
    for ref in PATH_RE.findall(text):
        if (REPO / ref).exists() or (REPO / "src" / ref).exists():
            continue
        errors.append(f"{path.name}: referenced file {ref!r} does not exist")


def check_dotted_refs(path: Path, text: str, errors: list[str]) -> None:
    for tail in set(DOTTED_RE.findall(text)):
        parts = ("repro" + tail).split(".")
        obj, consumed = None, 0
        for i in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:i]))
                consumed = i
                break
            except ImportError:
                continue
        if obj is None:
            errors.append(f"{path.name}: module repro{tail} does not import")
            continue
        for attr in parts[consumed:]:
            if not hasattr(obj, attr):
                errors.append(
                    f"{path.name}: repro{tail} is stale "
                    f"({'.'.join(parts[:consumed])} has no {attr!r})")
                break
            obj = getattr(obj, attr)


#: table rows of docs/scenarios.md whose first cell is a backticked
#: schema key path, e.g. ``| `campaigns[].engine` | str | ... |``.
SCHEMA_ROW_RE = re.compile(r"^\|\s*`([a-z_0-9.\[\]]+)`\s*\|.*$", re.MULTILINE)


def scenario_table() -> dict[str, str]:
    """key path -> its row of the reference table, rendered from the
    live schema (dicts keep the declaration order)."""
    from repro.scenario import SCHEMA

    rows = {}
    for key in SCHEMA:
        kind = key.type.replace("|", "\\|")
        default = key.default if key.default == "—" else f"`{key.default}`"
        constraints = f"  *({key.constraints})*" if key.constraints else ""
        rows[key.path] = (f"| `{key.path}` | {kind} | {default} | "
                          f"{key.doc}{constraints} |")
    return rows


def check_scenario_schema(errors: list[str]) -> None:
    """Diff docs/scenarios.md's reference table against the live schema."""
    doc = REPO / "docs" / "scenarios.md"
    if not doc.exists():  # already reported as a missing DOC_FILE
        return
    documented = {match.group(1): match.group(0).rstrip()
                  for match in SCHEMA_ROW_RE.finditer(doc.read_text())}
    live = scenario_table()
    for key in sorted(documented.keys() - live.keys()):
        errors.append(
            f"{doc.name}: documents schema key {key!r} which no longer "
            f"exists in repro.scenario.schema")
    for key, row in live.items():
        if key not in documented:
            errors.append(
                f"{doc.name}: schema key {key!r} exists in "
                f"repro.scenario.schema but is missing from the reference "
                f"table")
        elif documented[key] != row:
            errors.append(
                f"{doc.name}: the row of schema key {key!r} is stale; the "
                f"live schema says: {row}")


#: table rows of docs/observability.md whose first cell is a backticked
#: series name, optionally followed by its label keys:
#: ``| `repro_x_total` `{stage}` | counter | calls | ... |``.
METRIC_ROW_RE = re.compile(
    r"^\|\s*`(repro_[a-z0-9_]+)`(?: `\{([a-z_,]+)\}`)?\s*"
    r"\|\s*([a-z]+)\s*\|\s*([^|]+?)\s*\|", re.MULTILINE)


def check_metric_catalog(errors: list[str]) -> None:
    """Diff docs/observability.md's metric tables against the catalog."""
    from repro.obs import CATALOG

    doc = REPO / "docs" / "observability.md"
    if not doc.exists():  # already reported as a missing DOC_FILE
        return
    documented: dict[str, tuple] = {}
    for name, labels, kind, unit in METRIC_ROW_RE.findall(doc.read_text()):
        if name in documented:
            errors.append(f"{doc.name}: series {name!r} has two table rows")
        documented[name] = (tuple(labels.split(",")) if labels else (),
                            kind, unit)
    for name in sorted(documented.keys() - CATALOG.keys()):
        errors.append(
            f"{doc.name}: documents series {name!r} which has no row in "
            f"repro.obs.catalog")
    for name, row in CATALOG.items():
        if documented.get(name) != (tuple(row.labels), row.kind, row.unit):
            keys = f" `{{{','.join(row.labels)}}}`" if row.labels else ""
            errors.append(
                f"{doc.name}: the table row of series {name!r} is "
                f"{'stale' if name in documented else 'missing'}; the "
                f"catalog says: | `{name}`{keys} | {row.kind} | {row.unit} "
                f"| {row.help} |")


def check_flags(path: Path, text: str, errors: list[str],
                known: set[str]) -> None:
    for flag in set(FLAG_RE.findall(text)):
        if flag not in known and flag not in FLAG_ALLOWLIST:
            errors.append(
                f"{path.name}: flag {flag} is not an option of any tool "
                f"in src/repro/cli.py")


def main() -> int:
    if sys.argv[1:] == ["scenario-table"]:
        print("| Key | Type | Default | Description |\n| --- | --- | --- | --- |")
        print("\n".join(scenario_table().values()))
        return 0
    errors: list[str] = []
    known_flags = cli_flags()
    for path in DOC_FILES:
        if not path.exists():
            errors.append(f"missing documentation file: {path.name}")
            continue
        text = path.read_text()
        check_links(path, text, errors)
        check_file_paths(path, text, errors)
        check_dotted_refs(path, text, errors)
        check_flags(path, text, errors, known_flags)
    check_scenario_schema(errors)
    check_metric_catalog(errors)
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        print(f"docs OK: {len(DOC_FILES)} files checked")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
