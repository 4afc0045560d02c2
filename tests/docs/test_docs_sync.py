"""Keep docs/*.md and the code from drifting apart.

Five sync contracts:

1. every dotted ``repro.*`` reference in the docs resolves to a real
   module (or an attribute of one);
2. every ``repro`` command in the command table that takes flags has
   an OPERATIONS.md section whose flags are exactly the flags its
   argparser accepts, and whose flag table's ``default`` column is
   exactly the parser's defaults;
3. the ``/metrics`` tables in OPERATIONS.md and the declarations in
   :mod:`repro.metrics` name the same metrics, both directions, and
   every key the live ``/metrics`` payloads carry is documented (and
   every flag-like token in the docs exists);
4. the algorithm table in ARCHITECTURE.md and the declarations in
   :mod:`repro.engine.algorithms` name the same algorithms, aliases,
   and capabilities, both directions;
5. every ``*.md`` file named in the code, the tests or the benchmarks
   exists.
"""

import importlib
import re
from pathlib import Path

import pytest

from repro import metrics
from repro.__main__ import _COMMANDS
from repro.dispatch.metrics import DispatchMetrics
from repro.engine.algorithms import ALGORITHMS
from repro.engine.cache import ResultCache
from repro.serve.server import ScheduleServer

ROOT = Path(__file__).resolve().parents[2]
DOCS = ROOT / "docs"
DOC_FILES = sorted(DOCS.glob("*.md"))

REFERENCE = re.compile(r"\brepro(?:\.\w+)+")
# Lookarounds keep ASCII-diagram runs of dashes from matching.
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9]+(?:-[a-z0-9]+)*(?![\w-])")
# A file name ending in ".md" (a glob like "docs/*.md" names none).
MARKDOWN = re.compile(r"[\w./-]*\w\.md\b")


def doc_text(name: str) -> str:
    path = DOCS / name
    assert path.exists(), f"{name} is missing from docs/"
    return path.read_text(encoding="utf-8")


def test_docs_exist():
    for name in ("ARCHITECTURE.md", "OPERATIONS.md"):
        assert (DOCS / name).exists(), f"docs/{name} is required"


@pytest.mark.parametrize(
    "path", DOC_FILES, ids=lambda p: p.name
)
def test_module_references_resolve(path):
    """Every ``repro.x.y`` mentioned in the docs must exist."""
    text = path.read_text(encoding="utf-8")
    for reference in sorted(set(REFERENCE.findall(text))):
        parts = reference.split(".")
        # Import the longest importable prefix, then getattr the rest
        # (references may name classes/functions inside a module).
        module = None
        for end in range(len(parts), 0, -1):
            try:
                module = importlib.import_module(".".join(parts[:end]))
                break
            except ImportError:
                continue
        assert module is not None, (
            f"{path.name} references {reference!r}: no importable "
            "module prefix"
        )
        obj = module
        for attribute in parts[end:]:
            assert hasattr(obj, attribute), (
                f"{path.name} references {reference!r}, but "
                f"{obj.__name__!r} has no attribute {attribute!r}"
            )
            obj = getattr(obj, attribute)


def section_of(text: str, heading: str) -> str:
    """The body between ``## heading`` and the next ``## `` heading."""
    marker = f"## {heading}"
    assert marker in text, f"the doc lost its {marker!r} section"
    body = text.split(marker, 1)[1]
    follow = re.search(r"\n## [^#]", body)
    return body[: follow.start()] if follow else body


def flag_table_defaults(section: str) -> dict:
    """``{flag: default cell}`` per row of a section's flag table."""
    rows = {}
    for line in section.splitlines():
        match = re.match(r"\| `(--[a-z0-9-]+)` \| ([^|]*) \|", line)
        if match:
            rows[match.group(1)] = match.group(2).strip()
    return rows


def default_cell(default) -> str:
    """How OPERATIONS.md writes a parser default: ``—`` when unset."""
    if default is None or default is False:
        return "—"
    return f"`{default}`"


def parser_defaults(parser) -> dict:
    """``{flag: default cell}`` per long option the parser accepts."""
    return {
        option: default_cell(action.default)
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_operations_flags_match_parser(command, parser_of):
    """Documented flags == accepted flags, both directions, for every
    command that takes flags."""
    parsed = parser_defaults(parser_of(command))
    heading = f"repro {command}"
    operations = doc_text("OPERATIONS.md")
    if not parsed and f"## {heading}" not in operations:
        return  # a command without flags needs no flag table
    section = section_of(operations, heading)
    documented = set(FLAG.findall(section))
    accepted = set(parsed)
    missing = accepted - documented
    assert not missing, (
        f"`{heading}` flags not documented in OPERATIONS.md: "
        f"{sorted(missing)}"
    )
    phantom = documented - accepted
    assert not phantom, (
        f"OPERATIONS.md documents `{heading}` flags the parser does "
        f"not accept: {sorted(phantom)}"
    )
    assert flag_table_defaults(section) == parsed, (
        f"the `{heading}` flag table's default column disagrees with "
        "the parser"
    )


def test_every_doc_flag_is_accepted_somewhere(parser_of):
    """No doc file may mention a flag no repro command accepts."""
    accepted = set()
    for command in _COMMANDS:
        accepted.update(parser_defaults(parser_of(command)))
    for path in DOC_FILES:
        for flag in set(FLAG.findall(path.read_text(encoding="utf-8"))):
            assert flag in accepted, (
                f"{path.name} mentions {flag}, which no repro command "
                "accepts"
            )


def metrics_table_rows(text: str) -> list:
    """``(names, meaning)`` per row of every ``/metrics counters`` table."""
    rows = []
    for section in text.split("\n### ")[1:]:
        if not section.startswith("/metrics counters"):
            continue
        body = section.split("\n## ", 1)[0]
        for line in body.splitlines():
            if line.startswith("| `"):
                first, meaning = line.split("|")[1:3]
                rows.append((re.findall(r"`(\w+)`", first), meaning.strip()))
    return rows


def test_metrics_tables_match_declarations():
    """Every declared metric has a row, every row names declared
    metrics, and a row says "gauge:" exactly when its metrics are
    declared gauges."""
    declared = {}
    for group in metrics.GROUPS:
        declared.update(group)
    operations = doc_text("OPERATIONS.md")
    rows = metrics_table_rows(operations)
    documented = {name for names, _ in rows for name in names}
    missing = set(declared) - documented
    assert not missing, (
        f"declared metrics without an OPERATIONS.md row: {sorted(missing)}"
    )
    phantom = documented - set(declared)
    assert not phantom, (
        "OPERATIONS.md /metrics rows name undeclared metrics: "
        f"{sorted(phantom)}"
    )
    for names, meaning in rows:
        gauge = meaning.startswith("gauge:")
        for name in names:
            assert gauge == (declared[name] == metrics.GAUGE), (
                f"{name!r} is declared a {declared[name]}, but its "
                "OPERATIONS.md row says otherwise"
            )
    for name in ResultCache().stats():
        assert f"`{name}`" in operations, (
            f"engine_cache key {name!r} is undocumented in OPERATIONS.md"
        )


def test_live_metrics_keys_are_documented():
    """A key an owner puts in its snapshot outside the declarations (a
    nested section such as ``algorithms`` or ``per_replica``) still
    needs OPERATIONS.md to name it."""
    operations = doc_text("OPERATIONS.md")
    server = ScheduleServer(
        engine=None,
        peers=["127.0.0.1:9001"],
        publish="off",
    )
    try:
        replica = server.metrics_payload()
    finally:
        server.engine.shutdown()
        server.engine.cache.close(timeout=1.0)
    declared = {name for group in metrics.GROUPS for name in group}
    for payload, owner in (
        (replica, "replica"),
        (DispatchMetrics().snapshot(), "router"),
    ):
        for key in payload:
            assert key in declared or f"`{key}`" in operations, (
                f"{owner} /metrics key {key!r} is neither declared in "
                "repro.metrics nor documented in OPERATIONS.md"
            )


def test_algorithm_table_matches_declarations():
    """ARCHITECTURE.md has one row per declared algorithm, in
    declaration order, naming exactly its aliases and capabilities."""
    section = section_of(doc_text("ARCHITECTURE.md"), "Scheduling algorithms")
    documented = [
        line for line in section.splitlines() if line.startswith("| `")
    ]
    declared = [
        f"| `{algorithm_id}` | "
        + ", ".join(f"`{alias}`" for alias in algorithm.aliases)
        + "".join(
            " | yes" if flag else " | no"
            for flag in (
                algorithm.windows,
                algorithm.budget,
                algorithm.banked_mem,
            )
        )
        + " |"
        for algorithm_id, algorithm in ALGORITHMS.items()
    ]
    assert documented == declared


def test_markdown_references_resolve():
    """A ``*.md`` named under src/, tests/ or benchmarks/ exists at the
    repository root, under docs/, or beside the file that names it."""
    dangling = []
    for folder in ("src", "tests", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for name in sorted(set(MARKDOWN.findall(text))):
                bases = (ROOT, DOCS, path.parent)
                if not any((base / name).is_file() for base in bases):
                    dangling.append(f"{path.relative_to(ROOT)}: {name}")
    assert not dangling, f"dangling markdown references: {dangling}"
