#!/usr/bin/env python3
"""Census of ``src/repro``: who reaches each module.

``python scripts/census.py``          print the table
``python scripts/census.py --write``  rewrite it in docs/architecture.md
                                      (``make census``)
``python scripts/census.py --check``  exit 1 when the committed table is
                                      stale or a verdict is missing (a
                                      CI step)

One row per module under ``src/repro``: its line count, how many files
of each area (``src``, ``tests``, ``examples``, ``scripts``,
``benchmarks``) import it, and whether ``import repro`` plus the ledger
child's untimed warm-up loads it.

Importers are read with :mod:`ast`.  ``import a.b`` names ``a.b``;
``from a import b`` names ``a.b`` when that is a module, and otherwise
follows the package's re-export of ``b`` to the module that defines it.
Imports inside functions count; a module does not import itself.

The warm-up column is measured, not parsed.  A child process imports
``repro`` and ``repro.fastpath`` and runs ``_warm_up()`` from
``benchmarks/ledger/child.py``, as a ledger child does before its timed
region, then lists ``sys.modules``.  Deleting code from a loaded module
changes how many objects exist when the warm-up ends, and that can move
the generation-1 pass that frees the warm-up's garbage into the timed
constructor (``make gc-phase``).  Deleting an unloaded module cannot.

``--check`` also reads the document's "## Verdicts" section.  A module
that no ``src`` module imports, except its own package's ``__init__``
re-exporting it, must be named (dotted, in backticks) by one of that
section's bullets.  Packages and the ``repro.cli`` entry point are
exempt.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
AREAS = ("src", "tests", "examples", "scripts", "benchmarks")
DOC = ROOT / "docs" / "architecture.md"
BEGIN, END = "<!-- census:begin -->", "<!-- census:end -->"
#: Reached through ``[project.scripts]``, not by an import.
ENTRY_POINT = "repro.cli"

_WARM_UP = """
import sys
import child
import repro
from repro import fastpath
child._warm_up()
print("\\n".join(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""


def modules() -> dict[str, pathlib.Path]:
    """``{dotted name: path}`` of every module under ``src/repro``."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def _imports(tree: ast.AST):
    """``(module, name or None)`` for each absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                yield node.module, alias.name


def _exports(path) -> dict[str, str]:
    """``{name: module}`` for each name a package imports from elsewhere."""
    return {
        alias.asname or alias.name: node.module
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        for alias in node.names
    }


def imported_modules(path, known, exports) -> set[str]:
    """The ``src/repro`` modules the file at ``path`` imports."""
    found = set()
    for module, name in _imports(ast.parse(path.read_text())):
        if name is not None and f"{module}.{name}" in known:
            module = f"{module}.{name}"
        # Follow re-exports down to the module that defines ``name``.
        while exports.get(module, {}).get(name, module) != module:
            module = exports[module][name]
        if module in known:
            found.add(module)
    return found


def importers(known) -> dict[str, dict[str, list[pathlib.Path]]]:
    """``{module: {area: files importing it}}`` for every known module."""
    exports = {
        name: _exports(path)
        for name, path in known.items()
        if path.name == "__init__.py"
    }
    found = {name: {area: [] for area in AREAS} for name in known}
    by_path = {path: name for name, path in known.items()}
    for area in AREAS:
        base = SRC / "repro" if area == "src" else ROOT / area
        for path in sorted(base.rglob("*.py")):
            for module in imported_modules(path, known, exports):
                if by_path.get(path) != module:
                    found[module][area].append(path)
    return found


def census() -> list[tuple]:
    """``(module, lines, {area: importers}, warm)`` rows, sorted."""
    known = modules()
    counts = {
        name: {area: len(paths) for area, paths in areas.items()}
        for name, areas in importers(known).items()
    }
    warm = set(_warm_modules())
    return [
        (
            name,
            len(path.read_text().splitlines()),
            counts[name],
            name in warm,
        )
        for name, path in known.items()
    ]


def _judged(doc: str) -> set[str]:
    """The dotted names the "## Verdicts" bullets of ``doc`` mention."""
    section = doc.partition("\n## Verdicts\n")[2].split("\n## ", 1)[0]
    bullets, inside = [], False
    for line in section.splitlines():
        inside = line.startswith("- ") or (inside and line.startswith("  "))
        if inside:
            bullets.append(line)
    return set(re.findall(r"`(repro(?:\.\w+)*)`", "\n".join(bullets)))


def unjudged(doc: str) -> list[str]:
    """Modules no other ``src`` module reaches that ``doc`` gives no verdict."""
    known = modules()
    by_path = {path: name for name, path in known.items()}
    judged = _judged(doc)
    missing = []
    for name, areas in importers(known).items():
        if known[name].name == "__init__.py" or name == ENTRY_POINT:
            continue
        package = name.rpartition(".")[0]
        users = {by_path[path] for path in areas["src"]} - {package}
        if not users and name not in judged:
            missing.append(name)
    return missing


def _warm_modules() -> list[str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "benchmarks" / "ledger"), str(SRC)]
    )
    out = subprocess.run(
        [sys.executable, "-c", _WARM_UP],
        env=env,
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return out.split()


def render(rows) -> str:
    """The markdown table plus a one-line summary."""
    lines = [
        "| module | lines | " + " | ".join(AREAS) + " | warm-up |",
        "|---|--:|" + "--:|" * len(AREAS) + ":-:|",
    ]
    for name, count, areas, warm in rows:
        cells = " | ".join(str(areas[area]) for area in AREAS)
        lines.append(
            f"| `{name}` | {count} | {cells} | {'yes' if warm else ''} |"
        )
    total = sum(row[1] for row in rows)
    loaded = sum(1 for row in rows if row[3])
    lines.append("")
    lines.append(
        f"{len(rows)} modules, {total} lines; {loaded} loaded by "
        "`import repro` plus the ledger warm-up."
    )
    return "\n".join(lines)


def _spliced(doc: str, table: str) -> str:
    head, rest = doc.split(BEGIN, 1)
    _old, tail = rest.split(END, 1)
    return f"{head}{BEGIN}\n{table}\n{END}{tail}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    table = render(census())
    if not (args.write or args.check):
        print(table)
        return 0
    doc = DOC.read_text()
    fresh = _spliced(doc, table)
    if args.write:
        DOC.write_text(fresh)
        return 0
    failed = False
    if fresh != doc:
        print(
            f"{DOC.relative_to(ROOT)} is stale: run `make census`",
            file=sys.stderr,
        )
        failed = True
    for name in unjudged(doc):
        print(
            f"{DOC.relative_to(ROOT)}: `{name}` has no `src` importer "
            "besides its package's re-export, and no bullet under "
            "\"## Verdicts\" names it",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
