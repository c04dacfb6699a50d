"""Tests of ``scripts/census.py --check``'s verdict rule.

Only the import-reading half runs here: the ledger warm-up that fills
the table's warm-up column is never started.
"""

from __future__ import annotations

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "census.py"
spec = importlib.util.spec_from_file_location("census", SCRIPT)
census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(census)


def _without_bullet(doc: str, naming: str) -> str:
    """``doc`` minus the verdict bullet that mentions ``naming``."""
    lines = doc.splitlines(keepends=True)
    start = next(index for index, line in enumerate(lines) if naming in line)
    while not lines[start].startswith("- "):
        start -= 1
    end = start + 1
    while lines[end].startswith("  "):
        end += 1
    return "".join(lines[:start] + lines[end:])


def test_missing_verdict_names_the_module():
    doc = census.DOC.read_text()
    assert census.unjudged(doc) == []
    pruned = _without_bullet(doc, "`repro.index.keepalive`")
    assert pruned != doc
    assert census.unjudged(pruned) == ["repro.index.keepalive"]
