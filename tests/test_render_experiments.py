"""Tests of ``scripts/render_experiments.py --check``."""

from __future__ import annotations

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
spec = importlib.util.spec_from_file_location(
    "render_experiments", SCRIPTS / "render_experiments.py"
)
render_experiments = importlib.util.module_from_spec(spec)
spec.loader.exec_module(render_experiments)


def test_check_names_a_hand_edited_block(tmp_path, monkeypatch, capsys):
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text(render_experiments.DOC.read_text(encoding="utf-8"))
    monkeypatch.setattr(render_experiments, "DOC", doc)
    assert render_experiments.main(["--check"]) == 0
    assert capsys.readouterr().out == ""

    text = doc.read_text()
    first = render_experiments.BLOCK.search(text)
    doc.write_text(text[:first.end(1)] + "hand-edited\n" + text[first.end(1):])
    assert render_experiments.main(["--check"]) == 1
    assert f"block {first[2]!r} is stale" in capsys.readouterr().out
    assert render_experiments.main([]) == 0
    assert doc.read_text() == text
