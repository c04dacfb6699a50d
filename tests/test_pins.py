"""The pin store itself: its files, its re-pin command and its rules."""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys

import pytest

from tests.pins import (
    FAMILIES,
    PIN_DIR,
    PinStore,
    dumps,
    load,
    unnamed_changes,
)

TESTS = PIN_DIR.parent
HEX = re.compile(r"[0-9a-fA-F]{16,}")


def test_every_family_is_one_sorted_file():
    assert sorted(path.name for path in PIN_DIR.iterdir()) == sorted(
        f"{family}.json" for family in FAMILIES
    )
    for family in FAMILIES:
        text = (PIN_DIR / f"{family}.json").read_text(encoding="utf-8")
        assert text == dumps(load(family)), family


def test_no_inline_pins():
    inline = [
        f"{path.relative_to(TESTS)}:{node.lineno}"
        for path in sorted(TESTS.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, (str, bytes))
        and HEX.search(str(node.value))
    ]
    assert inline == [], "pins live in tests/pins/, not in test code"


def test_changed_pins_are_named_in_changes():
    unnamed = unnamed_changes()
    if unnamed is None:
        pytest.skip("not a git checkout")
    assert unnamed == [], (
        "the newest CHANGES.md line must name each changed or removed "
        "pin in backticks"
    )


def write_families(root, **families) -> None:
    """Every family under ``root``: ``{"a": "x"}`` unless given."""
    (root / "pins").mkdir(parents=True, exist_ok=True)
    for family in FAMILIES:
        entries = families.get(family.replace("-", "_"), {"a": "x"})
        (root / "pins" / f"{family}.json").write_text(dumps(entries))


class TestStore:
    def test_drift_names_the_entry(self, tmp_path):
        write_families(tmp_path, study={"a": "x", "b": "y"})
        store = PinStore(tmp_path / "pins")
        store.check({"study/a": "x"})
        with pytest.raises(pytest.fail.Exception, match="study/b: drifted"):
            store.check({"study/a": "x", "study/b": "z"})

    def test_missing_and_stale_entries_fail(self, tmp_path):
        write_families(tmp_path, series={"a": "x", "old": "y"})
        store = PinStore(tmp_path / "pins", repin=["series/a"])
        with pytest.raises(pytest.fail.Exception, match="series/new: no su"):
            store.check({"series/new": "z"})
        with pytest.raises(pytest.fail.Exception, match="series/old: stale"):
            store.check({"series/a": "x"}, family="series")

    def test_repin_rewrites_only_the_named_entry(self, tmp_path):
        write_families(tmp_path, golden={"a": {"k": 1}, "b": {"k": 2}})
        before = (tmp_path / "pins" / "golden.json").read_text()
        store = PinStore(tmp_path / "pins", repin=["golden/b"])
        store.check({"golden/a": {"k": 1}, "golden/b": {"k": 2}})
        store.write()
        assert (tmp_path / "pins" / "golden.json").read_text() == before
        store.check({"golden/b": {"k": 3}})
        store.write()
        assert load("golden", tmp_path / "pins") == {
            "a": {"k": 1}, "b": {"k": 3}
        }

    def test_a_name_matching_no_pin_is_a_usage_error(self, tmp_path):
        write_families(tmp_path)
        with pytest.raises(pytest.UsageError, match="golden/nope"):
            PinStore(tmp_path / "pins", repin=["golden/*", "golden/nope"])


def test_a_run_with_an_unnamed_drift_writes_nothing(tmp_path):
    """``--repin`` end to end: one drift named, one not; the run fails
    and no file changes."""
    tests = tmp_path / "tests"
    write_families(tests, golden={"a": "x", "b": "y"})
    shutil.copy(PIN_DIR.parent / "pins.py", tests)
    (tests / "__init__.py").write_text("")
    (tests / "conftest.py").write_text('pytest_plugins = ["tests.pins"]\n')
    (tests / "test_drift.py").write_text(
        "def test_a(pins):\n    pins.check({'golden/a': 'x2'})\n\n"
        "def test_b(pins):\n    pins.check({'golden/b': 'y2'})\n"
    )
    before = (tests / "pins" / "golden.json").read_text()

    def repin(names):
        # The store needs no installed plugin; skipping them saves ~1 s.
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "tests", "--repin", names],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"},
        )

    run = repin("golden/a")
    assert run.returncode == 1, run.stdout
    assert "golden/b: drifted" in run.stdout
    assert (tests / "pins" / "golden.json").read_text() == before
    assert repin("golden/*").returncode == 0
    assert load("golden", tests / "pins") == {"a": "x2", "b": "y2"}


def test_changes_must_name_each_changed_pin(tmp_path):
    if shutil.which("git") is None:
        pytest.skip("git is not installed")

    def git(*argv):
        subprocess.run(
            ["git", "-c", "user.name=pins", "-c", "user.email=pins@invalid",
             "-c", "commit.gpgsign=false", *argv],
            cwd=tmp_path, check=True, capture_output=True,
        )

    write_families(tmp_path / "tests", cli_config={"a": "x", "b": "y"})
    (tmp_path / "CHANGES.md").write_text("- an older change\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "pins")
    assert unnamed_changes(tmp_path) == []
    write_families(tmp_path / "tests", cli_config={"a": "z"},
                   study={"a": "x", "c": "w"})
    assert unnamed_changes(tmp_path) == ["cli-config/a", "cli-config/b"]
    with open(tmp_path / "CHANGES.md", "a") as changes:
        changes.write("- re-pinned `cli-config/a`\n")
    assert unnamed_changes(tmp_path) == ["cli-config/b"]
    with open(tmp_path / "CHANGES.md", "a") as changes:
        changes.write("- re-pinned `cli-config/*`\n")
    assert unnamed_changes(tmp_path) == []
