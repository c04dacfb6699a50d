"""The pin store: every golden and digest the suite compares a run with.

Each family is one JSON object ``name -> value`` in
``tests/pins/<family>.json``, sorted, one entry per line.  This module
is the only code that loads, compares or writes a pin; tests reach it
through the ``pins`` fixture and name an entry ``family/name``.  What
only each family catches:

- ``golden``: a moved number or verdict in a smoke experiment's output.
- ``fingerprint``: a moved metric in a churn, query-path or scheme run.
- ``cli-help``: a changed flag, group, metavar or help text.
- ``cli-config``: a CLI argv handing the engine a different config.
- ``study``: a study's trial grid, rows or rendering moving at any scale.
- ``signature``: a study entry point's parameters or defaults changing.
- ``series``: a moved sample of the tree-evolution timeline under churn.

After a reviewed, intended change, re-pin by name (``family/*`` takes a
whole family)::

    PYTHONPATH=src python -m pytest --repin 'golden/adaptive_smoke,study/*'

The run rewrites exactly the named entries that differ, and only if no
test failed: a drifted pin it was not told to re-pin fails the run and
nothing is written.  A name that matches no entry is a usage error.  A
pin a test asks for that the store lacks fails and is never written:
add it by hand, then re-pin it.  The newest ``CHANGES.md`` line names
every changed or removed entry in backticks (:func:`unnamed_changes`).
"""

from __future__ import annotations

import difflib
import json
import math
import pathlib
import subprocess
from fnmatch import fnmatchcase

import pytest

PIN_DIR = pathlib.Path(__file__).parent / "pins"
REPO = PIN_DIR.parent.parent
FAMILIES = ("golden", "fingerprint", "cli-help", "cli-config", "study",
            "signature", "series")


def canonical(result) -> str:
    """Stable JSON text of an ExperimentResult's observable output."""

    def clean(value):
        if isinstance(value, float):
            if math.isnan(value):
                return "NaN"
            if math.isinf(value):
                return "Infinity" if value > 0 else "-Infinity"
            # Full precision: the golden pins bit-identical floats.
            return float.hex(value)
        if isinstance(value, dict):
            return {str(k): clean(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [clean(v) for v in value]
        return value

    record = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "rows": [clean(dict(row)) for row in result.rows],
        "shape_checks": [
            {"claim": check.claim, "passed": check.passed}
            for check in result.shape_checks
        ],
    }
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def dumps(entries: dict) -> str:
    """A family's file text: sorted, one entry per line."""
    lines = (
        f"  {json.dumps(name)}: {json.dumps(entries[name], sort_keys=True)}"
        for name in sorted(entries)
    )
    return "{\n" + ",\n".join(lines) + "\n}\n"


def load(family: str, root: pathlib.Path = PIN_DIR) -> dict:
    return json.loads((root / f"{family}.json").read_text(encoding="utf-8"))


def _shown(pinned, value) -> str:
    """How a drifted value differs: both digests, or a diff of records."""
    if isinstance(pinned, str) and isinstance(value, str):
        return f"\n  pinned: {pinned}\n  got:    {value}"
    diff = difflib.unified_diff(
        json.dumps(pinned, indent=1, sort_keys=True).splitlines(),
        json.dumps(value, indent=1, sort_keys=True).splitlines(),
        "pinned", "got", lineterm="",
    )
    return "\n" + "\n".join(list(diff)[:40])


class PinStore:
    """Every family under ``root``, and the re-pins one run collects."""

    def __init__(self, root: pathlib.Path = PIN_DIR, repin=()):
        self.root = root
        self.families = {family: load(family, root) for family in FAMILIES}
        self.repin = tuple(repin)
        #: ``{family/name: value}`` to write at the end of the run.
        self.updates: dict = {}
        every = [f"{f}/{n}" for f, entries in self.families.items()
                 for n in entries]
        for pattern in self.repin:
            if not any(fnmatchcase(name, pattern) for name in every):
                raise pytest.UsageError(f"--repin {pattern}: matches no pin")

    def names(self, family: str) -> list:
        return sorted(self.families[family])

    def _repinned(self, name: str) -> bool:
        return any(fnmatchcase(name, pattern) for pattern in self.repin)

    def check(self, values: dict, family: str = None) -> None:
        """Fail unless every ``{family/name: value}`` matches its pin.

        With ``family``, ``values`` is that whole family, so an entry
        they lack is stale.  A drifted entry ``--repin`` names is
        collected for writing instead of failing.
        """
        failures = []
        for name, value in values.items():
            prefix, _, entry = name.partition("/")
            pinned = self.families[prefix]
            if entry not in pinned:
                failures.append(
                    f"{name}: no such pin; add it to tests/pins/"
                    f"{prefix}.json by hand, then --repin it"
                )
            elif pinned[entry] != value:
                if self._repinned(name):
                    self.updates[name] = value
                else:
                    failures.append(
                        f"{name}: drifted from its pin"
                        + _shown(pinned[entry], value)
                    )
        if family is not None:
            failures += [
                f"{family}/{entry}: stale, no run computes it"
                for entry in self.names(family)
                if f"{family}/{entry}" not in values
            ]
        if failures:
            pytest.fail(
                "\n".join(failures) + "\nif the change is intended, "
                "--repin FAMILY/NAME (delete a stale pin by hand) and name "
                "each in CHANGES.md",
                pytrace=False,
            )

    def write(self) -> None:
        """Write the collected re-pins into their family files."""
        for name, value in self.updates.items():
            family, _, entry = name.partition("/")
            self.families[family][entry] = value
        for family in {name.partition("/")[0] for name in self.updates}:
            (self.root / f"{family}.json").write_text(
                dumps(self.families[family]), encoding="utf-8"
            )


def unnamed_changes(repo: pathlib.Path = REPO):
    """Pins changed or removed since ``git HEAD`` that the newest
    ``CHANGES.md`` line does not name as `` `family/name` `` or
    `` `family/*` ``; ``None`` outside a git checkout of ``repo``."""

    def git(*argv):
        return subprocess.run(
            ["git", "-C", str(repo), *argv], capture_output=True, text=True
        )

    try:
        top = git("rev-parse", "--show-toplevel")
    except OSError:
        return None
    if top.returncode or pathlib.Path(top.stdout.strip()) != repo.resolve():
        return None
    changes = (repo / "CHANGES.md").read_text(encoding="utf-8")
    newest = changes.rstrip().rpartition("\n")[2]
    root = repo / "tests" / "pins"
    unnamed = []
    for family in FAMILIES:
        shown = git("show", f"HEAD:tests/pins/{family}.json")
        head = json.loads(shown.stdout) if shown.returncode == 0 else {}
        now = load(family, root) if (root / f"{family}.json").exists() else {}
        for entry, value in head.items():
            moved = entry not in now or now[entry] != value
            if moved and f"`{family}/{entry}`" not in newest and (
                f"`{family}/*`" not in newest
            ):
                unnamed.append(f"{family}/{entry}")
    return unnamed


# -- pytest wiring (a plugin of tests/conftest.py) ----------------------------

_STORE = pytest.StashKey[PinStore]()


def pytest_addoption(parser):
    parser.addoption(
        "--repin",
        default="",
        metavar="FAMILY/NAME[,...]",
        help="rewrite the named pins (FAMILY/* for a whole family) from "
        "this run; nothing is written if any test fails",
    )


def pytest_configure(config):
    patterns = [
        pattern.strip()
        for pattern in config.getoption("--repin").split(",")
        if pattern.strip()
    ]
    config.stash[_STORE] = PinStore(repin=patterns)


def pytest_sessionfinish(session):
    store = session.config.stash[_STORE]
    if not store.updates:
        return
    if session.testsfailed:
        verdict = "re-pin refused, nothing written (a test failed)"
    else:
        store.write()
        verdict = "re-pinned"
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.ensure_newline()
        reporter.write_line(f"{verdict}: {', '.join(sorted(store.updates))}")


@pytest.fixture(scope="session")
def pins(pytestconfig) -> PinStore:
    """The suite's one :class:`PinStore`."""
    return pytestconfig.stash[_STORE]
