"""Smoke test of ``scripts/gc_phase.py``: the shape of its report only.

Where the collector runs depends on the host's allocation history, so
nothing here asserts a count, a generation or a time.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "gc_phase.py"

PHASE = (
    r"generation 1: \d+ passes, \d+\.\d ms, \d+ collected; "
    r"generation 2: \d+ passes, \d+\.\d ms, \d+ collected"
)


def report(workload: str) -> list[str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    done = subprocess.run(
        [sys.executable, str(SCRIPT), workload, "--scale", "0.0125"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return done.stdout.splitlines()


def check_report(workload: str, stages: str, timed: list[str]) -> None:
    """``stages`` is the regex of the stage names a listed pass may
    carry; ``timed`` the stages of the per-stage summary, in order."""
    lines = report(workload)
    assert lines[0] == f"workload {workload}, seed 1, scale 0.0125"
    assert re.fullmatch(
        r"gc\.get_count\(\) after the warm-up: \(\d+, \d+, \d+\)", lines[1]
    )
    assert re.fullmatch(r"gc\.get_threshold\(\): \(\d+, \d+, \d+\)", lines[2])
    header = re.fullmatch(
        r"collections through the (constructor|merge): (\d+) "
        r"\(generation 0: (\d+)\)",
        lines[3],
    )
    assert header is not None
    listed = int(header.group(2)) - int(header.group(3))
    rows = lines[4 : 4 + listed]
    for row in rows:
        assert re.fullmatch(
            rf"  ({stages}) +generation [12]  collected \d+  \d+\.\d ms", row
        ), row
    assert lines[4 + listed] == "timed stages:"
    phases = lines[5 + listed :]
    assert [line.split()[0] for line in phases] == timed
    for line in phases:
        assert re.fullmatch(rf"  \S+ +{PHASE}", line), line


def test_report_shape():
    check_report(
        "churn-repair",
        r"build_config|calib\.measure|constructor",
        ["constructor"],
    )


def test_scale_multikey_reports_every_shard():
    check_report(
        "scale-multikey",
        r"build_config|calib\.measure|ctor[0-7]|run[0-7]|between|merge",
        [f"{kind}{index}" for index in range(8) for kind in ("ctor", "run")]
        + ["merge"],
    )
