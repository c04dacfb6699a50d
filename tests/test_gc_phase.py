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


def test_report_shape():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "churn-repair", "--scale", "0.0125"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    lines = done.stdout.splitlines()
    assert lines[0] == "workload churn-repair, seed 1, scale 0.0125"
    assert re.fullmatch(
        r"gc\.get_count\(\) after the warm-up: \(\d+, \d+, \d+\)", lines[1]
    )
    assert re.fullmatch(r"gc\.get_threshold\(\): \(\d+, \d+, \d+\)", lines[2])
    header = re.fullmatch(r"collections through the constructor: (\d+)", lines[3])
    assert header is not None
    rows = lines[4:]
    assert len(rows) == int(header.group(1))
    for row in rows:
        assert re.fullmatch(
            r"  (build_config|calib\.measure|constructor) +"
            r"generation [012]  collected \d+",
            row,
        ), row
