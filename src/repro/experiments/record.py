"""What ``repro-dup run EXPERIMENT --record DIR`` writes.

Per result: ``DIR/<id>.txt``, its render, and ``DIR/BENCH_<id>.json``,
its rows (NaN and infinities as null) beside the run's wall seconds,
peak RSS, worker count, Python version and commit.  A ``history`` list
already in the JSON file (docs/performance.md's hand-curated baselines)
is kept.  ``make record`` writes ``benchmarks/results/``, and
``scripts/render_experiments.py`` renders EXPERIMENTS.md from it.
"""

from __future__ import annotations

import json
import math
import pathlib
import platform
import subprocess

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None


def peak_rss_mb():
    """Peak resident set size of this process in MiB (None if unknown)."""
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Kilobytes on Linux, bytes on macOS.
    if platform.system() == "Darwin":  # pragma: no cover
        return round(peak / (1024 * 1024), 1)
    return round(peak / 1024, 1)


def git_sha():
    """Short commit hash of the checkout, or None outside one."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def load_history(path):
    """The ``history`` entries of a previous record at ``path``, if any."""
    try:
        previous = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    history = previous.get("history", [])
    return history if isinstance(history, list) else []


def _clean(value):
    """JSON-safe copy of a row value (NaN/inf have no JSON encoding)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_records(results, directory, wall_seconds, workers) -> None:
    """Write ``<id>.txt`` and ``BENCH_<id>.json`` for each result."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for result in results:
        name = result.experiment_id
        (directory / f"{name}.txt").write_text(
            result.render() + "\n", encoding="utf-8"
        )
        path = directory / f"BENCH_{name}.json"
        record = {
            "experiment_id": name,
            "wall_seconds": round(wall_seconds, 3),
            "peak_rss_mb": peak_rss_mb(),
            "workers": workers,
            "python_version": platform.python_version(),
            "git_sha": git_sha(),
            "all_shapes_hold": result.all_shapes_hold,
            "rows": [{key: _clean(value) for key, value in row.items()}
                     for row in result.rows],
        }
        history = load_history(path)
        if history:
            record["history"] = history
        path.write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
