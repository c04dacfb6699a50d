#!/usr/bin/env python3
"""Alternating-pair A/B of one ledger workload: a base revision against
the working tree.

``python3 scripts/ledger_ab.py --base REV --workload NAME [--pairs 10]
[--trace]`` (``make ledger-ab BASE=REV WORKLOAD=NAME [PAIRS=10]
[TRACE=1]``)

Host timings on a shared machine drift by tens of percent for minutes
at a time and some metrics are bimodal, so two single runs say nothing.
This is the procedure a performance claim is judged by instead:

- ``REV`` and the working tree (uncommitted edits and untracked files
  included, ignored files not) are exported side by side into one
  temporary directory, under names of equal length (removed on exit; the
  repository itself is only read), so each side runs the
  ``BENCHMARK.json`` contract command on its own benchmark code and
  ``src/`` from a fresh checkout whose path differs from the other's in
  one name only;
- pair ``i`` runs both sides with seed ``i``, one child at a time, and
  the side that goes first flips every pair;
- per end-to-end metric it prints both medians with their quartiles,
  the ratio change/base, how many pairs the change won, and a verdict
  against the metric's ``BENCHMARK.json`` bound:

  ``ok``          the change's median is no worse than the base's by
                  more than the bound;
  ``worse``       it is worse by more than the bound;
  ``unresolved``  within the bound, but either side's quartile spread
                  is wider than the bound, so "unchanged" is not shown
                  (unless every change run beats every base run).

  ``gain`` is ``yes`` only when at least ten pairs ran, the change won
  at least nine tenths of them (ties count for neither) and the medians
  differ by more than the distance between the base's own quartiles.

With ``--trace`` the same pairs run the contract command's traced mode
(``--trace 1``) instead: per ``per_layer`` metric it prints both medians
with their quartiles and the ratio, no verdict, and ends with one line
naming the ``count`` metrics whose value differs between base and change
at the same seed in any pair — the exact counts a change's ``CHANGES.md``
line has to account for.

Exits non-zero on a ``worse`` row or when the change fails a larger
share of its operations than the base.  Imports nothing from ``repro``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

# The ledger's own judge (ok / regressed / unresolved against a bound).
sys.path.append(str(ROOT / "benchmarks" / "ledger"))
import compare  # noqa: E402

#: Fewer pairs than this never show a gain, however one-sided they are.
GAIN_PAIRS = 10


def export(rev: str, target: pathlib.Path, repo: pathlib.Path = ROOT) -> None:
    """Unpack the committed files of ``rev`` into ``target``."""
    archive = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(target, filter="data")
        else:  # pragma: no cover - interpreters before the filter API
            tar.extractall(target)


def export_worktree(target: pathlib.Path, repo: pathlib.Path = ROOT) -> None:
    """Copy the working tree's tracked and untracked files, as they are
    now and minus what git ignores, into ``target``."""
    listed = subprocess.run(
        ["git", "-C", str(repo), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        check=True,
        capture_output=True,
    ).stdout
    for name in sorted({os.fsdecode(n) for n in listed.split(b"\0") if n}):
        source = repo / name
        if not source.exists():
            continue  # deleted, not yet committed
        destination = target / name
        destination.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, destination)


def checkouts(
    parent: pathlib.Path, rev: str, repo: pathlib.Path = ROOT
) -> tuple[pathlib.Path, pathlib.Path]:
    """Export ``rev`` and the working tree as siblings under ``parent``,
    named so that both paths have the same length; ``(base, change)``."""
    base, change = parent / "base", parent / "work"
    export(rev, base, repo)
    export_worktree(change, repo)
    return base, change


def contract(command: list[str], checkout: pathlib.Path) -> dict:
    """Run the contract command in ``checkout``; its JSON summary line."""
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(command)} failed in {checkout} "
            f"(exit {done.returncode}):\n{done.stderr.strip()}"
        )
    return json.loads(lines[-1])


def progress(text: str) -> None:
    """Progress goes to stderr; stdout carries only the report."""
    print(text, file=sys.stderr, flush=True)


def run_pairs(
    command: list[str],
    base: pathlib.Path,
    change: pathlib.Path,
    pairs: int,
    report=progress,
) -> dict[str, list[dict]]:
    """``{"base": [...], "change": [...]}``: one summary per pair a side."""
    sides = {"base": base, "change": change}
    summaries: dict[str, list[dict]] = {"base": [], "change": []}
    for seed in range(1, pairs + 1):
        order = ("base", "change") if seed % 2 else ("change", "base")
        for side in order:
            summaries[side].append(
                contract([*command, "--seed", str(seed)], sides[side])
            )
        report(f"pair {seed}/{pairs} done ({order[0]} first)")
    return summaries


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(first quartile, median, third quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def judge(
    base: list[float], change: list[float], better: str, bound: float
) -> dict:
    """Medians, quartiles, wins and the verdicts for one metric.

    ``base[i]`` and ``change[i]`` are the two readings of pair ``i``.
    The verdict is ``compare.py``'s rule, so both tools agree.
    """
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a, a_q3 = quartiles(base)
    b_q1, b, b_q3 = quartiles(change)
    wins = sum(sign * (y - x) < 0 for x, y in zip(base, change))
    verdict = compare.judge(
        {"value": a, "values": base},
        {"value": b, "values": change},
        better,
        bound,
    )
    gain = (
        len(base) >= GAIN_PAIRS
        and wins >= 0.9 * len(base)
        and sign * (a - b) > a_q3 - a_q1
    )
    return {
        "base": (a_q1, a, a_q3),
        "change": (b_q1, b, b_q3),
        "ratio": b / a if a else float("nan"),
        "wins": wins,
        "ties": sum(x == y for x, y in zip(base, change)),
        "pairs": len(base),
        "verdict": "worse" if verdict == "regressed" else verdict,
        "gain": gain,
    }


def failed_share(summaries: list[dict]) -> float:
    """Failed operations as a share of the attempted ones."""
    attempted = sum(s["attempted"] for s in summaries)
    return sum(s["failed"] for s in summaries) / attempted


def cell(q: tuple[float, float, float]) -> str:
    """``median [q1, q3]``."""
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def readings(summaries: list[dict], name: str) -> list[float]:
    """One side's value of metric ``name``, one per pair."""
    return [s["metrics"][name]["value"] for s in summaries]


def finish(
    rows: list[tuple], summaries: dict[str, list[dict]], *trailer: str
) -> tuple[str, bool]:
    """The aligned table, the failed-operation line and the ``trailer``
    lines; and whether the change failed no larger a share than the base."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(text.ljust(width) for text, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    shares = {side: failed_share(runs) for side, runs in summaries.items()}
    lines.append(
        f"failed operations: base {shares['base']:.3f}, "
        f"change {shares['change']:.3f} of attempted"
    )
    lines.extend(trailer)
    return "\n".join(lines), shares["change"] <= shares["base"]


def render(spec: dict, summaries: dict[str, list[dict]]) -> tuple[str, bool]:
    """The report table and whether every row passed."""
    rows = [
        (
            "metric",
            "unit",
            "base median [q1, q3]",
            "change median [q1, q3]",
            "change/base",
            "wins/pairs",
            "verdict",
            "gain",
        )
    ]
    passed = True
    for metric in spec["end_to_end"]:
        name = metric["name"]
        result = judge(
            readings(summaries["base"], name),
            readings(summaries["change"], name),
            metric["better"],
            metric["bound"],
        )
        passed = passed and result["verdict"] != "worse"
        wins = f"{result['wins']}/{result['pairs']}"
        if result["ties"]:
            wins += f" ({result['ties']} tied)"
        rows.append(
            (
                name,
                metric["unit"],
                cell(result["base"]),
                cell(result["change"]),
                f"{result['ratio']:.3f}x of {result['base'][1]:.6g}",
                wins,
                result["verdict"],
                "yes" if result["gain"] else "-",
            )
        )
    table, no_more_failures = finish(rows, summaries)
    return table, passed and no_more_failures


def render_trace(
    spec: dict, summaries: dict[str, list[dict]]
) -> tuple[str, bool]:
    """The per-layer table (no verdicts: the bounds are end-to-end); the
    last line names the exact counts that differ."""
    rows = [
        (
            "metric",
            "unit",
            "base median [q1, q3]",
            "change median [q1, q3]",
            "change/base",
        )
    ]
    differing = []
    for metric in spec["per_layer"]:
        name = metric["name"]
        base = readings(summaries["base"], name)
        change = readings(summaries["change"], name)
        a, b = quartiles(base), quartiles(change)
        ratio = f"{b[1] / a[1]:.3f}x" if a[1] else "-"
        rows.append((name, metric["unit"], cell(a), cell(b), ratio))
        if metric["unit"] == "count" and base != change:
            differing.append(name)
    return finish(
        rows,
        summaries,
        "counts that differ at the same seed: "
        + (", ".join(differing) or "none"),
    )


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--workload", required=True, help="a BENCHMARK.json workload name")
    parser.add_argument("--pairs", type=int, default=10, help="base/change pairs, seeds 1..PAIRS")
    parser.add_argument("--trace", action="store_true", help="compare the traced run's per-layer metrics instead")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known:
        print(f"unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    command = [
        *spec["command"],
        "--workload",
        args.workload,
        "--seconds",
        str(spec["run_seconds"]),
        "--trace",
        "1" if args.trace else "0",
    ]
    with tempfile.TemporaryDirectory(prefix="ledger-ab-") as scratch:
        base, change = checkouts(pathlib.Path(scratch), args.base)
        summaries = run_pairs(command, base, change, args.pairs)
    print(f"{args.workload}: {args.base} (base) vs working tree (change), {args.pairs} pairs")
    table, passed = (render_trace if args.trace else render)(spec, summaries)
    print(table)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
