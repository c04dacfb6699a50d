"""Apply the ``BENCHMARK.json`` bounds to two ``run.py --out`` files.

``python3 benchmarks/ledger/compare.py A.json B.json`` — A is the parent
(base), B the change.  One row per (workload, end-to-end metric): both
medians, the ratio B/A with its base, and a verdict:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  within the bound, but the run-to-run spread of either
                side is wider than the bound, so "unchanged" is not
                shown (unless every B run beats every A run);
``changed``     a simulated output or an exact count differs at all.

Exits non-zero on any ``regressed`` or ``changed`` row, or when either
file records a failed operation.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for n < 2)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def judge(base: dict, change: dict, better: str, bound: float) -> str:
    """Verdict for one bounded metric (see the module docstring)."""
    a, b = base["value"], change["value"]
    sign = 1.0 if better == "lower" else -1.0
    if sign * (b - a) > bound * abs(a):
        return "regressed"
    if max(spread(base["values"]), spread(change["values"])) > bound:
        if better == "lower":
            separated = max(change["values"]) < min(base["values"])
        else:
            separated = min(change["values"]) > max(base["values"])
        if not separated:
            return "unresolved"
    return "ok"


def compare(base: dict, change: dict, spec: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, a, b, unit, verdict)`` and overall pass."""
    rows = []
    passed = base["failed"] == 0 and change["failed"] == 0
    for workload in (w["name"] for w in spec["workloads"]):
        side_a = base["workloads"][workload]
        side_b = change["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = side_a["end_to_end"][name], side_b["end_to_end"][name]
            if a.get("exact"):
                verdict = "ok" if a["value"] == b["value"] else "changed"
            else:
                verdict = judge(a, b, metric["better"], metric["bound"])
            rows.append((workload, name, a["value"], b["value"], a["unit"], verdict))
        for name, a in side_a["per_layer"].items():
            b = side_b["per_layer"].get(name)
            if a.get("exact") and (b is None or a["value"] != b["value"]):
                rows.append(
                    (workload, name, a["value"], b and b["value"], a["unit"], "changed")
                )
    passed = passed and all(row[5] in ("ok", "unresolved") for row in rows)
    return rows, passed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    sides = []
    for path in argv:
        with open(path) as handle:
            sides.append(json.load(handle))
    rows, passed = compare(sides[0], sides[1], spec)
    print(f"{'workload':15s} {'metric':26s} {'A (base)':>12s} {'B':>12s}  B/A        verdict")
    for workload, name, a, b, unit, verdict in rows:
        ratio = f"{b / a:.3f}x of {a:.4g} {unit}" if a and b is not None else "-"
        shown_b = "missing" if b is None else f"{b:.6g}"
        print(f"{workload:15s} {name:26s} {a:12.6g} {shown_b:>12s}  {ratio:24s} {verdict}")
    for label, side in zip("AB", sides):
        if side["failed"]:
            print(f"{label}: {side['failed']} of {side['attempted']} operations failed")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
