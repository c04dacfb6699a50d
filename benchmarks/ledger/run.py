"""Layered performance ledger: five canonical DUP runs, end to end and
attributed layer by layer.

Two ways to run it, one measurement path:

``python3 benchmarks/ledger/run.py [--seed 1] [--repeats 5] [--out FILE]
[--trace-out FILE] [--smoke] [--pin]``
    the whole ledger — every workload's timed repeats and traced run,
    then the layer drivers; prints every metric by name with its unit
    and ends with one JSON summary line.

``python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S
--trace 0|1``
    the ``BENCHMARK.json`` contract — one workload; ``--trace 0`` prints
    the end-to-end metrics, ``--trace 1`` the per-layer ones.

This parent never imports ``repro``: every operation is a fresh child
process (``child.py``) run strictly one at a time, with ``REPRO_*``
scrubbed from its environment and ``src/`` put on its ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

import calib
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected.json"
CHILD_TIMEOUT_S = 150
PINNED_SEED = 1

def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def child_env() -> dict:
    """The parent's environment minus every ``REPRO_*`` switch (CI
    exports ``REPRO_FLIGHT``/``REPRO_WORKERS``; ``REPRO_FAST`` and
    ``REPRO_BATCH`` must sit at their defaults), plus ``src/``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    path = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def launch(*child_args: str) -> tuple[dict | None, str]:
    """Run one child to completion; ``(payload, "")`` or ``(None, why)``."""
    command = [sys.executable, str(HERE / "child.py"), *child_args]
    try:
        done = subprocess.run(
            command,
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-3:]
        return None, f"exit {done.returncode}: " + " | ".join(tail)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "no JSON result on the last stdout line"


def stat(values, unit: str, exact: bool = False, pick=statistics.median) -> dict:
    """The repeats' median (or ``pick``) with min, max and n (and the raw
    values, which ``compare.py`` needs for its spread check)."""
    values = list(values)
    out = {
        "value": pick(values),
        "unit": unit,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }
    if exact:
        out["exact"] = True
    return out


def calibration_factor(payload: dict) -> float:
    """Reference slice time over this child's own (mean of the slices
    timed just before and just after its timed region)."""
    local = (payload["calib_before_s"] + payload["calib_after_s"]) / 2.0
    return calib.REFERENCE_SLICE_S / local


class Ledger:
    """Runs operations, judges them, and assembles the metrics."""

    def __init__(self, spec: dict, seed: int, scale: float, pin_check: bool):
        self.spec = spec
        self.units = {
            metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]
        }
        self.seed = seed
        self.scale = scale
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.host: dict = {}
        self.trace_rows: list[dict] = []
        self.expected = None
        if pin_check and seed == PINNED_SEED and EXPECTED.exists():
            with open(EXPECTED) as handle:
                pinned = json.load(handle)
            if pinned["scale"] == scale:
                self.expected = pinned["fingerprints"]

    # -- operations ---------------------------------------------------------
    def _operation(self, label: str, *child_args: str) -> dict | None:
        self.attempted += 1
        payload, why = launch(*child_args)
        if payload is None:
            self.fail(f"{label}: {why}")
        return payload

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        print(f"FAILED {problem}", file=sys.stderr)

    def _judge_run(self, label: str, name: str, payload: dict, reference):
        """Problems of one finished run (empty list when it is good)."""
        fp = payload["fingerprint"]
        problems = workloads.sanity_violations(name, fp)
        if payload["repro_env"]:
            problems.append(f"child saw {payload['repro_env']}")
        if reference is not None and fp != reference:
            problems.append("fingerprint differs from the first repeat")
        if self.expected is not None and fp != self.expected.get(name):
            problems.append("fingerprint differs from expected.json")
        if problems:
            self.fail(f"{label}: " + "; ".join(problems))
        return not problems

    def run_workload(self, name: str, repeats: int, traced: bool) -> dict:
        """All operations of one workload -> its metrics."""
        common = (
            "run",
            "--workload",
            name,
            "--seed",
            str(self.seed),
            "--scale",
            repr(self.scale),
        )
        good = []
        reference = None
        for index in range(repeats):
            label = f"{name} repeat {index + 1}/{repeats}"
            payload = self._operation(label, *common)
            if payload is None:
                continue
            if self._judge_run(label, name, payload, reference):
                good.append(payload)
            if reference is None:
                reference = payload["fingerprint"]
        out = {"end_to_end": {}, "per_layer": {}, "fingerprint": reference}
        if good:
            self.host = {
                "python_version": good[0]["python_version"],
                "numpy_version": good[0]["numpy_version"],
                "fastpath": good[0]["fastpath"],
            }
            out["end_to_end"] = self._end_to_end(good)
            out["extras"] = good[0]["extras"]
            # Uncalibrated seconds, for the reader only: host drift alone
            # moves them by tens of percent, so no bound is put on them.
            out["raw"] = {
                "wall_raw_s": stat(
                    [p["setup_s"] + p["run_s"] for p in good], "s"
                ),
                "calibration_factor": stat(
                    [calibration_factor(p) for p in good], "ratio"
                ),
            }
        if traced:
            label = f"{name} traced run"
            payload = self._operation(label, *common, "--traced")
            if payload is not None and self._judge_run(
                label, name, payload, reference
            ):
                out["per_layer"] = self._per_layer(
                    label, payload, good, out["end_to_end"]
                )
                out["extras"] = payload["extras"]
                for kind in ("aggregates", "spans"):
                    for row in payload["trace"][kind]:
                        self.trace_rows.append(
                            {"type": kind[:-1], "workload": name, **row}
                        )
        return out

    def run_drivers(self, size: float) -> dict:
        payload = self._operation("layer drivers", "drivers", "--size", repr(size))
        return {} if payload is None else payload["drivers"]

    # -- metric assembly -------------------------------------------------------
    def _end_to_end(self, good: list[dict]) -> dict:
        units = self.units
        factors = [calibration_factor(p) for p in good]
        setup = [p["setup_s"] * f for p, f in zip(good, factors)]
        wall = [(p["setup_s"] + p["run_s"]) * f for p, f in zip(good, factors)]
        fp = good[0]["fingerprint"]
        throughput = [fp["queries"] / seconds for seconds in wall]
        return {
            "queries_per_s": stat(throughput, units["queries_per_s"]),
            "wall_s": stat(wall, units["wall_s"]),
            # Fastest, not median: a cold constructor is dominated by
            # first-touch page faults, whose cost is bimodal per process
            # (scale-multikey: 0.09 s or 0.2 s); a median flips modes.
            "setup_s": stat(setup, units["setup_s"], pick=min),
            "peak_rss_mb": stat(
                [p["peak_rss_mb"] for p in good], units["peak_rss_mb"]
            ),
            "sim_latency_hops": stat(
                [fp["mean_latency"]], units["sim_latency_hops"], exact=True
            ),
            "sim_cost_hops_per_query": stat(
                [fp["cost_per_query"]],
                units["sim_cost_hops_per_query"],
                exact=True,
            ),
        }

    def _per_layer(
        self, label: str, traced: dict, good: list[dict], end_to_end: dict
    ) -> dict:
        units = self.units
        trace = traced["trace"]
        traced_wall = traced["setup_s"] + traced["run_s"]
        out = {}
        attributed = 0.0
        for layer, totals in trace["layers"].items():
            attributed += totals["self_s"]
            out[f"{layer}.self_s"] = stat([totals["self_s"]], "s")
            out[f"{layer}.share"] = stat(
                [totals["self_s"] / traced_wall], "ratio"
            )
            out[f"{layer}.calls"] = stat([totals["calls"]], "count", exact=True)
        if abs(attributed - traced_wall) > 0.05 * traced_wall:
            self.fail(
                f"{label}: spans cover {attributed:.3f} s of "
                f"{traced_wall:.3f} s traced wall"
            )
        for name, value in trace["counts"].items():
            out[name] = stat([value], units[name], exact=True)
        if end_to_end:
            out["host.trace_overhead_ratio"] = stat(
                [
                    traced_wall
                    * calibration_factor(traced)
                    / end_to_end["wall_s"]["value"]
                ],
                "ratio",
            )
            out["engine.shard_init_s"] = end_to_end["setup_s"]
            out["host.rss_after_import_mb"] = stat(
                [p["rss_after_import_mb"] for p in good], "MiB"
            )
        return out


def mechanism_problems(name: str, metrics: dict) -> list[str]:
    """Pin-time check that each workload still exercises its mechanism."""
    layer = metrics["per_layer"]
    extras = metrics.get("extras", {})

    def value(metric: str) -> float:
        return layer[metric]["value"]

    if name == "update-storm":
        if not extras.get("storm_forced_updates", 0) > 0:
            return ["no forced authority updates"]
        if not value("net.push_share") > 0.5:
            return [f"push share {value('net.push_share'):.3f} <= 0.5"]
    if name == "churn-repair" and metrics["fingerprint"]["final_population"] == 2048:
        return ["population never moved"]
    if name == "cold-miss" and not value("index.hit_rate") < 0.5:
        return [f"index hit rate {value('index.hit_rate'):.3f} >= 0.5"]
    if name == "scale-multikey" and not value("topology.parents_touched") > 0:
        return ["no lazy parent was ever materialised"]
    return []


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_cpu_s() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def print_metrics(title: str, metrics: dict) -> None:
    for name, entry in metrics.items():
        spread = ""
        if entry.get("n", 1) > 1:
            spread = f"  (min {entry['min']:.6g}, max {entry['max']:.6g}, n={entry['n']})"
        print(f"{title:15s} {name:36s} {entry['value']:.6g} {entry['unit']}{spread}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", help="write the JSON summary here")
    parser.add_argument("--trace-out", help="write span aggregates and trees (JSONL)")
    parser.add_argument("--smoke", action="store_true", help="1/20 horizons, one repeat, no pin check")
    parser.add_argument("--pin", action="store_true", help="re-pin expected.json from this run")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float, help="contract mode: ~2 s per timed repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload and (args.smoke or args.pin or args.out or args.trace_out):
        parser.error("--workload is the contract mode; it takes only --seed/--seconds/--trace")
    return args


def host_metrics(calib_start: float, calib_end: float) -> dict:
    return {
        "host.cpu_s": {"value": host_cpu_s(), "unit": "s"},
        "host.calib_loop_s": {
            "value": (calib_start + calib_end) / 2.0,
            "unit": "s",
            "start": calib_start,
            "end": calib_end,
        },
    }


def run_contract(args, ledger: Ledger, calib_start: float) -> int:
    """One workload, the ``BENCHMARK.json`` way: the last stdout line is
    ``{"correct", "attempted", "failed", "metrics"}``."""
    traced = args.trace == 1
    repeats = args.repeats
    if traced:
        repeats = 1  # only the overhead ratio needs an untraced run
    elif args.seconds is not None:
        repeats = max(3, min(15, round(args.seconds / 2.0)))
    metrics = ledger.run_workload(args.workload, repeats, traced)
    drivers = ledger.run_drivers(1.0) if traced else {}
    produced = {
        **metrics["end_to_end"],
        **metrics["per_layer"],
        **drivers,
        **host_metrics(calib_start, calib.measure()),
    }
    wanted = ledger.spec["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    reported = {
        m["name"]: {
            "value": produced[m["name"]]["value"],
            "unit": produced[m["name"]]["unit"],
        }
        for m in wanted
    }
    print_metrics(args.workload, reported)
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": reported,
            }
        )
    )
    return 0 if ledger.failed == 0 else 1


def pin(ledger: Ledger, results: dict) -> None:
    """Rewrite ``expected.json`` — only from a run in which every
    operation passed and every workload still exercises its mechanism."""
    for name, metrics in results.items():
        if metrics["per_layer"]:
            for problem in mechanism_problems(name, metrics):
                ledger.fail(f"{name} is inert: {problem}")
    if ledger.failed:
        print("not pinning: operations failed", file=sys.stderr)
        return
    pinned = {
        "seed": ledger.seed,
        "scale": ledger.scale,
        "fingerprints": {
            name: metrics["fingerprint"] for name, metrics in results.items()
        },
    }
    with open(EXPECTED, "w") as handle:
        json.dump(pinned, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"pinned {EXPECTED}")


def run_full(args, ledger: Ledger, calib_start: float) -> int:
    """Every workload (repeats + traced run), then the layer drivers."""
    repeats = 1 if args.smoke else args.repeats
    results = {}
    for name in workloads.WORKLOADS:
        results[name] = ledger.run_workload(name, repeats, traced=True)
        for section in ("end_to_end", "raw", "per_layer"):
            print_metrics(name, results[name].get(section, {}))
    drivers = ledger.run_drivers(0.1 if args.smoke else 1.0)
    print_metrics("drivers", drivers)
    calib_end = calib.measure()
    if args.pin:
        pin(ledger, results)
    host = host_metrics(calib_start, calib_end)
    print_metrics("host", host)
    summary = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_op_share": ledger.failed / ledger.attempted,
        "problems": ledger.problems,
        "noisy": abs(calib_end - calib_start)
        > 0.1 * min(calib_start, calib_end),
        "seed": ledger.seed,
        "scale": ledger.scale,
        "repeats": repeats,
        "host": {
            **ledger.host,
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "calib_reference_s": calib.REFERENCE_SLICE_S,
            **host,
        },
        "workloads": {
            name: {
                key: metrics.get(key)
                for key in ("end_to_end", "raw", "per_layer", "fingerprint")
            }
            for name, metrics in results.items()
        },
        "drivers": drivers,
    }
    print(
        f"failed_op_share {summary['failed_op_share']:.4g} ratio "
        f"(failed_ops {ledger.failed}, ops {ledger.attempted})"
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            for row in ledger.trace_rows:
                handle.write(json.dumps(row) + "\n")
    print(json.dumps(summary))
    return 0 if ledger.failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: {ROOT / 'src' / 'repro'} not found; the ledger runs "
            "the simulator from a full checkout",
            file=sys.stderr,
        )
        return 2
    scale = workloads.SMOKE_SCALE if args.smoke else workloads.BENCH_SCALE
    ledger = Ledger(
        load_spec(), args.seed, scale, pin_check=not (args.smoke or args.pin)
    )
    calib_start = calib.measure()
    if args.workload:
        return run_contract(args, ledger, calib_start)
    return run_full(args, ledger, calib_start)


if __name__ == "__main__":
    sys.exit(main())
