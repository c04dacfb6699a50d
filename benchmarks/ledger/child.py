"""One ledger operation in a fresh process (launched by ``run.py``).

``child.py run``     one timed run of one workload, untraced or traced;
``child.py drivers`` the stand-alone layer drivers.

A fresh process per operation makes ``ru_maxrss`` that run's own peak
and keeps module-level memos (``engine.multikey._WORLD_CACHE``,
``stats.distributions.shared_zipf``) from leaking between repeats.  The
last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _numeric(extras) -> dict:
    return {
        key: value
        for key, value in extras.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _warm_up() -> None:
    """One tiny untimed simulation, so bytecode specialisation and
    allocator warm-up are not billed to the timed run."""
    from repro.engine.config import SimulationConfig
    from repro.engine.simulation import Simulation

    Simulation(
        SimulationConfig(
            num_nodes=256,
            duration=2000.0,
            warmup=100.0,
            keep_latency_samples=False,
        )
    ).run()


def _trace_report(tracer, result, fp) -> dict:
    """Layer totals and the exact-repeat counts of one traced run."""
    extras = result.extras
    hops = fp["hop_breakdown"]
    all_hops = sum(hops.values())
    queries_issued = tracer.calls_matching("schemes", ".on_local_query")
    events = tracer.calls_of(
        "sim",
        "Environment.timeout",
        "Environment.defer",
        "Environment.process",
    )
    messages = tracer.calls_of("net", "Transport.send")
    gets = tracer.calls_of("index", "IndexCache.get")
    per_query = 1.0 / queries_issued if queries_issued else 0.0
    counts = {
        "sim.events_scheduled": events,
        "sim.events_per_query": events * per_query,
        "net.messages": messages,
        "net.messages_per_query": messages * per_query,
        "net.push_share": hops.get("push", 0) / all_hops if all_hops else 0.0,
        "net.dropped": fp["dropped_messages"],
        "index.cache_gets": gets,
        "index.hit_rate": (
            tracer.counters["index.useful_gets"] / gets if gets else 0.0
        ),
        "index.swept_entries": int(
            extras.get("swept_entries", tracer.counters["index.swept_entries"])
        ),
        "core.protocol_steps": tracer.calls_of(
            "core",
            "DupProtocol.step",
            "DupProtocol.ensure_subscribed",
            "DupProtocol.drop_subscription",
        ),
        "core.subscribed": int(
            extras.get("subscribed", extras.get("total_subscriptions", 0))
        ),
        "core.dup_tree_size": int(extras.get("dup_tree_size", 0)),
        "topology.mutations": tracer.calls_of(
            "topology",
            "SearchTree.add_leaf",
            "SearchTree.insert_on_edge",
            "SearchTree.remove_leaf",
            "SearchTree.splice_out",
            "SearchTree.replace_root",
            "SearchTree.promote_to_root",
            "SearchTree.rename",
        ),
        "topology.parents_touched": int(extras.get("parents_touched", 0)),
        "engine.churn_events": tracer.calls_of(
            "workload", "ChurnProcess.next_kind"
        ),
        "engine.incomplete_queries": fp["incomplete_queries"],
        "workload.queries_issued": queries_issued,
    }
    return {
        "layers": tracer.layer_totals(),
        "counts": counts,
        "aggregates": tracer.aggregate_rows(),
        "spans": tracer.span_rows(),
    }


def run_operation(args) -> dict:
    import calib
    import workloads

    import numpy
    import repro  # noqa: F401 - the import itself is what is measured
    from repro import fastpath

    rss_after_import = _rss_mb()
    _warm_up()
    tracer = None
    if args.traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    config = workloads.build_config(args.workload, args.seed, args.scale)
    calib_before = calib.measure()
    result, setup_s, run_s = workloads.run_workload(
        args.workload, config, time.perf_counter
    )
    calib_after = calib.measure()
    fp = workloads.fingerprint(result)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "traced": bool(args.traced),
        "setup_s": setup_s,
        "run_s": run_s,
        "calib_before_s": calib_before,
        "calib_after_s": calib_after,
        "peak_rss_mb": _rss_mb(),
        "rss_after_import_mb": rss_after_import,
        "fingerprint": fp,
        "extras": _numeric(result.extras),
        "fastpath": {
            "enabled": fastpath.ENABLED,
            "batched": fastpath.BATCHED,
        },
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
        "python_version": sys.version.split()[0],
        "numpy_version": numpy.__version__,
    }
    if tracer is not None:
        out["trace"] = _trace_report(tracer, result, fp)
    return out


def run_drivers(args) -> dict:
    import drivers

    _warm_up()
    return {"drivers": drivers.run_all(size=args.size)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--scale", type=float, required=True)
    run.add_argument("--traced", action="store_true")
    drive = commands.add_parser("drivers")
    drive.add_argument("--size", type=float, default=1.0)
    args = parser.parse_args(argv)
    operation = run_operation if args.command == "run" else run_drivers
    print(json.dumps(operation(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
