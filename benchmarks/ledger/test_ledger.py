"""Self-test of the performance ledger (``pytest benchmarks/ledger``).

Runs the whole ledger once in ``--smoke`` mode (1/20 horizons, one
repeat, ~40 s) and checks the output against ``BENCHMARK.json``; the
tracer and ``compare.py`` verdict logic get direct unit checks.  Not
part of the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import compare
import run
import spans

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``run.py --smoke`` under a CI-like polluted environment."""
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    trace = out.with_name("trace.jsonl")
    env = dict(os.environ, REPRO_FLIGHT="1", REPRO_WORKERS="2", REPRO_FAST="0")
    done = subprocess.run(
        [sys.executable, run.__file__, "--smoke", "--out", str(out), "--trace-out", str(trace)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    with open(out) as handle:
        summary = json.load(handle)
    assert json.loads(done.stdout.strip().splitlines()[-1]) == summary
    return summary, trace


def test_no_operation_failed(smoke):
    summary, _ = smoke
    # Covers: exit codes, sanity invariants, traced == untraced
    # fingerprint, span cover within 5%, and no REPRO_* in any child.
    assert summary["correct"] and summary["failed"] == 0, summary["problems"]
    assert summary["failed_op_share"] == 0
    assert summary["attempted"] == 2 * len(summary["workloads"]) + 1
    assert summary["host"]["fastpath"] == {"enabled": True, "batched": True}


def test_child_environment_is_scrubbed(monkeypatch):
    monkeypatch.setenv("REPRO_BATCH", "0")
    monkeypatch.setenv("REPRO_FLIGHT", "1")
    env = run.child_env()
    assert not [key for key in env if key.startswith("REPRO_")]
    assert env["PYTHONPATH"].split(os.pathsep)[0].endswith("src")


def test_names_match_benchmark_json(smoke):
    summary, _ = smoke
    spec = run.load_spec()
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    for name in end_to_end | per_layer | {w["name"] for w in spec["workloads"]}:
        assert NAME.fullmatch(name), name
    assert set(summary["workloads"]) == {w["name"] for w in spec["workloads"]}
    shared = set(summary["drivers"]) | {
        key for key in summary["host"] if key.startswith("host.")
    }
    for workload, metrics in summary["workloads"].items():
        assert set(metrics["end_to_end"]) == end_to_end, workload
        assert set(metrics["per_layer"]) | shared == per_layer, workload


def test_spans_cover_the_traced_wall(smoke):
    summary, trace = smoke
    for workload, metrics in summary["workloads"].items():
        covered = sum(
            metrics["per_layer"][f"{layer}.share"]["value"]
            for layer in spans.LAYERS
        )
        assert 0.95 <= covered <= 1.05, (workload, covered)
    assert summary["workloads"]["cold-miss"]["per_layer"]["core.calls"]["value"] == 0
    with open(trace) as handle:
        rows = [json.loads(line) for line in handle]
    kinds = {row["type"] for row in rows}
    assert kinds == {"aggregate", "span"}
    roots = {row["root"] for row in rows if row["type"] == "span"}
    assert 0 < len(roots) <= 200 * len(summary["workloads"])


def test_tracer_self_time_and_generator_proxy():
    tracer = spans.Tracer(tree_budget=1)

    def leaf():
        return 7

    inner = tracer.wrap(leaf, "index", "leaf")

    def outer():
        return inner() + inner()

    assert tracer.wrap(outer, "engine", "outer", event=True)() == 14
    rows = {row["name"]: row for row in tracer.aggregate_rows()}
    assert rows["leaf"]["calls"] == 2 and rows["outer"]["calls"] == 1
    assert rows["outer"]["self_s"] == pytest.approx(
        rows["outer"]["total_s"] - rows["leaf"]["total_s"]
    )
    assert tracer.boundary["index"] == 2 and tracer.boundary["engine"] == 1
    assert [row["parent"] for row in tracer.span_rows()] == [0, 1, 1]

    def process():
        received = yield "first"
        try:
            yield received
        except KeyError:
            return "done"

    proxy = tracer.trace_generator(process(), "authority-42")
    assert next(proxy) == "first"
    assert proxy.send("echo") == "echo"
    with pytest.raises(StopIteration) as stop:
        proxy.throw(KeyError())
    assert stop.value.value == "done"
    assert tracer.calls_of("engine", "process:authority") == 3


def test_compare_verdicts():
    def entry(*values):
        return run.stat(values, "s")

    steady = entry(1.0, 1.01, 0.99, 1.0, 1.0)
    assert compare.judge(steady, entry(1.05, 1.04, 1.06, 1.05, 1.05), "lower", 0.1) == "ok"
    assert compare.judge(steady, entry(1.2, 1.21, 1.19, 1.2, 1.2), "lower", 0.1) == "regressed"
    assert compare.judge(steady, entry(0.8, 0.81, 0.79, 0.8, 0.8), "higher", 0.1) == "regressed"
    noisy = entry(0.7, 1.3, 1.0, 0.8, 1.25)
    assert compare.judge(steady, noisy, "lower", 0.1) == "unresolved"
    assert compare.judge(noisy, entry(0.5, 0.52, 0.5, 0.51, 0.5), "lower", 0.1) == "ok"
