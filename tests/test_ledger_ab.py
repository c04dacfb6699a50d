"""Tests of ``scripts/ledger_ab.py``: the verdict rules and the pairing.

The script itself is exercised against a stand-in contract command, so
nothing here runs the real ledger; the export test builds a throwaway
git repository of its own.
"""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys
import textwrap

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "ledger_ab.py"
spec = importlib.util.spec_from_file_location("ledger_ab", SCRIPT)
ledger_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ledger_ab)

TEN = [float(v) for v in range(100, 110)]


class TestJudge:
    def test_clear_gain_on_a_higher_is_better_metric(self):
        result = ledger_ab.judge(TEN, [2.5 * v for v in TEN], "higher", 0.25)
        assert result["verdict"] == "ok"
        assert result["gain"]
        assert result["wins"] == result["pairs"] == 10
        assert result["ratio"] == 2.5

    def test_worse_beyond_the_bound(self):
        result = ledger_ab.judge(TEN, [1.3 * v for v in TEN], "lower", 0.25)
        assert result["verdict"] == "worse"
        assert not result["gain"]
        assert result["wins"] == 0

    def test_within_bound_is_ok_but_no_gain_inside_the_base_spread(self):
        # 2% better in every pair, yet less than the base's own quartile
        # distance: ok, and not a gain.
        result = ledger_ab.judge(TEN, [0.98 * v for v in TEN], "lower", 0.25)
        assert result["verdict"] == "ok"
        assert result["wins"] == 10
        assert not result["gain"]

    def test_wide_spread_is_unresolved_unless_separated(self):
        noisy = [100.0, 160.0] * 5
        result = ledger_ab.judge(noisy, [v * 1.05 for v in noisy], "lower", 0.25)
        assert result["verdict"] == "unresolved"
        separated = ledger_ab.judge(noisy, [v * 0.3 for v in noisy], "lower", 0.25)
        assert separated["verdict"] == "ok"

    def test_fewer_than_ten_pairs_never_show_a_gain(self):
        result = ledger_ab.judge(TEN[:4], [0.4 * v for v in TEN[:4]], "lower", 0.25)
        assert result["wins"] == 4 and result["verdict"] == "ok"
        assert not result["gain"]

    def test_ties_count_for_neither_side(self):
        result = ledger_ab.judge(TEN, list(TEN), "lower", 0.25)
        assert (result["wins"], result["ties"]) == (0, 10)
        assert result["verdict"] == "ok" and not result["gain"]

    def test_nine_wins_in_ten_is_enough_eight_is_not(self):
        nine = [0.5 * v for v in TEN[:9]] + [2 * TEN[9]]
        assert ledger_ab.judge(TEN, nine, "lower", 0.25)["gain"]
        eight = [0.5 * v for v in TEN[:8]] + [2 * v for v in TEN[8:]]
        assert not ledger_ab.judge(TEN, eight, "lower", 0.25)["gain"]


FAKE = textwrap.dedent(
    """
    import json, pathlib, sys
    seed = int(sys.argv[sys.argv.index("--seed") + 1])
    speed = float(pathlib.Path("speed").read_text())
    with open(pathlib.Path.cwd().parents[1] / "log", "a") as log:
        log.write(f"{pathlib.Path.cwd().name}:{seed}\\n")
    print("noise the parser must skip")
    print(json.dumps({
        "correct": True, "attempted": 5, "failed": 0,
        "metrics": {
            "queries_per_s": {"value": speed * (100 + seed), "unit": "1/s"},
            "sim_latency_hops": {"value": 0.5 + seed, "unit": "hops"},
        },
    }))
    """
)

SPEC = {
    "end_to_end": [
        {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "sim_latency_hops", "unit": "hops", "better": "lower", "bound": 0.25},
    ]
}


class TestPairs:
    def checkouts(self, tmp_path, speeds):
        for side, speed in speeds.items():
            directory = tmp_path / "sides" / side
            directory.mkdir(parents=True)
            (directory / "fake.py").write_text(FAKE)
            (directory / "speed").write_text(str(speed))
        return tmp_path / "sides" / "base", tmp_path / "sides" / "change"

    def test_order_flips_every_pair_and_seeds_are_shared(self, tmp_path):
        base, change = self.checkouts(tmp_path, {"base": 1.0, "change": 2.0})
        notes = []
        summaries = ledger_ab.run_pairs(
            [sys.executable, "fake.py"], base, change, 4, report=notes.append
        )
        assert (tmp_path / "log").read_text().split() == [
            "base:1", "change:1",
            "change:2", "base:2",
            "base:3", "change:3",
            "change:4", "base:4",
        ]
        assert len(notes) == 4
        assert [len(runs) for runs in summaries.values()] == [4, 4]
        table, passed = ledger_ab.render(SPEC, summaries)
        assert passed
        rows = {line.split()[0]: line for line in table.splitlines()}
        assert "2.000x of" in rows["queries_per_s"]
        assert "4/4" in rows["queries_per_s"]
        # The simulated metric is the same on both sides for every seed.
        assert "0/4 (4 tied)" in rows["sim_latency_hops"]
        assert rows["failed"].startswith("failed operations: base 0.000")

    def test_a_slower_change_fails_the_run(self, tmp_path):
        base, change = self.checkouts(tmp_path, {"base": 1.0, "change": 0.5})
        summaries = ledger_ab.run_pairs(
            [sys.executable, "fake.py"], base, change, 2, report=lambda _: None
        )
        table, passed = ledger_ab.render(SPEC, summaries)
        assert not passed
        assert "worse" in table

    def test_more_failed_operations_fail_the_run(self):
        def summary(failed):
            return {
                "correct": failed == 0, "attempted": 5, "failed": failed,
                "metrics": {
                    "queries_per_s": {"value": 1.0, "unit": "1/s"},
                    "sim_latency_hops": {"value": 1.0, "unit": "hops"},
                },
            }

        clean = {"base": [summary(0)], "change": [summary(0)]}
        assert ledger_ab.render(SPEC, clean)[1]
        broken = {"base": [summary(0)], "change": [summary(1)]}
        assert not ledger_ab.render(SPEC, broken)[1]

    def test_a_crashing_contract_command_is_reported(self, tmp_path):
        (tmp_path / "boom.py").write_text("import sys; sys.exit('no ledger here')")
        with pytest.raises(RuntimeError, match="no ledger here"):
            ledger_ab.contract([sys.executable, "boom.py"], tmp_path)


class TestCheckouts:
    def test_both_sides_are_exports_with_paths_of_equal_length(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()

        def git(*args):
            subprocess.run(
                ["git", "-C", str(repo), "-c", "user.name=ab",
                 "-c", "user.email=ab@example.invalid",
                 "-c", "commit.gpgsign=false", *args],
                check=True,
                capture_output=True,
            )

        git("init", "-q")
        (repo / ".gitignore").write_text("built/\n")
        (repo / "kept.py").write_text("committed\n")
        (repo / "gone.py").write_text("committed\n")
        git("add", ".")
        git("commit", "-q", "-m", "base")
        (repo / "kept.py").write_text("edited\n")
        (repo / "gone.py").unlink()
        (repo / "new.py").write_text("untracked\n")
        (repo / "built").mkdir()
        (repo / "built" / "out.bin").write_text("ignored\n")

        parent = tmp_path / "scratch"
        parent.mkdir()
        base, change = ledger_ab.checkouts(parent, "HEAD", repo)
        assert base.parent == change.parent == parent
        assert base != change and len(str(base)) == len(str(change))
        assert (base / "kept.py").read_text() == "committed\n"
        assert (base / "gone.py").exists() and not (base / "new.py").exists()
        assert (change / "kept.py").read_text() == "edited\n"
        assert (change / "new.py").read_text() == "untracked\n"
        assert not (change / "gone.py").exists()
        assert not (change / "built").exists()


TRACE_SPEC = {
    "per_layer": [
        {"name": "stats.share", "unit": "ratio", "better": "lower"},
        {"name": "stats.calls", "unit": "count", "better": "lower"},
        {"name": "net.messages", "unit": "count", "better": "lower"},
    ]
}


class TestTrace:
    """``--trace``: per-layer medians and the exact counts that differ."""

    def summaries(self, change_calls, failed=0):
        def side(calls, share, failed=0):
            return [
                {
                    "correct": failed == 0, "attempted": 3, "failed": failed,
                    "metrics": {
                        "stats.share": {"value": share + seed / 100, "unit": "ratio"},
                        "stats.calls": {"value": value, "unit": "count"},
                        "net.messages": {"value": 88000 + seed, "unit": "count"},
                    },
                }
                for seed, value in enumerate(calls, start=1)
            ]

        return {
            "base": side([185193, 185200, 185100], 0.08),
            "change": side(change_calls, 0.005, failed),
        }

    def test_identical_counts_list_nothing(self):
        table, passed = ledger_ab.render_trace(
            TRACE_SPEC, self.summaries([185193, 185200, 185100])
        )
        assert passed
        lines = table.splitlines()
        assert lines[-1] == "counts that differ at the same seed: none"
        rows = {line.split()[0]: line for line in lines}
        # Host-time shares move on every run; they are never listed.
        assert "0.1 [0.09, 0.11]" in rows["stats.share"]
        assert "0.025 [0.015, 0.035]" in rows["stats.share"]
        assert "0.250x" in rows["stats.share"]

    def test_a_count_differing_in_any_pair_is_listed_once(self):
        # Equal medians, equal first and last pair: one pair is enough.
        table, passed = ledger_ab.render_trace(
            TRACE_SPEC, self.summaries([185193, 270, 185100])
        )
        assert passed  # an intended count change is not a failure
        assert table.splitlines()[-1] == (
            "counts that differ at the same seed: stats.calls"
        )

    def test_exit_status_is_the_failed_operation_share_only(self):
        table, passed = ledger_ab.render_trace(
            TRACE_SPEC, self.summaries([270, 270, 270], failed=1)
        )
        assert not passed
        assert "change 0.333 of attempted" in table

    def test_trace_flag_selects_the_traced_contract_command(self):
        assert ledger_ab.parse_args(
            ["--base", "HEAD", "--workload", "paper-steady", "--trace"]
        ).trace
        assert not ledger_ab.parse_args(
            ["--base", "HEAD", "--workload", "paper-steady"]
        ).trace
