"""Smoke and contract tests of the experiments package.

Full experiment sweeps belong to the benchmark harness; these tests run
single-point versions to verify the contracts: registry resolution, row
structure, shape-check wiring, and rendering.
"""

import pathlib
import re

import pytest

from repro.errors import ExperimentError
from repro.experiments import get_experiment, list_experiments
from repro.experiments.format import monotone, render_table
from repro.experiments.spec import ExperimentResult, ShapeCheck
from repro.experiments import (
    churn_study,
    figure4_arrival_rate,
    table2_threshold,
)
from repro.experiments.common import base_config


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        registered = set(list_experiments())
        assert {
            "table2",
            "figure4",
            "table3",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "churn",
            "ablations",
        } <= registered

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            get_experiment("figure99")

    def test_get_experiment_returns_callable(self):
        assert callable(get_experiment("figure4"))

    def test_design_index_matches_the_registry(self):
        design = pathlib.Path(__file__).parent.parent / "DESIGN.md"
        text = design.read_text(encoding="utf-8")
        index = text.split("## 3. Experiment index", 1)[1].split("\n## ", 1)[0]
        rows = set(re.findall(r"^\| `([^`]+)` \|", index, re.MULTILINE))
        registered = set(list_experiments())
        assert registered - {"all"} <= rows, "ids without a DESIGN.md row"
        assert rows - {"table1"} <= registered, "DESIGN.md rows not registered"


class TestBaseConfig:
    def test_scales(self):
        assert base_config("quick").num_nodes == 512
        assert base_config("bench").num_nodes == 1024
        paper = base_config("paper")
        assert paper.num_nodes == 4096
        assert paper.duration >= 180_000.0

    def test_unknown_scale_rejected(self):
        with pytest.raises(ExperimentError):
            base_config("galactic")

    def test_overrides(self):
        config = base_config("quick", num_nodes=64, query_rate=3.0)
        assert config.num_nodes == 64
        assert config.query_rate == 3.0


class TestFormat:
    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": 0.123456}, {"a": 22, "b": 7.0}]
        text = render_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "0.1235" in text
        assert len(lines) == 4

    def test_render_table_empty(self):
        assert render_table([]) == "(no data)"

    def test_render_table_handles_missing_and_nan(self):
        text = render_table([{"a": 1}, {"b": float("nan")}])
        assert "n/a" in text

    def test_monotone_decreasing(self):
        assert monotone([5.0, 4.0, 3.0], decreasing=True)
        assert not monotone([5.0, 6.0, 3.0], decreasing=True)
        assert monotone([5.0, 5.2, 3.0], decreasing=True, slack=0.05)

    def test_monotone_increasing(self):
        assert monotone([1.0, 2.0, 3.0], decreasing=False)
        assert not monotone([1.0, 0.5], decreasing=False)


class TestSpec:
    def test_shape_check_rendering(self):
        passed = ShapeCheck("claim A", True, "detail")
        failed = ShapeCheck("claim B", False)
        assert "PASS" in str(passed)
        assert "detail" in str(passed)
        assert "FAIL" in str(failed)

    def test_result_render_and_all_shapes(self):
        result = ExperimentResult(
            experiment_id="x",
            title="Title",
            rows=[{"k": 1.0}],
            shape_checks=(ShapeCheck("ok", True),),
            notes="a note",
        )
        text = result.render()
        assert "x: Title" in text
        assert "a note" in text
        assert result.all_shapes_hold
        failed = ExperimentResult(
            "y", "T", [], shape_checks=(ShapeCheck("bad", False),)
        )
        assert not failed.all_shapes_hold


class TestSinglePointRuns:
    """One-point sweeps: fast enough for the unit suite."""

    def test_table2_single_cell(self):
        result = table2_threshold.run(
            scale="quick", replications=1, c_values=(6,), rates=(1.0,)
        )
        assert result.experiment_id == "table2"
        assert len(result.rows) == 2  # cost row + latency row
        assert "c=6" in result.rows[0]

    def test_figure4_single_rate(self):
        result = figure4_arrival_rate.run(
            scale="quick", replications=1, rates=(3.0,)
        )
        assert result.experiment_id == "figure4"
        row = result.rows[0]
        assert row["lambda"] == 3.0
        assert row["latency_dup"] <= row["latency_pcx"]
        assert 0 < row["relcost_dup"] <= 1.5

    def test_churn_single_level(self):
        result = churn_study.run(
            scale="quick", replications=1, levels=(0.02,), schemes=("dup",)
        )
        assert result.rows[0]["scheme"] == "dup"
        assert result.rows[0]["population"] > 8
