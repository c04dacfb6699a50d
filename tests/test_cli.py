"""Tests of the repro-dup command-line interface."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import sys

import pytest

from repro.cli import main
from repro.experiments import registry
from repro.metrics.export import read_jsonl


class TestList:
    def test_list_shows_experiments_and_schemes(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure4" in output
        assert "table3" in output
        assert "dup" in output
        assert "pcx" in output


class TestSimulate:
    def test_simulate_prints_metrics(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "pcx",
                "--nodes",
                "48",
                "--rate",
                "1.0",
                "--duration",
                "7500",
                "--warmup",
                "3600",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "[pcx]" in output
        assert "latency=" in output
        assert "cost=" in output

    def test_simulate_dup_reports_extras(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "dup",
                "--nodes",
                "48",
                "--rate",
                "2.0",
                "--duration",
                "7500",
                "--warmup",
                "3600",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "subscribed" in output

    def test_simulate_chord_topology(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "pcx",
                "--topology",
                "chord",
                "--nodes",
                "48",
                "--duration",
                "7500",
                "--warmup",
                "3600",
            ]
        )
        assert code == 0

    def test_bad_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--scheme", "bogus"])


class TestRun:
    def test_run_single_experiment(self, tmp_path, capsys):
        # table2 with default sweep is too slow for a unit test; use the
        # smallest registered experiment shape by calling through the CLI
        # on quick scale with one replication, serially and on a pool.
        # Each finished trial prints one stderr line and writes one
        # progress record: two sinks of the same event.
        line = re.compile(r"\[(\d+)/(\d+)\] (.+) done in \d+\.\ds")
        for workers in ("1", "2"):
            path = tmp_path / f"sweep-{workers}.jsonl"
            code = main(
                ["run", "ablation-interest", "--scale", "quick",
                 "--replications", "1", "--workers", workers,
                 "--telemetry-out", str(path)]
            )
            captured = capsys.readouterr()
            assert "ablation-interest" in captured.out
            assert "shape checks:" in captured.out
            assert code in (0, 1)  # shape outcome, not a crash
            progress = [
                line.fullmatch(text)
                for text in captured.err.splitlines()
                if text.startswith("[")
            ]
            assert progress and all(progress)
            total = len(progress)
            assert [int(m[1]) for m in progress] == list(range(1, total + 1))
            assert {int(m[2]) for m in progress} == {total}
            records = read_jsonl(str(path))
            assert [r["type"] for r in records] == ["progress"] * total
            assert [r["trial"] for r in records] == [m[3] for m in progress]

    def test_record_writes_the_printed_block_and_keeps_history(
        self, tmp_path, capsys, monkeypatch
    ):
        argv = ["run", "ablation-interest", "--scale", "smoke",
                "--replications", "1", "--workers", "1",
                "--record", str(tmp_path)]
        assert main(argv) == 0
        text = (tmp_path / "ablation-interest.txt").read_text()
        assert capsys.readouterr().out == text + "\n"
        path = tmp_path / "BENCH_ablation-interest.json"
        record = json.loads(path.read_text())
        assert set(record) == {
            "experiment_id", "wall_seconds", "peak_rss_mb", "workers",
            "python_version", "git_sha", "all_shapes_hold", "rows",
        }
        assert record["experiment_id"] == "ablation-interest"
        assert [row["policy"] for row in record["rows"]] == ["window", "ewma"]
        # A second run keeps the history and writes a NaN cell as null.
        record["history"] = [{"label": "baseline", "wall_seconds": 1.0}]
        path.write_text(json.dumps(record))
        real = registry._REGISTRY["ablation-interest"]

        def with_nan(**kwargs):
            result = real(**kwargs)
            rows = [*result.rows, {"policy": "none", "latency": math.nan}]
            return dataclasses.replace(result, rows=rows)

        monkeypatch.setitem(registry._REGISTRY, "ablation-interest", with_nan)
        assert main(argv) == 0
        again = json.loads(path.read_text())
        assert again["history"] == record["history"]
        assert again["rows"][-1] == {"policy": "none", "latency": None}

    def test_run_unknown_experiment(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            main(["run", "figure99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestTrace:
    def test_make_and_replay(self, tmp_path, capsys):
        path = str(tmp_path / "wl.trace")
        code = main(
            ["trace", "make", path, "--nodes", "48", "--rate", "0.5",
             "--duration", "3000"]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        code = main(["trace", "replay", path, "--scheme", "pcx",
                     "--nodes", "48"])
        assert code == 0
        output = capsys.readouterr().out
        assert "replayed" in output
        assert "[pcx]" in output

    def test_replay_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["trace", "replay", str(tmp_path / "nope.trace")])


# -- the --help fence ---------------------------------------------------------
#
# sha256 of `repro-dup [CMD] --help` at COLUMNS=80, pinned as
# cli-help/<argv>.  Taken before the flags were generated from the config
# dataclasses; every flag, group, metavar and help text must survive any
# change to how the parser is built.

COMMANDS = ("", "list", "run", "simulate", "observe", "trace", "chaos",
            "top", "profile")


def help_digests() -> dict:
    """``{cli-help/<argv>: sha256 of its --help}`` at ``COLUMNS=80``."""
    digests = {}
    previous = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        for command in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
                main([command, "--help"] if command else ["--help"])
            name = f"cli-help/repro-dup {command}".rstrip()
            digests[name] = hashlib.sha256(
                out.getvalue().encode()
            ).hexdigest()
    finally:
        if previous is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = previous
    return digests


@pytest.mark.skipif(
    sys.version_info[:2] not in ((3, 11), (3, 12)),
    reason="pinned with the 3.11 argparse formatter, which 3.12 shares",
)
def test_help_is_byte_identical(pins):
    pins.check(help_digests(), family="cli-help")


# -- the config-digest fence --------------------------------------------------
#
# Every argv below is parsed by `main`; the seam makes the engine's
# constructor raise with the SimulationConfig it was handed, and the
# digest, pinned as cli-config/<argv name>, is the sha256 of that
# config's repr.  The pins were taken with the same seam before the
# config surface was generated from the dataclasses, and re-pinned when
# the gated scalars folded into plans.  The REPINNED argvs differed from
# those first pins: --ack-timeout used to be dropped unless --retry-budget
# was also set.  A flag whose layer a bare argv leaves off is a usage
# error (DORMANT), so it has no argv in the matrix.


class Captured(Exception):
    """Raised by the engine seam, carrying the config it was handed."""


@contextlib.contextmanager
def engine_seam():
    """Make constructing a ``Simulation`` raise ``Captured(config)``."""
    from repro.engine.simulation import Simulation

    def seize(self, config):
        raise Captured(config)

    original = Simulation.__init__
    Simulation.__init__ = seize
    try:
        yield
    finally:
        Simulation.__init__ = original


def config_of(argv):
    """The SimulationConfig ``main(argv)`` hands the engine."""
    with engine_seam(), contextlib.redirect_stdout(io.StringIO()):
        try:
            main(argv)
        except Captured as captured:
            return captured.args[0]
    raise AssertionError(f"{argv} built no engine")


#: One non-default value per config flag (None: a switch).
VALUES = {
    "--scheme": "pcx", "--nodes": "96", "--degree": "3", "--rate": "2.5",
    "--arrival": "pareto", "--pareto-alpha": "1.2", "--theta": "0.8",
    "--threshold": "4", "--ttl": "1800", "--push-lead": "30",
    "--duration": "9000", "--warmup": "1800", "--topology": "chord",
    "--seed": "7", "--churn-rate": "0.01",
    "--loss-rate": "0.05", "--duplicate-rate": "0.02",
    "--silent-failures": None, "--retry-budget": "3", "--ack-timeout": "5",
    "--retry-timeout-cap": "10", "--lease-ttl": "300",
    "--partition-at": "2000", "--partition-duration": "500",
    "--partition-components": "3", "--standbys": "2",
    "--failover-timeout": "60", "--authority-crash-at": "2500",
    "--audit-interval": "150",
    "--service-rate": "2", "--inbox-capacity": "8",
    "--max-subscribers": "3", "--breaker-threshold": "3",
    "--breaker-cooldown": "30", "--coalesce-gap": "30",
    "--storm": "flash-crowd", "--storm-start": "2000",
    "--storm-duration": "600", "--storm-rate": "0.5",
    "--storm-rank-flips": "4", "--storm-burst": "9",
    "--mean-session": "600", "--mean-downtime": "120",
    "--session-alpha": "2", "--downtime-sigma": "0.5",
    "--diurnal-amplitude": "0.5", "--diurnal-period": "3600",
    "--regional-rate": "0.001", "--regional-radius": "3",
    "--damp-suppress": "3", "--damp-reuse": "1.5", "--damp-penalty": "2",
    "--damp-half-life": "200",
    "--interest-policy": "adaptive", "--threshold-floor": "3",
    "--threshold-ceiling": "8", "--adaptive-gain": "0.7",
}

#: What a flag needs beside it to be valid at all.
NEEDS = {
    "--mean-session": ["--mean-downtime", "120"],
    "--regional-rate": ["--mean-downtime", "120"],
}

CORE = ["--scheme", "--nodes", "--degree", "--rate", "--theta",
        "--threshold", "--ttl", "--duration", "--warmup", "--topology",
        "--seed"]
RESILIENCE = ["--loss-rate", "--duplicate-rate", "--silent-failures",
              "--retry-budget", "--ack-timeout", "--retry-timeout-cap",
              "--lease-ttl", "--partition-at", "--partition-duration",
              "--partition-components", "--standbys", "--failover-timeout",
              "--authority-crash-at", "--audit-interval"]
LAYERS = RESILIENCE + [
    "--service-rate", "--inbox-capacity", "--max-subscribers",
    "--breaker-threshold", "--breaker-cooldown", "--coalesce-gap",
    "--storm", "--storm-start", "--storm-duration", "--storm-rate",
    "--storm-rank-flips", "--storm-burst",
    "--mean-session", "--mean-downtime", "--session-alpha",
    "--downtime-sigma", "--diurnal-amplitude", "--diurnal-period",
    "--regional-rate", "--regional-radius", "--damp-suppress",
    "--damp-reuse", "--damp-penalty", "--damp-half-life",
    "--interest-policy", "--threshold-floor", "--threshold-ceiling",
    "--adaptive-gain",
]

#: Flags that belong together, each set at once: the resilience gates
#: with their flags, then the other layers.
RESILIENCE_COMBOS = {
    "faults": "--loss-rate 0.05 --duplicate-rate 0.02 --silent-failures",
    "retry": "--retry-budget 3 --ack-timeout 5 --retry-timeout-cap 20",
    "failover": "--standbys 2 --failover-timeout 60 "
    "--authority-crash-at 2500",
    "partition": "--partition-at 2000 --partition-duration 500 "
    "--partition-components 3",
}
COMBOS = {
    **RESILIENCE_COMBOS,
    "overload": "--service-rate 2 --inbox-capacity 8 --max-subscribers 3 "
    "--breaker-threshold 3 --breaker-cooldown 30 --coalesce-gap 30",
    "storm placed": "--storm update-storm --storm-start 2000 "
    "--storm-duration 600 --storm-rate 0.5",
    "two storms": "--storm flash-crowd --storm thrash --storm-rank-flips 4 "
    "--storm-burst 9",
    "two storms placed": "--storm flash-crowd --storm thrash "
    "--storm-start 2000 --storm-duration 600",
    "sessions": "--mean-session 600 --mean-downtime 120 --session-alpha 2 "
    "--downtime-sigma 0.5",
    "regional": "--mean-downtime 120 --regional-rate 0.001 "
    "--regional-radius 3",
    "diurnal": "--diurnal-amplitude 0.5 --diurnal-period 3600",
    "damping": "--mean-session 600 --mean-downtime 60 --damp-suppress 3 "
    "--damp-reuse 1.5 --damp-penalty 2 --damp-half-life 200",
    "interest": "--interest-policy adaptive --threshold-floor 3 "
    "--threshold-ceiling 8 --adaptive-gain 0.7",
    "adaptive scheme": "--scheme dup-adaptive --threshold-ceiling 8",
    "flight": "--flight-out flight.jsonl",
}

#: Flags a bare argv leaves inert, and the layer each one needs on.
DORMANT = {
    "--pareto-alpha": "pareto",
    "--retry-timeout-cap": "retry",
    **dict.fromkeys(["--failover-timeout", "--authority-crash-at"],
                    "replication"),
    **dict.fromkeys(["--partition-duration", "--partition-components"],
                    "partition"),
    **dict.fromkeys(["--inbox-capacity", "--breaker-cooldown"], "overload"),
    **dict.fromkeys(["--storm-start", "--storm-duration", "--storm-rate",
                     "--storm-rank-flips", "--storm-burst"], "storm"),
    **dict.fromkeys(["--mean-downtime", "--session-alpha",
                     "--downtime-sigma", "--diurnal-period",
                     "--regional-radius", "--damp-suppress", "--damp-reuse",
                     "--damp-penalty", "--damp-half-life"], "sessions"),
    **dict.fromkeys(["--threshold-floor", "--threshold-ceiling",
                     "--adaptive-gain"], "adaptive"),
}

#: Each subcommand's argv prefix, the config flags it takes, the combos
#: that apply to it and the flags it refuses alone (with what is off).
SUBCOMMANDS = {
    "simulate": (
        ["simulate"],
        CORE + ["--arrival", "--pareto-alpha", "--churn-rate"] + LAYERS,
        {**COMBOS, "pareto": "--arrival pareto --pareto-alpha 1.2"},
        DORMANT,
    ),
    "observe": (["observe"], CORE + RESILIENCE, RESILIENCE_COMBOS, DORMANT),
    "chaos": (
        ["chaos", "calm"], CORE + ["--push-lead"] + LAYERS, COMBOS, DORMANT
    ),
    # A replay's workload is the trace: --rate, --duration, --theta and
    # --arrival shape `trace make` only.
    "replay": (
        ["trace", "replay", "w.trace"],
        ["--scheme", "--nodes", "--seed", "--rate", "--duration",
         "--theta", "--arrival"],
        {},
        dict.fromkeys(["--rate", "--duration", "--theta", "--arrival"],
                      "synthetic workload"),
    ),
}

#: Argvs outside the per-subcommand grid.
EXTRA = {
    "chaos blackout": "chaos blackout",
    "chaos blackout failover": "chaos blackout --standbys 3 "
    "--failover-timeout 60 --audit-interval 100",
    "chaos split partition": "chaos split --partition-at 2000",
    "chaos stampede": "chaos stampede",
    "chaos stampede storm": "chaos stampede --storm thrash --service-rate 2",
    "chaos flap": "chaos flap",
    "chaos regional": "chaos regional",
    "chaos regicide": "chaos regicide --silent-failures",
}


def single(prefix: list, flag: str) -> list:
    """``prefix`` with ``flag`` set to its VALUES entry (and its NEEDS)."""
    value = [] if VALUES[flag] is None else [VALUES[flag]]
    return prefix + [flag] + value + NEEDS.get(flag, [])


def config_matrix() -> dict:
    """``{name: argv}``: defaults, every honoured flag, the combos, the
    extras."""
    matrix = {}
    for name, (prefix, flags, combos, refused) in SUBCOMMANDS.items():
        matrix[name] = list(prefix)
        for flag in flags:
            if flag not in refused:
                matrix[f"{name} {flag}"] = single(prefix, flag)
        for combo, argv in combos.items():
            matrix[f"{name} {combo}"] = prefix + argv.split()
    for name, argv in EXTRA.items():
        matrix[name] = argv.split()
    return matrix


@pytest.fixture(scope="module")
def config_digests(tmp_path_factory) -> dict:
    """``{name: sha256(repr(config))[:16]}`` over :func:`config_matrix`,
    run where the replay's trace and the argvs' output files go."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("argvs"))
        with contextlib.redirect_stdout(io.StringIO()):
            main(["trace", "make", "w.trace", "--nodes", "64",
                  "--duration", "1200"])
        return {
            name: hashlib.sha256(
                repr(config_of(argv)).encode()
            ).hexdigest()[:16]
            for name, argv in config_matrix().items()
        }


#: Argvs whose config intentionally differs from the first pins: the
#: flag now reaches its field without the --retry-budget gate.  Each
#: maps to the field and the value it must carry.
REPINNED = {
    f"{name} --ack-timeout": ("ack_timeout", 5.0)
    for name in ("simulate", "observe", "chaos")
}


class TestConfigFence:
    def test_every_argv_hands_the_engine_the_pinned_config(
        self, config_digests, pins
    ):
        pins.check(
            {f"cli-config/{name}": digest
             for name, digest in config_digests.items()},
            family="cli-config",
        )

    def test_no_single_flag_yields_the_bare_config(self, config_digests):
        silent = []
        for name, digest in config_digests.items():
            command, _, flag = name.partition(" ")
            bare = config_digests.get(command)
            if command in SUBCOMMANDS and flag[:2] == "--" and digest == bare:
                silent.append(name)
        assert silent == []

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, (_, flags, _, refused)
         in SUBCOMMANDS.items() for flag in flags if flag in refused],
    )
    def test_flag_of_an_off_layer_is_a_usage_error(self, command, flag,
                                                   capsys):
        prefix, _, _, refused = SUBCOMMANDS[command]
        with pytest.raises(SystemExit) as raised:
            main(single(prefix, flag))
        assert raised.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert f"error: {flag} has no effect: " in err
        assert f"the {refused[flag]} " in err

    @pytest.mark.parametrize("name", sorted(REPINNED))
    def test_ungated_flag_reaches_its_field(self, name, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        field, value = REPINNED[name]
        assert getattr(config_of(config_matrix()[name]), field) == value


class TestAckTimeoutWithoutRetries:
    def test_ack_timeout_moves_a_zero_retry_run(self, capsys):
        # With no retries the ack timeout still times the suspicion of
        # a silently crashed peer, so the flag must change the run.
        base = ["simulate", "--nodes", "64", "--duration", "3000",
                "--warmup", "600", "--mean-session", "600",
                "--mean-downtime", "120", "--seed", "1"]
        outputs = []
        for timeout in ("2", "30"):
            assert main(base + ["--ack-timeout", timeout]) == 0
            outputs.append(capsys.readouterr().out.splitlines()[1])
        assert outputs[0] != outputs[1]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--duration", "3600", "--warmup", "7200"],
                "duration (3600.0) must exceed warmup (7200.0)",
            ),
            (
                ["--retry-budget", "2", "--retry-timeout-cap", "1"],
                "retry.timeout_cap (1.0) must be >= ack_timeout (2.0)",
            ),
            (
                ["--topology", "chord", "--degree", "6"],
                "max_degree (6) has no effect on the chord topology: only "
                "random-tree and balanced trees take a degree",
            ),
        ],
    )
    def test_config_error_is_a_usage_error(self, flags, message, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["simulate"] + flags)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro-dup simulate")
        assert err.endswith(f"repro-dup simulate: error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--nodes", "64", "--duration", "1000",
             "--warmup", "100", "--seed", "-1"],
            ["run", "churn", "--scale", "smoke", "--replications", "1",
             "--seed", "-1"],
            ["profile", "churn", "--scale", "smoke", "--seed", "-1"],
            ["trace", "make", "unused.trace", "--seed", "-1"],
        ],
    )
    def test_negative_seed_is_a_usage_error(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(
            f"repro-dup {argv[0]}: error: seed must be >= 0, got -1\n"
        )

    @pytest.mark.parametrize("command", ["run", "profile"])
    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_replications_below_one_is_a_usage_error(
        self, command, count, capsys
    ):
        with pytest.raises(SystemExit) as raised:
            main([command, "churn", "--scale", "smoke",
                  "--replications", count])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(
            f"repro-dup {command}: error: argument --replications: "
            f"must be >= 1, got {count}\n"
        )
