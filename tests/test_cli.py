"""Tests of the repro-dup command-line interface."""

import contextlib
import hashlib
import io
import os
import sys

import pytest

from repro.cli import main


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
    def test_run_single_experiment(self, capsys):
        # table2 with default sweep is too slow for a unit test; use the
        # smallest registered experiment shape by calling through the CLI
        # on quick scale with one replication.
        code = main(
            ["run", "ablation-interest", "--scale", "quick",
             "--replications", "1"]
        )
        output = capsys.readouterr().out
        assert "ablation-interest" in output
        assert "shape checks:" in output
        assert code in (0, 1)  # shape outcome, not a crash

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
# sha256 of `repro-dup [CMD] --help` at COLUMNS=80.  Taken before the flags
# were generated from the config dataclasses; every flag, group, metavar
# and help text must survive any change to how the parser is built.
# simulate, observe, trace and chaos were re-pinned when the registry
# dropped cup-popularity: their --scheme choices lost that one name.

COMMANDS = ("", "list", "run", "simulate", "observe", "trace", "chaos",
            "top", "profile")

HELP_DIGESTS = {
    "": (
        "a371574ddcaa252c1ff85e8587bea7b68f9411d1e5b46335870c8a412842eecf"
    ),
    "list": (
        "e4aa52192c6ea7e3f3159d7959dfdb13708255abae5d573b93b7c02b22f8520d"
    ),
    "run": (
        "433743d75784c7a66b267a23aeedb199e0c749e5ef40b5cc10944382e0d61396"
    ),
    "simulate": (
        "60271adaf7d3832ce43f1c4f619cedbfdce70c8057e7eac7558644644023a336"
    ),
    "observe": (
        "bf5d0b094062e62fc82235773568aa5a04f4c55ea4050c9ad7b848c7500f57b0"
    ),
    "trace": (
        "146dcce0e51dc35a549a2267dcfcdc0c35260ffd0a070609366c312f2fb3c168"
    ),
    "chaos": (
        "85a46e4c2eee6f83ce60bb073f571a944e586788f52ec0e11a98b7e6a2258de4"
    ),
    "top": (
        "377014b08cde707680494a755e7bf7d0b2131d623f2c1430ca9edf6924ea7a82"
    ),
    "profile": (
        "81b1346f3d62618ed9ee00e5ad778d5f0a4f759d41afdb029057aaaa92276e56"
    ),
}


def help_digests() -> dict:
    """``{command: sha256 of its --help}`` at ``COLUMNS=80``."""
    digests = {}
    previous = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        for command in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
                main([command, "--help"] if command else ["--help"])
            digests[command] = hashlib.sha256(
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
def test_help_is_byte_identical():
    assert help_digests() == HELP_DIGESTS


# -- the config-digest fence --------------------------------------------------
#
# Every argv below is parsed by `main`; the seam makes the engine's
# constructor raise with the SimulationConfig it was handed, and the
# digest is the sha256 of that config's repr.  The pins were taken with
# the same seam before the config surface was generated from the
# dataclasses.  Only the REPINNED argvs differ from those first pins:
# --ack-timeout, --failover-timeout and --retry-timeout-cap used to be
# dropped unless --retry-budget / --standbys was also set.


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
    "--authority-crash-at": ["--standbys", "2"],
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
    "flight": "--flight-out flight.jsonl",
}

#: Each subcommand's argv prefix, the config flags it takes and the
#: combos that apply to it.
SUBCOMMANDS = {
    "simulate": (
        ["simulate"],
        CORE + ["--arrival", "--pareto-alpha", "--churn-rate"] + LAYERS,
        COMBOS,
    ),
    "observe": (["observe"], CORE + RESILIENCE, RESILIENCE_COMBOS),
    "chaos": (["chaos", "calm"], CORE + ["--push-lead"] + LAYERS, COMBOS),
    # A replay's workload is the trace: --rate, --duration, --theta and
    # --arrival shape `trace make` only and must not reach the config.
    "replay": (
        ["trace", "replay", "w.trace"],
        ["--scheme", "--nodes", "--seed", "--rate", "--duration",
         "--theta", "--arrival"],
        {},
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


def config_matrix() -> dict:
    """``{name: argv}``: defaults, every flag, the combos, the extras."""
    matrix = {}
    for name, (prefix, flags, combos) in SUBCOMMANDS.items():
        matrix[name] = list(prefix)
        for flag in flags:
            value = [] if VALUES[flag] is None else [VALUES[flag]]
            matrix[f"{name} {flag}"] = (
                prefix + [flag] + value + NEEDS.get(flag, [])
            )
        for combo, argv in combos.items():
            matrix[f"{name} {combo}"] = prefix + argv.split()
    for name, argv in EXTRA.items():
        matrix[name] = argv.split()
    return matrix


def config_digests() -> dict:
    """``{name: sha256(repr(config))[:16]}`` over :func:`config_matrix`.

    Runs in the current directory, where it writes the replay's trace
    and whatever output files the argvs name.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        main(["trace", "make", "w.trace", "--nodes", "64",
              "--duration", "1200"])
    return {
        name: hashlib.sha256(
            repr(config_of(argv)).encode()
        ).hexdigest()[:16]
        for name, argv in config_matrix().items()
    }


CONFIG_DIGESTS = {
    "simulate": "0c20a25b70bdef5f",
    "simulate --scheme": "e4c107f87dcbd7cc",
    "simulate --nodes": "0b4d32c840a447ff",
    "simulate --degree": "c1107843617e6a19",
    "simulate --rate": "57f5e5fc7602a8c7",
    "simulate --theta": "579a7d2811aa24b7",
    "simulate --threshold": "27ea1de3f709dacc",
    "simulate --ttl": "5efcaa1b3aa627c0",
    "simulate --duration": "27c26cc5262bb297",
    "simulate --warmup": "7b65b1839037266b",
    "simulate --topology": "4e9c58366f51e622",
    "simulate --seed": "8c4b957c6ba0c741",
    "simulate --arrival": "b7917db63bc16473",
    "simulate --pareto-alpha": "1ea3b1f295d36366",
    "simulate --churn-rate": "791baff22ed10a24",
    "simulate --loss-rate": "246fa293d8af9440",
    "simulate --duplicate-rate": "0d50db4cb14ed562",
    "simulate --silent-failures": "6e1abd01729c516a",
    "simulate --retry-budget": "0646774e1b48e011",
    "simulate --ack-timeout": "39a6939778ac2050",
    "simulate --retry-timeout-cap": "0fbd4d423888531d",
    "simulate --lease-ttl": "b20d3f0bfec41cc5",
    "simulate --partition-at": "adf1d4390c2d5906",
    "simulate --partition-duration": "0c20a25b70bdef5f",
    "simulate --partition-components": "0c20a25b70bdef5f",
    "simulate --standbys": "1349a137ba57c8b1",
    "simulate --failover-timeout": "a8fbb2df7970c529",
    "simulate --authority-crash-at": "e5d44b2144e23410",
    "simulate --audit-interval": "46a54da23445deda",
    "simulate --service-rate": "3f2d69c66ac5064f",
    "simulate --inbox-capacity": "0c20a25b70bdef5f",
    "simulate --max-subscribers": "d2ef07c69292da82",
    "simulate --breaker-threshold": "51e3f14b6b443e8b",
    "simulate --breaker-cooldown": "0c20a25b70bdef5f",
    "simulate --coalesce-gap": "9cf8ee1e80785fdf",
    "simulate --storm": "5e4f2d07bd11fbd7",
    "simulate --storm-start": "0c20a25b70bdef5f",
    "simulate --storm-duration": "0c20a25b70bdef5f",
    "simulate --storm-rate": "0c20a25b70bdef5f",
    "simulate --storm-rank-flips": "0c20a25b70bdef5f",
    "simulate --storm-burst": "0c20a25b70bdef5f",
    "simulate --mean-session": "044ecb3d675dafb2",
    "simulate --mean-downtime": "0c20a25b70bdef5f",
    "simulate --session-alpha": "0c20a25b70bdef5f",
    "simulate --downtime-sigma": "0c20a25b70bdef5f",
    "simulate --diurnal-amplitude": "a9e85d5bdfd7a47a",
    "simulate --diurnal-period": "0c20a25b70bdef5f",
    "simulate --regional-rate": "8011203e0d56e449",
    "simulate --regional-radius": "0c20a25b70bdef5f",
    "simulate --damp-suppress": "0c20a25b70bdef5f",
    "simulate --damp-reuse": "0c20a25b70bdef5f",
    "simulate --damp-penalty": "0c20a25b70bdef5f",
    "simulate --damp-half-life": "0c20a25b70bdef5f",
    "simulate --interest-policy": "2ed388dbcca2feab",
    "simulate --threshold-floor": "ef7521f0efef70c9",
    "simulate --threshold-ceiling": "17eed6a60d8b7ee9",
    "simulate --adaptive-gain": "f53369fd49045d20",
    "simulate faults": "34987168c01d332b",
    "simulate retry": "b8204d7fa770f2db",
    "simulate failover": "6ed6a9577964eceb",
    "simulate partition": "8311f4cca97b52fb",
    "simulate overload": "0b9280859a1cbc94",
    "simulate storm placed": "f7f1fe5247097c8b",
    "simulate two storms": "6b6ada459844218d",
    "simulate two storms placed": "75512d59f6304444",
    "simulate sessions": "8edf2d978ead4a41",
    "simulate regional": "8b9e33fb26357746",
    "simulate diurnal": "5be2219914fa4e10",
    "simulate damping": "77acb51292046151",
    "simulate interest": "0af55b8c47364cbf",
    "simulate flight": "2328a63a374e77c6",
    "observe": "bb3595874a55e734",
    "observe --scheme": "5d959b87537361e6",
    "observe --nodes": "b28f0a348c4f6698",
    "observe --degree": "c4ba3458358c7495",
    "observe --rate": "e586d9f50cdd5855",
    "observe --theta": "7f5a8d3a87b45391",
    "observe --threshold": "2913121b1668664a",
    "observe --ttl": "8113100821e6a428",
    "observe --duration": "06ddd16c54b75e11",
    "observe --warmup": "2e7e355d18731d13",
    "observe --topology": "8838384bae4ba7b7",
    "observe --seed": "4ded3974a0ab3b60",
    "observe --loss-rate": "21f36ced2257ead0",
    "observe --duplicate-rate": "aaaa13d01c190315",
    "observe --silent-failures": "42999b4be1de387c",
    "observe --retry-budget": "8b55f43e11b0e2f2",
    "observe --ack-timeout": "9a5c247eae036957",
    "observe --retry-timeout-cap": "950c4059a38d1038",
    "observe --lease-ttl": "c6c0e1a0f56a7721",
    "observe --partition-at": "007ceecfb3bb40e0",
    "observe --partition-duration": "bb3595874a55e734",
    "observe --partition-components": "bb3595874a55e734",
    "observe --standbys": "7a5407e2a8bae320",
    "observe --failover-timeout": "c150bf29cce9a034",
    "observe --authority-crash-at": "5c5a0374455e11c0",
    "observe --audit-interval": "2919bd84e95a0bcd",
    "observe faults": "9b5b00bfe50faf03",
    "observe retry": "4bfc90735f7c3c93",
    "observe failover": "da155811d7979e0a",
    "observe partition": "7972c048775751d9",
    "chaos": "faf6c322f87c627a",
    "chaos --scheme": "8d542ade988e07c4",
    "chaos --nodes": "599d5aa785801886",
    "chaos --degree": "c0435070178dfb03",
    "chaos --rate": "dba94f47cb0cb172",
    "chaos --theta": "e9b797de80e086ba",
    "chaos --threshold": "ff5063396a94f1f7",
    "chaos --ttl": "bfcdd90d904014b1",
    "chaos --duration": "e9fe80e101b1dcf8",
    "chaos --warmup": "ff25c32abd849d24",
    "chaos --topology": "f64eda50db5fc3f7",
    "chaos --seed": "bf81ef092d98ebee",
    "chaos --push-lead": "b5cc70bf540547de",
    "chaos --loss-rate": "39bf11f4862feb9d",
    "chaos --duplicate-rate": "698a7b2cf9d4ad49",
    "chaos --silent-failures": "be96af543794b807",
    "chaos --retry-budget": "2b107df294558c75",
    "chaos --ack-timeout": "ea7472dec6642fdd",
    "chaos --retry-timeout-cap": "787c5295eb00c11b",
    "chaos --lease-ttl": "0bed65562ef14a53",
    "chaos --partition-at": "411e1c88b72cc928",
    "chaos --partition-duration": "faf6c322f87c627a",
    "chaos --partition-components": "faf6c322f87c627a",
    "chaos --standbys": "d422abc7347d21e8",
    "chaos --failover-timeout": "58f324a4afbb2433",
    "chaos --authority-crash-at": "665225e291cde05d",
    "chaos --audit-interval": "15ed656a954e4df8",
    "chaos --service-rate": "6a7c52c295dc43fe",
    "chaos --inbox-capacity": "faf6c322f87c627a",
    "chaos --max-subscribers": "ccb3f89666c70fa4",
    "chaos --breaker-threshold": "12306ec9bd9d127a",
    "chaos --breaker-cooldown": "faf6c322f87c627a",
    "chaos --coalesce-gap": "4f61f036045ef150",
    "chaos --storm": "5b9c8fa277a6002d",
    "chaos --storm-start": "faf6c322f87c627a",
    "chaos --storm-duration": "faf6c322f87c627a",
    "chaos --storm-rate": "faf6c322f87c627a",
    "chaos --storm-rank-flips": "faf6c322f87c627a",
    "chaos --storm-burst": "faf6c322f87c627a",
    "chaos --mean-session": "a00ec690f0a0a46b",
    "chaos --mean-downtime": "faf6c322f87c627a",
    "chaos --session-alpha": "faf6c322f87c627a",
    "chaos --downtime-sigma": "faf6c322f87c627a",
    "chaos --diurnal-amplitude": "20e89b948bdb5982",
    "chaos --diurnal-period": "faf6c322f87c627a",
    "chaos --regional-rate": "153751f0cabad30a",
    "chaos --regional-radius": "faf6c322f87c627a",
    "chaos --damp-suppress": "faf6c322f87c627a",
    "chaos --damp-reuse": "faf6c322f87c627a",
    "chaos --damp-penalty": "faf6c322f87c627a",
    "chaos --damp-half-life": "faf6c322f87c627a",
    "chaos --interest-policy": "bcaaad032ec8981b",
    "chaos --threshold-floor": "fd89519f645907de",
    "chaos --threshold-ceiling": "6b20b8950737b180",
    "chaos --adaptive-gain": "5565b3c13a6bf36c",
    "chaos faults": "911f407d5feeff43",
    "chaos retry": "d5b3ef5bbe6f69af",
    "chaos failover": "e3b0c767a41f7df5",
    "chaos partition": "afac5d90a2312598",
    "chaos overload": "fe606103e443744a",
    "chaos storm placed": "491c036f35fac207",
    "chaos two storms": "6636b382e7a3104e",
    "chaos two storms placed": "369ebb021bd1d99e",
    "chaos sessions": "6e7aa6adcc2bf90b",
    "chaos regional": "b8f8a53a944e0bf9",
    "chaos diurnal": "27bfadcde238fd4a",
    "chaos damping": "743a8bf9cf7fc181",
    "chaos interest": "e55cd25de565deeb",
    "chaos flight": "35feb1df995d5662",
    "replay": "62b69640d891eb3d",
    "replay --scheme": "8f29904d619ae057",
    "replay --nodes": "ae4cbfdeb10a5200",
    "replay --seed": "50b6a76c5694ae44",
    "replay --rate": "62b69640d891eb3d",
    "replay --duration": "62b69640d891eb3d",
    "replay --theta": "62b69640d891eb3d",
    "replay --arrival": "62b69640d891eb3d",
    "chaos blackout": "e1dad244c08b24a2",
    "chaos blackout failover": "b1b7783415196e1d",
    "chaos split partition": "0b98d2850c0a1dd6",
    "chaos stampede": "e1ed02d5ec02936a",
    "chaos stampede storm": "6aad5c8dccdd33ef",
    "chaos flap": "09dcb68555ad5b56",
    "chaos regicide": "b5694ad7d174e990",
}

#: Argvs whose config intentionally differs from the first pins: the
#: flag now reaches its field without the --retry-budget / --standbys
#: gate.  Each maps to the field and the value it must carry.
REPINNED = {
    f"{name} {flag}": (field, value)
    for name in ("simulate", "observe", "chaos")
    for flag, field, value in (
        ("--ack-timeout", "ack_timeout", 5.0),
        ("--failover-timeout", "failover_timeout", 60.0),
        ("--retry-timeout-cap", "retry_timeout_cap", 10.0),
    )
}


class TestConfigFence:
    def test_every_argv_hands_the_engine_the_pinned_config(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert config_digests() == CONFIG_DIGESTS

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
                ["--retry-timeout-cap", "1"],
                "retry_timeout_cap (1.0) must be >= ack_timeout (2.0)",
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
