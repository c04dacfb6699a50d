"""A fence around the six sweep studies at every scale, without simulating.

The seam replaces :meth:`ParallelRunner.run_trials` with a fake that
records each :class:`TrialSpec` and answers with a deterministic
synthetic :class:`SimulationResult` drawn from a hash of the trial's
config.  Each synthetic result carries every extras key, percentile,
hop category and ``stale_read_fraction`` the studies read, so one run
of a study exercises its whole grid, column table and shape checks in
milliseconds.

For each study x scale the digests below pin the spec list (config
fingerprint, point, scheme, replication), ``canonical(result)`` from
the golden tests, and ``result.render()`` (shape-check details and
column order included).  They were taken with the same seam before the
studies were rebuilt on the shared sweep harness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect

import pytest

from repro.engine.parallel import ParallelRunner
from repro.engine.results import SimulationResult
from repro.experiments import get_experiment
from tests.test_goldens import canonical

STUDIES = ("resilience", "partition", "overload", "adaptive", "fluctuation",
           "churn")
SCALES = ("smoke", "quick", "bench", "paper")

#: Integer extras the studies total, count or take the max of.
COUNTS = (
    "overload_shed_control", "max_queue_depth", "breaker_trips",
    "rejected_subscribers", "pushes_coalesced", "authority_coalesced_updates",
    "delivery_give_ups", "split_subscribers", "reabsorbed_subscribers",
    "dup_max_fanout", "injected_losses", "retries", "acked",
    "lease_expiries", "partition_drops", "audit_violations", "audit_repairs",
    "session_crashes", "session_rejoins", "session_rejoins_damped",
    "flap_suppressions", "rejoin_excised_entries", "rejoin_reconciles",
)
#: Float extras the studies average; a quarter of them come out NaN so
#: the finite-mean path is exercised.
FLOATS = (
    "shed_fraction", "queue_depth_p99", "detection_p50", "detection_p95",
    "failover_at", "audit_reconvergence_p50", "audit_reconvergence_max",
)


def _draw(fingerprint: bytes, label: str) -> float:
    """A uniform [0, 1) value from a config fingerprint and a label."""
    digest = hashlib.sha256(fingerprint + label.encode()).digest()
    return int.from_bytes(digest[:6], "big") / 2**48


def synthetic(spec) -> SimulationResult:
    """The deterministic stand-in result of one trial."""
    fingerprint = hashlib.sha256(repr(spec.config).encode()).digest()

    def draw(label: str) -> float:
        return _draw(fingerprint, label)

    def count(label: str, top: int = 50) -> int:
        return int(draw(label) * top)

    extras: dict = {key: count(key) for key in COUNTS}
    for key in FLOATS:
        nan = draw(key + "?") < 0.25
        extras[key] = float("nan") if nan else draw(key) * 100.0
    extras["failover_promoted"] = count("failover_promoted", 4) - 1
    if draw("threshold?") < 0.75:
        extras["threshold_min"] = count("threshold_min", 4)
        extras["threshold_max"] = extras["threshold_min"] + count(
            "threshold_max", 6
        )
    return SimulationResult(
        config=spec.config,
        scheme=spec.config.scheme,
        queries=count("queries", 5000) + 1,
        mean_latency=draw("latency") * 5.0,
        latency_ci=None,
        cost_per_query=draw("cost") * 10.0,
        hit_rate=draw("hit_rate"),
        hop_breakdown={
            category: count(category, 10_000)
            for category in ("query", "control", "push")
        },
        dropped_messages=count("dropped"),
        incomplete_queries=count("incomplete"),
        final_population=count("population", 1000) + 2,
        wall_seconds=0.0,
        extras=extras,
        latency_percentiles={
            name: draw(name) * 20.0 for name in ("p50", "p95", "p99")
        },
        stale_read_fraction=draw("stale"),
    )


def run_study(monkeypatch, study: str, scale: str, answer=synthetic):
    """Run ``study`` through the seam; returns ``(result, specs)``."""
    specs: list = []

    def fake_run_trials(self, trials):
        trials = list(trials)
        specs.extend(trials)
        return [answer(spec) for spec in trials]

    monkeypatch.setattr(ParallelRunner, "run_trials", fake_run_trials)
    result = get_experiment(study)(scale=scale, replications=2, seed=1)
    return result, specs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fence_digests(monkeypatch, study: str, scale: str) -> tuple:
    """``(specs, canonical, render)`` sha256 digests of one study run."""
    result, specs = run_study(monkeypatch, study, scale)
    spec_lines = "\n".join(
        f"{_sha(repr(spec.config))} {spec.point!r} {spec.scheme} "
        f"{spec.replication}"
        for spec in specs
    )
    return (_sha(spec_lines), _sha(canonical(result)), _sha(result.render()))


FENCE = {
    ('resilience', 'smoke'): (
        "f467f7376c5051db7ef547e8e7d155deb20f80e88d5e75cb3948db1f8a9a327f",
        "3c3822df85752c9743a8f4296c397f1558cccbbe6971f1380a0197d46696c07b",
        "b1be4c91916354ec9a5eed78204b0252a46988bc2d2411695a26c8eb5889d412",
    ),
    ('resilience', 'quick'): (
        "2973451ccc916047c296e28ceb6457a0c06d186987a8d76c9ef5e69a310707fb",
        "8dd64197589254bba85e5e718463ce400e95188a7dbdb04dc33884c4a58d62bf",
        "1f171b474915ffe2ff0d57f92cb64b7f34ecd99ba2aa5b7ce6645eec921ee231",
    ),
    ('resilience', 'bench'): (
        "fa2565fd3bf22484bee42c57ea19f3883154fb03b26d761807bdacdc3c197a33",
        "330fae9adc1eefa359249c4671642700fd0922385600b82b830e951d21d1a6d7",
        "d704b02140073f37ededfd31f06eb53e75495cc789fba0ea68ef4050141a5b35",
    ),
    ('resilience', 'paper'): (
        "1ce36a52e52d90ca4bb7d67fc4d05214bf689fd431d25dfdfc07d660de66bb8b",
        "0fae44589dd951f22a71b49c5d8148568fbec3523e7657327cf7aadf0b320e45",
        "b62741768198b66ecd3c347cf81f07308067292f111ac951b2f7725d835ca9e2",
    ),
    ('partition', 'smoke'): (
        "f32624cdbbf21e10250fd9f925240e7a6d7e7b918a3b7143e194ebf99223b783",
        "d33140d3b254b5076ee6d20ea8af978fb40bab630d0a354915a9a4f952262339",
        "b8e14c5cac17fe548cd287182fad7e5bed174e9416e21d335561ea9f66e12a57",
    ),
    ('partition', 'quick'): (
        "3e05f23862aeb987703d412228d2ba00d2e025b61348785fe6136d7273fa8e9b",
        "8f87aca58ab8691ea9e4f73d9f6a5bf4df16d02be43cc4bfa4e5edf8770aace5",
        "c20ff7f5b7e14158bb1f28ef1a0ec0c0c72af0324c8fef1c860ac39f0c0a1c60",
    ),
    ('partition', 'bench'): (
        "2767d16aef6e9c24fa227cdd0c42592b2669ffff9e05ece6b902f89ef672e74e",
        "872aa4a0c4a93152fc136b4bdb05c3e700d5fc9209c0a29035359b5387f70724",
        "beebb2314c0a3644ed45b942f843128d6c81b51a7c8efd071e80d9aad848cbbd",
    ),
    ('partition', 'paper'): (
        "d1ef184c4e215a8e8a580f442b72852130d6bf4bd732687bb309975af0a3b0d2",
        "8b859373c2b40d7ba5435ee8687b1074a39702da7d4d59a930f293c09bedc301",
        "c3a562cb8207157377d8d4a7c0733c917213ab402cb71314a892804c46edda96",
    ),
    ('overload', 'smoke'): (
        "aac2b7d79c3f57cc6de52a55955bc196065b3d6f5cfd23dd2bc2be5aaba542fd",
        "3885da3c75d54bb2978695e7ee4321c71154d75a67d114a0cb581822d94b8502",
        "e3ca02c3295ccd01235db24ad453133af220b2dceab7da77e3ff846367c47e2b",
    ),
    ('overload', 'quick'): (
        "cc425bf8fb040a1ce2599670276e63ea8ceabaf216ee4d73ea107d33ff2590ff",
        "08ae94c49b3f1d50cdbe8608e6c0af26d4874a1937a4d4e880aca7eeabdbd2da",
        "bfc2f8c8bb081caa5af97c7ac6a178f9ab141d3ac930e793b66c1b33f95c33c9",
    ),
    ('overload', 'bench'): (
        "cc425bf8fb040a1ce2599670276e63ea8ceabaf216ee4d73ea107d33ff2590ff",
        "08ae94c49b3f1d50cdbe8608e6c0af26d4874a1937a4d4e880aca7eeabdbd2da",
        "bfc2f8c8bb081caa5af97c7ac6a178f9ab141d3ac930e793b66c1b33f95c33c9",
    ),
    ('overload', 'paper'): (
        "cc425bf8fb040a1ce2599670276e63ea8ceabaf216ee4d73ea107d33ff2590ff",
        "08ae94c49b3f1d50cdbe8608e6c0af26d4874a1937a4d4e880aca7eeabdbd2da",
        "bfc2f8c8bb081caa5af97c7ac6a178f9ab141d3ac930e793b66c1b33f95c33c9",
    ),
    ('adaptive', 'smoke'): (
        "8e7da46aeb9986e0a2ef22ff5b17718935a4a8927fba2b43724ae19ad57e1c8a",
        "62ab76ddc38ca548ada730a94165bec9aaa8b7c9db1cac15ef941e00b0d961f2",
        "b214acbbab74d855e2d5fde646674729d57ddaf23d488b9b4d45d0ccf3a3287b",
    ),
    ('adaptive', 'quick'): (
        "2eba6baff9fb45e44c7387ba59a6b1a91e8bb9214a40bbf1cace4bc21105da14",
        "23f2a108188667bb31c48e5c59492e057538d50025e50d9d3e10f3ce18f13444",
        "9c9f80d0921862853ef6da0b818ac72c040735213beeabf59cfdda387eb08b6f",
    ),
    ('adaptive', 'bench'): (
        "2eba6baff9fb45e44c7387ba59a6b1a91e8bb9214a40bbf1cace4bc21105da14",
        "23f2a108188667bb31c48e5c59492e057538d50025e50d9d3e10f3ce18f13444",
        "9c9f80d0921862853ef6da0b818ac72c040735213beeabf59cfdda387eb08b6f",
    ),
    ('adaptive', 'paper'): (
        "2eba6baff9fb45e44c7387ba59a6b1a91e8bb9214a40bbf1cace4bc21105da14",
        "23f2a108188667bb31c48e5c59492e057538d50025e50d9d3e10f3ce18f13444",
        "9c9f80d0921862853ef6da0b818ac72c040735213beeabf59cfdda387eb08b6f",
    ),
    ('fluctuation', 'smoke'): (
        "514ac2d3b14dbd0fce4a542a0558a66a891f672c99d8d6bd1631edfb11c5f70b",
        "e963a4c6cb742da7bc06c480f17de3383cbfee0005b2d2c0808082b9e9fc2031",
        "9c187e1b1cc437c8764ed85f9d6c9225a98e760ead57fb02386496618eb2db1c",
    ),
    ('fluctuation', 'quick'): (
        "7ec1727ee57115cba0cc49ed6b23146e40160ccaf1cb60e189873c76facb1eb0",
        "14f95a55965c3e760dcaaa8f3278f0f5c49bf33c0fda123a4f7bab7c1de5c158",
        "9ece68006e2a2ca52489985eef1528b34dcc17c7e37ee614581fbc53974718da",
    ),
    ('fluctuation', 'bench'): (
        "14551f1a1ad2e68b3aa23b7ad4b568e420d85f1443868241ec94dae00fe93510",
        "060412830eec5a8292732328de3defeaa531744b5ad2afdfd96dd3e90eb54f7f",
        "6e76791b48460b81f314c96972e92d91bd6c46f0d6765a11fb8b94facbb04890",
    ),
    ('fluctuation', 'paper'): (
        "cde726c32bbf3f59c13f28e6193b5739ab5ca37cc93e92ac545f7b654fa77e5c",
        "60c825799f2d91d9c4638acd4367259f3f4451c0a65d0d36e88ef2bee63930cb",
        "27d2906bdbd72644b2e55b676afa1394fddb9ffbc5ec10531dcbaed7cc9fdbb3",
    ),
    ('churn', 'smoke'): (
        "cfce10ec212e4ecd72c9a8de1ad460ce062d507d2dc3b6f9e8c0fcbfdebe2539",
        "c0203fd2ea9e90f02af508a6561d789c15b98608089d6dea47492e555f695d0d",
        "9dd2a24c1570be7692db4289b92b39020c77c9fe55534f052adeb456fe38bf93",
    ),
    ('churn', 'quick'): (
        "bc2d6beaaef78828d718f8e25ac2ff0b27fe4356f63e8cefdb08ecc1309be6e7",
        "02f69d9839262be0266f892b90008f0eaa752d63a0726865e8d6792be4019c27",
        "2e8bb5607aedba3beeb45b8025769b5e6b4ba28539c9af5f1e22c1e5b7000104",
    ),
    ('churn', 'bench'): (
        "68eae1e5cb2599a9e17bda9b244723c61899ca4517b9b1c6d64afed13044c4a4",
        "e799d8d7cbb0615ae9711c101d724879992203d1b0cea77a1272828e871e4bbf",
        "06515257a5ee1934f6b6febcf4694e0c83fb41103f697c30e8d22eae25b46eff",
    ),
    ('churn', 'paper'): (
        "4a3492da37d860e44cb017acd3e2831753e66913b7e6b258e62bbe6c2f69df72",
        "ef486b1c3d7c1b730c58154d6080dcf7f85fb579675b19ee6482dd3c7613fa8d",
        "0f75a4db652ca6f4563bc398984f7a58506e41e5cae8671d07fdfb232597bf2a",
    ),
}

SIGNATURES = {
    'resilience': (
        "(scale: 'str' = 'bench', replications: 'int' = 2, seed: 'int' = 1, levels=None, rate: 'float' = 3.0, workers=None) -> 'ExperimentResult'"
    ),
    'partition': (
        "(scale: 'str' = 'bench', replications: 'int' = 2, seed: 'int' = 1, durations=None, rate: 'float' = 3.0, workers=None) -> 'ExperimentResult'"
    ),
    'overload': (
        "(scale: 'str' = 'bench', replications: 'int' = 2, seed: 'int' = 1, intensities=None, rate: 'float' = 3.0, workers=None) -> 'ExperimentResult'"
    ),
    'adaptive': (
        "(scale: 'str' = 'bench', replications: 'int' = 2, seed: 'int' = 1, intensities=None, rate: 'float' = 3.0, workers=None) -> 'ExperimentResult'"
    ),
    'fluctuation': (
        "(scale: 'str' = 'bench', replications: 'int' = 2, seed: 'int' = 1, points=None, rate: 'float' = 3.0, workers=None) -> 'ExperimentResult'"
    ),
    'churn': (
        "(scale: 'str' = 'bench', replications: 'int' = 2, seed: 'int' = 1, levels=(0.0, 0.005, 0.02, 0.08), rate: 'float' = 3.0, schemes=('pcx', 'dup'), workers=None) -> 'ExperimentResult'"
    ),
}


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("study", STUDIES)
def test_study_fence(study, scale, monkeypatch):
    assert fence_digests(monkeypatch, study, scale) == FENCE[study, scale]


@pytest.mark.parametrize("study", STUDIES)
def test_run_signature(study):
    assert str(inspect.signature(get_experiment(study))) == SIGNATURES[study]


@pytest.mark.parametrize("late", [False, True])
def test_oracle_failover_check_reads_every_run(late, monkeypatch):
    """A late promotion in any oracle run fails the instant-failover check."""

    def answer(spec):
        result = synthetic(spec)
        if spec.point[-1] != "dup-oracle":
            return result
        at = spec.config.authority_crash_at
        if late and spec.replication == 1:
            at += 30.0
        return dataclasses.replace(
            result, extras={**result.extras, "failover_at": at}
        )

    result, _ = run_study(monkeypatch, "partition", "quick", answer)
    (check,) = [
        c for c in result.shape_checks
        if c.claim.startswith("oracle failover is instantaneous")
    ]
    assert check.passed is not late
