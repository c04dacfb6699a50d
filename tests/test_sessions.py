"""Tests of the peer-fluctuation layer (``repro.workload.sessions``).

Covers the :class:`SessionPlan` validation surface, the
:class:`FlapDamper` hysteresis, the crash-restart amnesia semantics end
to end (including the double-restart idempotency contract), regional
BFS-ball bursts, diurnal arrival modulation, the chaos-scenario wiring,
and the off-is-off bit-identity guarantee.
"""

import dataclasses
import json
import math

import pytest

from repro.engine import Simulation, SimulationConfig
from repro.engine.chaos import get_scenario
from repro.errors import ConfigError
from repro.net.faults import FaultPlan
from repro.net.reliable import RetryPlan
from repro.workload.churn import ChurnConfig, ChurnProcess
from repro.workload.sessions import FlapDamper, SessionEngine, SessionPlan


def fingerprint(result, with_config=True) -> str:
    record = dataclasses.asdict(result)
    record.pop("wall_seconds")
    if not with_config:
        record.pop("config")
    return json.dumps(record, sort_keys=True, default=repr)


def sessions_config(**overrides):
    defaults = dict(
        scheme="dup",
        num_nodes=32,
        query_rate=2.0,
        ttl=600.0,
        push_lead=60.0,
        duration=3600.0,
        warmup=300.0,
        threshold_c=2,
        seed=5,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


FLAPPY = SessionPlan(mean_session=600.0, mean_downtime=60.0)


class TestSessionPlan:
    def test_default_plan_is_inert(self):
        plan = SessionPlan()
        assert not plan.enabled
        assert not plan.lifecycle_enabled
        assert not plan.regional_enabled
        assert not plan.crashes_enabled
        assert not plan.diurnal_enabled
        assert not plan.damping_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mean_session=-1.0),
            dict(mean_downtime=-1.0),
            dict(regional_rate=-0.1),
            # Pareto sessions need a finite mean.
            dict(mean_session=600.0, mean_downtime=60.0, session_alpha=1.0),
            # Anything that crashes must be able to come back.
            dict(mean_session=600.0),
            dict(regional_rate=0.01),
            dict(mean_downtime=60.0, downtime_sigma=0.0),
            dict(diurnal_amplitude=1.0),
            dict(diurnal_amplitude=-0.1),
            dict(diurnal_amplitude=0.5, diurnal_period=0.0),
            dict(regional_radius=0),
            dict(max_down_fraction=0.0),
            dict(max_down_fraction=1.5),
            # Damping hysteresis needs 0 < reuse < suppress.
            dict(damp_suppress=2.0, damp_reuse=2.0),
            dict(damp_suppress=2.0, damp_reuse=0.0),
            dict(damp_suppress=2.0, damp_penalty=0.0),
            dict(damp_suppress=2.0, damp_half_life=0.0),
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SessionPlan(**kwargs)

    def test_enabling_properties(self):
        lifecycle = SessionPlan(mean_session=600.0, mean_downtime=60.0)
        assert lifecycle.lifecycle_enabled
        assert lifecycle.crashes_enabled
        assert lifecycle.enabled
        assert not lifecycle.regional_enabled

        regional = SessionPlan(regional_rate=0.01, mean_downtime=60.0)
        assert regional.regional_enabled
        assert regional.crashes_enabled
        assert not regional.lifecycle_enabled

        diurnal = SessionPlan(diurnal_amplitude=0.3)
        assert diurnal.diurnal_enabled
        assert diurnal.enabled
        assert not diurnal.crashes_enabled

        damped = SessionPlan(
            mean_session=600.0, mean_downtime=60.0, damp_suppress=3.0
        )
        assert damped.damping_enabled

    def test_config_accepts_and_validates_plan(self):
        config = sessions_config(sessions=FLAPPY)
        assert config.sessions is FLAPPY
        config.validate()


class TestFlapDamper:
    def test_penalty_decays_with_half_life(self):
        damper = FlapDamper(1.0, 100.0, 3.0, 1.5)
        damper.penalize(7, 0.0)
        assert damper.penalty(7, 0.0) == pytest.approx(1.0)
        assert damper.penalty(7, 100.0) == pytest.approx(0.5)
        assert damper.penalty(7, 200.0) == pytest.approx(0.25)
        assert damper.penalty(42, 0.0) == 0.0

    def test_suppress_edge_fires_exactly_once(self):
        damper = FlapDamper(1.0, 100.0, 3.0, 1.5)
        assert not damper.penalize(7, 0.0)
        assert not damper.penalize(7, 0.0)
        assert damper.penalize(7, 0.0)  # crosses 3.0: the edge
        assert damper.suppressions == 1
        assert not damper.penalize(7, 0.0)  # already suppressed
        assert damper.suppressions == 1
        assert damper.suppressed_now == 1

    def test_release_is_lazy_and_keeps_residual_penalty(self):
        released = []
        damper = FlapDamper(1.0, 100.0, 3.0, 1.5, on_release=released.append)
        for _ in range(3):
            damper.penalize(7, 0.0)
        assert damper.suppressed(7, 0.0)
        assert damper.suppressed(7, 50.0)  # 3 * 2**-0.5 > 1.5
        # One half-life decays the penalty to exactly the reuse
        # threshold: released, callback fired, residual penalty kept.
        assert not damper.suppressed(7, 100.0)
        assert damper.releases == 1
        assert released == [7]
        assert damper.suppressed_now == 0
        assert damper.penalty(7, 100.0) == pytest.approx(1.5)
        # The residual means a repeat offender re-suppresses faster than
        # a first-time flapper: two more flaps suffice instead of three.
        assert not damper.penalize(7, 100.0)
        assert damper.penalize(7, 100.0)
        assert damper.suppressions == 2

    def test_unknown_node_is_not_suppressed(self):
        damper = FlapDamper(1.0, 100.0, 3.0, 1.5)
        assert not damper.suppressed(99, 12.0)
        assert damper.releases == 0


class TestChurnVictimGuard:
    def test_empty_candidate_pool_raises_config_error(self):
        import numpy as np

        process = ChurnProcess(
            ChurnConfig(fail_rate=1.0), np.random.default_rng(1)
        )
        with pytest.raises(ConfigError, match="no eligible churn victim"):
            process.pick_victim([])


class TestOffIsOff:
    def test_inert_plan_is_bit_identical_to_no_plan(self):
        plain = Simulation(sessions_config()).run()
        with_plan = Simulation(
            sessions_config(sessions=SessionPlan())
        ).run()
        assert fingerprint(plain, with_config=False) == fingerprint(
            with_plan, with_config=False
        )

    def test_inert_plan_builds_no_engine_and_forces_no_injector(self):
        sim = Simulation(sessions_config(sessions=SessionPlan()))
        assert sim.sessions is None
        assert sim.injector is None


class TestLifecycleIntegration:
    def test_peers_crash_and_rejoin(self):
        result = Simulation(sessions_config(sessions=FLAPPY)).run()
        extras = result.extras
        assert extras["session_crashes"] > 0
        assert extras["session_rejoins"] > 0
        assert extras["session_rejoins"] <= extras["session_crashes"]
        assert extras["session_down_now"] == (
            extras["session_crashes"] - extras["session_rejoins"]
        )
        # The reconciliation handshake ran for undamped rejoins.
        assert extras["rejoin_reconciles"] > 0
        assert (
            extras["rejoin_kept_entries"] + extras["rejoin_excised_entries"]
            >= 0
        )

    def test_crash_plan_forces_silent_failures(self):
        sim = Simulation(sessions_config(sessions=FLAPPY))
        assert sim.injector is not None
        assert sim.config.faults is None  # the user's config is untouched
        assert sim.sessions is not None

    def test_root_is_protected(self):
        sim = Simulation(sessions_config(sessions=FLAPPY, seed=9))
        sim.start()
        root = sim.tree.root
        for until in (900.0, 1800.0, 2700.0, 3600.0):
            sim.env.run(until=until)
            assert sim.functioning(root)
            assert root not in sim.sessions._down

    def test_down_fraction_ceiling_defers_crashes(self):
        plan = SessionPlan(
            mean_session=200.0,
            mean_downtime=400.0,
            max_down_fraction=0.25,
        )
        sim = Simulation(sessions_config(sessions=plan, num_nodes=16))
        sim.start()
        limit = plan.max_down_fraction * 16
        for until in range(300, 3601, 300):
            sim.env.run(until=float(until))
            assert sim.sessions.down_now <= limit
        assert sim.sessions.deferred > 0

    def test_fluctuating_run_is_replayable(self):
        config = sessions_config(sessions=FLAPPY)
        first = Simulation(config).run()
        second = Simulation(config).run()
        assert fingerprint(first) == fingerprint(second)


class TestFlapChaos:
    def test_flap_storm_keeps_auditor_clean_and_trips_damping(self):
        config = get_scenario("flap").apply(
            sessions_config(
                retry=RetryPlan(4),
                ack_timeout=2.0,
                lease_ttl=300.0,
                seed=7,
            )
        )
        result = Simulation(config).run()
        extras = result.extras
        assert extras["flap_suppressions"] > 0
        assert extras["session_rejoins_damped"] > 0
        # Zero *unrepaired* divergences: every violation the auditor
        # finds is repaired in the same sweep.
        assert extras["audit_sweeps"] > 0
        assert extras["audit_violations"] == extras["audit_repairs"]

    def test_scenario_plans_registered(self):
        flap = get_scenario("flap")
        assert flap.sessions is not None
        assert flap.sessions.damping_enabled
        regional = get_scenario("regional")
        assert regional.sessions is not None
        assert regional.sessions.regional_enabled

    def test_scenario_keeps_existing_session_plan(self):
        config = sessions_config(sessions=FLAPPY)
        applied = get_scenario("flap").apply(config)
        assert applied.sessions is FLAPPY


class TestRegionalBursts:
    PLAN = SessionPlan(
        regional_rate=1.0 / 400.0,
        regional_radius=2,
        mean_downtime=120.0,
    )

    def test_ball_is_the_bfs_neighborhood(self):
        sim = Simulation(sessions_config(sessions=self.PLAN))
        sim.start()
        engine = sim.sessions
        tree = sim.tree
        root = tree.root
        seed = next(
            node
            for node in sorted(tree.nodes)
            if node != root and tree.parent(node) != root
        )
        # One neighbor down (fluctuation layer) and one silently dead
        # (another layer): neither may be crashed again.
        down = tree.parent(seed)
        engine._crash(down, origin="test")
        sim.fail_silently(next(n for n in tree.children(root) if n != down))
        crashable = engine._crashable()
        # The definitional rule, node by node, as the reference.
        assert crashable == {
            node
            for node in tree.nodes
            if sim.functioning(node)
            and node not in engine._down
            and node not in engine._protected()
        }
        assert len(crashable) == len(tree) - 3
        ball = engine._ball(seed, crashable)
        assert ball[0] == seed
        assert root not in ball
        expected = {seed}
        frontier = {seed}
        for _ in range(self.PLAN.regional_radius):
            nxt = set()
            for node in frontier:
                nxt.update(tree.children(node))
                parent = tree.parent(node)
                if parent is not None:
                    nxt.add(parent)
            frontier = nxt - expected
            expected |= frontier
        assert set(ball) == expected & crashable
        assert down in expected - crashable

    def test_regional_scenario_fires_bursts(self):
        config = get_scenario("regional").apply(
            sessions_config(
                sessions=self.PLAN,
                retry=RetryPlan(4),
                ack_timeout=2.0,
                lease_ttl=300.0,
            )
        )
        result = Simulation(config).run()
        extras = result.extras
        assert extras["session_regional_bursts"] > 0
        assert (
            extras["session_regional_victims"]
            >= extras["session_regional_bursts"]
        )
        assert extras["session_rejoins"] > 0
        assert extras["audit_violations"] == extras["audit_repairs"]


def amnesia_sim(**overrides):
    """A small manually-driven sim whose nodes can crash-restart."""
    defaults = dict(
        scheme="dup",
        num_nodes=6,
        topology="chain",
        hop_latency_mean=0.001,
        duration=50_000.0,
        warmup=0.0,
        threshold_c=1,
        seed=1,
        piggyback=False,
        faults=FaultPlan(silent_failures=True),
        retry=RetryPlan(5),
        ack_timeout=1.0,
        lease_ttl=600.0,
    )
    defaults.update(overrides)
    sim = Simulation(SimulationConfig(**defaults))
    sim.start()
    sim.env.run(until=0.0)
    return sim


def subscribe(sim, *nodes):
    for at in (None, 3550.0, 3650.0):
        if at is not None:
            sim.env.run(until=at)
        for node in nodes:
            sim.scheme.on_local_query(node)
    sim.env.run(until=3700.0)


def state_fingerprint(sim):
    """Tree edges plus every non-empty subscriber list."""
    protocol = sim.scheme.protocol
    edges = sorted(
        (node, sim.tree.parent(node)) for node in sim.tree.nodes
    )
    lists = sorted(
        (node, tuple(sorted(protocol.peek_entries(node))))
        for node in protocol.nodes_with_state()
    )
    return (edges, lists)


class TestCrashRestartAmnesia:
    def test_rejoin_restores_retained_subscriber_list(self):
        sim = amnesia_sim()
        subscribe(sim, 5, 3)
        before = state_fingerprint(sim)
        snapshot = sim.crash_node(4)
        assert snapshot["scheme"]["entries"] == (5,)
        sim.rejoin_node(4, snapshot)
        sim.env.run(until=sim.env.now + 10.0)
        assert state_fingerprint(sim) == before

    def test_double_restart_reconciles_like_single_restart(self):
        # The satellite contract: a node crash-restarting twice in a
        # row with no intervening traffic must reconcile to the same
        # tree fingerprint as a single restart.
        single = amnesia_sim()
        double = amnesia_sim()
        for sim in (single, double):
            subscribe(sim, 5, 3)

        snapshot = single.crash_node(4)
        single.rejoin_node(4, snapshot)

        first = double.crash_node(4)
        double.rejoin_node(4, first)
        second = double.crash_node(4)
        double.rejoin_node(4, second)

        settle = max(single.env.now, double.env.now) + 50.0
        single.env.run(until=settle)
        double.env.run(until=settle)
        assert state_fingerprint(single) == state_fingerprint(double)

    def test_suppressed_rejoin_is_full_amnesia(self):
        sim = amnesia_sim()
        subscribe(sim, 5, 3)
        snapshot = sim.crash_node(4)
        sim.rejoin_node(4, snapshot, suppressed=True)
        # No retained list, no re-subscription traffic: the node came
        # back as a bare leaf.
        assert sim.scheme.protocol.peek_entries(4) == ()
        assert 4 in sim.tree
        sim.env.run(until=sim.env.now + 10.0)
        assert sim.scheme.protocol.peek_entries(4) == ()

    def test_stale_self_entry_excised_when_interest_lapsed(self):
        # A short interest window (= the index TTL) so the downtime
        # outlasts it.  The subscription rides a cache miss, so the
        # final query must land after the previous fetch expired.
        sim = amnesia_sim(ttl=600.0)
        for at in (3550.0, 3650.0, 4200.0):
            sim.env.run(until=at)
            sim.scheme.on_local_query(5)
        sim.env.run(until=4300.0)
        snapshot = sim.crash_node(5)
        assert 5 in snapshot["scheme"]["entries"]
        # Stay down past the interest window so the self-subscription
        # no longer reflects live interest.
        sim.env.run(until=sim.env.now + 2_000.0)
        sim.rejoin_node(5, snapshot)
        assert 5 not in sim.scheme.protocol.peek_entries(5)
        assert sim.scheme.rejoin_reconciles == 1


class TestCrashRestartKeepsItsCopy:
    """A restarted node's index copy is the one it had on disk.

    PCX on the amnesia chain: node 4 fetches a copy, crashes, and a
    survivor's suspicion runs the failure repair, which splices it out
    and drops its copy.  The restart files the very same copy again,
    with the timer it started when the pre-crash reply arrived; the
    next fresher reply still supersedes it.
    """

    def _restarted(self):
        sim = amnesia_sim(scheme="pcx")
        sim.env.run(until=10.0)
        sim.scheme.on_local_query(4)
        sim.env.run(until=11.0)  # the reply is back (ms hops)
        held = sim.lookup(4)
        assert held is sim.authority.current
        snapshot = sim.crash_node(4)
        sim.suspect_peer(3, 4)
        assert 4 not in sim.tree  # repaired: spliced out, copy dropped
        sim.env.run(until=1000.0)
        sim.rejoin_node(4, snapshot)
        assert 4 in sim.tree
        return sim, held

    def test_rejoin_restores_the_copy_with_its_pre_crash_timer(self):
        sim, held = self._restarted()
        ttl = sim.config.ttl
        assert sim.lookup(4) is held
        # Stored in (10, 11): valid until then + ttl, not rejoin + ttl.
        sim.env.run(until=10.0 + ttl)
        assert sim.lookup(4) is held
        sim.env.run(until=11.0 + ttl)
        assert sim.lookup(4) is None

    def test_a_fresher_reply_supersedes_the_restored_copy(self):
        sim, held = self._restarted()
        sim.env.run(until=sim.config.ttl)  # the authority re-issued
        fresher = sim.authority.current
        assert fresher.version > held.version
        assert sim.lookup(4) is held  # stale, but its timer still runs
        sim.copies.put(fresher, sim.env.now, 4)
        assert sim.lookup(4) is fresher
        sim.copies.put(held, sim.env.now, 4)  # an older reply never regresses it
        assert sim.lookup(4) is fresher


class TestDiurnalModulation:
    def test_modulation_curve(self):
        plan = SessionPlan(diurnal_amplitude=0.5, diurnal_period=100.0)
        engine = SessionEngine.__new__(SessionEngine)
        engine.plan = plan
        assert engine.modulation(0.0) == pytest.approx(1.0)
        assert engine.modulation(25.0) == pytest.approx(1.5)
        assert engine.modulation(75.0) == pytest.approx(0.5)
        assert engine.modulation(100.0) == pytest.approx(1.0)

    def test_diurnal_only_plan_needs_no_injector(self):
        sim = Simulation(
            sessions_config(sessions=SessionPlan(diurnal_amplitude=0.3))
        )
        assert sim.injector is None
        assert sim.sessions is not None

    def test_diurnal_modulation_shifts_the_workload(self):
        plain = Simulation(sessions_config()).run()
        curved = Simulation(
            sessions_config(sessions=SessionPlan(diurnal_amplitude=0.9))
        ).run()
        assert curved.queries != plain.queries
        assert math.isfinite(curved.mean_latency)
