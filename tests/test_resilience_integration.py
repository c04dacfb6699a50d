"""End-to-end resilience tests: Section III-C failure cases under loss.

The synchronous driver tests in ``test_dup_maintenance.py`` verify the
repair *logic* of every failure case with perfectly delivered control
messages.  These tests re-run the failure cases through the full engine
with a hostile transport — 40% control-plane loss plus silent failures
— and assert that the retry channel and the lease machinery still
converge the tree to an invariant-clean state.

Pattern: a lossy *storm* phase in which the victim fails and repair
messages are genuinely lost and retransmitted, followed (where needed)
by a *calm* phase with the injector detached, after which the state
must be exactly what the lossless driver tests predict.
"""

import pytest

from repro.core import check_dup_invariants
from repro.engine import Simulation, SimulationConfig
from repro.errors import ProtocolError
from repro.net.faults import FaultPlan
from repro.net.reliable import RetryPlan

LEASE_TTL = 600.0


def lossy_sim(**overrides):
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
        faults=FaultPlan(
            loss_by_category={"control": 0.4}, silent_failures=True
        ),
        retry=RetryPlan(5),
        ack_timeout=1.0,
        lease_ttl=LEASE_TTL,
    )
    defaults.update(overrides)
    sim = Simulation(SimulationConfig(**defaults))
    sim.start()
    sim.env.run(until=0.0)
    return sim


def subscribe(sim, *nodes):
    """Drive the query recipe that leaves ``nodes`` subscribed."""
    for at in (None, 3550.0, 3650.0):
        if at is not None:
            sim.env.run(until=at)
        for node in nodes:
            sim.scheme.on_local_query(node)
    sim.env.run(until=3700.0)


def run_until(sim, predicate, deadline, step=50.0, keep_interested=()):
    """Advance the sim until ``predicate()`` holds (or fail the test).

    ``keep_interested`` nodes get a query every step so the interest
    cut-off does not unsubscribe them while repair is in progress.
    """
    while not predicate():
        if sim.env.now >= deadline:
            pytest.fail(
                f"did not converge by t={deadline} (now={sim.env.now})"
            )
        sim.env.run(until=sim.env.now + step)
        for node in keep_interested:
            if node in sim.tree and sim.functioning(node):
                sim.scheme.on_local_query(node)


def invariants_hold(sim):
    try:
        check_dup_invariants(sim.scheme.protocol, sim.tree)
    except ProtocolError:
        return False
    return True


def calm_phase(sim, duration=2.5 * LEASE_TTL / 3.0):
    """Detach the injector and let the lease machinery settle."""
    sim.transport.use_injector(None)
    sim.env.run(until=sim.env.now + duration)


def s_list(sim, node):
    return set(sim.scheme.protocol.s_list(node))


class TestCase1Uninvolved:
    def test_failure_off_the_virtual_paths_disturbs_nothing(self):
        sim = lossy_sim()
        subscribe(sim, 5, 3)
        # A leaf under node 1 sits on no virtual path.
        leaf = sim.allocate_node_id()
        sim.scheme.on_node_joined_leaf(1, leaf)
        sim.fail_silently(leaf)
        sim.env.run(until=sim.env.now + 2 * LEASE_TTL)
        # Nobody ever sends to it, so nobody ever suspects it — the
        # blackhole model is honest about undetectable failures.
        assert leaf in sim.injector.undetected()
        # The subscription structure is untouched.
        assert s_list(sim, 3) == {3, 5}
        assert s_list(sim, 4) == {5}
        assert invariants_hold(sim)


class TestCase2EndNode:
    def test_dead_subscriber_pruned_via_lease_expiry(self):
        sim = lossy_sim()
        subscribe(sim, 5, 3)
        assert s_list(sim, 4) == {5}
        sim.fail_silently(5)
        # Node 5 stops refreshing; node 4's lease on it expires and the
        # suspicion runs failure case 2 despite the lossy control plane.
        run_until(
            sim,
            lambda: 5 not in sim.tree,
            deadline=3700.0 + 3 * LEASE_TTL,
            keep_interested=(3,),
        )
        assert sim.injector.detected_count == 1
        assert sim.scheme.lease_expiries > 0
        calm_phase(sim)
        assert s_list(sim, 4) == set()
        assert s_list(sim, 3) == {3}
        assert invariants_hold(sim)
        # Detection latency made it into the metrics histogram.
        assert sim._detection_latency.count == 1


class TestCase3Relay:
    def test_dead_relay_spliced_and_path_reconnected(self):
        sim = lossy_sim()
        subscribe(sim, 5, 3)
        sim.fail_silently(4)
        # Node 4 carries no pushes (the virtual path collapses past
        # it), but node 5's lease refreshes blackhole against it and
        # the request-timeout suspicion fires.
        run_until(
            sim,
            lambda: 4 not in sim.tree,
            deadline=3700.0 + 3 * LEASE_TTL,
            keep_interested=(5, 3),
        )
        assert sim.injector.detected_count == 1
        calm_phase(sim)
        assert sim.tree.parent(5) == 3
        assert s_list(sim, 3) == {3, 5}
        assert invariants_hold(sim)


class TestCase4Junction:
    def test_dead_junction_repaired_by_orphan_resubscribes(self):
        sim = lossy_sim()
        subscribe(sim, 5, 3)
        assert s_list(sim, 3) == {3, 5}  # 3 is the junction
        sim.fail_silently(3)
        run_until(
            sim,
            lambda: 3 not in sim.tree,
            deadline=3700.0 + 3 * LEASE_TTL,
            keep_interested=(5,),
        )
        assert sim.injector.detected_count == 1
        calm_phase(sim)
        # Orphan 5 re-subscribed through the repaired chain 0-1-2-4-5
        # even though some of its refresh-subscribes were lost.
        for upstream in (0, 1, 2, 4):
            assert s_list(sim, upstream) == {5}
        assert s_list(sim, 5) == {5}
        assert invariants_hold(sim)

    def test_repair_retries_actually_fired(self):
        # The storm phase must really have exercised loss + retry; a
        # vacuous pass (nothing lost) would not test convergence.
        sim = lossy_sim()
        subscribe(sim, 5, 3)
        sim.fail_silently(3)
        run_until(
            sim,
            lambda: 3 not in sim.tree,
            deadline=3700.0 + 3 * LEASE_TTL,
            keep_interested=(5,),
        )
        assert sim.injector.injected_losses > 0
        assert sim.reliable.retries > 0


class TestCase5Root:
    def test_root_replacement_briefed_by_child_despite_loss(self):
        sim = lossy_sim()
        subscribe(sim, 5, 3)
        new_root = sim.allocate_node_id()
        sim.scheme.on_root_failed(new_root)
        assert sim.tree.root == new_root
        # The surviving child briefs the new root on its branch
        # representative; the brief travels on the reliable channel.
        sim.env.run(until=sim.env.now + 30.0)
        assert s_list(sim, new_root) == {3}
        assert s_list(sim, 3) == {3, 5}
        assert invariants_hold(sim)


class TestFalseSuspicion:
    def test_wrongly_suspected_live_node_resubscribes_via_lease(self):
        # A suspicion against a healthy peer must only cost local state:
        # the next lease refresh arrives with an unknown subject and is
        # treated as a subscribe, healing the path.
        sim = lossy_sim(faults=None, retry=None)
        subscribe(sim, 5, 3)
        sim.suspect_peer(4, 5)
        assert 5 in sim.tree  # overlay untouched
        assert s_list(sim, 4) == set()  # local entry dropped
        sim.env.run(until=sim.env.now + LEASE_TTL)
        assert s_list(sim, 4) == {5}
        assert invariants_hold(sim)
