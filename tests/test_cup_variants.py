"""Focused tests on the two CUP variants' distinguishing mechanics.

The reproduction ships two readings of CUP (see ``repro/schemes``):
``cup`` (soft-state registrations riding queries — the faithful
baseline) and ``cup-ideal`` (hard-state transitive registration).  PCX,
which registers nothing, anchors the ladder below them.  These tests pin
down the exact behavioural differences the ablation measures in
aggregate.
"""

from repro.engine import Simulation, SimulationConfig
from repro.net.message import Category


def chain_sim(scheme, **overrides):
    defaults = dict(
        scheme=scheme,
        num_nodes=6,
        topology="chain",
        hop_latency_mean=0.001,
        duration=80_000.0,
        warmup=0.0,
        threshold_c=1,
        seed=1,
    )
    defaults.update(overrides)
    sim = Simulation(SimulationConfig(**defaults))
    sim.start()
    sim.env.run(until=0.0)
    return sim


def full_miss_walks(sim, node, count, settle=5.0):
    """Issue ``count`` queries from ``node`` with all caches cleared."""
    for _ in range(count):
        for cached in range(1, 6):
            sim.copies.invalidate(cached)
        sim.scheme.on_local_query(node)
        sim.env.run(until=sim.env.now + settle)


class TestSoftStateLifecycle:
    def test_registration_refresh_extends_lifetime(self):
        sim = chain_sim("cup")
        full_miss_walks(sim, 5, 3)
        # Keep refreshing with full-walk queries each half TTL: the
        # registration chain must stay alive across many windows.
        for step in range(1, 6):
            sim.env.run(until=step * 1800.0)
            full_miss_walks(sim, 5, 1)
        assert 5 in sim.scheme.live_registrations(4)

    def test_cut_off_then_revival(self):
        sim = chain_sim("cup")
        full_miss_walks(sim, 5, 3)
        # Quiet for > TTL: the chain decays.
        sim.env.run(until=sim.env.now + 4000.0)
        assert 5 not in sim.scheme.live_registrations(4)
        # Two more misses revive the chain (the node must re-qualify as
        # interested: more than c=1 queries in the window).
        full_miss_walks(sim, 5, 2)
        assert 5 in sim.scheme.live_registrations(4)

    def test_wants_updates_transitivity(self):
        sim = chain_sim("cup")
        full_miss_walks(sim, 5, 3)
        # Node 2 is not interested itself, but forwards for node 3's
        # registration chain.
        assert sim.scheme.wants_updates(2)

    def test_miss_interval_roughly_doubles_vs_pcx(self):
        # The 50% mechanism: fetch warms TTL, then pushes warm ~1 more
        # TTL; PCX misses every TTL, CUP roughly every other TTL.
        counts = {}
        for scheme in ("pcx", "cup"):
            sim = chain_sim(scheme, threshold_c=0)
            # Query every 600 s for 20 simulated hours (interest stays
            # alive; every miss is visible as a nonzero latency sample).
            for step in range(120):
                sim.env.run(until=(step + 1) * 600.0)
                sim.scheme.on_local_query(5)
            sim.env.run(until=sim.env.now + 5.0)
            counts[scheme] = sum(1 for s in sim.latency.samples if s > 0)
        assert counts["cup"] < counts["pcx"]
        ratio = counts["cup"] / counts["pcx"]
        assert 0.25 < ratio < 0.85


class TestIdealRegistration:
    def test_unregisters_lazily_on_wasted_push(self):
        sim = chain_sim("cup-ideal")
        full_miss_walks(sim, 5, 3)
        assert sim.scheme.is_registered_up(5)
        # Interest lapses; the next push finds the node uninterested and
        # triggers an explicit unregister (charged control hop).
        sim.env.run(until=sim.env.now + 2 * 3600.0 + 200.0)
        assert not sim.scheme.is_registered_up(5)
        assert sim.ledger.hops(Category.CONTROL) > 0

    def test_pushes_persist_while_interested(self):
        sim = chain_sim("cup-ideal")
        full_miss_walks(sim, 5, 3)
        for cycle in range(1, 4):
            sim.scheme.on_local_query(5)  # keep interest alive
            sim.scheme.on_local_query(5)
            before = sim.ledger.hops(Category.PUSH)
            sim.env.run(until=3540.0 * cycle + 60.0)
            assert sim.ledger.hops(Category.PUSH) > before


class TestVariantOrdering:
    def test_latencies_ordered_on_shared_workload(self):
        # no registration (pcx) >= soft-state >= ideal, on an identical
        # random workload at a size where the differences are visible.
        results = {}
        for scheme in ("pcx", "cup", "cup-ideal"):
            config = SimulationConfig(
                scheme=scheme,
                num_nodes=256,
                query_rate=5.0,
                duration=3600.0 * 5,
                warmup=3600.0 * 2,
                seed=6,
            )
            results[scheme] = Simulation(config).run().mean_latency
        assert results["pcx"] >= results["cup"] * 0.95
        assert results["cup"] >= results["cup-ideal"] * 0.95
