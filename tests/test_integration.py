"""End-to-end integration tests: the paper's claims at micro scale.

These run full simulations (all subsystems wired together) at sizes small
enough for the unit suite and assert the qualitative results the paper
reports.  The benchmark harness covers the same claims at larger scale.
"""

import pytest

from repro.engine import SimulationConfig, compare_schemes, run_simulation
from repro.workload import ChurnConfig


def micro(**overrides):
    defaults = dict(
        num_nodes=256,
        query_rate=5.0,
        duration=3600.0 * 5,
        warmup=3600.0 * 2,
        seed=17,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestHeadlineResult:
    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_schemes(
            micro(), ("pcx", "cup", "cup-ideal", "dup"), replications=2
        )

    def test_latency_ordering(self, comparison):
        dup = comparison.latency("dup").mean
        cup = comparison.latency("cup").mean
        pcx = comparison.latency("pcx").mean
        assert dup < cup < pcx

    def test_dup_latency_gap_is_wide(self, comparison):
        # The paper: "in many cases DUP performs an order of magnitude
        # better than CUP".
        dup = comparison.latency("dup").mean
        cup = comparison.latency("cup").mean
        assert cup / max(dup, 1e-9) > 5

    def test_cost_ordering(self, comparison):
        dup = comparison.relative_cost["dup"].mean
        cup = comparison.relative_cost["cup"].mean
        assert dup < cup < 1.0

    def test_ideal_cup_closes_the_latency_gap(self, comparison):
        # The cut-off mechanism explains CUP's latency: remove it and CUP
        # behaves like DUP latency-wise.
        ideal = comparison.latency("cup-ideal").mean
        cup = comparison.latency("cup").mean
        assert ideal < cup

    def test_hit_rates_ordered(self, comparison):
        assert (
            comparison.by_scheme["dup"].hit_rate
            >= comparison.by_scheme["cup"].hit_rate
            >= comparison.by_scheme["pcx"].hit_rate
        )


class TestCupCeiling:
    def test_cup_latency_roughly_halves_pcx(self):
        # Soft-state registrations turn one miss per TTL into one miss
        # per ~2 TTL: CUP's latency lands in a band around half of PCX's.
        comparison = compare_schemes(
            micro(query_rate=10.0), ("pcx", "cup"), replications=2
        )
        ratio = (
            comparison.latency("cup").mean / comparison.latency("pcx").mean
        )
        assert 0.3 < ratio < 0.9


class TestWorkloadEffects:
    def test_latency_decreases_with_rate(self):
        latencies = []
        for rate in (0.5, 5.0, 20.0):
            result = run_simulation(micro(scheme="pcx", query_rate=rate))
            latencies.append(result.mean_latency)
        assert latencies[0] > latencies[1] > latencies[2]

    def test_latency_grows_with_network(self):
        small = run_simulation(micro(scheme="pcx", num_nodes=64))
        large = run_simulation(micro(scheme="pcx", num_nodes=512))
        assert large.mean_latency > small.mean_latency

    def test_degree_two_is_worst_for_pcx(self):
        deep = run_simulation(micro(scheme="pcx", max_degree=2))
        shallow = run_simulation(micro(scheme="pcx", max_degree=8))
        assert shallow.mean_latency <= deep.mean_latency * 1.1

    def test_pareto_bursts_improve_pcx(self):
        smooth = run_simulation(
            micro(scheme="pcx", pareto_alpha=1.6)
        )
        bursty = run_simulation(
            micro(scheme="pcx", pareto_alpha=1.05)
        )
        assert bursty.mean_latency <= smooth.mean_latency * 1.1


class TestConservationProperties:
    def test_query_reply_hop_symmetry_without_churn(self):
        # Every request hop is eventually matched by a reply hop when no
        # node disappears (modulo in-flight messages at the horizon).
        result = run_simulation(micro(scheme="pcx"))
        queries = result.hop_breakdown["query"]
        replies = result.hop_breakdown["reply"]
        assert abs(queries - replies) <= 10

    def test_cost_at_least_twice_latency_for_pcx(self):
        # PCX cost = request hops + reply hops = 2x request hops.
        result = run_simulation(micro(scheme="pcx"))
        assert result.cost_per_query == pytest.approx(
            2 * result.mean_latency, rel=0.02
        )

    def test_no_drops_without_churn(self):
        for scheme in ("pcx", "cup", "dup"):
            result = run_simulation(micro(scheme=scheme))
            assert result.dropped_messages == 0
            assert result.incomplete_queries == 0

    def test_churn_keeps_metrics_finite(self):
        churn = ChurnConfig(join_rate=0.02, leave_rate=0.01, fail_rate=0.01)
        result = run_simulation(micro(scheme="dup", churn=churn))
        assert result.mean_latency == result.mean_latency  # not nan
        assert result.cost_per_query >= 0


class TestDeterminism:
    def test_full_stack_reproducibility(self):
        first = run_simulation(micro(scheme="dup"))
        second = run_simulation(micro(scheme="dup"))
        assert first.mean_latency == second.mean_latency
        assert first.hop_breakdown == second.hop_breakdown
        assert first.extras == second.extras

    def test_chord_topology_reproducibility(self):
        first = run_simulation(micro(scheme="dup", topology="chord"))
        second = run_simulation(micro(scheme="dup", topology="chord"))
        assert first.mean_latency == second.mean_latency
