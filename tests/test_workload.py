"""Unit tests for the workload package: arrivals, placement, churn."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, WorkloadError
from repro.sim import Environment
from repro.stats.distributions import Exponential, Pareto, ZipfSelector
from repro.workload import (
    ArrivalProcess,
    ChurnConfig,
    ChurnEvent,
    ChurnProcess,
    ZipfNodeSelector,
    make_arrival_process,
)
from repro.workload.arrivals import QuerySource


def rng(seed=0):
    return np.random.default_rng(seed)


class TestArrivalProcess:
    def test_exponential_rate(self):
        process = make_arrival_process("exponential", rate=2.0, rng=rng(1))
        gaps = [process.next_gap() for _ in range(20000)]
        assert np.mean(gaps) == pytest.approx(0.5, rel=0.05)
        assert process.mean_rate == pytest.approx(2.0)

    def test_pareto_rate_matches_lambda(self):
        # The paper: "The scale parameter k is set so that (alpha-1)/k
        # equals the query arrival rate lambda."
        process = make_arrival_process(
            "pareto", rate=5.0, rng=rng(2), pareto_alpha=1.2
        )
        assert process.mean_rate == pytest.approx(5.0)
        # alpha=1.2 has infinite variance, so the sample mean converges
        # hopelessly slowly; check the analytic median instead:
        # F(x)=1-(k/(x+k))^a  =>  median = k * (2^(1/a) - 1), k=0.04.
        gaps = [process.next_gap() for _ in range(100000)]
        expected_median = 0.04 * (2 ** (1 / 1.2) - 1)
        assert np.median(gaps) == pytest.approx(expected_median, rel=0.05)

    def test_pareto_burstier_with_smaller_alpha(self):
        bursty = make_arrival_process("pareto", 1.0, rng(3), pareto_alpha=1.05)
        smooth = make_arrival_process("pareto", 1.0, rng(3), pareto_alpha=1.9)
        bursty_gaps = np.array([bursty.next_gap() for _ in range(50000)])
        smooth_gaps = np.array([smooth.next_gap() for _ in range(50000)])
        # Burstier = more mass near zero.
        assert np.median(bursty_gaps) < np.median(smooth_gaps)

    def test_unknown_kind_rejected(self):
        with pytest.raises(WorkloadError):
            make_arrival_process("uniform", 1.0, rng())

    def test_non_positive_rate_rejected(self):
        with pytest.raises(WorkloadError):
            make_arrival_process("exponential", 0.0, rng())


def scalar_query_loop(
    env, law, arrival_rng, selector, draws, issue, eligible=None, modulation=None
):
    """The generator loop the engines ran before :class:`QuerySource`:
    one scalar gap and one scalar placement draw (or ``sample_alive``)
    per arrival.  It survives here as the oracle only."""
    while True:
        gap = law.sample(arrival_rng)
        if modulation is not None:
            gap /= modulation(env._now)
        yield env.timeout(gap)
        if eligible is None:
            issue(selector.sample(draws))
            continue
        node = selector.sample_alive(draws, eligible)
        if node is None:
            continue
        issue(node)


LAWS = st.one_of(
    st.builds(Exponential.from_rate, st.floats(0.2, 8.0)),
    st.builds(Pareto.from_rate, st.sampled_from([1.05, 1.2]), st.floats(0.2, 8.0)),
)
# Expected arrival counts on both sides of no, one and two refills of a
# 1024-draw block (a Pareto run's count scatters widely around them).
ARRIVALS = st.sampled_from([3, 900, 1024, 1100, 2048, 2300])
WORKLOAD = dict(
    law=LAWS,
    arrivals=ARRIVALS,
    n=st.integers(2, 300),
    theta=st.floats(0.0, 1.5),
    seed=st.integers(0, 2**32 - 1),
)


class TestQuerySource:
    """The source issues the scalar loop's ``(time, origin)`` sequence."""

    def run_both(self, law, arrivals, n, theta, seed, dead=(), flips=0, modulation=None):
        """``[(time, origin), ...]`` issued and ``[(time, node), ...]``
        asked of the liveness predicate, by the oracle and by the source."""
        horizon = arrivals * law.mean
        outcomes = []
        for build in (self.oracle, self.source):
            env = Environment()
            selector = ZipfNodeSelector(list(range(n)), theta, rng(seed))
            issued, asked = [], []

            def eligible(node):
                asked.append((env.now, node))
                return node not in dead

            build(
                env,
                law,
                rng(seed + 1),
                selector,
                rng(seed + 2),
                lambda node: issued.append((env.now, node)),
                eligible if dead else None,
                modulation,
            )
            flip_rng = rng(seed + 3)
            for index in range(flips):
                # Between two arrivals, wherever in a block that falls.
                env.call_later(
                    horizon * (index + 1) / (flips + 1),
                    selector.flip_ranks,
                    flip_rng,
                    1 + index % 3,
                )
            env.run(until=horizon)
            outcomes.append((issued, asked))
        return outcomes

    @staticmethod
    def oracle(env, law, arrival_rng, *rest):
        env.process(scalar_query_loop(env, law, arrival_rng, *rest))

    @staticmethod
    def source(env, law, arrival_rng, selector, draws, issue, eligible, modulation):
        QuerySource(
            env,
            ArrivalProcess(law, arrival_rng),
            selector,
            draws,
            issue,
            eligible=eligible,
            modulation=modulation,
        ).schedule_next()

    @settings(max_examples=40, deadline=None)
    @given(**WORKLOAD)
    def test_unguarded(self, **workload):
        expected, got = self.run_both(**workload)
        assert got == expected

    @settings(max_examples=40, deadline=None)
    @given(
        dead_share=st.sampled_from([0.2, 0.9, 0.99, 1.0]), **WORKLOAD
    )
    def test_guarded_by_a_liveness_predicate(self, dead_share, **workload):
        # Retries pop the rank buffer (and cross its refill boundary at a
        # different arrival than the gap buffer does); at 0.99 most
        # arrivals exhaust the 64 attempts and fall back to the scan, at
        # 1.0 every arrival is skipped — and the next one still fires.
        if dead_share >= 0.9:
            # 64 retries an arrival cross a rank block every 16 arrivals.
            workload["arrivals"] = min(workload["arrivals"], 300)
        n, seed = workload["n"], workload["seed"]
        dead = set(
            rng(seed + 4).choice(n, size=math.ceil(dead_share * n), replace=False).tolist()
        )
        expected, got = self.run_both(dead=dead, **workload)
        assert got == expected
        assert all(node not in dead for _, node in got[0])

    @settings(max_examples=40, deadline=None)
    @given(flips=st.integers(1, 7), **WORKLOAD)
    def test_rank_flips_between_arrivals_land(self, flips, **workload):
        # Ranks, not nodes, are read ahead: a flip mid-block remaps the
        # ranks already sitting in the buffer.
        expected, got = self.run_both(flips=flips, **workload)
        assert got == expected

    @settings(max_examples=40, deadline=None)
    @given(
        amplitude=st.floats(0.05, 0.9), period=st.floats(5.0, 5000.0), **WORKLOAD
    )
    def test_diurnal_modulation(self, amplitude, period, **workload):
        def modulation(now):
            return 1.0 + amplitude * math.sin(2 * math.pi * now / period)

        expected, got = self.run_both(modulation=modulation, **workload)
        assert got == expected

    def test_the_shapes_above_are_not_vacuous(self):
        # Properties over empty sequences would prove nothing.
        issued, _ = self.run_both(Exponential(1.0), 2300, 50, 0.95, 7)[1]
        assert 2000 < len(issued) < 2600
        assert [time for time, _ in issued] == sorted(time for time, _ in issued)
        # One node of 300 alive: four arrivals in five exhaust their 64
        # draws and find it by the hottest-first scan.
        issued, asked = self.run_both(
            Exponential(1.0), 100, 300, 0.0, 7, dead=set(range(1, 300))
        )[1]
        assert {node for _, node in issued} == {0}
        assert len(asked) > 64 * len(issued) > 0
        # Nobody alive: every arrival asks 64 + 50 times, issues nothing,
        # and still schedules the next one.
        issued, asked = self.run_both(
            Exponential(1.0), 100, 50, 0.0, 7, dead=set(range(50))
        )[1]
        assert not issued
        assert len(asked) == 114 * len({time for time, _ in asked}) > 114


class TestQueryIssueFence:
    """What a run may cost per arrival, as counts (no clock, no RSS)."""

    PATCHED = [
        (Environment, "timeout"),
        (Environment, "process"),
        (Exponential, "sample"),
        (Exponential, "sample_block"),
        (ZipfSelector, "sample"),
        (ZipfSelector, "sample_block"),
    ]

    def counted_run(self, monkeypatch, query_rate):
        """The run's result and ``{patched name: [call arguments, ...]}``."""
        from repro.engine import Simulation, SimulationConfig

        sim = Simulation(
            SimulationConfig(
                scheme="dup",
                num_nodes=256,
                duration=2000.0,
                warmup=0.0,
                query_rate=query_rate,
                seed=2,
            )
        )
        seen = {}

        def record(owner, name):
            original = getattr(owner, name)
            calls = seen[f"{owner.__name__}.{name}"] = []

            def wrapper(self, *args, **kwargs):
                calls.append((*args, *kwargs.values()))
                return original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in self.PATCHED:
            record(owner, name)
        return sim, sim.run(), seen

    def test_an_arrival_costs_no_process_timeout_or_scalar_draw(
        self, monkeypatch
    ):
        timeouts = []
        for query_rate in (1.0, 8.0):
            with monkeypatch.context() as patch:
                sim, result, seen = self.counted_run(patch, query_rate)
            assert result.queries > 1500 * query_rate
            names = [name for _, name in seen["Environment.process"]]
            assert names and not [n for n in names if "workload" in n]
            assert not seen["Exponential.sample"]
            assert not seen["ZipfSelector.sample"]
            most = math.ceil(result.queries / 1024) + 1
            for law, stream in (
                ("Exponential", "arrivals"),
                ("ZipfSelector", "placement-draws"),
            ):
                rng = sim.streams.get(stream)
                refills = [
                    args for args in seen[f"{law}.sample_block"] if args[0] is rng
                ]
                assert 1 <= len(refills) <= most
            timeouts.append(len(seen["Environment.timeout"]))
        # The low-rate processes (authority refresh) and nothing that
        # scales with the query rate.
        assert timeouts[0] == timeouts[1] <= 40


class TestZipfNodeSelector:
    def test_assignment_is_a_permutation(self):
        nodes = list(range(10, 60))
        selector = ZipfNodeSelector(nodes, theta=1.0, rng=rng(4))
        drawn = {selector.sample(rng(5)) for _ in range(1)}
        assert drawn <= set(nodes)
        assert sorted(selector.hottest(50)) == sorted(nodes)

    def test_hot_node_dominates(self):
        selector = ZipfNodeSelector(list(range(100)), theta=2.0, rng=rng(6))
        generator = rng(7)
        draws = [selector.sample(generator) for _ in range(5000)]
        hottest = selector.hottest(1)[0]
        share = draws.count(hottest) / len(draws)
        assert share > 0.5  # theta=2 concentrates heavily

    def test_rank_of(self):
        selector = ZipfNodeSelector([1, 2, 3], theta=1.0, rng=rng(8))
        hottest = selector.hottest(1)[0]
        assert selector.rank_of(hottest) == 0

    def test_permutation_depends_on_seed(self):
        nodes = list(range(200))
        first = ZipfNodeSelector(nodes, 1.0, rng(9)).hottest(5)
        second = ZipfNodeSelector(nodes, 1.0, rng(10)).hottest(5)
        assert first != second  # overwhelmingly likely

    def test_sample_alive_skips_dead(self):
        selector = ZipfNodeSelector(list(range(10)), theta=0.0, rng=rng(11))
        alive = {3, 7}
        node = selector.sample_alive(rng(12), alive.__contains__)
        assert node in alive

    def test_sample_alive_none_when_everyone_dead(self):
        selector = ZipfNodeSelector(list(range(5)), theta=0.0, rng=rng(13))
        assert selector.sample_alive(rng(14), lambda n: False) is None

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfNodeSelector([], theta=1.0, rng=rng())


class TestSampleTail:
    """Boundary behaviour of the cold-tail draw (ISSUE: satellite)."""

    def test_draws_come_from_the_cold_tail(self):
        selector = ZipfNodeSelector(list(range(20)), theta=1.0, rng=rng(20))
        cold_half = set(selector.hottest(20)[10:])
        generator = rng(21)
        for _ in range(200):
            node = selector.sample_tail(generator, lambda n: True, 0.5)
            assert node in cold_half

    def test_non_positive_fraction_rejected(self):
        selector = ZipfNodeSelector(list(range(5)), theta=1.0, rng=rng(22))
        for fraction in (0.0, -0.5):
            with pytest.raises(WorkloadError):
                selector.sample_tail(rng(23), lambda n: True, fraction)

    def test_fraction_above_one_clamps_to_whole_population(self):
        nodes = list(range(8))
        selector = ZipfNodeSelector(nodes, theta=0.0, rng=rng(24))
        generator = rng(25)
        drawn = {
            selector.sample_tail(generator, lambda n: True, 5.0)
            for _ in range(400)
        }
        # Pre-fix, 1 - fraction went negative and the slice start
        # underflowed; clamped, the tail is exactly the whole ranking.
        assert drawn == set(nodes)

    def test_tiny_fraction_still_yields_the_coldest_node(self):
        # total * fraction rounds to zero: the tail must keep at least
        # the coldest node instead of producing an empty slice.
        selector = ZipfNodeSelector(list(range(10)), theta=1.0, rng=rng(26))
        coldest = selector.hottest(10)[-1]
        node = selector.sample_tail(rng(27), lambda n: True, 1e-9)
        assert node == coldest

    def test_single_node_population(self):
        selector = ZipfNodeSelector([42], theta=1.0, rng=rng(28))
        assert selector.sample_tail(rng(29), lambda n: True, 0.3) == 42

    def test_falls_back_coldest_first_then_none(self):
        selector = ZipfNodeSelector(list(range(10)), theta=1.0, rng=rng(30))
        ranking = selector.hottest(10)
        hottest = ranking[0]
        # Only the hottest node is alive: it is outside the cold tail,
        # so the draw must fall back to the coldest-first scan.
        node = selector.sample_tail(
            rng(31), lambda n: n == hottest, 0.2
        )
        assert node == hottest
        assert selector.sample_tail(rng(32), lambda n: False, 0.2) is None


class TestChurnConfig:
    def test_defaults_disabled(self):
        assert not ChurnConfig().enabled

    def test_total_rate(self):
        config = ChurnConfig(join_rate=1.0, leave_rate=2.0, fail_rate=3.0)
        assert config.total_rate == pytest.approx(6.0)
        assert config.enabled

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            ChurnConfig(join_rate=-1.0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            ChurnConfig(join_rate=1.0, edge_join_fraction=1.5)

    def test_min_population_validated(self):
        with pytest.raises(ConfigError):
            ChurnConfig(join_rate=1.0, min_population=1)


class TestChurnProcess:
    def test_zero_rates_rejected(self):
        with pytest.raises(ConfigError):
            ChurnProcess(ChurnConfig(), rng())

    def test_gap_matches_total_rate(self):
        config = ChurnConfig(join_rate=5.0, leave_rate=5.0)
        process = ChurnProcess(config, rng(15))
        gaps = [process.next_gap() for _ in range(20000)]
        assert np.mean(gaps) == pytest.approx(0.1, rel=0.05)

    def test_kind_distribution(self):
        config = ChurnConfig(join_rate=1.0, leave_rate=1.0, fail_rate=2.0)
        process = ChurnProcess(config, rng(16))
        kinds = [process.next_kind() for _ in range(8000)]
        fails = sum(1 for k in kinds if k is ChurnEvent.FAIL)
        assert fails / len(kinds) == pytest.approx(0.5, abs=0.03)

    def test_join_split_between_edge_and_leaf(self):
        config = ChurnConfig(join_rate=1.0, edge_join_fraction=1.0)
        process = ChurnProcess(config, rng(17))
        kinds = {process.next_kind() for _ in range(50)}
        assert kinds == {ChurnEvent.JOIN_EDGE}

    def test_pick_victim_uniform(self):
        config = ChurnConfig(fail_rate=1.0)
        process = ChurnProcess(config, rng(18))
        victims = [process.pick_victim([1, 2, 3, 4]) for _ in range(4000)]
        for node in (1, 2, 3, 4):
            assert victims.count(node) / len(victims) == pytest.approx(
                0.25, abs=0.04
            )
