"""Tests of the configuration, simulation engine, and runners."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Simulation,
    SimulationConfig,
    compare_schemes,
    run_replications,
    run_simulation,
)
from repro.engine.runner import sweep
from repro.errors import ConfigError, ExperimentError
from repro.index.authority import ReplicationPlan
from repro.net.faults import FaultPlan
from repro.workload import ChurnConfig
from repro.workload.churn import ChurnEvent, ChurnProcess


def small(**overrides):
    defaults = dict(
        num_nodes=64,
        duration=7500.0,
        warmup=3600.0,
        query_rate=0.5,
        seed=11,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestConfig:
    def test_paper_defaults_match_table1(self):
        config = SimulationConfig.paper_defaults()
        assert config.num_nodes == 4096
        assert config.max_degree == 4
        assert config.threshold_c == 6
        assert config.ttl == 3600.0
        assert config.push_lead == 60.0
        assert config.hop_latency_mean == 0.1
        assert config.duration >= 180_000.0

    def test_replace_keeps_validation(self):
        config = small()
        with pytest.raises(ConfigError):
            config.replace(query_rate=-1.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_nodes", 1),
            ("max_degree", 0),
            ("query_rate", 0.0),
            ("pareto_alpha", 0.5),
            ("zipf_theta", -0.5),
            ("threshold_c", -1),
            ("ttl", 0.0),
            ("push_lead", 3600.0),
            ("hop_latency_mean", 0.0),
            ("topology", "mesh"),
            ("interest_policy", "magic"),
            ("interest_policy", "adaptive"),
            ("warmup", -1.0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            small(**{field: value})

    def test_duration_must_exceed_warmup(self):
        with pytest.raises(ConfigError):
            small(duration=100.0, warmup=200.0)

    def test_pareto_needs_alpha_above_one(self):
        with pytest.raises(ConfigError):
            small(pareto_alpha=1.0)

    def test_describe_mentions_scheme(self):
        assert "dup" in small(scheme="dup").describe()


class TestSimulation:
    def test_result_fields_populated(self):
        result = run_simulation(small(scheme="pcx"))
        assert result.scheme == "pcx"
        assert result.queries > 0
        assert result.mean_latency >= 0
        assert result.cost_per_query >= 0
        assert 0 <= result.hit_rate <= 1
        assert result.latency_ci is not None
        assert result.final_population == 64
        assert result.wall_seconds > 0

    def test_same_seed_is_deterministic(self):
        first = run_simulation(small(scheme="dup"))
        second = run_simulation(small(scheme="dup"))
        assert first.mean_latency == second.mean_latency
        assert first.cost_per_query == second.cost_per_query
        assert first.hop_breakdown == second.hop_breakdown

    def test_different_seeds_differ(self):
        first = run_simulation(small(scheme="pcx", seed=1))
        second = run_simulation(small(scheme="pcx", seed=2))
        assert first.mean_latency != second.mean_latency

    def test_simulation_runs_once(self):
        sim = Simulation(small())
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()

    def test_chord_topology_runs(self):
        result = run_simulation(small(scheme="dup", topology="chord"))
        assert result.queries > 0

    def test_root_never_queries_by_default(self):
        sim = Simulation(small(scheme="pcx"))
        root = sim.tree.root
        assert root not in sim.selector.hottest(len(sim.selector))

    def test_warmup_gates_metrics(self):
        # With warmup == duration - epsilon, almost nothing is recorded.
        gated = run_simulation(
            small(scheme="pcx", duration=7500.0, warmup=7400.0)
        )
        ungated = run_simulation(
            small(scheme="pcx", duration=7500.0, warmup=0.0)
        )
        assert gated.queries < ungated.queries

    def test_dup_extras_reported(self):
        result = run_simulation(small(scheme="dup", query_rate=2.0))
        assert "subscribed" in result.extras
        assert "dup_tree_size" in result.extras

    def test_ewma_policy_runs(self):
        result = run_simulation(
            small(scheme="dup", interest_policy="ewma", query_rate=2.0)
        )
        assert result.queries > 0

    def test_churn_simulation_survives(self):
        churn = ChurnConfig(join_rate=0.01, leave_rate=0.005, fail_rate=0.005)
        result = run_simulation(small(scheme="dup", churn=churn))
        assert result.queries > 0
        assert result.final_population > 8

    def test_churn_changes_population(self):
        churn = ChurnConfig(join_rate=0.02)
        result = run_simulation(small(scheme="pcx", churn=churn))
        assert result.final_population > 64

    def test_all_schemes_run_under_churn(self):
        churn = ChurnConfig(join_rate=0.01, leave_rate=0.008, fail_rate=0.008)
        for scheme in ("pcx", "cup", "cup-ideal", "dup", "push-all"):
            result = run_simulation(small(scheme=scheme, churn=churn))
            assert result.queries > 0, scheme


class TestRunners:
    def test_replications_aggregate(self):
        aggregated = run_replications(small(scheme="pcx"), replications=3)
        assert len(aggregated.runs) == 3
        assert aggregated.latency.count == 3
        assert not math.isnan(aggregated.latency.half_width)

    def test_replications_require_positive_count(self):
        with pytest.raises(ExperimentError):
            run_replications(small(), replications=0)

    def test_compare_schemes_pairs_seeds(self):
        comparison = compare_schemes(
            small(), schemes=("pcx", "dup"), replications=2
        )
        assert set(comparison.schemes) == {"pcx", "dup"}
        # PCX relative to itself is exactly 1 on every seed.
        assert comparison.relative_cost["pcx"].mean == pytest.approx(1.0)
        assert comparison.relative_cost["pcx"].half_width == pytest.approx(
            0.0, abs=1e-12
        )

    def test_compare_runs_baseline_even_if_not_listed(self):
        comparison = compare_schemes(
            small(), schemes=("dup",), replications=1
        )
        assert "dup" in comparison.relative_cost
        assert "pcx" not in comparison.by_scheme

    def test_sweep_returns_per_value_results(self):
        results = sweep(
            small(),
            "query_rate",
            [0.5, 1.0],
            schemes=("pcx", "dup"),
            replications=1,
        )
        assert set(results) == {0.5, 1.0}
        for comparison in results.values():
            assert "dup" in comparison.relative_cost


# -- churn-victim eligibility -------------------------------------------------
#
# ``Simulation._apply_churn`` reads the population straight off the
# tree's parent map and the injector's dead set.  The definitional rule
# it replaced — ask ``functioning()`` about every tree node, then drop
# the root by comparison — lives on here as the reference: the lists the
# engine hands to ``pick_victim`` must equal it element for element, in
# every state an interleaving of churn, crashes, detection, rejoins and
# re-rooting can reach.


class _Probed(Exception):
    """Aborts a probing ``_apply_churn`` before it mutates anything."""


class ScriptedChurn(ChurnProcess):
    """Forces the event kind and records what ``pick_victim`` is offered."""

    def __init__(self, config, rng):
        super().__init__(config, rng)
        self.kind = None
        self.probing = False
        self.offered = None

    def next_kind(self):
        return self.kind

    def pick_victim(self, candidates):
        self.offered = list(candidates)
        if self.probing:
            raise _Probed
        return super().pick_victim(candidates)


def reference_offer(sim, kind, min_population):
    """The candidate list of the per-node rule (``None``: no draw)."""
    members = [n for n in sim.tree.nodes if sim.functioning(n)]
    non_root = [n for n in members if n != sim.tree.root]
    if kind is ChurnEvent.JOIN_EDGE:
        return non_root or None
    if kind is ChurnEvent.JOIN_LEAF:
        return members or None
    allow_root = (
        kind is ChurnEvent.FAIL
        and sim.config.churn.allow_root_failure
        and sim.standby_pool is not None
        and sim.standby_pool.promoted is None
        and sim.functioning(sim.tree.root)
    )
    candidates = members if allow_root else non_root
    if len(members) <= min_population or not candidates:
        return None
    return candidates


def offered(sim, process, kind):
    """What ``_apply_churn`` would draw from for ``kind`` (no side effects)."""
    process.kind, process.probing, process.offered = kind, True, None
    try:
        sim._apply_churn(process)
    except _Probed:
        pass
    process.probing = False
    return process.offered


def assert_offers_match(sim, process):
    for kind in ChurnEvent:
        expected = reference_offer(sim, kind, process.config.min_population)
        assert offered(sim, process, kind) == expected, kind


def eligibility_world(
    size=16,
    seed=7,
    scheme="pcx",
    faults=None,
    standbys=0,
    allow_root=False,
    min_population=2,
):
    """A started simulation (no workload) plus its scripted churn."""
    churn = ChurnConfig(
        join_rate=0.05,
        leave_rate=0.025,
        fail_rate=0.025,
        min_population=min_population,
        allow_root_failure=allow_root,
    )
    sim = Simulation(
        SimulationConfig(
            scheme=scheme,
            num_nodes=size,
            seed=seed,
            churn=churn,
            faults=faults,
            replication=ReplicationPlan(standbys) if standbys else None,
        )
    )
    sim.start()
    return sim, ScriptedChurn(churn, sim.streams.get("churn"))


SILENT = FaultPlan(silent_failures=True)

#: (faults, standbys, allow_root_failure)
WORLDS = (
    (None, 0, False),
    (None, 2, True),
    (FaultPlan(loss_rate=0.05), 0, False),
    (SILENT, 0, False),
    (SILENT, 2, False),
    (SILENT, 2, True),
)

CHURN_OPS = tuple(kind.value for kind in ChurnEvent)
#: Steps that need a fault injector (no-ops in a world without one).
INJECTOR_OPS = ("crash", "crash-root", "detect", "rejoin")
OTHER_OPS = INJECTOR_OPS + (
    "crash-authority",
    "promote",
    "replace-root",
    "rename",
    "advance",
)


@st.composite
def eligibility_history(draw):
    size = draw(st.integers(8, 64))
    return dict(
        size=size,
        seed=draw(st.integers(0, 2**31)),
        scheme=draw(st.sampled_from(("pcx", "dup"))),
        world=draw(st.sampled_from(WORLDS)),
        min_population=draw(st.sampled_from((2, 8, size - 1, size))),
        steps=draw(
            st.lists(
                st.tuples(
                    st.sampled_from(CHURN_OPS + OTHER_OPS),
                    st.integers(0, 2**31),
                ),
                min_size=1,
                max_size=40,
            )
        ),
    )


def apply_step(sim, process, snapshots, op, step_seed):
    """One step of an interleaving; inapplicable steps are no-ops."""
    rng = np.random.default_rng(step_seed)

    def pick(nodes):
        nodes = sorted(nodes)
        return nodes[int(rng.integers(len(nodes)))] if nodes else None

    tree, pool = sim.tree, sim.standby_pool
    root = tree.root
    if op in INJECTOR_OPS and sim.injector is None:
        return
    if op in CHURN_OPS:
        process.kind = ChurnEvent(op)
        sim._apply_churn(process)
    elif op == "advance":
        sim.env.run(until=sim.env.now + (1.0, 30.0, 400.0)[step_seed % 3])
    elif op == "crash-authority":
        sim._crash_authority()
    elif op == "replace-root":
        sim.scheme.on_root_failed(sim.allocate_node_id())
    elif op == "promote":
        standbys = set(pool.standbys) if pool is not None else set()
        node = pick(
            n
            for n in tree.nodes
            if n != root and sim.functioning(n) and n not in standbys
        )
        if node is not None:
            sim.scheme.on_root_failed(node)
    elif op == "rename":
        # A raw tree mutator no engine path drives: only the scheme with
        # no per-node propagation state survives it.
        if sim.config.scheme == "pcx":
            tree.rename(pick(tree.nodes), sim.allocate_node_id())
    elif op == "crash":
        node = pick(n for n in tree.nodes if n != root and sim.functioning(n))
        if node is not None:
            snapshots[node] = sim.crash_node(node)
    elif op == "crash-root":
        if sim.functioning(root):
            sim.fail_silently(root)
    elif op == "detect":
        suspect = pick(n for n in tree.nodes if not sim.functioning(n))
        reporter = pick(n for n in tree.nodes if sim.functioning(n))
        if suspect is not None and reporter is not None:
            sim.suspect_peer(reporter, suspect)
    elif op == "rejoin":
        node = pick(snapshots)
        if node is not None:
            sim.rejoin_node(node, snapshots.pop(node))


class TestChurnEligibility:
    @given(eligibility_history())
    @settings(max_examples=300, deadline=None)
    def test_offers_equal_the_per_node_rule(self, history):
        faults, standbys, allow_root = history["world"]
        sim, process = eligibility_world(
            size=history["size"],
            seed=history["seed"],
            scheme=history["scheme"],
            faults=faults,
            standbys=standbys,
            allow_root=allow_root,
            min_population=history["min_population"],
        )
        snapshots = {}
        assert_offers_match(sim, process)
        for op, step_seed in history["steps"]:
            apply_step(sim, process, snapshots, op, step_seed)
            sim.tree.validate()
            assert_offers_match(sim, process)

    def test_silently_dead_root_leaves_one_list(self):
        sim, process = eligibility_world(faults=SILENT)
        root = sim.tree.root
        sim.fail_silently(root)
        survivors = [n for n in sim.tree.nodes if n != root]
        # non_root == members: the dead root is in neither.
        assert offered(sim, process, ChurnEvent.JOIN_EDGE) == survivors
        assert offered(sim, process, ChurnEvent.JOIN_LEAF) == survivors
        assert offered(sim, process, ChurnEvent.LEAVE) == survivors
        assert_offers_match(sim, process)

    def test_promoted_root_sits_at_the_tail_of_the_order(self):
        sim, process = eligibility_world(standbys=2, allow_root=True)
        order = list(sim.tree.nodes)
        assert order[0] == sim.tree.root
        # Before promotion a churned failure may hit the authority ...
        assert offered(sim, process, ChurnEvent.FAIL) == order
        assert offered(sim, process, ChurnEvent.LEAVE) == order[1:]
        sim._crash_authority()
        promoted = sim.standby_pool.promoted
        assert promoted == sim.tree.root
        order = list(sim.tree.nodes)
        assert order[-1] == promoted
        # ... afterwards the one-shot pool is spent: the new root, last
        # in the parent map, is spared by every kind but a leaf join.
        assert offered(sim, process, ChurnEvent.FAIL) == order[:-1]
        assert offered(sim, process, ChurnEvent.JOIN_EDGE) == order[:-1]
        assert offered(sim, process, ChurnEvent.JOIN_LEAF) == order
        assert_offers_match(sim, process)

    def test_population_guard_binds_at_min_population(self):
        sim, process = eligibility_world(size=16, min_population=16)
        order = list(sim.tree.nodes)
        assert offered(sim, process, ChurnEvent.LEAVE) is None
        assert offered(sim, process, ChurnEvent.FAIL) is None
        assert offered(sim, process, ChurnEvent.JOIN_EDGE) == order[1:]
        process.kind = ChurnEvent.JOIN_LEAF
        sim._apply_churn(process)
        assert len(sim.tree) == 17
        assert offered(sim, process, ChurnEvent.LEAVE) == [
            n for n in sim.tree.nodes if n != sim.tree.root
        ]
        assert_offers_match(sim, process)

    def test_no_draw_from_an_empty_population(self):
        sim, process = eligibility_world(size=8, faults=SILENT)
        root = sim.tree.root
        for node in list(sim.tree.nodes):
            if node != root:
                sim.fail_silently(node)
        # Only the root still functions: nothing to leave, fail, or
        # split an edge above, but a leaf can still join under it.
        for kind in (ChurnEvent.JOIN_EDGE, ChurnEvent.LEAVE, ChurnEvent.FAIL):
            assert offered(sim, process, kind) is None
        assert offered(sim, process, ChurnEvent.JOIN_LEAF) == [root]
        sim.fail_silently(root)
        for kind in ChurnEvent:
            assert offered(sim, process, kind) is None
        # The guard stays inside pick_victim for any caller that does
        # hand it nothing, whatever sequence type it uses.
        for empty in ([], (), range(0)):
            with pytest.raises(ConfigError):
                process.pick_victim(empty)
        process.probing = False
        assert process.pick_victim(range(5, 6)) == 5

    @pytest.mark.parametrize("faults", [None, SILENT])
    def test_functioning_calls_per_event_do_not_grow_with_n(
        self, monkeypatch, faults
    ):
        # The regression fence, by count and not by clock: the scan this
        # replaced read ~n calls per event (~512 and ~4096 here).
        calls = [0]
        original = Simulation.functioning

        def counted(self, node):
            calls[0] += 1
            return original(self, node)

        monkeypatch.setattr(Simulation, "functioning", counted)
        per_event = {}
        for size in (512, 4096):
            sim, _ = eligibility_world(size=size, scheme="dup", faults=faults)
            process = ChurnProcess(
                sim.config.churn, sim.streams.get("churn")
            )
            counts = []
            for _ in range(200):
                before = calls[0]
                sim._apply_churn(process)
                counts.append(calls[0] - before)
            assert max(counts) <= 8
            assert len(sim.tree) != size  # the events did mutate the overlay
            per_event[size] = sum(counts) / len(counts)
        assert per_event[512] == per_event[4096]
