"""Tests of the runtime consistency auditor (detect, confirm, repair)."""

from __future__ import annotations

from repro.core.auditor import ConsistencyAuditor
from repro.core.tree_state import violations
from repro.net.message import RefreshSubscribe, Unsubscribe
from repro.topology.tree import SearchTree

from tests.conftest import SyncDupDriver


def make_driver():
    """A small tree with a spine and two side branches.

        0 -- 1 -- 2 -- 3
             |
             4         (and 5 directly under the root)
        0 -- 5
    """
    tree = SearchTree(0)
    tree.add_leaf(0, 1)
    tree.add_leaf(1, 2)
    tree.add_leaf(2, 3)
    tree.add_leaf(1, 4)
    tree.add_leaf(0, 5)
    return SyncDupDriver(tree)


def make_auditor(driver, confirm=1, clock=None):
    return ConsistencyAuditor(
        driver.protocol,
        driver.tree,
        clock=clock or (lambda: 0.0),
        emit=driver._emit_maintenance,
        confirm_sweeps=confirm,
    )


def kinds(violations):
    return sorted({v.kind for v in violations})


class TestCleanState:
    def test_empty_state_is_clean(self):
        driver = make_driver()
        auditor = make_auditor(driver)
        assert auditor.sweep() == []
        assert auditor.clean_sweeps == 1
        assert auditor.total_violations == 0

    def test_live_subscriptions_are_clean(self):
        driver = make_driver()
        for node in (3, 4, 5):
            driver.subscribe(node)
        auditor = make_auditor(driver)
        assert auditor.sweep() == []
        assert driver.push_recipients() >= {3, 4, 5}


class TestDetectAndRepair:
    def test_dangling_entries_excised(self):
        driver = make_driver()
        driver.subscribe(3)
        # Node 3 vanishes from the overlay behind the protocol's back
        # (a lost failure notification): 2, 1, and 0 still list it.
        driver.tree.remove_leaf(3)
        driver.protocol.drop_node(3)
        auditor = make_auditor(driver)
        confirmed = auditor.sweep()
        # The relic entries are dangling; the push edge into the departed
        # node is simultaneously a dead-end leaf.  Both get repaired.
        assert kinds(confirmed) == ["dangling-entry", "dead-end"]
        assert auditor.sweep() == []
        assert driver.protocol.nodes_with_state() == ()

    def test_orphaned_subscriber_rewalked(self):
        driver = make_driver()
        driver.subscribe(3)
        # A partitioned unsubscribe wiped the upstream entries while 3
        # still believes it is subscribed: pushes no longer reach it.
        for node in (0, 1, 2):
            driver.protocol.step(node, Unsubscribe(3))
        assert 3 not in driver.push_recipients()
        auditor = make_auditor(driver)
        confirmed = auditor.sweep()
        assert kinds(confirmed) == ["orphan"]
        # The repair re-walked the subscription end to end.
        assert 3 in driver.push_recipients()
        assert auditor.sweep() == []

    def test_split_brain_pusher_excised(self):
        driver = make_driver()
        driver.subscribe(3)
        driver.subscribe(4)
        # A raced promotion left the root pushing straight at 3 while
        # node 1 (the legitimate interior) also pushes to it.
        driver.protocol.s_list(0).add(3)
        auditor = make_auditor(driver)
        confirmed = auditor.sweep()
        assert "split-brain" in kinds(confirmed)
        for _ in range(3):
            if not auditor.sweep():
                break
        assert auditor.last_violations == ()
        assert driver.push_recipients() >= {3, 4}

    def test_stray_entry_excised_and_subscriber_kept(self):
        driver = make_driver()
        driver.subscribe(3)
        # Node 5 lives under the root, not under 1: a relic of tree
        # surgery that re-homed 5 without cleaning 1's list.
        driver.protocol.s_list(1).add(5)
        auditor = make_auditor(driver)
        confirmed = auditor.sweep()
        assert kinds(confirmed) == ["stray-entry"]
        assert auditor.sweep() == []
        assert 3 in driver.push_recipients()

    def test_branch_conflict_keeps_the_advertised_entry(self):
        driver = make_driver()
        driver.subscribe(3)
        # Node 1 lists both 3 (what branch child 2 advertises) and 2
        # itself — a relic a lost substitute leaves behind.  The repair
        # must excise the relic (2), never the advertised entry (3).
        driver.protocol.s_list(1).add(2)
        auditor = make_auditor(driver)
        confirmed = auditor.sweep()
        assert kinds(confirmed) == ["branch-conflict"]
        assert confirmed[0].subject == 2
        for _ in range(3):
            if not auditor.sweep():
                break
        assert auditor.last_violations == ()
        assert 3 in driver.push_recipients()

    def test_dead_end_leaf_cut(self):
        driver = make_driver()
        driver.subscribe(3)
        # 3 lost interest but its unsubscribe never got out: everyone
        # upstream still pushes at a node that wants nothing.
        driver.interested.discard(3)
        driver.protocol.s_list(3).discard(3)
        auditor = make_auditor(driver)
        confirmed = auditor.sweep()
        assert "dead-end" in kinds(confirmed)
        for _ in range(4):
            if not auditor.sweep():
                break
        assert auditor.last_violations == ()
        assert 3 not in driver.push_recipients()

    def test_push_cycle_cut_and_state_reconverges(self):
        driver = make_driver()
        driver.subscribe(3)
        # Hand-corrupt the lists into a 1 <-> 2 push cycle.
        lists = driver.protocol
        lists.s_list(0).discard(3)
        lists.s_list(0).add(1)
        lists.s_list(1).add(2)
        lists.s_list(2).add(1)
        auditor = make_auditor(driver)
        confirmed = auditor.sweep()
        assert "push-cycle" in kinds(confirmed)
        for _ in range(6):
            if not auditor.sweep():
                break
        assert auditor.last_violations == ()
        # The legitimate subscriber survived the surgery.
        assert 3 in driver.push_recipients()


class TestConfirmation:
    def test_single_sighting_is_only_a_suspicion(self):
        driver = make_driver()
        driver.subscribe(3)
        for node in (0, 1, 2):
            driver.protocol.step(node, Unsubscribe(3))
        auditor = make_auditor(driver, confirm=2)
        assert auditor.sweep() == []  # suspicion, no repair yet
        assert 3 not in driver.push_recipients()
        confirmed = auditor.sweep()  # persisted: confirm and repair
        assert kinds(confirmed) == ["orphan"]
        assert 3 in driver.push_recipients()

    def test_transient_finding_never_confirms(self):
        driver = make_driver()
        driver.subscribe(3)
        for node in (0, 1, 2):
            driver.protocol.step(node, Unsubscribe(3))
        auditor = make_auditor(driver, confirm=2)
        assert auditor.sweep() == []
        # The "in-flight" refresh lands between sweeps: the suspicion
        # must evaporate instead of triggering a repair.
        driver._emit_maintenance(3, RefreshSubscribe(3))
        assert auditor.sweep() == []
        assert auditor.total_violations == 0
        assert auditor.repairs == 0


class TestMetrics:
    def test_divergence_and_reconvergence_windows(self):
        driver = make_driver()
        driver.subscribe(3)
        now = [0.0]
        auditor = make_auditor(driver, clock=lambda: now[0])
        now[0] = 10.0
        auditor.note_disruption("partition")
        for node in (0, 1, 2):
            driver.protocol.step(node, Unsubscribe(3))
        now[0] = 20.0
        auditor.sweep()  # dirty: repairs fire
        now[0] = 30.0
        auditor.sweep()  # clean again
        assert auditor.divergence_windows == [10.0]
        assert auditor.reconvergence_times == [20.0]
        summary = auditor.summary()
        assert summary["audit_reconvergence_max"] == 20.0
        assert summary["audit_divergence_max"] == 10.0
        assert summary["audit_orphan"] == 1

    def test_summary_counts_sweeps(self):
        driver = make_driver()
        auditor = make_auditor(driver)
        auditor.sweep()
        auditor.sweep()
        summary = auditor.summary()
        assert summary["audit_sweeps"] == 2
        assert summary["audit_clean_sweeps"] == 2
        assert summary["audit_violations"] == 0

    def test_repair_traffic_is_charged(self):
        driver = make_driver()
        driver.subscribe(3)
        for node in (0, 1, 2):
            driver.protocol.step(node, Unsubscribe(3))
        before = driver.control_hops
        auditor = make_auditor(driver)
        auditor.sweep()
        assert driver.control_hops > before


class TestEmitPayloads:
    def test_orphan_repair_emits_refresh_subscribe(self):
        driver = make_driver()
        driver.subscribe(3)
        for node in (0, 1, 2):
            driver.protocol.step(node, Unsubscribe(3))
        emitted = []
        auditor = ConsistencyAuditor(
            driver.protocol,
            driver.tree,
            clock=lambda: 0.0,
            emit=lambda node, payload: emitted.append((node, payload)),
            confirm_sweeps=1,
        )
        auditor.sweep()
        assert emitted == [(3, RefreshSubscribe(3))]


class TestKnownGap:
    """Broken virtual paths the oracle reports and the sweep leaves alone.

    No repair answers ``broken-path`` (see ``docs/robustness.md``, "Known
    gap"): pushes still reach every subscriber here, so none of the
    sweep's seven kinds fires.
    """

    def broken_paths(self, driver):
        return {
            (v.node, v.subject)
            for v in violations(driver.protocol, driver.tree)
            if v.kind == "broken-path"
        }

    def assert_unrepaired(self, driver, expected):
        assert self.broken_paths(driver) == expected
        auditor = make_auditor(driver)
        assert auditor.sweep() == []
        assert auditor.repairs == 0
        assert self.broken_paths(driver) == expected

    def test_root_lists_two_subscribers_on_one_branch(self):
        driver = make_driver()
        # 3 and 4 both hang under branch 1; nobody between lists either.
        for node in (3, 4):
            driver.protocol.s_list(node).add(node)
            driver.protocol.s_list(0).add(node)
        self.assert_unrepaired(driver, {(3, 2), (0, 4), (4, 1)})

    def test_pushed_subscriber_missing_from_its_parent(self):
        driver = make_driver()
        # The root pushes straight at 3, whose parent 2 lists nothing.
        driver.protocol.s_list(3).add(3)
        driver.protocol.s_list(0).add(3)
        assert 3 in driver.push_recipients()
        self.assert_unrepaired(driver, {(3, 2)})
