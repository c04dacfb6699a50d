"""Regression tests for hot-path helpers outside the kernel.

Covers trace inheritance edge cases, the search tree's route memoisation
under churn, and the metadata of the experiment records.  The kernel's
own cases live in ``tests/test_sim_kernel.py``.
"""

from __future__ import annotations

import json
import pathlib

from repro.experiments import record
from repro.index.entry import IndexVersion
from repro.net.message import PushMessage, QueryMessage, ReplyMessage
from repro.topology.tree import SearchTree

RESULTS = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"


class TestInheritTrace:
    def _version(self):
        return IndexVersion(key=1, version=1, issued_at=0.0, ttl=60.0)

    def test_adopts_trace_from_message(self):
        query = QueryMessage(key=1, origin=5, issued_at=0.0)
        query.trace_id = 42
        push = PushMessage(key=1, version=self._version(), sender=5)
        assert push.inherit_trace(query) is push
        assert push.trace_id == 42

    def test_traceless_message_source_propagates_none(self):
        query = QueryMessage(key=1, origin=5, issued_at=0.0)
        assert query.trace_id is None
        reply = ReplyMessage(
            key=1,
            version=self._version(),
            path=[5],
            position=0,
            request_hops=0,
        )
        reply.trace_id = 9
        reply.inherit_trace(query)
        assert reply.trace_id is None

    def test_raw_id_and_none_sources(self):
        push = PushMessage(key=1, version=self._version(), sender=5)
        assert push.inherit_trace(17).trace_id == 17
        assert push.inherit_trace(None).trace_id is None

    def test_self_inheritance_is_a_noop(self):
        push = PushMessage(key=1, version=self._version(), sender=5)
        push.trace_id = 7
        assert push.inherit_trace(push) is push
        assert push.trace_id == 7


class TestRouteMemoInvalidation:
    def _chain(self):
        tree = SearchTree(0)
        tree.add_leaf(0, 1)
        tree.add_leaf(1, 2)
        tree.add_leaf(2, 3)
        return tree

    def test_cached_paths_match_fresh_computation(self):
        tree = self._chain()
        first = tree.path_to_root(3)
        assert first == [3, 2, 1, 0]
        # Second call hits the memo and must be identical.
        assert tree.path_to_root(3) == first
        assert tree.depth(3) == 3

    def test_churn_join_invalidates(self):
        tree = self._chain()
        assert tree.path_to_root(3) == [3, 2, 1, 0]
        version = tree.version
        tree.insert_on_edge(1, 2, 9)
        assert tree.version > version
        assert tree.path_to_root(3) == [3, 2, 9, 1, 0]
        assert tree.depth(3) == 4

    def test_churn_leave_invalidates(self):
        tree = self._chain()
        assert tree.path_to_root(3) == [3, 2, 1, 0]
        version = tree.version
        tree.splice_out(2)
        assert tree.version > version
        assert tree.path_to_root(3) == [3, 1, 0]
        assert tree.on_path_to_root(3, 1)

    def test_promote_to_root_invalidates(self):
        """Authority failover re-roots the tree under the memo."""
        tree = self._chain()
        assert tree.path_to_root(3) == [3, 2, 1, 0]
        version = tree.version
        tree.promote_to_root(1)
        assert tree.version > version
        assert tree.root == 1
        # The failed old root leaves the tree; memoised paths through it
        # must be gone.
        assert 0 not in tree
        assert tree.path_to_root(3) == [3, 2, 1]
        assert tree.depth(3) == 2

    def test_replace_root_invalidates(self):
        tree = self._chain()
        assert tree.depth(3) == 3
        tree.replace_root(99)
        assert tree.root == 99
        assert tree.path_to_root(3) == [3, 2, 1, 99]


class TestHarnessMetadata:
    """The metadata ``repro-dup run --record`` writes beside the rows."""

    def test_git_sha_is_short_hash_or_none(self):
        sha = record.git_sha()
        assert sha is None or (
            isinstance(sha, str) and 6 <= len(sha) <= 16
        )

    def test_load_history_tolerates_missing_and_bad_files(self, tmp_path):
        assert record.load_history(tmp_path / "absent.json") == []
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        assert record.load_history(bad) == []
        no_hist = tmp_path / "nh.json"
        no_hist.write_text('{"wall_seconds": 1}', encoding="utf-8")
        assert record.load_history(no_hist) == []

    def test_committed_figure4_record_has_metadata_and_baseline(self):
        committed = json.loads(
            (RESULTS / "BENCH_figure4.json").read_text(encoding="utf-8")
        )
        assert committed["python_version"].count(".") == 2
        assert committed["git_sha"]
        walls = [entry["wall_seconds"] for entry in committed["history"]]
        assert len(walls) >= 2
        # The committed history demonstrates the tentpole speedup.
        assert walls[0] / walls[-1] >= 1.5
