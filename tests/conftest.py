"""Shared test fixtures and the synchronous DUP protocol driver."""

from __future__ import annotations

import pytest

from repro.core.maintenance import DupMaintenance
from repro.core.protocol import DupProtocol
from repro.topology.tree import SearchTree

#: The pin store's ``--repin`` option, hooks and ``pins`` fixture.
pytest_plugins = ["tests.pins"]


class SyncDupDriver:
    """Drives the DUP protocol synchronously over a search tree.

    Control payloads are walked hop-by-hop toward the root immediately
    (no simulated latency), mirroring the engine's bundled-in-order
    semantics.  ``control_hops`` counts the charged hops so tests can
    reason about maintenance cost.
    """

    def __init__(self, tree: SearchTree):
        self.tree = tree
        self.protocol = DupProtocol(is_root=lambda n: n == tree.root)
        self.maintenance = DupMaintenance(
            self.protocol,
            tree,
            emit=self._emit,
            charge=self._charge,
        )
        self.control_hops = 0
        self.interested: set[int] = set()

    # -- interest-driven operations ----------------------------------------
    def subscribe(self, node: int) -> None:
        """Node becomes interested and subscribes (Figure 3 (A))."""
        self.interested.add(node)
        if node == self.tree.root:
            return
        result = self.protocol.ensure_subscribed(node)
        self._walk(node, result.upstream)

    def unsubscribe(self, node: int) -> None:
        """Node loses interest and unsubscribes (Figure 3 (D))."""
        self.interested.discard(node)
        if node not in self.tree:
            return
        result = self.protocol.drop_subscription(node)
        self._walk(node, result.upstream)

    # -- churn operations ------------------------------------------------------
    def join_edge(self, new: int, upper: int, lower: int) -> None:
        self.maintenance.node_joined_edge(new, upper, lower)

    def join_leaf(self, parent: int, new: int) -> None:
        self.maintenance.node_joined_leaf(parent, new)

    def leave(self, node: int) -> None:
        self.interested.discard(node)
        self.maintenance.node_left(node)

    def fail(self, node: int) -> None:
        self.interested.discard(node)
        self.maintenance.node_failed(node)

    def fail_root(self, new_root: int) -> None:
        self.maintenance.root_failed(new_root)

    # -- inspection ------------------------------------------------------------
    def s_list(self, node: int) -> set[int]:
        return set(self.protocol.s_list(node))

    def push_recipients(self) -> set[int]:
        """Every node a push from the root reaches."""
        root = self.tree.root
        reached: set[int] = set()
        frontier = [root]
        while frontier:
            sender = frontier.pop()
            if sender != root and not self.protocol.in_dup_tree(sender):
                continue
            for target in self.protocol.push_targets(sender):
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
        return reached

    def push_hops(self) -> int:
        """Hop cost of one full push round (1 per DUP-tree edge)."""
        root = self.tree.root
        hops = 0
        seen: set[int] = set()
        frontier = [root]
        while frontier:
            sender = frontier.pop()
            if sender != root and not self.protocol.in_dup_tree(sender):
                continue
            for target in self.protocol.push_targets(sender):
                hops += 1
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return hops

    # -- internals ----------------------------------------------------------
    def _emit(self, from_node: int, payload: object) -> None:
        self._walk(from_node, [payload])

    def _charge(self, hops: int) -> None:
        self.control_hops += hops

    def _walk(self, from_node: int, payloads: list) -> None:
        current = from_node
        pending = list(payloads)
        while pending:
            parent = self.tree.parent(current)
            if parent is None:
                break
            self.control_hops += len(pending)
            continuations = []
            for payload in pending:
                result = self.protocol.step(parent, payload)
                continuations.extend(result.upstream)
            pending = continuations
            current = parent


@pytest.fixture
def figure2_tree() -> SearchTree:
    """The paper's Figure 1/2 topology: N1..N8."""
    tree = SearchTree(root=1)
    tree.add_leaf(1, 2)
    tree.add_leaf(2, 3)
    tree.add_leaf(3, 4)
    tree.add_leaf(3, 5)
    tree.add_leaf(5, 6)
    tree.add_leaf(6, 7)
    tree.add_leaf(6, 8)
    return tree


@pytest.fixture
def driver(figure2_tree) -> SyncDupDriver:
    return SyncDupDriver(figure2_tree)
