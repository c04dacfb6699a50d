"""The topic-based dissemination platform (the paper's future work).

Architecture
------------
One :class:`DisseminationPlatform` owns a Chord overlay and, per topic:

- the topic key (a stable hash of its name),
- the authority node (the key's Chord owner),
- the index search tree (union of all lookup routes toward the key),
- a :class:`~repro.core.protocol.DupProtocol` instance holding the
  topic's subscriber lists.

``subscribe`` / ``unsubscribe`` drive Figure 3's state machine with
explicit control messages that hop along the topic's search tree (charged
per hop, same cost model as the reproduction).  ``publish`` routes the
payload up the publisher's search path to the authority, which then
pushes it down the DUP tree — one overlay hop per tree edge, skipping
every uninterested relay.

Delivery is at-most-once per (event, subscriber) and the platform tracks
per-category hop counts so applications can compare fan-out cost against
full-tree multicast (:meth:`DisseminationPlatform.multicast_cost_bound`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

import numpy as np

from repro.core.maintenance import DupMaintenance
from repro.core.protocol import DupProtocol
from repro.errors import NodeNotFoundError, ReproError
from repro.sim.core import Environment
from repro.stats.distributions import Distribution, Exponential
from repro.topology.chord import ChordRing, chord_hash
from repro.topology.chord_tree import chord_search_tree
from repro.topology.tree import SearchTree

NodeId = int
DeliveryCallback = Callable[["Delivery"], None]


class TopicError(ReproError):
    """An invalid topic operation."""


@dataclass(frozen=True)
class Delivery:
    """One payload delivered to one subscriber."""

    topic: str
    event_id: int
    payload: Any
    publisher: NodeId
    subscriber: NodeId
    published_at: float
    delivered_at: float

    @property
    def delay(self) -> float:
        """End-to-end dissemination delay."""
        return self.delivered_at - self.published_at


@dataclass
class PlatformStats:
    """Aggregate traffic counters for the platform."""

    publish_hops: int = 0
    push_hops: int = 0
    control_hops: int = 0
    deliveries: int = 0
    duplicate_suppressions: int = 0

    @property
    def total_hops(self) -> int:
        """All message hops the platform generated."""
        return self.publish_hops + self.push_hops + self.control_hops


@dataclass
class _Topic:
    name: str
    key: int
    tree: SearchTree
    protocol: DupProtocol
    subscribers: set[NodeId] = field(default_factory=set)
    seen_events: dict[NodeId, set[int]] = field(default_factory=dict)


class TopicHandle:
    """Read-only view of one topic's state (for inspection/tests)."""

    def __init__(self, topic: _Topic):
        self._topic = topic

    @property
    def name(self) -> str:
        """Topic name."""
        return self._topic.name

    @property
    def authority(self) -> NodeId:
        """The topic's authority node (root of its search tree)."""
        return self._topic.tree.root

    @property
    def subscribers(self) -> frozenset[NodeId]:
        """Currently subscribed nodes."""
        return frozenset(self._topic.subscribers)

    def s_list(self, node: NodeId) -> tuple[NodeId, ...]:
        """The node's DUP subscriber list for this topic."""
        return self._topic.protocol.s_list(node).snapshot()

    def dup_tree_edges(self) -> int:
        """Push hops one dissemination costs right now."""
        topic = self._topic
        hops = 0
        frontier = [topic.tree.root]
        seen = {topic.tree.root}
        while frontier:
            sender = frontier.pop()
            if sender != topic.tree.root and not topic.protocol.in_dup_tree(
                sender
            ):
                continue
            for target in topic.protocol.push_targets(sender):
                hops += 1
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return hops

    def search_path_cost(self) -> int:
        """Edges on the union of root-to-subscriber search paths.

        This is what a SCRIBE-style hop-by-hop multicast would pay per
        event; compare with :meth:`dup_tree_edges`.
        """
        topic = self._topic
        edges: set[tuple[NodeId, NodeId]] = set()
        for subscriber in topic.subscribers:
            current = subscriber
            while current != topic.tree.root:
                parent = topic.tree.parent(current)
                edges.add((current, parent))
                current = parent
        return len(edges)


class DisseminationPlatform:
    """Topic-based publish/subscribe over a Chord overlay with DUP trees.

    Parameters
    ----------
    env:
        Simulation environment (the platform is event-driven).
    num_nodes:
        Overlay size; node ids are Chord identifiers.
    seed:
        Seed for the overlay layout.
    hop_latency:
        Per-hop delay distribution (default Exponential(0.1), the paper's
        transport model).
    bits:
        Chord identifier-space size.
    """

    def __init__(
        self,
        env: Environment,
        num_nodes: int,
        seed: int = 1,
        hop_latency: Optional[Distribution] = None,
        bits: int = 32,
    ):
        self.env = env
        self._rng = np.random.default_rng(seed)
        self.ring = ChordRing.random(num_nodes, self._rng, bits=bits)
        self._bits = bits
        self._latency = hop_latency or Exponential(0.1)
        self._latency_rng = np.random.default_rng(seed + 1)
        self._topics: dict[str, _Topic] = {}
        self._departed: set[NodeId] = set()
        self._callbacks: dict[NodeId, DeliveryCallback] = {}
        self._event_ids = itertools.count()
        self.stats = PlatformStats()

    # -- node-facing API --------------------------------------------------
    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """All overlay node ids."""
        return self.ring.node_ids

    def on_delivery(self, node: NodeId, callback: DeliveryCallback) -> None:
        """Register ``node``'s delivery callback."""
        self._require_node(node)
        self._callbacks[node] = callback

    def create_topic(self, name: str) -> TopicHandle:
        """Create (or fetch) the topic ``name``; returns its handle."""
        topic = self._topics.get(name)
        if topic is None:
            key = chord_hash(name, self._bits)
            tree = chord_search_tree(self.ring, key)
            for gone in self._departed:
                if gone in tree and gone != tree.root:
                    tree.splice_out(gone)
            protocol = DupProtocol(is_root=lambda n, t=tree: n == t.root)
            topic = _Topic(name=name, key=key, tree=tree, protocol=protocol)
            self._topics[name] = topic
        return TopicHandle(topic)

    def topic(self, name: str) -> TopicHandle:
        """Handle for an existing topic."""
        return TopicHandle(self._require_topic(name))

    def subscribe(self, node: NodeId, name: str) -> None:
        """Subscribe ``node`` to topic ``name`` (idempotent).

        Sends DUP ``subscribe``/``substitute`` control messages up the
        topic's search tree; the node starts receiving every subsequent
        publication.
        """
        self._require_node(node)
        topic = self._require_topic(name)
        if node in topic.subscribers:
            return
        topic.subscribers.add(node)
        if node == topic.tree.root:
            return  # the authority trivially sees everything
        result = topic.protocol.ensure_subscribed(node)
        self._walk_control(topic, node, result.upstream)

    def unsubscribe(self, node: NodeId, name: str) -> None:
        """Unsubscribe ``node`` from topic ``name`` (idempotent)."""
        self._require_node(node)
        topic = self._require_topic(name)
        if node not in topic.subscribers:
            return
        topic.subscribers.discard(node)
        if node == topic.tree.root:
            return
        result = topic.protocol.drop_subscription(node)
        self._walk_control(topic, node, result.upstream)

    def publish(self, node: NodeId, name: str, payload: Any) -> int:
        """Publish ``payload`` on topic ``name`` from ``node``.

        The payload is routed up the publisher's search path to the
        authority (charged per hop) and then pushed down the DUP tree.
        Returns the event id.
        """
        self._require_node(node)
        topic = self._require_topic(name)
        event_id = next(self._event_ids)
        published_at = self.env.now
        route_hops = topic.tree.depth(node)
        self.stats.publish_hops += route_hops
        route_delay = sum(
            self._latency.sample(self._latency_rng) for _ in range(route_hops)
        )
        self.env.defer(
            route_delay,
            self._push_from,
            topic,
            topic.tree.root,
            event_id,
            payload,
            node,
            published_at,
        )
        return event_id

    # -- membership churn ---------------------------------------------------
    def node_left(self, node: NodeId) -> None:
        """A node departs gracefully from the overlay.

        Every topic repairs independently: the departing node's per-topic
        subscriber state is handed to its search-tree parent via
        Section III-C's handover flows.  The node's zone/key-space
        succession on the *ring* itself is out of scope here — topic
        trees are simply spliced, which matches how lookups would route
        after the DHT's own repair.
        """
        self._require_node(node)
        for topic in self._topics.values():
            if topic.tree.root == node:
                raise TopicError(
                    f"node {node} is the authority of {topic.name!r}; "
                    "authorities cannot leave in this platform"
                )
        for topic in self._topics.values():
            topic.subscribers.discard(node)
            topic.seen_events.pop(node, None)
            maintenance = self._maintenance_for(topic)
            maintenance.node_left(node)
        self._callbacks.pop(node, None)
        # Remove from the ring view by rebuilding the id set lazily: the
        # trees are already spliced; publishes route on the trees, so the
        # ring object is only used for validation/new-topic creation.
        self._departed.add(node)

    def is_member(self, node: NodeId) -> bool:
        """Whether ``node`` is currently part of the overlay."""
        return node in self.ring and node not in self._departed

    def _maintenance_for(self, topic: _Topic) -> DupMaintenance:
        return DupMaintenance(
            topic.protocol,
            topic.tree,
            emit=lambda from_node, payload, t=topic: self._walk_control(
                t, from_node, [payload]
            ),
            charge=lambda hops: setattr(
                self.stats, "control_hops", self.stats.control_hops + hops
            ),
        )

    # -- internals -----------------------------------------------------------
    def _push_from(
        self,
        topic: _Topic,
        sender: NodeId,
        event_id: int,
        payload: Any,
        publisher: NodeId,
        published_at: float,
    ) -> None:
        self._deliver_local(
            topic, sender, event_id, payload, publisher, published_at
        )
        if sender != topic.tree.root and not topic.protocol.in_dup_tree(
            sender
        ):
            return
        for target in topic.protocol.push_targets(sender):
            if target not in topic.tree:
                continue  # departed concurrently; repair flows pending
            self.stats.push_hops += 1
            delay = self._latency.sample(self._latency_rng)
            self.env.defer(
                delay,
                self._push_from,
                topic,
                target,
                event_id,
                payload,
                publisher,
                published_at,
            )

    def _deliver_local(
        self,
        topic: _Topic,
        node: NodeId,
        event_id: int,
        payload: Any,
        publisher: NodeId,
        published_at: float,
    ) -> None:
        if node not in topic.subscribers:
            return  # a forwarding-only DUP-tree junction
        seen = topic.seen_events.setdefault(node, set())
        if event_id in seen:
            self.stats.duplicate_suppressions += 1
            return
        seen.add(event_id)
        self.stats.deliveries += 1
        callback = self._callbacks.get(node)
        if callback is not None:
            callback(
                Delivery(
                    topic=topic.name,
                    event_id=event_id,
                    payload=payload,
                    publisher=publisher,
                    subscriber=node,
                    published_at=published_at,
                    delivered_at=self.env.now,
                )
            )

    def _walk_control(
        self, topic: _Topic, from_node: NodeId, payloads: Iterable
    ) -> None:
        """Walk control payloads up the topic tree, charging per hop.

        Dissemination subscriptions are API calls, not query piggybacks,
        so every hop is an explicit (charged) control message.
        """
        current = from_node
        pending = list(payloads)
        while pending:
            parent = topic.tree.parent(current)
            if parent is None:
                break
            self.stats.control_hops += len(pending)
            continuations = []
            for payload in pending:
                result = topic.protocol.step(parent, payload)
                continuations.extend(result.upstream)
            pending = continuations
            current = parent

    def _require_topic(self, name: str) -> _Topic:
        topic = self._topics.get(name)
        if topic is None:
            raise TopicError(f"unknown topic {name!r}; create_topic first")
        return topic

    def _require_node(self, node: NodeId) -> None:
        if node not in self.ring or node in self._departed:
            raise NodeNotFoundError(f"node {node} not on the overlay")

    # -- analysis helpers ------------------------------------------------------
    def multicast_cost_bound(self, name: str) -> tuple[int, int]:
        """(DUP push hops, SCRIBE-style path-union hops) for one event."""
        handle = self.topic(name)
        return handle.dup_tree_edges(), handle.search_path_cost()
