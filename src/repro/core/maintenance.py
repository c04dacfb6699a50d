"""Node arrival, departure, and failure handling (paper Section III-C).

The underlying peer-to-peer protocol repairs the index search tree itself;
DUP "only makes necessary adjustments to the tree when the topology
changes".  This module performs both in one atomic step per event:

- **Arrival** (:meth:`DupMaintenance.node_joined_edge` /
  :meth:`~DupMaintenance.node_joined_leaf`): a joining node lands either
  on an existing search path (inheriting the subscriber entries that now
  route through it — one notification hop) or outside every virtual path
  (no DUP action).
- **Departure** (:meth:`~DupMaintenance.node_left`): a neighbor absorbs
  the leaver's key space and "acts as" it; the leaver's subscriber entries
  are handed over and, when the absorber's upstream advertisement changes,
  a corrective ``substitute`` travels up.  A departing *end node of a
  virtual path* instead clears its path with an ``unsubscribe`` (the
  paper's stated exception).
- **Failure** (:meth:`~DupMaintenance.node_failed`): the crashed node's
  state is lost.  Its upstream virtual-path neighbor detects the failure
  and emits ``unsubscribe(failed)`` (paper failure case 2); every node the
  failed node pushed to re-establishes its path with a *refresh subscribe*
  (cases 3 and 4).  Case 1 (node on no virtual path) needs no action, and
  case 5 (the root) is :meth:`~DupMaintenance.root_failed`.

Control flows are emitted through the scheme's ``_emit_maintenance(from_node,
payload)`` so the same logic runs under the discrete-event engine (real
messages, hop charges, latencies) and under the synchronous walker used by
the protocol tests.
"""

from __future__ import annotations

from typing import Optional

from repro.core.protocol import DupProtocol
from repro.core.subscriber_list import SubscriberList
from repro.errors import TopologyError
from repro.net.message import RefreshSubscribe, Subscribe, Substitute, Unsubscribe
from repro.topology.tree import SearchTree

NodeId = int


def _advertisement(s_list: SubscriberList, node: NodeId) -> Optional[NodeId]:
    """What ``node`` currently advertises to its parent (None if nothing)."""
    if len(s_list) == 0:
        return None
    if len(s_list) >= 2:
        return node
    return s_list.first


class DupMaintenance:
    """Applies churn events to the search tree and the DUP state.

    Parameters
    ----------
    protocol:
        The global DUP state machine.
    host:
        Supplies ``tree``, the index search tree (mutated in place by
        churn events), and ``recorder``, an optional
        :class:`repro.flightrec.FlightRecorder` to which tree grafts,
        prunes, substitutes, and re-rootings emit structured events.
    scheme:
        Its ``_emit_maintenance(from_node, payload)`` delivers a control
        payload from ``from_node`` to its parent (one charged hop, then
        normal Figure-3 processing and forwarding), and its
        ``_charge_maintenance(hops)`` charges bookkeeping hops that are
        not Figure-3 flows (the join notification).
    """

    def __init__(self, protocol: DupProtocol, host, scheme):
        self._protocol = protocol
        self._tree: SearchTree = host.tree
        self._recorder = host.recorder
        self._scheme = scheme

    def _record(self, kind: str, node=None, subject=None, detail="") -> None:
        if self._recorder is not None:
            self._recorder.record(kind, node, subject, detail)

    # -- arrival ------------------------------------------------------------
    def node_joined_edge(
        self, new: NodeId, upper: NodeId, lower: NodeId
    ) -> None:
        """A node joins on the edge between ``upper`` and ``lower``.

        ``new`` takes over the part of ``upper``'s key space that routes
        toward ``lower``, so the subscriber entries of ``upper`` that live
        in that branch now also route through ``new`` (paper: "N3 notifies
        N3' that N6 is in its subscriber list; N3' inserts N6 ... and
        becomes an intermediate node in the virtual path").
        """
        inherited = [
            entry
            for entry in self._protocol.s_list(upper)
            if entry != upper and self._routes_through(upper, entry, lower)
        ]
        self._tree.insert_on_edge(upper, lower, new)
        self._record(
            "tree-graft",
            node=new,
            subject=upper,
            detail=f"edge lower={lower} inherited={len(inherited)}",
        )
        if inherited:
            self._protocol.adopt_entries(new, inherited)
            # upper -> new handover notification
            self._scheme._charge_maintenance(1)

    def node_joined_leaf(self, parent: NodeId, new: NodeId) -> None:
        """A node joins outside every virtual path: no DUP action needed."""
        self._tree.add_leaf(parent, new)
        self._record("tree-graft", node=new, subject=parent, detail="leaf")

    # -- graceful departure -----------------------------------------------------
    def node_left(self, node: NodeId) -> None:
        """A node announces its departure and hands over its state."""
        if node == self._tree.root:
            raise TopologyError("use root_failed/replace for the root")
        s_node = self._protocol.s_list(node)
        if len(s_node) == 1 and node in s_node:
            # Paper's exception: the end node of a virtual path clears its
            # path before leaving.
            self._scheme._emit_maintenance(node, Unsubscribe(node))
            self._protocol.drop_node(node)
            self._tree.splice_out(node)
            self._record("tree-prune", node=node, detail="left end-node")
            return

        entries = [entry for entry in s_node.snapshot() if entry != node]
        self._protocol.drop_node(node)
        parent = self._tree.splice_out(node)
        self._record(
            "tree-prune",
            node=node,
            subject=parent,
            detail=f"left entries={len(entries)}",
        )
        if not entries:
            return  # the node was on no virtual path (or only self-subscribed)

        parent_list = self._protocol.s_list(parent)
        pre_adv = _advertisement(parent_list, parent)
        parent_list.discard(node)
        self._protocol.adopt_entries(parent, entries)
        # node -> parent handover notification
        self._scheme._charge_maintenance(1)
        post_adv = _advertisement(parent_list, parent)
        if (
            parent != self._tree.root
            and pre_adv is not None
            and post_adv is not None
            and pre_adv != post_adv
        ):
            # The absorber's upstream advertisement changed (e.g. it now
            # represents the branch itself): correct the upstream lists.
            self._record(
                "tree-substitute",
                node=parent,
                subject=pre_adv,
                detail=f"{pre_adv}->{post_adv}",
            )
            self._scheme._emit_maintenance(
                parent, Substitute(pre_adv, post_adv)
            )

    # -- failure ----------------------------------------------------------------
    def node_failed(self, node: NodeId) -> list[NodeId]:
        """A node crashes without warning; returns the orphans that repair.

        The crashed node's subscriber list is *lost* to the survivors; it
        is consulted here only to decide which surviving nodes detect the
        failure — exactly the nodes the paper designates as detectors
        (the upstream virtual-path neighbor and the push recipients).
        """
        if node == self._tree.root:
            raise TopologyError("use root_failed for the root")
        s_node = self._protocol.drop_node(node)
        parent = self._tree.splice_out(node)
        orphans = [entry for entry in s_node if entry != node]
        self._record(
            "tree-prune",
            node=node,
            subject=parent,
            detail=f"failed orphans={len(orphans)}",
        )
        # Failure case 2: the upstream virtual-path neighbor notices that
        # its branch through the failed node went silent.
        if node in self._protocol.s_list(parent):
            self._emit_local_unsubscribe(parent, node)
        # Failure cases 3 and 4: every node the failed one pushed to
        # re-establishes its virtual path.
        for orphan in orphans:
            self._scheme._emit_maintenance(orphan, RefreshSubscribe(orphan))
        return orphans

    def root_failed(self, new_root: NodeId) -> None:
        """The authority fails; ``new_root`` takes over (failure case 5).

        The old root's indices and subscriber list are lost.  Each direct
        child holding virtual-path state re-registers its advertisement
        with the new root ("N2 can still setup the virtual path and inform
        the new root that it should push the index to N3").
        """
        old_root = self._tree.root
        self._protocol.drop_node(old_root)
        self._tree.replace_root(new_root)
        self._record(
            "failover-reroot",
            node=new_root,
            subject=old_root,
            detail="fresh-root",
        )
        for child in self._tree.children(new_root):
            s_child = self._protocol.s_list(child)
            advertisement = _advertisement(s_child, child)
            if advertisement is not None:
                self._scheme._emit_maintenance(child, Subscribe(advertisement))

    def promote_root(self, standby: NodeId) -> None:
        """The authority fails; an *existing tree node* takes over.

        The standby-failover variant of :meth:`root_failed`: the successor
        is not a fresh node but a standby already holding a position (and
        possibly DUP state) in the tree.  The standby's old position is
        spliced out exactly like a graceful departure — its subscriber
        entries hand over to the absorbing parent, with the same
        advertisement correction — and it is then installed as the root.
        The old root's state is lost with it; each direct child of the new
        root re-registers its advertisement (failure case 5).
        """
        old_root = self._tree.root
        if standby == old_root:
            raise TopologyError(f"standby {standby} is already the root")
        s_standby = self._protocol.s_list(standby)
        end_node = len(s_standby) == 1 and standby in s_standby
        entries = [e for e in s_standby.snapshot() if e != standby]
        self._protocol.drop_node(old_root)
        self._protocol.drop_node(standby)
        absorber = self._tree.promote_to_root(standby)
        self._record(
            "failover-reroot",
            node=standby,
            subject=old_root,
            detail=f"standby absorber={absorber}",
        )
        if absorber == old_root:
            # The standby was a direct child of the dead root: its former
            # children are its own children now, so it keeps serving their
            # virtual paths from the root position.
            if entries:
                self._protocol.adopt_entries(standby, entries)
        elif end_node:
            # The standby was the end node of a virtual path; as the root
            # it no longer needs one — clear the stale path upward.
            self._emit_local_unsubscribe(absorber, standby)
        elif entries:
            absorber_list = self._protocol.s_list(absorber)
            pre_adv = _advertisement(absorber_list, absorber)
            absorber_list.discard(standby)
            self._protocol.adopt_entries(absorber, entries)
            # standby -> absorber handover notification
            self._scheme._charge_maintenance(1)
            post_adv = _advertisement(absorber_list, absorber)
            if (
                absorber != self._tree.root
                and pre_adv is not None
                and post_adv is not None
                and pre_adv != post_adv
            ):
                self._record(
                    "tree-substitute",
                    node=absorber,
                    subject=pre_adv,
                    detail=f"{pre_adv}->{post_adv}",
                )
                self._scheme._emit_maintenance(
                    absorber, Substitute(pre_adv, post_adv)
                )
        for child in self._tree.children(standby):
            s_child = self._protocol.s_list(child)
            advertisement = _advertisement(s_child, child)
            if advertisement is not None:
                self._scheme._emit_maintenance(child, Subscribe(advertisement))

    # -- crash-restart ----------------------------------------------------------
    def node_rejoined(
        self,
        node: NodeId,
        parent: NodeId,
        entries: "tuple[NodeId, ...]",
        entry_valid: "Optional[Callable[[NodeId], bool]]" = None,
    ) -> "tuple[list[NodeId], list[NodeId]]":
        """A crashed node returns holding its pre-crash state; reconcile.

        The rejoiner's amnesia semantics are explicit: ``entries`` is the
        subscriber list it still holds from before the crash.  Each entry
        is re-validated — it must still be in the overlay, its virtual
        path must still route through ``node`` (a survivor repair may
        have moved the branch, or the node itself may have been spliced
        out and re-grafted elsewhere), and ``entry_valid`` (the scheme's
        live-lease check) must accept it.  Valid entries are adopted
        back; the rest are *excised*, exactly the records the
        consistency auditor would otherwise flag as dangling or stray.
        The reconciled advertisement is re-announced upstream with a
        ``RefreshSubscribe`` so the virtual path above the rejoiner is
        re-validated end to end (refresh is idempotent: it stops at the
        first node already pushing to the advertisement).

        Returns ``(kept, excised)``.
        """
        if node not in self._tree:
            # A survivor detected the crash and spliced the node out;
            # it returns as a leaf under ``parent``.
            self._tree.add_leaf(parent, node)
            self._record("tree-graft", node=node, subject=parent, detail="rejoin")
        kept: list[NodeId] = []
        excised: list[NodeId] = []
        for entry in entries:
            if entry == node:
                # Self-subscription: interest is the scheme's call; it
                # pre-filters lapsed interest before handing us entries.
                kept.append(entry)
                continue
            valid = (
                entry in self._tree
                and self._tree.on_path_to_root(entry, node)
                and (entry_valid is None or entry_valid(entry))
            )
            (kept if valid else excised).append(entry)
        # Rebuild the node's list from the validated survivors: whatever
        # the protocol currently holds for it (possibly nothing — the
        # failure repair dropped it) is replaced by the reconciled state.
        self._protocol.drop_node(node)
        others = [entry for entry in kept if entry != node]
        if others:
            self._protocol.adopt_entries(node, others)
        if node in kept:
            # adopt_entries skips self-entries; restore the surviving
            # self-subscription directly.
            self._protocol.s_list(node).add(node)
        for entry in excised:
            self._record("stale-excise", node=node, subject=entry)
        self._record(
            "rejoin-reconcile",
            node=node,
            subject=parent,
            detail=f"kept={len(kept)} excised={len(excised)}",
        )
        advertisement = _advertisement(self._protocol.s_list(node), node)
        if advertisement is not None:
            self._scheme._emit_maintenance(
                node, RefreshSubscribe(advertisement)
            )
        return kept, excised

    # -- helpers ------------------------------------------------------------
    def _routes_through(
        self, upper: NodeId, entry: NodeId, lower: NodeId
    ) -> bool:
        """Whether ``entry`` hangs under ``upper``'s branch ``lower``.

        Tolerates stale subscriber entries (a listed node may have left or
        failed concurrently; its cleanup flows are still in flight).
        """
        if entry not in self._tree:
            return False
        try:
            return self._tree.child_branch(upper, entry) == lower
        except TopologyError:
            return False

    def _emit_local_unsubscribe(self, at_node: NodeId, subject: NodeId) -> None:
        """Process an unsubscribe at ``at_node`` itself, then continue up."""
        result = self._protocol.step(at_node, Unsubscribe(subject))
        for payload in result.upstream:
            self._scheme._emit_maintenance(at_node, payload)
