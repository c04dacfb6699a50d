"""One oracle for the DUP tree invariants.

The protocol is distributed: each node only knows its own subscriber list.
:func:`violations` takes the global view (every list plus the search
tree), derives the push graph once (:func:`push_edges`, walked exactly as
the delivery code walks it) and reports every way the state breaks the
structural properties the paper's correctness argument rests on.  Every
consumer asks it: :func:`check_dup_invariants` (the protocol tests and the
ledger driver), the runtime
:class:`~repro.core.auditor.ConsistencyAuditor`, and the tree-invariant
test helpers.

Violation kinds, in report order (the auditor repairs the first seven):

- ``dangling-entry`` — a list names a node that left the tree (locality);
- ``stray-entry`` — a list names a node outside the holder's subtree
  (locality);
- ``branch-conflict`` — a non-root list names, for some child branch,
  anything but what that branch advertises upstream (branch uniqueness);
- ``push-cycle`` — a push edge closes a cycle;
- ``split-brain`` — a node is pushed to by more than one pusher;
- ``dead-end`` — a push-graph leaf that is not subscribed (frugality: the
  property CUP lacks);
- ``orphan`` — a subscriber that pushes never reach (delivery);
- ``broken-path`` — a parent does not list the node's advertisement, or
  the root lists two subscribers on one branch (virtual-path continuity);
- ``unplaced-state`` — a node holds state but is not in the tree;
- ``interest-mismatch`` — the subscribed set differs from the interested
  one (only when ``interested`` is given).

Reads never create state: a node's advertisement is computed from its
raw list (itself with >= 2 entries, else its single entry), not through
:meth:`DupProtocol.advertisement`, and no empty list is left behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.protocol import DupProtocol
from repro.errors import ProtocolError, TopologyError
from repro.topology.tree import SearchTree

NodeId = int


@dataclass(frozen=True)
class Violation:
    """One invariant violation.

    ``node`` is where the bad state lives (the list holder for entry
    violations, the unsupplied subscriber for orphans); ``subject`` is
    the offending entry/peer when one exists (it keys the auditor's
    confirmation across sweeps together with ``kind`` and ``node``);
    ``detail`` is a human-readable description.  ``pushers`` names a
    dead end's senders in the same push graph.
    """

    kind: str
    node: NodeId
    subject: Optional[NodeId] = None
    detail: str = ""
    pushers: tuple[NodeId, ...] = ()

    @property
    def key(self) -> tuple:
        """Identity for cross-sweep confirmation."""
        return (self.kind, self.node, self.subject)


def push_edges(
    protocol: DupProtocol, root: NodeId
) -> list[tuple[NodeId, NodeId]]:
    """Directed ``(sender, target)`` edges of the push graph.

    A push travels from the root to every list entry of each
    *forwarding* node (the root and DUP-tree interiors, >= 2 entries);
    a relay receives but does not forward, and a node already reached is
    not walked again.
    """
    edges: list[tuple[NodeId, NodeId]] = []
    frontier = [root]
    visited = {root}
    while frontier:
        sender = frontier.pop()
        entries = protocol.peek_entries(sender)
        if sender != root and len(entries) < 2:
            continue
        for target in entries:
            if target == sender:
                continue
            edges.append((sender, target))
            if target not in visited:
                visited.add(target)
                frontier.append(target)
    return edges


def violations(
    protocol: DupProtocol,
    tree: SearchTree,
    interested: Optional[Iterable[NodeId]] = None,
) -> list[Violation]:
    """Every invariant violation of the current state, in kind order."""
    root = tree.root
    holders = protocol.nodes_with_state()
    lists = {node: protocol.peek_entries(node) for node in holders}
    placed = [node for node in holders if node in tree]
    found: list[Violation] = []

    def report(*fields) -> None:
        found.append(Violation(*fields))

    def advertisement(node: NodeId) -> Optional[NodeId]:
        entries = lists.get(node, ())
        if len(entries) >= 2:
            return node
        return entries[0] if entries else None

    # Entries: because every control payload walks the search-tree path
    # hop by hop, a consistent list holds, for each branch child, exactly
    # what that child advertises upstream.
    for node in placed:
        for member in lists[node]:
            if member == node:
                continue
            if member not in tree:
                report("dangling-entry", node, member,
                       f"{node} lists departed node {member}")
                continue
            if node == root:
                continue  # every other node hangs under some root branch
            try:
                branch = tree.child_branch(node, member)
            except TopologyError:
                report("stray-entry", node, member,
                       f"{member} no longer routes through {node}")
                continue
            advertised = advertisement(branch)
            if advertised != member:
                report("branch-conflict", node, member,
                       f"{node} lists {member} on branch {branch}, "
                       f"which advertises {advertised}")

    outgoing: dict[NodeId, list[NodeId]] = {}
    pushers: dict[NodeId, list[NodeId]] = {}
    for sender, target in push_edges(protocol, root):
        outgoing.setdefault(sender, []).append(target)
        pushers.setdefault(target, []).append(sender)

    # Cycles: iterative DFS; every back edge is reported (and cut from
    # the split-brain and dead-end checks below).
    cut: set[tuple[NodeId, NodeId]] = set()
    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[NodeId, int] = {}
    for start in outgoing:
        if color.get(start, WHITE) != WHITE:
            continue
        stack = [(start, iter(outgoing[start]))]
        color[start] = GREY
        while stack:
            node, children = stack[-1]
            for child in children:
                state = color.get(child, WHITE)
                if state == GREY:
                    report("push-cycle", node, child,
                           f"push edge {node} -> {child} closes a cycle")
                    cut.add((node, child))
                elif state == WHITE:
                    color[child] = GREY
                    stack.append((child, iter(outgoing.get(child, ()))))
                    break
            else:
                color[node] = BLACK
                stack.pop()

    # Split brain: a node fed by more than one pusher receives every
    # update twice — the signature of a promotion racing a repair.
    for target, sources in pushers.items():
        keep = [s for s in sources if (s, target) not in cut]
        for extra in keep[1:]:
            report("split-brain", target, extra,
                   f"{target} is pushed to by both {keep[0]} and {extra}")

    # Dead ends: a push-graph leaf that is not itself subscribed consumes
    # updates nobody asked it to hold.
    for target, sources in pushers.items():
        if target in outgoing or target in lists.get(target, ()):
            continue
        if any((s, target) in cut for s in sources):
            continue  # already reported as a cycle
        report("dead-end", target, None,
               f"push dead-ends at {target}, which is not subscribed",
               tuple(sources))

    for node in placed:
        if node != root and node in lists[node] and node not in pushers:
            report("orphan", node, None,
                   f"subscriber {node} is unreachable by pushes")

    # Virtual paths: each node's parent lists what the node advertises,
    # and the root, which no branch constraint above binds, lists at
    # most one subscriber per branch.
    for node in placed:
        if node != root:
            parent = tree.parent(node)
            parent_list = lists.get(parent, ())
            advertised = advertisement(node)
            if advertised not in parent_list:
                report("broken-path", node, parent,
                       f"parent {parent} of {node} does not list its "
                       f"advertisement {advertised} "
                       f"(has {sorted(parent_list)})")
            continue
        branches: set[NodeId] = set()
        for member in lists[node]:
            if member == node or member not in tree:
                continue
            branch = tree.child_branch(node, member)
            if branch in branches:
                report("broken-path", node, member,
                       f"two subscribers of {node} share branch {branch}")
            branches.add(branch)

    for node in holders:
        if node not in tree:
            report("unplaced-state", node, None,
                   f"state held by node {node} not in tree")

    if interested is not None:
        wanted = set(interested)
        subscribed = {node for node in holders if node in lists[node]}
        for node in sorted(wanted ^ subscribed):
            report("interest-mismatch", node, None,
                   f"{node} is interested but not subscribed"
                   if node in wanted
                   else f"{node} is subscribed but not interested")
    return found


def check_dup_invariants(
    protocol: DupProtocol,
    tree: SearchTree,
    interested: Optional[Iterable[NodeId]] = None,
) -> None:
    """Raise :class:`ProtocolError` on the first :func:`violations` entry.

    ``interested``, when given, must equal the subscribed set (valid in
    quiescent, fully propagated states).
    """
    found = violations(protocol, tree, interested)
    if found:
        raise ProtocolError(f"{found[0].kind}: {found[0].detail}")
