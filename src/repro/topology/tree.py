"""The index search tree: a rooted tree over node ids, mutable under churn.

In a structured peer-to-peer network every query for a key is routed along
a well-defined path toward the key's *authority node*; the union of those
paths forms the per-key index search tree (paper, Section I).  Queries
travel **up** this tree (toward the root), replies travel back down.

The tree is mutable because nodes join, leave, and fail (paper, Section
III-C):

- :meth:`insert_on_edge` — a joining node takes over part of a neighbor's
  key space and lands between two existing tree nodes.
- :meth:`add_leaf` — a joining node lands outside any existing path.
- :meth:`splice_out` — a leaving/failed interior node is removed and its
  children re-parent to its parent (a neighbor "acts as" the departed
  node).
- :meth:`remove_leaf` — a leaving/failed edge node simply disappears.

The tree is its parent map: building one (a generator's block of
leaves, a Chord ring's next hops) fills that map alone, and the child
lists are derived from it the first time something reads or reshapes
them.  From then on every operation maintains both maps consistently;
:meth:`validate` checks the invariants and is exercised heavily by the
property-based tests.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import NodeNotFoundError, TopologyError

NodeId = int


class SearchTree:
    """A rooted tree with O(1) parent/children access and dynamic updates."""

    def __init__(self, root: NodeId):
        self._root = root
        self._parent: dict[NodeId, Optional[NodeId]] = {root: None}
        # node -> its children: None until _child_map derives it.
        self._children: Optional[dict[NodeId, list[NodeId]]] = None
        self._version = 0
        # node -> tuple path (node .. root), filled lazily by _path() and
        # cleared by _mutated() on every structural change.
        self._paths: dict[NodeId, tuple[NodeId, ...]] = {}

    def _mutated(self) -> None:
        """Bump the structure version and drop every memoised path."""
        self._version += 1
        if self._paths:
            self._paths.clear()

    @property
    def version(self) -> int:
        """Structure version: bumped by every mutating operation.

        Route caches outside the tree key their own memoisation on this
        counter to invalidate on churn, promotion, and renames.
        """
        return self._version

    def _child_map(self) -> dict[NodeId, list[NodeId]]:
        """node -> its children, derived from the parent map on first use.

        Until the first reshape, each node's children are the nodes
        naming it as parent, in the parent map's order: exactly the
        lists an :meth:`add_leaf` loop would have built.  The appends
        extend a derived map and leave an underived one alone; every
        other mutator derives it first and then edits it in place.
        """
        kids = self._children
        if kids is None:
            kids = {node: [] for node in self._parent}
            for node, parent in self._parent.items():
                if parent is not None:
                    kids[parent].append(node)
            self._children = kids
        return kids

    def _path(self, node: NodeId) -> tuple[NodeId, ...]:
        """Memoised path ``node .. root`` (cached ancestor suffixes reused)."""
        path = self._paths.get(node)
        if path is None:
            self._require(node)
            parts = [node]
            current = self._parent[node]
            while current is not None:
                cached = self._paths.get(current)
                if cached is not None:
                    parts.extend(cached)
                    break
                parts.append(current)
                current = self._parent[current]
            path = tuple(parts)
            self._paths[node] = path
        return path

    # -- construction -----------------------------------------------------
    @classmethod
    def from_parents(
        cls, root: NodeId, parents: dict[NodeId, Optional[NodeId]]
    ) -> "SearchTree":
        """The tree whose parent map is ``parents`` (taken over, not copied).

        ``parents`` maps every node to its parent, and ``root`` to
        ``None``.  The tree iterates its nodes, and lists each node's
        children, in the map's own order: a Chord tree built in ring
        order keeps ring order, root included.
        """
        tree = cls(root)
        tree._parent = parents
        return tree

    def add_leaf(self, parent: NodeId, node: NodeId) -> None:
        """Attach ``node`` as a new child of ``parent``."""
        self._require(parent)
        if node in self._parent:
            raise TopologyError(f"node {node} already in tree")
        self._parent[node] = parent
        kids = self._children
        if kids is not None:
            kids[node] = []
            kids[parent].append(node)
        self._mutated()

    def add_leaves(self, parents: Sequence[NodeId], first: NodeId) -> None:
        """Attach ``first, first + 1, ...`` as children of ``parents``.

        Node ``first + i`` hangs under ``parents[i]``, which must be in
        the tree already or be an earlier node of the same block.  The
        result — both maps, every child order, :attr:`version` — is
        exactly that of one :meth:`add_leaf` per node in order.  The
        whole block is checked before anything is attached, so a bad
        parent (:class:`NodeNotFoundError`) or an id already present
        (:class:`TopologyError`) leaves the tree untouched.
        """
        parent_map = self._parent
        new = range(first, first + len(parents))
        if not parent_map.keys().isdisjoint(new):
            taken = next(node for node in new if node in parent_map)
            raise TopologyError(f"node {taken} already in tree")
        for offset, above in enumerate(parents):
            # Outside the tree, a parent must be an earlier block node.
            if above not in parent_map and not 0 <= above - first < offset:
                raise NodeNotFoundError(f"node {above} not in tree")
        parent_map.update(zip(new, parents))
        kids = self._children
        if kids is not None:
            for node, above in zip(new, parents):
                kids[node] = []
                kids[above].append(node)
        self._version += len(new)
        if self._paths:
            self._paths.clear()

    def insert_on_edge(
        self, upper: NodeId, lower: NodeId, node: NodeId
    ) -> None:
        """Insert ``node`` between ``upper`` (parent) and ``lower`` (child).

        Models a join where the new node takes over part of ``upper``'s key
        responsibility on the path toward ``lower`` (paper example: N3'
        inserted between N3 and N5).
        """
        self._require(upper)
        self._require(lower)
        if node in self._parent:
            raise TopologyError(f"node {node} already in tree")
        if self._parent[lower] != upper:
            raise TopologyError(
                f"({upper}, {lower}) is not an edge of the tree"
            )
        kids = self._child_map()
        siblings = kids[upper]
        siblings[siblings.index(lower)] = node
        self._parent[node] = upper
        kids[node] = [lower]
        self._parent[lower] = node
        self._mutated()

    def remove_leaf(self, node: NodeId) -> None:
        """Remove a leaf node (fails if it has children or is the root)."""
        self._require(node)
        if node == self._root:
            raise TopologyError("cannot remove the root")
        kids = self._child_map()
        if kids[node]:
            raise TopologyError(f"node {node} is not a leaf")
        parent = self._parent[node]
        kids[parent].remove(node)
        del self._parent[node]
        del kids[node]
        self._mutated()

    def splice_out(self, node: NodeId) -> NodeId:
        """Remove an interior node; its children re-parent to its parent.

        Returns the parent that absorbed the children.  Models a departure
        or failure where a neighboring node takes over the departed node's
        key space and hence its position on every search path.
        """
        self._require(node)
        if node == self._root:
            raise TopologyError(
                "cannot splice out the root; use replace_root instead"
            )
        kids = self._child_map()
        parent = self._parent[node]
        siblings = kids[parent]
        index = siblings.index(node)
        orphans = kids[node]
        siblings[index : index + 1] = orphans
        for orphan in orphans:
            self._parent[orphan] = parent
        del self._parent[node]
        del kids[node]
        self._mutated()
        return parent

    def replace_root(self, new_root: NodeId) -> None:
        """Replace a failed root with a fresh node (paper failure case 5).

        The new node inherits all of the old root's children.
        """
        if new_root in self._parent:
            raise TopologyError(f"node {new_root} already in tree")
        old_root = self._root
        kids = self._child_map()
        children = kids.pop(old_root)
        del self._parent[old_root]
        self._root = new_root
        self._parent[new_root] = None
        kids[new_root] = children
        for child in children:
            self._parent[child] = new_root
        self._mutated()

    def promote_to_root(self, node: NodeId) -> NodeId:
        """An existing node takes over the failed root's position.

        The standby-failover variant of :meth:`replace_root`: ``node`` is
        first spliced out of its current position (its children re-parent
        to its old parent) and then installed as the root, inheriting the
        old root's children.  Returns the parent that absorbed ``node``'s
        children (the old root itself when ``node`` was its direct child,
        in which case those children transfer to the promoted node).
        """
        self._require(node)
        if node == self._root:
            raise TopologyError(f"node {node} is already the root")
        absorber = self.splice_out(node)
        self.replace_root(node)
        return absorber

    def rename(self, old: NodeId, new: NodeId) -> None:
        """Give node ``old`` the id ``new``, keeping its tree position.

        Models a neighbor assuming a departed node's identity/key space in
        place.
        """
        self._require(old)
        if new in self._parent:
            raise TopologyError(f"node {new} already in tree")
        kids = self._child_map()
        parent = self._parent.pop(old)
        children = kids.pop(old)
        self._parent[new] = parent
        kids[new] = children
        for child in children:
            self._parent[child] = new
        if parent is None:
            self._root = new
        else:
            siblings = kids[parent]
            siblings[siblings.index(old)] = new
        self._mutated()

    # -- queries ------------------------------------------------------------
    @property
    def root(self) -> NodeId:
        """The authority node of the tree's key."""
        return self._root

    def __contains__(self, node: NodeId) -> bool:
        return node in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._parent)

    @property
    def nodes(self) -> Iterable[NodeId]:
        """All node ids in the tree."""
        return self._parent.keys()

    def parent(self, node: NodeId) -> Optional[NodeId]:
        """Parent of ``node`` (``None`` for the root)."""
        self._require(node)
        return self._parent[node]

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        """Children of ``node`` in insertion order."""
        self._require(node)
        return tuple(self._child_map()[node])

    def degree(self, node: NodeId) -> int:
        """Number of children of ``node``."""
        self._require(node)
        return len(self._child_map()[node])

    def is_leaf(self, node: NodeId) -> bool:
        """Whether ``node`` has no children."""
        self._require(node)
        return not self._child_map()[node]

    def depth(self, node: NodeId) -> int:
        """Number of hops from ``node`` up to the root."""
        return len(self._path(node)) - 1

    def path_to_root(self, node: NodeId) -> list[NodeId]:
        """Nodes from ``node`` (inclusive) up to the root (inclusive)."""
        return list(self._path(node))

    def ancestors(self, node: NodeId) -> list[NodeId]:
        """Strict ancestors of ``node``, nearest first."""
        return self.path_to_root(node)[1:]

    def lca(self, first: NodeId, second: NodeId) -> NodeId:
        """Lowest common ancestor of two nodes."""
        first_path = set(self._path(first))
        current = second
        while current not in first_path:
            current = self._parent[current]
            if current is None:  # pragma: no cover - defensive
                raise TopologyError("nodes share no ancestor")
        return current

    def distance(self, first: NodeId, second: NodeId) -> int:
        """Tree distance (number of edges) between two nodes."""
        meet = self.lca(first, second)
        return (
            self.depth(first) + self.depth(second) - 2 * self.depth(meet)
        )

    def on_path_to_root(self, node: NodeId, candidate: NodeId) -> bool:
        """Whether ``candidate`` lies on ``node``'s path to the root."""
        self._require(candidate)
        return candidate in self._path(node)

    def child_branch(self, node: NodeId, descendant: NodeId) -> NodeId:
        """Which child of ``node`` the given strict descendant hangs under.

        Raises :class:`TopologyError` if ``descendant`` is not a strict
        descendant of ``node``.
        """
        self._require(node)
        path = self._path(descendant)
        try:
            index = path.index(node)
        except ValueError:
            raise TopologyError(
                f"{descendant} is not a descendant of {node}"
            ) from None
        if index == 0:
            raise TopologyError(f"{descendant} is not a strict descendant")
        return path[index - 1]

    def descendants(self, node: NodeId) -> Iterator[NodeId]:
        """All strict descendants, depth-first."""
        self._require(node)
        kids = self._child_map()
        stack = list(kids[node])
        while stack:
            current = stack.pop()
            yield current
            stack.extend(kids[current])

    def subtree_size(self, node: NodeId) -> int:
        """Number of nodes in ``node``'s subtree (including itself)."""
        return 1 + sum(1 for _ in self.descendants(node))

    def leaves(self) -> Iterator[NodeId]:
        """All leaf nodes."""
        for node, children in self._child_map().items():
            if not children:
                yield node

    def height(self) -> int:
        """Maximum depth over all nodes."""
        best = 0
        for node in self.leaves():
            depth = self.depth(node)
            if depth > best:
                best = depth
        return best

    def mean_depth(self) -> float:
        """Average depth over all nodes (the paper's expected query cost
        driver: deeper trees mean longer cache-miss paths)."""
        total = sum(self.depth(node) for node in self._parent)
        return total / len(self._parent)

    # -- invariants -----------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`TopologyError` if broken.

        Invariants: exactly one root; parent/children maps mirror each
        other; every node reachable from the root; no cycles.
        """
        if self._parent.get(self._root, "missing") is not None:
            raise TopologyError("root has a parent or is missing")
        for node, parent in self._parent.items():
            if parent is None:
                if node != self._root:
                    raise TopologyError(f"second root {node}")
            elif parent not in self._parent:
                raise TopologyError(f"dangling parent {parent} of {node}")
        kids = self._child_map()
        for node, parent in self._parent.items():
            if parent is not None and node not in kids[parent]:
                raise TopologyError(
                    f"{node} missing from children of {parent}"
                )
        for node, children in kids.items():
            if len(set(children)) != len(children):
                raise TopologyError(f"duplicate children of {node}")
            for child in children:
                if self._parent.get(child) != node:
                    raise TopologyError(
                        f"child {child} of {node} disagrees on parent"
                    )
        # Reachability doubles as the cycle check.
        seen = {self._root}
        stack = [self._root]
        while stack:
            for child in kids[stack.pop()]:
                if child in seen:
                    raise TopologyError(f"cycle through {child}")
                seen.add(child)
                stack.append(child)
        if len(seen) != len(self._parent):
            raise TopologyError("unreachable nodes present")

    def _require(self, node: NodeId) -> None:
        if node not in self._parent:
            raise NodeNotFoundError(f"node {node} not in tree")

    def __repr__(self) -> str:
        return f"SearchTree(root={self._root}, nodes={len(self._parent)})"
