"""Index search tree generators.

:func:`random_search_tree` is the paper's generator: "The maximum degree of
the index search tree is D.  The number of children for each node is
uniformly selected from [1, D]."  Nodes are laid out breadth-first from the
root until the target population is reached, so every node except the last
frontier receives its drawn child count.

The regular generators (balanced / chain / star) exist for tests and for
analytical sanity checks (e.g. a chain maximizes depth, a star minimizes
it).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import TopologyError
from repro.topology.tree import SearchTree


def random_search_tree(
    n: int, max_degree: int, rng: np.random.Generator
) -> SearchTree:
    """Generate the paper's random index search tree.

    Parameters
    ----------
    n:
        Total number of nodes (including the root / authority node).
    max_degree:
        Maximum number of children per node (paper's ``D``); each node's
        child count is drawn uniformly from ``[1, max_degree]``.
    rng:
        Source of randomness (typically the ``"topology"`` stream).

    Returns
    -------
    SearchTree
        A tree with node ids ``0..n-1``; node ``0`` is the root.
    """
    if n < 1:
        raise TopologyError(f"need at least one node, got n={n}")
    if max_degree < 1:
        raise TopologyError(f"max_degree must be >= 1, got {max_degree}")
    tree = SearchTree(root=0)
    parent = 0  # ids are handed out breadth-first, so parents come in id order
    while len(tree) < n:
        missing = n - len(tree)
        # No count exceeds max_degree, so one draw per parent needs at least
        # this many more: a block never takes a draw that loop would not.
        draws = -(-missing // max_degree)
        counts = rng.integers(1, max_degree + 1, size=draws)
        # Only the block's last count can overrun n and the slice truncates
        # it; the minimum just bounds the array a huge max_degree asks for.
        counts = np.minimum(counts, missing)
        parents = np.arange(parent, parent + draws).repeat(counts)[:missing]
        tree.add_leaves(parents.tolist(), len(tree))
        parent += draws
    return tree


def complete_tree(n: int, degree: int) -> SearchTree:
    """A breadth-first complete ``degree``-ary tree with exactly ``n`` nodes."""
    if n < 1:
        raise TopologyError(f"need at least one node, got n={n}")
    if degree < 1:
        raise TopologyError(f"degree must be >= 1, got {degree}")
    tree = SearchTree(root=0)
    next_id = 1
    frontier: deque[int] = deque([0])
    while next_id < n:
        parent = frontier.popleft()
        for _ in range(degree):
            if next_id >= n:
                break
            tree.add_leaf(parent, next_id)
            frontier.append(next_id)
            next_id += 1
    return tree


def balanced_tree(depth: int, degree: int) -> SearchTree:
    """A complete ``degree``-ary tree of the given depth (root depth 0)."""
    if depth < 0:
        raise TopologyError(f"depth must be >= 0, got {depth}")
    if degree < 1:
        raise TopologyError(f"degree must be >= 1, got {degree}")
    tree = SearchTree(root=0)
    next_id = 1
    frontier = [0]
    for _ in range(depth):
        new_frontier = []
        for parent in frontier:
            for _ in range(degree):
                tree.add_leaf(parent, next_id)
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return tree


def chain_tree(n: int) -> SearchTree:
    """A path of ``n`` nodes: worst-case depth (the PCX-unfriendly case)."""
    if n < 1:
        raise TopologyError(f"need at least one node, got n={n}")
    tree = SearchTree(root=0)
    tree.add_leaves(range(n - 1), 1)
    return tree


def star_tree(n: int) -> SearchTree:
    """A root with ``n - 1`` direct children: best-case depth."""
    if n < 1:
        raise TopologyError(f"need at least one node, got n={n}")
    tree = SearchTree(root=0)
    tree.add_leaves([0] * (n - 1), 1)
    return tree
