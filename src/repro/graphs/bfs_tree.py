"""BFS-tree data structure.

All of the paper's steady-state protocols (collection, point-to-point,
distribution) run *on the graph spanned by a BFS tree* of the network.  The
tree is produced either by the distributed setup phase
(:mod:`repro.core.bfs`) or, for experiments that bypass setup, by the
centralized :func:`reference_bfs_tree` here; both yield the same structure.

A :class:`BFSTree` also carries the DFS-interval addressing of §5.1 once
:meth:`assign_dfs_intervals` has run (centrally) or the token-DFS protocol
(:mod:`repro.core.dfs`) has run (distributedly).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.errors import TopologyError
from repro.graphs.graph import Graph, NodeId


@dataclass
class BFSTree:
    """A rooted BFS tree over a set of nodes.

    Attributes
    ----------
    root:
        The tree root (the elected leader in the paper).
    parent:
        ``parent[v]`` is v's BFS parent; the root maps to itself.
    level:
        ``level[v]`` is v's distance from the root.
    children:
        ``children[v]`` is the sorted tuple of v's BFS children.
    dfs_number / subtree_max:
        DFS-interval addressing (§5.1): after assignment, node v owns the
        consecutive range ``[dfs_number[v], subtree_max[v]]`` covering
        exactly its descendants (itself included).  Empty until assigned.
    """

    root: NodeId
    parent: Dict[NodeId, NodeId]
    level: Dict[NodeId, int]
    children: Dict[NodeId, Tuple[NodeId, ...]] = field(default_factory=dict)
    dfs_number: Dict[NodeId, int] = field(default_factory=dict)
    subtree_max: Dict[NodeId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.children:
            kids: Dict[NodeId, List[NodeId]] = {v: [] for v in self.parent}
            for v, p in self.parent.items():
                if v != self.root:
                    if p not in kids:
                        raise TopologyError(
                            f"parent of {v!r} is unknown node {p!r}"
                        )
                    kids[p].append(v)
            self.children = {v: tuple(sorted(c)) for v, c in kids.items()}
        self.validate()

    # ------------------------------------------------------------------
    # Validation and basic queries
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the BFS invariants; raise :class:`TopologyError` if broken."""
        if self.parent.get(self.root) != self.root:
            raise TopologyError("root must be its own parent")
        if self.level.get(self.root) != 0:
            raise TopologyError("root must be at level 0")
        for v, p in self.parent.items():
            if v == self.root:
                continue
            if p not in self.parent:
                raise TopologyError(f"parent of {v!r} is unknown node {p!r}")
            if self.level[v] != self.level[p] + 1:
                raise TopologyError(
                    f"node {v!r} at level {self.level[v]} has parent {p!r} "
                    f"at level {self.level[p]} (must differ by exactly 1)"
                )

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        return tuple(sorted(self.parent))

    @property
    def num_nodes(self) -> int:
        return len(self.parent)

    @property
    def depth(self) -> int:
        """The deepest level in the tree."""
        return max(self.level.values())

    def is_root(self, v: NodeId) -> bool:
        return v == self.root

    def layer(self, i: int) -> Tuple[NodeId, ...]:
        """All nodes at level i, sorted."""
        return tuple(sorted(v for v, lvl in self.level.items() if lvl == i))

    def path_to_root(self, v: NodeId) -> List[NodeId]:
        """The tree path ``v, parent(v), …, root``."""
        path = [v]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path

    def lca(self, u: NodeId, v: NodeId) -> NodeId:
        """Lowest common ancestor of u and v in the tree."""
        a, b = u, v
        while self.level[a] > self.level[b]:
            a = self.parent[a]
        while self.level[b] > self.level[a]:
            b = self.parent[b]
        while a != b:
            a = self.parent[a]
            b = self.parent[b]
        return a

    def tree_path(self, u: NodeId, v: NodeId) -> List[NodeId]:
        """The unique tree path u → lca → v (inclusive)."""
        meet = self.lca(u, v)
        up = []
        node = u
        while node != meet:
            up.append(node)
            node = self.parent[node]
        down = []
        node = v
        while node != meet:
            down.append(node)
            node = self.parent[node]
        return up + [meet] + list(reversed(down))

    def subtree(self, v: NodeId) -> Iterator[NodeId]:
        """All descendants of v (v included), preorder."""
        stack = [v]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self.children[node]))

    def subtree_size(self, v: NodeId) -> int:
        return sum(1 for _ in self.subtree(v))

    def tree_edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Each tree edge once, as (child, parent)."""
        for v, p in self.parent.items():
            if v != self.root:
                yield (v, p)

    # ------------------------------------------------------------------
    # DFS-interval addressing (§5.1)
    # ------------------------------------------------------------------

    def assign_dfs_intervals(self) -> None:
        """Assign DFS numbers + subtree maxima centrally (preorder).

        The distributed token-DFS of :mod:`repro.core.dfs` produces exactly
        this labelling (children visited in sorted-ID order); tests compare
        the two.
        """
        self.dfs_number.clear()
        self.subtree_max.clear()
        counter = 0
        # Iterative post-order computation of subtree maxima with preorder
        # numbering on the way down.
        stack: List[Tuple[NodeId, bool]] = [(self.root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                kids = self.children[node]
                self.subtree_max[node] = max(
                    [self.dfs_number[node]]
                    + [self.subtree_max[c] for c in kids]
                )
                continue
            self.dfs_number[node] = counter
            counter += 1
            stack.append((node, True))
            for child in reversed(self.children[node]):
                stack.append((child, False))

    @property
    def has_dfs_intervals(self) -> bool:
        return len(self.dfs_number) == self.num_nodes

    def owns_address(self, v: NodeId, address: int) -> bool:
        """Whether ``address`` lies in v's descendant interval."""
        return self.dfs_number[v] <= address <= self.subtree_max[v]

    def node_of_address(self, address: int) -> NodeId:
        """The node whose DFS number is ``address``."""
        for node, number in self.dfs_number.items():
            if number == address:
                return node
        raise TopologyError(f"no node with DFS address {address}")

    def route_next_hop(self, current: NodeId, dest_address: int) -> NodeId:
        """Next hop from ``current`` toward the node addressed ``dest_address``.

        Implements §5's routing rule: descend into the unique child whose
        interval contains the address, else go up to the parent.
        """
        if not self.has_dfs_intervals:
            raise TopologyError("DFS intervals not assigned")
        if self.owns_address(current, dest_address):
            if self.dfs_number[current] == dest_address:
                return current
            for child in self.children[current]:
                if self.owns_address(child, dest_address):
                    return child
            raise TopologyError(
                f"interval of {current!r} contains {dest_address} but no "
                f"child interval does"
            )
        return self.parent[current]


def reference_bfs_tree(graph: Graph, root: NodeId) -> BFSTree:
    """Centralized BFS tree used as ground truth and as a setup bypass.

    Parents are chosen as the smallest-ID neighbor in the previous layer,
    which makes the construction deterministic.
    """
    if root not in graph:
        raise TopologyError(f"unknown root {root!r}")
    parent: Dict[NodeId, NodeId] = {root: root}
    level: Dict[NodeId, int] = {root: 0}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in level:
                level[neighbor] = level[node] + 1
                parent[neighbor] = node
                queue.append(neighbor)
    if len(level) != graph.num_nodes:
        raise TopologyError("graph is not connected; BFS tree cannot span it")
    return BFSTree(root=root, parent=parent, level=level)
