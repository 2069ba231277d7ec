"""Structural properties of topologies: BFS layers, distances, diameter.

These are *centralized reference* computations used to (a) parameterize
protocols with the quantities the paper assumes known (``n`` and an upper
bound on Δ), (b) verify the distributed BFS construction in tests, and
(c) normalize measured slot counts by ``D`` and ``log Δ`` in experiments.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.errors import TopologyError
from repro.graphs.graph import Graph, NodeId


def bfs_levels(graph: Graph, root: NodeId) -> Dict[NodeId, int]:
    """Distance (in hops) from ``root`` to every reachable node."""
    if root not in graph:
        raise TopologyError(f"unknown root {root!r}")
    level: Dict[NodeId, int] = {root: 0}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in level:
                level[neighbor] = level[node] + 1
                queue.append(neighbor)
    return level


def bfs_layers(graph: Graph, root: NodeId) -> List[List[NodeId]]:
    """Nodes grouped by distance from ``root``; ``layers[i]`` is level i."""
    level = bfs_levels(graph, root)
    depth = max(level.values()) if level else 0
    layers: List[List[NodeId]] = [[] for _ in range(depth + 1)]
    for node, lvl in level.items():
        layers[lvl].append(node)
    for layer in layers:
        layer.sort()
    return layers


def is_connected(graph: Graph) -> bool:
    """Whether every node is reachable from every other node.

    A graph that already holds its CSR arrays (one built by
    :meth:`Graph.from_csr`, as the unit-disk generator's array path
    builds every field from ``ARRAY_MIN_N`` stations on) is searched
    over them, one BFS frontier per NumPy step; any other graph keeps
    the pure-Python BFS and never imports NumPy.
    """
    if graph.num_nodes == 0:
        return True
    # Package-internal: the arrays from_csr kept, or None.
    if graph._csr is not None:
        return _csr_reaches_all(*graph._csr)
    root = graph.nodes[0]
    return len(bfs_levels(graph, root)) == graph.num_nodes


def _csr_reaches_all(indptr, indices) -> bool:
    """Whether a BFS over CSR arrays from node 0 reaches every node."""
    import numpy as np

    n = indptr.size - 1
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        starts = indptr[frontier]
        lengths = indptr[frontier + 1] - starts
        # The positions of the frontier rows' slices of ``indices``.
        at = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        at += np.arange(at.size)
        fresh = np.zeros(n, dtype=bool)
        fresh[indices[at]] = True
        fresh &= ~seen
        seen |= fresh
        frontier = np.flatnonzero(fresh)
    return bool(seen.all())


def require_connected(graph: Graph) -> None:
    """Raise :class:`TopologyError` unless ``graph`` is connected.

    The paper's protocols operate on a connected network (a BFS tree must
    span all stations), so simulations validate this up front rather than
    hanging waiting for unreachable confirmations.
    """
    if not is_connected(graph):
        raise TopologyError("topology must be connected")


def eccentricity(graph: Graph, node: NodeId) -> int:
    """Greatest hop distance from ``node`` to any other node."""
    level = bfs_levels(graph, node)
    if len(level) != graph.num_nodes:
        raise TopologyError("eccentricity undefined on a disconnected graph")
    return max(level.values())


def diameter(graph: Graph) -> int:
    """Exact diameter ``D`` via BFS from every node.

    O(n·m); fine at the n ≤ a-few-thousand scales these simulations run at.
    """
    if graph.num_nodes == 0:
        raise TopologyError("diameter undefined on the empty graph")
    return max(eccentricity(graph, node) for node in graph.nodes)


def radius_and_center(graph: Graph) -> Tuple[int, NodeId]:
    """The radius and one center node (minimum-eccentricity node)."""
    if graph.num_nodes == 0:
        raise TopologyError("radius undefined on the empty graph")
    best: Optional[Tuple[int, NodeId]] = None
    for node in graph.nodes:
        ecc = eccentricity(graph, node)
        if best is None or ecc < best[0]:
            best = (ecc, node)
    assert best is not None
    return best


def shortest_path(graph: Graph, source: NodeId, target: NodeId) -> List[NodeId]:
    """One shortest hop path from ``source`` to ``target`` (inclusive)."""
    if source == target:
        return [source]
    parent: Dict[NodeId, NodeId] = {source: source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor in parent:
                continue
            parent[neighbor] = node
            if neighbor == target:
                path = [target]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(neighbor)
    raise TopologyError(f"{target!r} unreachable from {source!r}")


def degree_histogram(graph: Graph) -> Dict[int, int]:
    """Map degree -> number of nodes with that degree."""
    histogram: Dict[int, int] = {}
    for node in graph.nodes:
        d = graph.degree(node)
        histogram[d] = histogram.get(d, 0) + 1
    return histogram
