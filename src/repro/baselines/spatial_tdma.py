"""Spatial-reuse TDMA: the strong deterministic convergecast baseline.

Plain round-robin TDMA (`repro.baselines.tdma`) wastes the whole network
on one transmitter per slot.  The classical improvement is a
**distance-2 coloring** schedule: stations within two hops get distinct
colors, the frame has one slot per color, and a station transmits in its
color's slot.  Then in any slot the transmitters are pairwise ≥ 3 hops
apart, so *no* station has two transmitting neighbors — every
transmission is received — and a frame of at most Δ²+1 slots moves one
message per backlogged station per frame.

This is the deterministic protocol the paper's randomized Decay actually
has to beat: frames cost O(Δ²) versus Decay's O(log Δ) phases.  Decay
wins whenever Δ² ≫ log Δ, i.e. everywhere except degree-2-ish networks —
which experiment E10a quantifies.

The coloring itself is computed centrally (greedy over the square graph)
— charitable to the baseline, standing in for an offline compiled
schedule; computing it *distributedly* in a radio network is its own
research problem, which is part of the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.baselines.tdma import _run_schedule
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.radio.trace import NetworkStats


def distance2_coloring(graph: Graph) -> Dict[NodeId, int]:
    """Greedy coloring of the square graph (distance ≤ 2 conflicts).

    Colors stations in sorted-ID order with the smallest color unused in
    their two-hop neighborhood; uses at most Δ² + 1 colors.
    """
    colors: Dict[NodeId, int] = {}
    for node in graph.nodes:
        forbidden = set()
        for neighbor in graph.neighbors(node):
            if neighbor in colors:
                forbidden.add(colors[neighbor])
            for second in graph.neighbors(neighbor):
                if second != node and second in colors:
                    forbidden.add(colors[second])
        color = 0
        while color in forbidden:
            color += 1
        colors[node] = color
    return colors


def verify_distance2_coloring(
    graph: Graph, colors: Dict[NodeId, int]
) -> bool:
    """Whether ``colors`` is a valid distance-2 coloring of ``graph``."""
    for node in graph.nodes:
        two_hop = set(graph.neighbors(node))
        for neighbor in graph.neighbors(node):
            two_hop.update(graph.neighbors(neighbor))
        two_hop.discard(node)
        if any(colors[other] == colors[node] for other in two_hop):
            return False
    return True


@dataclass
class SpatialTdmaResult:
    slots: int
    frames: int
    frame_length: int  # number of colors
    delivered: List[Any]
    stats: NetworkStats


def run_spatial_tdma_collection(
    graph: Graph,
    tree: BFSTree,
    sources: Dict[NodeId, List[Any]],
) -> SpatialTdmaResult:
    """Deterministic convergecast on the distance-2-colored schedule.

    Reuses the TDMA schedule (a station owning slot ``color`` of each
    frame transmits its buffer head to its BFS parent); the coloring
    guarantees reception, so the no-ack forwarding stays correct.
    """
    colors = distance2_coloring(graph)
    frame_length = max(colors.values()) + 1 if colors else 1
    network, root_process = _run_schedule(
        graph, tree, sources, colors, frame_length
    )
    return SpatialTdmaResult(
        slots=network.slot,
        frames=-(-network.slot // frame_length),
        frame_length=frame_length,
        delivered=list(root_process.delivered),
        stats=network.stats,
    )


def spatial_tdma_reference_slots(
    k: int, depth: int, num_colors: int
) -> float:
    """Worst-case reference: (k + D) frames of ``num_colors`` slots."""
    return float((k + depth) * num_colors)
