"""Pipeline introspection: level-occupancy timelines and congestion profiles.

Two observability tools used by examples and the §8-remark-(5) analysis:

* :func:`record_collection_timeline` samples, once per Decay phase, how
  many buffered messages sit at each BFS level — the state vector of the
  §4.2 "model 1" — and :func:`render_timeline` draws it as an ASCII
  heatmap (levels × phases), making the pipeline visibly drain toward
  the root.
* :func:`congestion_profile` quantifies remark (5): "Our protocols route
  messages through a spanning tree causing congestion at the root."  It
  aggregates per-station transmission counts by BFS level; the
  level-1 stations (the root's children) carry the entire traffic volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.errors import ConfigurationError
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId

#: Heatmap glyphs, lightest to heaviest occupancy.
_GLYPHS = " .:-=+*#%@"

#: Phases :func:`record_collection_timeline` samples before it gives up
#: on the pipeline draining.
MAX_TIMELINE_PHASES = 20_000

#: Columns :func:`render_timeline` decimates a long run to.
TIMELINE_WIDTH = 100


@dataclass
class Timeline:
    """Occupancy matrix: ``occupancy[phase][level]`` buffered messages."""

    occupancy: List[List[int]]
    phase_length: int

    @property
    def phases(self) -> int:
        return len(self.occupancy)

    @property
    def levels(self) -> int:
        return len(self.occupancy[0]) if self.occupancy else 0

    def level_series(self, level: int) -> List[int]:
        """Occupancy of one level across phases."""
        return [row[level] for row in self.occupancy]

    def total_series(self) -> List[int]:
        """Total in-flight messages per phase (monotone non-increasing
        for a batch workload)."""
        return [sum(row) for row in self.occupancy]


def record_collection_timeline(
    graph: Graph,
    tree: BFSTree,
    sources: Dict[NodeId, List[Any]],
    seed: int,
) -> Timeline:
    """Run collection, sampling per-level backlog at each phase boundary.

    A pipeline not drained after ``MAX_TIMELINE_PHASES`` phases raises
    :class:`~repro.errors.ConfigurationError`.
    """
    from repro.core.collection import build_collection_network

    network, processes, slots = build_collection_network(
        graph, tree, sources, seed
    )
    depth = tree.depth
    by_level: Dict[int, List[NodeId]] = {}
    for node in tree.nodes:
        by_level.setdefault(tree.level[node], []).append(node)

    def snapshot() -> List[int]:
        return [
            sum(processes[v].backlog for v in by_level.get(level, ()))
            for level in range(depth + 1)
        ]

    occupancy = [snapshot()]
    for _phase in range(MAX_TIMELINE_PHASES):
        if sum(occupancy[-1]) == 0:
            break
        for _ in range(slots.phase_length):
            network.step()
        occupancy.append(snapshot())
    else:
        raise ConfigurationError(
            f"collection did not drain within {MAX_TIMELINE_PHASES} phases"
        )
    return Timeline(occupancy=occupancy, phase_length=slots.phase_length)


def render_timeline(timeline: Timeline) -> str:
    """ASCII heatmap: one row per BFS level, one column per phase.

    Darker glyphs = more buffered messages.  Long runs are decimated to
    ``TIMELINE_WIDTH`` columns.
    """
    if timeline.phases == 0:
        return "(empty timeline)"
    stride = max(1, -(-timeline.phases // TIMELINE_WIDTH))
    columns = list(range(0, timeline.phases, stride))
    peak = max(
        (v for row in timeline.occupancy for v in row), default=0
    )
    lines = [
        f"level occupancy over {timeline.phases - 1} phases "
        f"(column = {stride} phase{'s' if stride > 1 else ''}, "
        f"peak = {peak})"
    ]
    for level in range(timeline.levels):
        series = timeline.level_series(level)
        cells = []
        for start in columns:
            value = max(series[start : start + stride])
            if peak == 0:
                cells.append(_GLYPHS[0])
            else:
                index = min(
                    len(_GLYPHS) - 1,
                    (value * (len(_GLYPHS) - 1) + peak - 1) // peak,
                )
                cells.append(_GLYPHS[index])
        lines.append(f"L{level:>2} |{''.join(cells)}|")
    return "\n".join(lines)


@dataclass
class CongestionProfile:
    """Traffic load aggregated by BFS level (remark 5).

    Two views of load:

    * ``*_transmissions`` — raw radio transmissions (includes Decay
      retries, so contended stations inflate);
    * ``*_handled`` — distinct *messages* a station carried: designated
      receptions it acknowledged plus messages it originated.  This is
      the routing-load measure the remark is about: for collection,
      handled(v) equals the number of sources in v's subtree.
    """

    per_level_transmissions: Dict[int, int]
    per_node_transmissions: Dict[NodeId, int]
    per_node_handled: Dict[NodeId, int]
    per_level_handled: Dict[int, int]

    @property
    def busiest_level(self) -> int:
        return max(
            self.per_level_transmissions,
            key=lambda level: self.per_level_transmissions[level],
        )

    def load_share(self, level: int) -> float:
        total = sum(self.per_level_transmissions.values())
        if total == 0:
            return 0.0
        return self.per_level_transmissions.get(level, 0) / total


def congestion_profile(
    graph: Graph,
    tree: BFSTree,
    sources: Dict[NodeId, List[Any]],
    seed: int,
) -> CongestionProfile:
    """Measure the per-level data-transmission load of one collection run.

    §8 remark (5) observes that tree routing concentrates traffic near
    the root; in collection, level-1 stations must forward *every*
    message, so their share of transmissions approaches 1 as D grows.
    """
    from repro.core.collection import build_collection_network

    network, processes, _slots = build_collection_network(
        graph, tree, sources, seed
    )
    total = sum(len(v) for v in sources.values())
    root_process = processes[tree.root]
    network.run(
        2_000_000,
        until=lambda net: len(root_process.delivered) >= total
        and all(p.is_done() for p in processes.values()),
        check_every=4,
    )
    per_node = {
        node: process.lane.data_transmissions
        for node, process in processes.items()
    }
    per_node_handled = {
        node: process.lane.ack_transmissions + len(sources.get(node, ()))
        for node, process in processes.items()
    }
    per_level: Dict[int, int] = {}
    per_level_handled: Dict[int, int] = {}
    for node in per_node:
        level = tree.level[node]
        per_level[level] = per_level.get(level, 0) + per_node[node]
        per_level_handled[level] = (
            per_level_handled.get(level, 0) + per_node_handled[node]
        )
    return CongestionProfile(
        per_level_transmissions=per_level,
        per_node_transmissions=per_node,
        per_node_handled=per_node_handled,
        per_level_handled=per_level_handled,
    )
