"""Region and partition outages: a whole set of stations goes dark."""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional

from repro.errors import ConfigurationError
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import NodeId
from repro.radio.failures import FailureModel


class RegionOutage(FailureModel):
    """Every station in ``region`` is down during ``[start, end)``.

    ``end=None`` makes the outage permanent — combined with a region that
    forms a vertex cut this is the deliberate-partition scenario the
    repair layer must detect and report instead of hanging.
    """

    def __init__(
        self,
        region: Iterable[NodeId],
        start: int = 0,
        end: Optional[int] = None,
    ):
        if start < 0:
            raise ConfigurationError(f"start must be >= 0, got {start}")
        if end is not None and end <= start:
            raise ConfigurationError(
                f"empty outage window [{start}, {end})"
            )
        self.region: FrozenSet[NodeId] = frozenset(region)
        self.start = start
        self.end = end

    def node_down(self, node: NodeId, slot: int) -> bool:
        if node not in self.region or slot < self.start:
            return False
        return self.end is None or slot < self.end


def subtree_outage(tree: BFSTree, node: NodeId) -> RegionOutage:
    """A permanent outage taking down ``node`` and its whole BFS subtree
    from slot 0 on.

    Convenience for partition experiments: killing an interior node plus
    its subtree guarantees the rest of the network stays connected on the
    tree (side edges in the graph may still route around it).
    """
    return RegionOutage(tree.subtree(node))
