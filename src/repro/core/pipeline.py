"""The complete setup pipeline in one call.

The paper's lifecycle is: elect a leader, build the BFS tree (Las-Vegas),
run the §5.1 preparation — then any number of collections, point-to-point
transmissions, broadcasts and rankings.  :func:`run_full_setup` performs
the whole one-time phase and returns a DFS-prepared tree plus the slot
accounting of each stage, so applications are three lines:

    setup = run_full_setup(graph, seed=7)
    result = run_point_to_point(graph, setup.tree, batch, seed=8)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.bfs import run_setup
from repro.core.dfs import apply_preparation, prepared_tree_infos, run_dfs_preparation
from repro.core.leader import elect_leader
from repro.core.tree import TreeInfo
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId


@dataclass
class FullSetupResult:
    """Everything the one-time phase produces."""

    tree: BFSTree  # spanning BFS tree with DFS intervals installed
    tree_infos: Dict[NodeId, TreeInfo]  # per-station local knowledge
    root: NodeId
    election_slots: int
    bfs_slots: int
    preparation_slots: int
    bfs_attempts: int

    @property
    def total_slots(self) -> int:
        return self.election_slots + self.bfs_slots + self.preparation_slots


def run_full_setup(graph: Graph, seed: int) -> FullSetupResult:
    """Run election + BFS setup + DFS preparation over ``graph``.

    The leader is the one :func:`~repro.core.leader.elect_leader` agrees
    on.  A failed election (no unique agreed leader) or BFS attempt is
    retried with fresh coins, Las-Vegas style, with all slots accounted:
    up to ``ELECTION_ATTEMPTS`` elections and ``SETUP_ATTEMPTS`` BFS
    attempts.
    """
    from repro.graphs.properties import require_connected

    require_connected(graph)
    election = elect_leader(graph, seed)
    leader = election.leaders[0]
    setup = run_setup(graph, root=leader, seed=seed + 1)
    preparation = run_dfs_preparation(graph, setup.tree)
    apply_preparation(setup.tree, preparation)
    infos = prepared_tree_infos(graph, setup.tree, preparation)
    return FullSetupResult(
        tree=setup.tree,
        tree_infos=infos,
        root=leader,
        election_slots=election.slots,
        bfs_slots=setup.slots,
        preparation_slots=preparation.slots,
        bfs_attempts=setup.attempts,
    )
