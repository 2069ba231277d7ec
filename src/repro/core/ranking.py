"""The ranking application (§7).

"Given n processors with distinct IDs id₁,…,idₙ, renumber the processors
…  such that 1 ≤ id'ᵢ ≤ n and id'ᵢ < id'ⱼ if and only if idᵢ < idⱼ.

The protocol: use point-to-point communication to send all the IDs to the
root.  It calculates the destination of each of the new IDs and sends them
to the nodes.  There is a total of 2n−2 messages, which require
O(n·log Δ) time (not including the setup costs of Section 2)" — overall
``O(n·log n·log Δ)`` including setup.

Implementation: every station submits ``(its ID, its DFS address)`` to the
root (address 0).  Once the root holds all n−1 reports it assigns ranks
1..n by ID order and sends each station its rank, point-to-point to the
reported address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.point_to_point import build_p2p_network, p2p_reference_slots
from repro.errors import ConfigurationError, SimulationTimeout
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.radio.trace import NetworkStats

TAG_REPORT = "rank-report"
TAG_ASSIGN = "rank-assign"


@dataclass
class RankingResult:
    """Outcome of the ranking protocol."""

    slots: int
    collect_slots: int  # slots until the root held all reports
    ranks: Dict[NodeId, int]  # 1-based rank at each station
    stats: NetworkStats


def run_ranking(
    graph: Graph,
    tree: BFSTree,
    seed: int,
) -> RankingResult:
    """Run the ranking protocol over a DFS-prepared tree.

    It runs on mod-3 level classes.  Each of its two stages is capped at
    ``max(20 000, 20×)``
    :func:`~repro.core.point_to_point.p2p_reference_slots` for 2n
    messages; past it :class:`~repro.errors.SimulationTimeout` is raised.
    """
    if not tree.has_dfs_intervals:
        raise ConfigurationError("ranking needs a DFS-prepared tree")
    network, processes, slots = build_p2p_network(graph, tree, seed)
    n = graph.num_nodes
    root = tree.root
    root_process = processes[root]
    root_address = tree.dfs_number[root]

    # Stage 1: every station reports (ID, address) to the root.
    for node in graph.nodes:
        if node == root:
            continue
        processes[node].submit(
            root_address, (TAG_REPORT, node, tree.dfs_number[node])
        )
    bound = p2p_reference_slots(
        2 * n, tree.depth, graph.max_degree(), slots.level_classes
    )
    max_slots = max(20_000, int(20 * bound))

    network.run(
        max_slots,
        until=lambda net: len(root_process.delivered) >= n - 1,
        check_every=2,
    )
    collect_slots = network.slot

    # Stage 2: the root ranks all IDs (its own included) and distributes.
    reports = {root: root_address}
    for message in root_process.delivered:
        tag, node, address = message.payload
        if tag != TAG_REPORT:
            raise SimulationTimeout(f"unexpected payload {message.payload!r}")
        reports[node] = address
    if len(reports) != n:
        raise SimulationTimeout(
            f"root holds {len(reports)} reports, expected {n}"
        )
    ordered = sorted(reports)  # type: ignore[type-var]
    ranks = {node: index + 1 for index, node in enumerate(ordered)}
    for node, address in reports.items():
        if node == root:
            continue
        root_process.submit(address, (TAG_ASSIGN, ranks[node]))

    def all_assigned(net) -> bool:
        return all(
            any(
                m.payload[0] == TAG_ASSIGN
                for m in processes[node].delivered
            )
            for node in graph.nodes
            if node != root
        ) and all(p.is_done() for p in processes.values())

    network.run(max_slots, until=all_assigned, check_every=4)

    # Read out what each station learned.
    learned: Dict[NodeId, int] = {root: ranks[root]}
    for node in graph.nodes:
        if node == root:
            continue
        assignments = [
            m.payload[1]
            for m in processes[node].delivered
            if m.payload[0] == TAG_ASSIGN
        ]
        if len(assignments) != 1:
            raise SimulationTimeout(
                f"station {node!r} got {len(assignments)} rank assignments"
            )
        learned[node] = assignments[0]
    return RankingResult(
        slots=network.slot,
        collect_slots=collect_slots,
        ranks=learned,
        stats=network.stats,
    )
