"""The point-to-point preparation protocol (§5.1): two token DFS traversals.

After the BFS tree exists, stations need the descendant information that
lets them route by address in ``O(deg(v)·log n)`` bits each.  The paper's
scheme (credited to Itai–Rodeh's DFS-numbering idea):

1. **First traversal — DFS on the graph.**  A token starts at the root and
   performs a depth-first traversal of the *graph*; only the token holder
   transmits, so there are no conflicts and each pass costs one slot.
   "Whenever a node sends the token it broadcasts its own ID together with
   the ID of its BFS-parent" — hence after 2n−2 slots every station knows
   the BFS parent of each of its neighbors, and in particular which
   neighbors are its own BFS children.
2. **Second traversal — DFS on the BFS tree.**  The token now walks the
   BFS tree, assigning preorder DFS numbers.  The token carries the
   next-unused counter; when a child's subtree is exhausted the returning
   token lets the parent record the child's interval
   ``[child_dfs, counter−1]``.  Afterwards each station uses its DFS
   number as its address and owns the consecutive interval of its
   descendants.

Both traversals visit children/neighbors in **descending ID order is what
the paper states for the first ("the largest neighbor not yet in the DFS
tree")**; for the second the paper does not fix an order, and we use
ascending child IDs so the result coincides with the centralized
:meth:`repro.graphs.bfs_tree.BFSTree.assign_dfs_intervals` (tests rely on
this cross-check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.messages import TokenMessage
from repro.core.tree import TreeInfo
from repro.errors import ProtocolError, SimulationTimeout
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.radio.network import RadioNetwork
from repro.radio.process import QUIET_FOREVER, Process
from repro.radio.transmission import Transmission

TOKEN_CHANNEL = 0


class DfsPreparationProcess(Process):
    """One station's role in the two token traversals.

    A station transmits in a slot iff it holds the token at the start of
    that slot; the transmission simultaneously passes the token and
    broadcasts the (holder, BFS-parent) information of traversal 1 or the
    numbering of traversal 2.  The engine guarantees every neighbor hears
    it (single transmitter network-wide).
    """

    def __init__(self, node_id: NodeId, bfs_parent: NodeId, is_root: bool):
        super().__init__(node_id)
        self.bfs_parent = bfs_parent
        self.is_root = is_root
        # --- knowledge acquired in traversal 1 ---
        self.neighbor_bfs_parent: Dict[NodeId, NodeId] = {}
        self.bfs_children: List[NodeId] = []
        self._t1_in_tree: Set[NodeId] = set()  # neighbors known in DFS tree
        self._t1_parent: Optional[NodeId] = None  # our DFS-1 parent
        self._t1_visited_self = False
        # --- knowledge acquired in traversal 2 ---
        self.dfs_number: Optional[int] = None
        self.subtree_max: Optional[int] = None
        self.child_intervals: Dict[NodeId, Tuple[int, int]] = {}
        self._t2_next_child = 0
        self._t2_counter: Optional[int] = None
        # --- token state ---
        self._holding: Optional[TokenMessage] = None  # what we will send
        self.done = False

    # ------------------------------------------------------------------
    # Traversal bootstrap (root only)
    # ------------------------------------------------------------------

    def start_first_traversal(self) -> None:
        if not self.is_root:
            raise ProtocolError("only the root starts the DFS token")
        self._t1_visited_self = True
        self._t1_parent = self.node_id
        self._prepare_t1_pass()

    # ------------------------------------------------------------------
    # Traversal 1: DFS on the graph
    # ------------------------------------------------------------------

    def _unvisited_neighbors_t1(self) -> List[NodeId]:
        return [
            v
            for v in self._neighbors
            if v not in self._t1_in_tree and v != self._t1_parent
        ]

    def _prepare_t1_pass(self) -> None:
        """Decide where the traversal-1 token goes next and queue the pass."""
        candidates = self._unvisited_neighbors_t1()
        if candidates:
            # "each node sends the token to the largest neighbor not yet in
            # the DFS tree"
            target = max(candidates)  # type: ignore[type-var]
        elif self.is_root and self._t1_parent == self.node_id:
            # Token back at the root with nothing unvisited: traversal 1
            # done; begin traversal 2 immediately.
            self._begin_second_traversal()
            return
        else:
            assert self._t1_parent is not None
            target = self._t1_parent
        self._holding = TokenMessage(
            holder=self.node_id,
            next_holder=target,
            traversal=1,
            holder_bfs_parent=self.bfs_parent,
        )

    def _handle_t1_message(self, message: TokenMessage) -> None:
        # Every neighbor of the transmitter learns the holder's BFS parent
        # and that holder (and, transitively, next_holder) joined the tree.
        self.neighbor_bfs_parent[message.holder] = (
            message.holder_bfs_parent  # type: ignore[assignment]
        )
        if message.holder_bfs_parent == self.node_id:
            if message.holder not in self.bfs_children:
                self.bfs_children.append(message.holder)
        self._t1_in_tree.add(message.holder)
        if message.next_holder in self._neighbors or (
            message.next_holder == self.node_id
        ):
            self._t1_in_tree.add(message.next_holder)
        if message.next_holder != self.node_id:
            return
        # We now hold the token.
        if not self._t1_visited_self:
            self._t1_visited_self = True
            self._t1_parent = message.holder
        self._prepare_t1_pass()

    # ------------------------------------------------------------------
    # Traversal 2: DFS on the BFS tree
    # ------------------------------------------------------------------

    def _begin_second_traversal(self) -> None:
        assert self.is_root
        self.bfs_children.sort()
        self.dfs_number = 0
        self._t2_counter = 1
        self._prepare_t2_pass()

    def _prepare_t2_pass(self) -> None:
        assert self._t2_counter is not None
        if self._t2_next_child < len(self.bfs_children):
            child = self.bfs_children[self._t2_next_child]
            self._holding = TokenMessage(
                holder=self.node_id,
                next_holder=child,
                traversal=2,
                dfs_number=self._t2_counter,
            )
            return
        # All children done.
        self.subtree_max = self._t2_counter - 1
        if self.is_root:
            self.done = True
            self._holding = TokenMessage(
                holder=self.node_id,
                next_holder=self.node_id,
                traversal=2,
                returning=True,
                dfs_number=self._t2_counter,
            )
            return
        self._holding = TokenMessage(
            holder=self.node_id,
            next_holder=self.bfs_parent,
            traversal=2,
            returning=True,
            dfs_number=self._t2_counter,
        )

    def _handle_t2_message(self, message: TokenMessage) -> None:
        if message.next_holder != self.node_id:
            return
        assert message.dfs_number is not None
        if message.returning:
            # A child's subtree is complete: record its interval.
            child = message.holder
            start = self._pending_child_start
            assert start is not None
            self.child_intervals[child] = (start, message.dfs_number - 1)
            self._t2_counter = message.dfs_number
            self._t2_next_child += 1
            self._prepare_t2_pass()
            return
        # Token descends into us for the first time.
        if self.dfs_number is None:
            self.dfs_number = message.dfs_number
            self._t2_counter = message.dfs_number + 1
            self.bfs_children.sort()
            self._prepare_t2_pass()

    @property
    def _pending_child_start(self) -> Optional[int]:
        """DFS number given to the child currently being visited."""
        if self._t2_next_child >= len(self.bfs_children):
            return None
        child = self.bfs_children[self._t2_next_child]
        # The child received the counter value we sent when descending,
        # which we can reconstruct: it is the counter value before descent.
        return self._descent_counter.get(child)

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------

    def on_slot(self, slot: int):
        if self._holding is None:
            return None
        token = self._holding
        self._holding = None
        if token.traversal == 2 and not token.returning:
            # Remember what number we handed to this child (to compute its
            # interval when it returns).
            self._descent_counter[token.next_holder] = token.dfs_number  # type: ignore[index]
        return Transmission(token, TOKEN_CHANNEL)

    def quiet_until(self, slot: int) -> int:
        # Only the token holder transmits; receiving the token wakes us.
        return slot if self._holding is not None else QUIET_FOREVER

    def on_receive(
        self, slot: int, channel: int, payload: Any
    ) -> Optional[bool]:
        if channel != TOKEN_CHANNEL or not isinstance(payload, TokenMessage):
            return False
        if payload.traversal == 1:
            self._handle_t1_message(payload)
        else:
            self._handle_t2_message(payload)
        # Only a held token makes this station active: without one, the
        # declared QUIET_FOREVER stands (see Process.on_receive).
        return None if self._holding is not None else False

    # Wired by the driver (stations know their neighborhood a priori, §1.1:
    # "each processor knows its local neighborhood").
    _neighbors: Tuple[NodeId, ...] = ()
    _descent_counter: Dict[NodeId, int]

    def wire_neighbors(self, neighbors: Tuple[NodeId, ...]) -> None:
        self._neighbors = neighbors
        self._descent_counter = {}

    def is_done(self) -> bool:
        return self.done


@dataclass
class DfsPreparationResult:
    """Outcome of the preparation protocol."""

    slots: int
    dfs_number: Dict[NodeId, int]
    subtree_max: Dict[NodeId, int]
    bfs_children: Dict[NodeId, Tuple[NodeId, ...]]


def run_dfs_preparation(
    graph: Graph,
    tree: BFSTree,
) -> DfsPreparationResult:
    """Run both token traversals over ``graph`` with the given BFS tree.

    The protocol is deterministic and conflict-free; it needs
    ``2(n−1)`` slots per traversal plus the root's final announcement.
    A run past ``4n + 16`` slots raises
    :class:`~repro.errors.SimulationTimeout`.
    """
    n = graph.num_nodes
    max_slots = 4 * n + 16
    network = RadioNetwork(graph, num_channels=1)
    processes: Dict[NodeId, DfsPreparationProcess] = {}
    for node in graph.nodes:
        process = DfsPreparationProcess(
            node_id=node,
            bfs_parent=tree.parent[node],
            is_root=(node == tree.root),
        )
        process.wire_neighbors(graph.neighbors(node))
        processes[node] = process
        network.attach(process)
    processes[tree.root].start_first_traversal()
    root_process = processes[tree.root]
    if n == 1:
        # Nothing to traverse: assign trivially.
        root_process.dfs_number = 0
        root_process.subtree_max = 0
        root_process.done = True
    else:
        network.run(max_slots, until=lambda net: root_process.done)
        # Let the root's final broadcast go out (children of root use it to
        # learn nothing new, but the slot accounting includes it).
        network.step()
    dfs_number = {}
    subtree_max = {}
    children = {}
    for node, process in processes.items():
        if process.dfs_number is None:
            raise SimulationTimeout(
                f"station {node!r} never received a DFS number"
            )
        if process.subtree_max is None:
            # Leaves that returned immediately recorded their own max.
            process.subtree_max = process.dfs_number
        dfs_number[node] = process.dfs_number
        subtree_max[node] = process.subtree_max
        children[node] = tuple(sorted(process.bfs_children))
    return DfsPreparationResult(
        slots=network.slot,
        dfs_number=dfs_number,
        subtree_max=subtree_max,
        bfs_children=children,
    )


def apply_preparation(
    tree: BFSTree, result: DfsPreparationResult
) -> None:
    """Install the distributed traversals' output into a BFSTree."""
    tree.dfs_number = dict(result.dfs_number)
    tree.subtree_max = dict(result.subtree_max)


def prepared_tree_infos(
    graph: Graph,
    tree: BFSTree,
    result: DfsPreparationResult,
) -> Dict[NodeId, TreeInfo]:
    """Per-station TreeInfo with DFS addressing, from protocol output."""
    infos: Dict[NodeId, TreeInfo] = {}
    for node in graph.nodes:
        infos[node] = TreeInfo(
            node_id=node,
            root=tree.root,
            parent=tree.parent[node],
            level=tree.level[node],
            children=result.bfs_children[node],
            dfs_number=result.dfs_number[node],
            subtree_max=result.subtree_max[node],
            child_intervals={
                child: (
                    result.dfs_number[child],
                    result.subtree_max[child],
                )
                for child in result.bfs_children[node]
            },
        )
    return infos
