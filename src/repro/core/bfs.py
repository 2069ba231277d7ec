"""The distributed BFS-tree construction of the setup phase (§2).

Structure (two concurrent channels, as §1.4's "separate channels"):

* **Expansion** (channel 0): synchronized stages.  Stage ``s`` occupies a
  fixed window of slots; during it, every station that joined the tree at
  level ``s`` repeatedly invokes Decay to announce ``JOIN(level=s)``.  An
  unjoined station that first hears a JOIN adopts the announcer as its BFS
  parent and ``level = s+1``, and will announce during stage ``s+1``.  With
  ``2·ceil(log2 n)`` invocations per stage, a frontier station misses its
  stage with probability ≤ (1/2)^(2·log n) = 1/n² (the paper's ε = 1/n
  after a union bound).
* **Confirmation** (channel 1): "when joining the tree each node sends a
  message to the root using the collection protocol of Section 4.  This
  protocol only uses already constructed edges of the BFS tree, always
  succeeds" — each joining station submits a CONFIRM carrying its (id,
  parent, level); the root counts.  When the root holds n−1 confirmations
  the setup succeeded *and the root knows it*.

Las-Vegas wrapper (§2): if the root has not collected everything within
twice the expected time, abort and re-invoke; "since the probability of
reinvocation is less than 1/2, the entire modified setup protocol lasts
O((n + D·log n)·log Δ) time slots on the average."
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.decay import DecaySession
from repro.core.messages import AckMessage, DataMessage, JoinMessage
from repro.core.slots import (
    SlotStructure,
    decay_budget,
    expected_collection_slots,
)
from repro.core.transport import TransportLane
from repro.core.tree import TreeInfo, bfs_tree_from_tree_info
from repro.errors import ConfigurationError, SimulationTimeout
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.graphs.properties import bfs_levels, require_connected
from repro.radio.network import RadioNetwork
from repro.radio.process import QUIET_FOREVER, Process
from repro.radio.transmission import Transmission
from repro.rng import RngFactory

EXPANSION_CHANNEL = 0
CONFIRM_CHANNEL = 1

#: Las-Vegas attempts of the setup phase before :func:`run_setup` gives up.
SETUP_ATTEMPTS = 10

#: Collection phases without a new confirmation after which the root of
#: the unknown-n setup (:func:`run_setup_unknown_n`) declares the phase
#: over, on top of one full expansion stage.
UNKNOWN_N_QUIET_PHASES = 24


class BFSSetupProcess(Process):
    """One station's behaviour during the BFS setup phase.

    The station knows ``n`` and the Δ bound a priori (§1.1); everything
    else — its level, parent, and when to speak — is derived from received
    messages and the global slot number.
    """

    def __init__(
        self,
        node_id: NodeId,
        n: int,
        budget: int,
        stage_invocations: int,
        slots: SlotStructure,
        rng: random.Random,
        is_root: bool,
    ):
        super().__init__(node_id)
        self.n = n
        self.budget = budget
        self.stage_invocations = stage_invocations
        self.stage_slots = stage_invocations * budget
        self.confirm_slots = slots
        self._rng = rng
        self.is_root = is_root
        # Tree state (root knows itself at level 0 from the start).
        self.level: Optional[int] = 0 if is_root else None
        self.parent: Optional[NodeId] = node_id if is_root else None
        self.joined_at_slot: Optional[int] = 0 if is_root else None
        # Expansion machinery.
        self._session: Optional[DecaySession] = None
        self._session_invocation = -1
        # Confirmation machinery: a collection lane, created lazily at join
        # time (its level class is only known then).
        self._confirm_lane: Optional[TransportLane] = None
        self.confirmations: List[Tuple[NodeId, NodeId, int]] = []  # root only
        self._confirm_serial = 0

    # ------------------------------------------------------------------
    # Stage arithmetic (purely slot-number driven, identical at all nodes)
    # ------------------------------------------------------------------

    def _stage(self, slot: int) -> int:
        return slot // self.stage_slots

    def _invocation(self, slot: int) -> int:
        return slot // self.budget

    @property
    def joined(self) -> bool:
        return self.level is not None

    @property
    def setup_complete(self) -> bool:
        """Root-local success condition: all n−1 confirmations held."""
        return self.is_root and len(self.confirmations) >= self.n - 1

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------

    def on_slot(self, slot: int):
        actions = []
        expansion = self._expansion_transmission(slot)
        if expansion is not None:
            actions.append(expansion)
        if self._confirm_lane is not None:
            confirm = self._confirm_lane.on_slot(slot)
            if confirm is not None:
                actions.append(confirm)
        return actions or None

    def _expansion_transmission(self, slot: int) -> Optional[Transmission]:
        if not self.joined:
            return None
        assert self.level is not None
        if self._stage(slot) != self.level:
            return None  # a station announces only during its own stage
        invocation = self._invocation(slot)
        if self._session_invocation != invocation:
            self._session = DecaySession(self.budget, self._rng)
            self._session_invocation = invocation
        assert self._session is not None
        if self._session.should_transmit():
            return Transmission(
                JoinMessage(sender=self.node_id, level=self.level),
                EXPANSION_CHANNEL,
            )
        return None

    def quiet_until(self, slot: int) -> int:
        wake = self._expansion_wake(slot)
        if self._confirm_lane is not None:
            wake = min(wake, self._confirm_lane.next_active_slot(slot))
        return wake

    def _expansion_wake(self, slot: int) -> int:
        """The first slot >= ``slot`` the expansion machine does work in.

        An unjoined station waits for the JOIN reception that wakes it;
        a joined one announces only during its own stage, and within it
        sleeps out an invocation whose Decay session died (a dead session
        draws no coin).
        """
        if self.level is None:
            return QUIET_FOREVER
        stage = self._stage(slot)
        if stage < self.level:
            return self.level * self.stage_slots
        if stage > self.level:
            return QUIET_FOREVER
        invocation = self._invocation(slot)
        session = self._session
        if (
            invocation == self._session_invocation
            and session is not None
            and not session.alive
        ):
            boundary = (invocation + 1) * self.budget
            if boundary >= (self.level + 1) * self.stage_slots:
                return QUIET_FOREVER
            return boundary
        return slot

    def on_receive(
        self, slot: int, channel: int, payload: Any
    ) -> Optional[bool]:
        # False on a drop (a JOIN once joined, an overheard confirmation
        # or ack): nothing the declaration reads changed, so it stands
        # (see Process.on_receive).
        lane = self._confirm_lane
        if channel == EXPANSION_CHANNEL:
            if isinstance(payload, JoinMessage) and not self.joined:
                self._join(slot, payload)
                return None
            return False
        if channel != CONFIRM_CHANNEL or lane is None:
            return False
        if isinstance(payload, DataMessage):
            if payload.hop_dest != self.node_id:
                return False  # overheard someone else's confirmation
            if not lane.accept_data(slot, payload):
                return None
            if self.is_root:
                self.confirmations.append(payload.payload)
            else:
                assert self.parent is not None
                lane.enqueue(
                    payload.rehop(self.node_id, self.parent),
                    received_at_slot=slot,
                )
            return None
        if isinstance(payload, AckMessage) and (
            payload.hop_dest == self.node_id
        ):
            lane.accept_ack(payload)
            return None
        return False

    def _join(self, slot: int, announcement: JoinMessage) -> None:
        self.level = announcement.level + 1
        self.parent = announcement.sender
        self.joined_at_slot = slot
        self._make_confirm_lane()
        self._submit_confirmation()

    def _make_confirm_lane(self) -> None:
        assert self.level is not None
        self._confirm_lane = TransportLane(
            node_id=self.node_id,
            level=self.level,
            slots=self.confirm_slots,
            rng=self._rng,
            channel=CONFIRM_CHANNEL,
        )

    def _submit_confirmation(self) -> None:
        assert self._confirm_lane is not None and self.parent is not None
        assert self.level is not None
        message = DataMessage(
            msg_id=(self.node_id, self._confirm_serial),
            origin=self.node_id,
            hop_sender=self.node_id,
            hop_dest=self.parent,
            payload=(self.node_id, self.parent, self.level),
        )
        self._confirm_serial += 1
        self._confirm_lane.enqueue(message)

    # The root creates its confirmation lane eagerly so it can ack.
    def ensure_root_lane(self) -> None:
        if self.is_root and self._confirm_lane is None:
            self._make_confirm_lane()

    def tree_info(self) -> TreeInfo:
        """This station's resulting local knowledge (after success)."""
        if not self.joined:
            raise SimulationTimeout(
                f"station {self.node_id!r} never joined the BFS tree"
            )
        assert self.level is not None and self.parent is not None
        root = self.node_id if self.is_root else None
        # Non-roots do not know the root's ID from BFS alone; the TreeInfo
        # root field is filled by the driver (it is only used for
        # validation, not by any protocol decision).
        return TreeInfo(
            node_id=self.node_id,
            root=root if root is not None else self.node_id,
            parent=self.parent,
            level=self.level,
            children=(),
        )


@dataclass
class SetupResult:
    """Outcome of the Las-Vegas setup phase."""

    tree: BFSTree
    tree_infos: Dict[NodeId, TreeInfo]
    slots: int  # total slots, across all attempts
    attempts: int
    is_true_bfs: bool  # levels equal true graph distances


def expansion_parameters(n: int, max_degree: int) -> Tuple[int, int]:
    """(decay budget, invocations per stage) for the expansion protocol.

    ``2·ceil(log2 n)`` invocations drive the per-station stage-miss
    probability to 1/n² (the paper's ε = 1/n after the union bound).
    """
    budget = decay_budget(max_degree)
    stage_invocations = max(2, 2 * math.ceil(math.log2(max(2, n))))
    return budget, stage_invocations


def expected_setup_slots(n: int, depth: int, max_degree: int) -> float:
    """Reference scale for the §2 bound ``O((n + D·log n)·log Δ)``.

    Used to size the Las-Vegas timeout ("twice the expected time"): the
    expansion costs ``D`` stages of ``2·log n`` invocations of ``2·log Δ``
    slots, and the confirmation collection costs ``≈ 32.27·(n + D)·log Δ``
    slots (Theorem 4.4 with k = n−1), times the ×3 level multiplexing.
    """
    log_n = math.log2(max(2, n))
    log_delta = math.log2(max(2, max_degree))
    expansion = (depth + 1) * (2 * log_n) * (2 * log_delta)
    confirmation = expected_collection_slots(
        n - 1, depth, max_degree, level_classes=3
    )
    return expansion + confirmation


def build_setup_network(
    graph: Graph,
    root: NodeId,
    seed: int,
    n_bound: int,
) -> Tuple[RadioNetwork, Dict[NodeId, BFSSetupProcess]]:
    """Wire a network running the BFS setup phase with a known leader.

    Stages are sized for ``n_bound`` stations: n itself when n is known,
    or §8 remark (1)'s upper bound N when it is not.
    """
    if root not in graph:
        raise ConfigurationError(f"unknown root {root!r}")
    factory = RngFactory(seed)
    budget, stage_invocations = expansion_parameters(
        n_bound, graph.max_degree()
    )
    confirm_slots = SlotStructure(
        decay_budget=budget, level_classes=3, with_acks=True
    )
    network = RadioNetwork(graph, num_channels=2)
    processes: Dict[NodeId, BFSSetupProcess] = {}
    for node in graph.nodes:
        process = BFSSetupProcess(
            node_id=node,
            n=n_bound,
            budget=budget,
            stage_invocations=stage_invocations,
            slots=confirm_slots,
            rng=factory.for_node(node),
            is_root=(node == root),
        )
        processes[node] = process
        network.attach(process)
    processes[root].ensure_root_lane()
    return network, processes


@dataclass
class UnknownNSetupResult:
    """Outcome of the §8-remark-(1) variant (only a bound N on n known).

    Without n, the root cannot count confirmations to n−1, so termination
    is by *quiescence* and the result is Monte-Carlo: correct (spanning,
    true-BFS) with probability 1−ε rather than always.  ``complete`` is
    the omniscient verdict used by experiments; a deployment would simply
    accept the ε failure probability, exactly as the remark suggests.
    """

    tree: Optional[BFSTree]
    tree_infos: Dict[NodeId, TreeInfo]
    slots: int
    joined: int
    complete: bool


def run_setup_unknown_n(
    graph: Graph,
    root: NodeId,
    seed: int,
    n_bound: Optional[int] = None,
) -> UnknownNSetupResult:
    """§8 remark (1): BFS setup knowing only an upper bound ``n_bound`` ≥ n.

    "If n is not known but only an upper bound N, we can still find a BFS
    tree with probability 1−ε in expected time O(D·log(N/ε)·log Δ)."

    Stage sizing uses N in place of n (more invocations per stage, so the
    per-hop failure probability is ≤ 1/N² ≤ 1/n²); the root declares the
    phase over once no new confirmation has arrived for
    ``UNKNOWN_N_QUIET_PHASES`` collection phases plus one full expansion
    stage — a window that, whp, exceeds any gap between consecutive
    confirmations while stations are still joining.  ``n_bound``
    defaults to 2n.  The run stops at ``max(50 000, 4×)``
    :func:`expected_setup_slots` for N stations at depth N, complete or
    not.
    """
    require_connected(graph)
    n = graph.num_nodes
    if n_bound is None:
        n_bound = 2 * n
    if n_bound < n:
        raise ConfigurationError(
            f"n_bound={n_bound} is below the actual n={n}"
        )
    network, processes = build_setup_network(graph, root, seed, n_bound)
    root_process = processes[root]
    quiet_window = (
        root_process.stage_slots
        + UNKNOWN_N_QUIET_PHASES * root_process.confirm_slots.phase_length
    )
    hard_cap_slots = max(
        50_000,
        int(4 * expected_setup_slots(n_bound, n_bound, graph.max_degree())),
    )
    last_progress_slot = 0
    last_count = 0
    while network.slot < hard_cap_slots:
        network.step()
        count = len(root_process.confirmations)
        if count != last_count:
            last_count = count
            last_progress_slot = network.slot
        if network.slot - last_progress_slot >= quiet_window:
            break
    joined = [p for p in processes.values() if p.joined]
    complete = len(joined) == n and last_count >= n - 1
    infos: Dict[NodeId, TreeInfo] = {}
    tree: Optional[BFSTree] = None
    if complete:
        for node, process in processes.items():
            info = process.tree_info()
            info.root = root
            infos[node] = info
        tree = bfs_tree_from_tree_info(infos)
    return UnknownNSetupResult(
        tree=tree,
        tree_infos=infos,
        slots=network.slot,
        joined=len(joined),
        complete=complete,
    )


def run_setup(
    graph: Graph,
    root: NodeId,
    seed: int,
) -> SetupResult:
    """Run the Las-Vegas setup phase to completion.

    Each attempt runs until the root holds n−1 confirmations or the §2
    timeout (twice the expected time) expires; on timeout the whole
    phase is re-invoked with fresh coins, exactly as the paper
    prescribes.  Slots are accumulated across attempts so
    measured setup times include the (rare) retries.  After
    ``SETUP_ATTEMPTS`` failed attempts
    :class:`~repro.errors.SimulationTimeout` is raised.
    """
    require_connected(graph)
    n = graph.num_nodes
    true_levels = bfs_levels(graph, root)
    depth = max(true_levels.values()) if true_levels else 0
    timeout = max(
        1_000, int(2 * expected_setup_slots(n, depth, graph.max_degree()))
    )
    total_slots = 0
    for attempt in range(SETUP_ATTEMPTS):
        network, processes = build_setup_network(
            graph, root, seed + 7919 * attempt, n
        )
        root_process = processes[root]
        try:
            network.run(
                timeout, until=lambda net: root_process.setup_complete
            )
        except SimulationTimeout:
            total_slots += network.slot
            continue
        total_slots += network.slot
        infos = {}
        for node, process in processes.items():
            info = process.tree_info()
            info.root = root
            infos[node] = info
        tree = bfs_tree_from_tree_info(infos)
        return SetupResult(
            tree=tree,
            tree_infos=infos,
            slots=total_slots,
            attempts=attempt + 1,
            is_true_bfs=all(
                tree.level[node] == true_levels[node] for node in graph.nodes
            ),
        )
    raise SimulationTimeout(
        f"setup phase failed {SETUP_ATTEMPTS} times on n={n}; "
        f"timeout={timeout} slots each",
        slots_elapsed=total_slots,
    )
