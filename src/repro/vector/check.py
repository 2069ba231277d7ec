"""Equivalence harness: proving the vector engine simulates the paper.

Vector RNG streams (NumPy) can never be bit-identical to the scalar
engine's ``random.Random`` streams, so "same trajectory" is not a
checkable contract.  What *is* checkable:

**Exact invariants** on traced vector sub-runs — properties every
faithful simulation of the §2–§4 protocol must satisfy on *every*
trajectory:

* *ack parity* — data transmissions occupy even slots, acknowledgements
  the odd slot immediately after (the deterministic ack schedule of §3);
* *level multiplexing / no cross-level collisions* — only the slot's
  level class transmits data and, with ≥ 3 classes, any two transmitters
  colliding at a common receiver are at the same BFS level (§2.2:
  neighbors differ by at most one level);
* *session starts* — the first transmission of a Decay invocation is
  unconditional (the paper transmits, then flips);
* *conservation* — every injected message is collected at the root
  exactly once and all buffers drain.

**Distributional equivalence** — a two-sample Kolmogorov–Smirnov test
that scalar and vector completion-slot distributions agree on an E2
contention cell and an E3 collection cell (α = 0.01 by default).

The harness must be able to *fail*: :class:`BrokenOffByOneDecay` shifts
the Decay coin flip one step early (gating the first transmission), and
``tests/test_vector.py`` asserts that this breaks both the session-start
invariant and the KS test.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import KSResult, ks_2sample
from repro.core.collection import run_collection
from repro.core.slots import SlotKind
from repro.graphs import Graph, layered_band, reference_bfs_tree
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import NodeId
from repro.rng import derive_seed
from repro.vector.collection import (
    BatchCollectionResult,
    DecayFactory,
    run_collection_batch,
)
from repro.vector.decay import BatchDecay

DEFAULT_ALPHA = 0.01


class BrokenOffByOneDecay(BatchDecay):
    """Decay with the coin flip shifted one step early — deliberately wrong.

    The paper transmits *then* flips, so the first transmission of an
    invocation is unconditional.  This variant flips first: a freshly
    started session stays silent with probability 1/2, which (a) violates
    the session-start invariant on any traced run and (b) roughly halves
    the per-slot transmission rate, visibly slowing completion — the two
    failure modes the harness exists to detect.
    """

    def transmit_pairs(
        self, rows: np.ndarray, cols: np.ndarray, coins: np.ndarray
    ) -> np.ndarray:
        candidates = self.alive[rows, cols] & (
            self.steps[rows, cols] < self.budget
        )
        died = candidates & (coins < 0.5)
        if died.any():
            self.alive[rows[died], cols[died]] = False
        transmitting = candidates & (coins >= 0.5)
        self.steps[rows, cols] += transmitting
        return transmitting


# ----------------------------------------------------------------------
# Exact invariants on traced runs
# ----------------------------------------------------------------------


def check_invariants(result: BatchCollectionResult) -> List[str]:
    """All invariant violations of a traced batch run (empty = clean)."""
    sim = result.simulation
    if sim.trace is None:
        raise ValueError("invariant checks need a trace=True run")
    failures: List[str] = []
    slots = sim.slots
    classes = slots.level_classes
    levels = sim.radio.levels
    adjacency = sim.radio.adjacency

    for rec in sim.trace.slots:
        info = slots.decode(rec.slot)
        expected = "data" if info.kind is SlotKind.DATA else "ack"
        if rec.kind != expected:
            failures.append(
                f"slot {rec.slot}: traced as {rec.kind}, schedule says "
                f"{expected}"
            )
        if rec.kind == "data" and rec.slot % 2 != 0:
            failures.append(
                f"ack parity: data transmissions in odd slot {rec.slot}"
            )
        if rec.kind == "ack" and rec.slot % 2 != 1:
            failures.append(
                f"ack parity: acknowledgements in even slot {rec.slot}"
            )

    for rec in sim.trace.data_slots():
        if rec.tx.any():
            outside = rec.tx & (
                (levels % classes != rec.level_class)[None, :]
            )
            if outside.any():
                failures.append(
                    f"slot {rec.slot}: station outside level class "
                    f"{rec.level_class} transmitted data"
                )
        if classes >= 3 and rec.counts is not None:
            # §2.2: with ≥ 3 classes, transmitters colliding at a common
            # receiver must share a BFS level (receiver's neighbors span
            # ≤ 2 adjacent levels, and class-equality mod ≥ 3 pins one).
            for b, v in zip(*np.nonzero(rec.counts >= 2.0)):
                colliders = levels[rec.tx[b] & adjacency[v]]
                if colliders.size and colliders.min() != colliders.max():
                    failures.append(
                        f"slot {rec.slot}: cross-level collision at "
                        f"station {sim.radio.nodes[v]} "
                        f"(levels {sorted(set(colliders.tolist()))})"
                    )
        if rec.decay_step == 0 and rec.started is not None:
            if not np.array_equal(rec.tx, rec.started):
                failures.append(
                    f"slot {rec.slot}: session-start violated — a fresh "
                    "Decay invocation's first transmission was not "
                    "unconditional"
                )

    expected_ids = Counter(range(sim.total_messages))
    for b, ids in enumerate(sim.delivered_ids()):
        if Counter(ids) != expected_ids:
            failures.append(
                f"replication {b}: conservation violated — collected "
                f"{sorted(ids)} instead of each of "
                f"{sim.total_messages} messages exactly once"
            )
        leftovers = sim.buffered_ids(b)
        if leftovers:
            failures.append(
                f"replication {b}: {len(leftovers)} messages still "
                "buffered after completion"
            )
    return failures


# ----------------------------------------------------------------------
# Scalar-vs-vector KS equivalence on experiment cells
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CellSpec:
    """One (topology, workload) grid cell to compare across engines."""

    name: str
    graph: Graph
    tree: BFSTree
    sources: Dict[NodeId, List[Any]]
    level_classes: int = 3


def e3_cell() -> CellSpec:
    """An E3 collection cell: messages spread across the deepest layer.

    Spreading the workload over contending siblings (rather than the
    single deepest station of the E3 grid) makes the completion slot
    genuinely random — a single-source band pipeline drains
    deterministically, which would give the KS test nothing to compare.
    """
    graph = layered_band(6, 4)
    tree = reference_bfs_tree(graph, 0)
    deepest_level = max(tree.level.values())
    deepest = sorted(v for v in tree.nodes if tree.level[v] == deepest_level)
    return CellSpec(
        name="E3/band-6x4/k=8",
        graph=graph,
        tree=tree,
        sources={v: [f"m{v}-{i}" for i in range(2)] for v in deepest},
    )


def e2_cell() -> CellSpec:
    """An E2 contention cell: loaded children under shared parents."""
    parents, children, load = 2, 8, 2
    edges = [(0, p) for p in range(1, parents + 1)]
    for child in range(parents + 1, parents + children + 1):
        for parent in range(1, parents + 1):
            edges.append((parent, child))
    graph = Graph.from_edges(edges)
    tree = reference_bfs_tree(graph, 0)
    child_ids = [node for node in graph.nodes if tree.level[node] == 2]
    return CellSpec(
        name="E2/contention-2x8/load=2",
        graph=graph,
        tree=tree,
        sources={
            child: [f"m{child}-{i}" for i in range(load)]
            for child in child_ids
        },
    )


def default_cells() -> List[CellSpec]:
    return [e3_cell(), e2_cell()]


@dataclass
class CellReport:
    """Harness outcome for one cell."""

    name: str
    invariant_failures: List[str]
    ks: KSResult
    scalar_slots: List[int]
    vector_slots: List[int]

    def passed(self, alpha: float = DEFAULT_ALPHA) -> bool:
        return not self.invariant_failures and not self.ks.rejects(alpha)


@dataclass
class EquivalenceReport:
    """Full harness outcome across all checked cells."""

    alpha: float
    cells: List[CellReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(cell.passed(self.alpha) for cell in self.cells)

    def summary(self) -> str:
        lines = [
            f"engine equivalence @ alpha={self.alpha}: "
            + ("PASS" if self.passed else "FAIL")
        ]
        for cell in self.cells:
            verdict = "ok" if cell.passed(self.alpha) else "FAIL"
            lines.append(
                f"  {cell.name}: {verdict}  "
                f"KS D={cell.ks.statistic:.3f} p={cell.ks.pvalue:.4f} "
                f"(n={cell.ks.n1}+{cell.ks.n2}), "
                f"{len(cell.invariant_failures)} invariant violations"
            )
            for failure in cell.invariant_failures[:5]:
                lines.append(f"    - {failure}")
        return "\n".join(lines)


def _cell_seeds(cell: CellSpec, seed: int, replications: int) -> List[int]:
    return [
        derive_seed(seed, "equivalence", cell.name, index)
        for index in range(replications)
    ]


def _scalar_slots(cell: CellSpec, seeds: Sequence[int]) -> List[int]:
    return [
        run_collection(
            cell.graph,
            cell.tree,
            cell.sources,
            s,
            level_classes=cell.level_classes,
        ).slots
        for s in seeds
    ]


def compare_cell(
    cell: CellSpec,
    seed: int,
    replications: int,
    decay_factory: DecayFactory = BatchDecay,
    trace: bool = True,
) -> CellReport:
    """Run one cell on both engines and compare.

    Scalar: ``replications`` independent :func:`run_collection` calls.
    Vector: one batched call over the same derived seeds, traced so the
    exact invariants can be checked on the very trajectories that feed
    the KS sample.
    """
    seeds = _cell_seeds(cell, seed, replications)
    scalar_slots = _scalar_slots(cell, seeds)
    batch = run_collection_batch(
        cell.graph,
        cell.tree,
        cell.sources,
        seeds,
        level_classes=cell.level_classes,
        decay_factory=decay_factory,
        trace=trace,
    )
    vector_slots = [int(v) for v in batch.completion_slots]
    failures = check_invariants(batch) if trace else []
    return CellReport(
        name=cell.name,
        invariant_failures=failures,
        ks=ks_2sample(scalar_slots, vector_slots),
        scalar_slots=scalar_slots,
        vector_slots=vector_slots,
    )


def run_equivalence(
    seed: int = 20260704,
    replications: int = 48,
    alpha: float = DEFAULT_ALPHA,
    decay_factory: DecayFactory = BatchDecay,
    cells: Optional[Sequence[CellSpec]] = None,
) -> EquivalenceReport:
    """The full harness: invariants + KS for every cell."""
    report = EquivalenceReport(alpha=alpha)
    for cell in cells if cells is not None else default_cells():
        report.cells.append(
            compare_cell(cell, seed, replications, decay_factory)
        )
    return report
