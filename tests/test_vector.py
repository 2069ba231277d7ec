"""Tests for the vector engine (repro.vector).

Three layers: the batched primitives (reception scatter, Decay) against
brute-force/scalar references; the batched collection protocol's exact
guarantees (conservation, ack parity, purity under batch composition);
and the equivalence harness itself — including the mandated negative
control, a deliberately broken Decay that must fail both the invariant
checks and the KS test.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.analysis.stats import ks_2sample
from repro.core import run_collection
from repro.core.slots import SlotKind
from repro.errors import ConfigurationError, SimulationTimeout
from repro.graphs import (
    Graph,
    grid,
    layered_band,
    path,
    random_geometric,
    reference_bfs_tree,
    star,
)
from repro.vector import (
    ENGINES,
    BatchCollection,
    BatchDecay,
    LockstepRadio,
    run_collection_batch,
    validate_engine,
)
from repro.vector.check import (
    BrokenOffByOneDecay,
    check_invariants,
    compare_cell,
    e2_cell,
    e3_cell,
    run_equivalence,
)


#: Replication seeds of the golden cells.
GOLDEN_SEEDS = [11, 12, 13, 14]

#: Trajectory digests of the vector-check cells at level classes 1-4.
GOLDEN_CHECK_CELLS = {
    "E2/contention-2x8/load=2": (
        "90b5f000aff122f3f852cdcc6aee073898cb725ab1031b353db14019b3593111",
        "cec97153b3055316afbbe83fee7cd2996dcfc5c285803f57f117a397fd7bf3b5",
        "9794ed1a127fb7569bf94538492de222d802dfa55c977f7f5d14a4b4ed076806",
        "27e044c74356410bf89280c2d401e4abe7496491f5de8d4e8f271d9d6c54ebda",
    ),
    "E3/band-6x4/k=8": (
        "26c7e6e4f6446df41e17a0b5c51db84cc0e718bc3416a13f813e23c300dd22a6",
        "92415fa34dae59edf5c269ab4407edbc0b038fe2341c118e5afdb41a22523792",
        "9c1b233307642e02844ea193a8b5e16c0f96a5046f6e073a8ae4e0803bcc0133",
        "f4607788c35705ef3ce42a327ce21888f9641219327bc75bf81307fed1facdf8",
    ),
}


@functools.lru_cache(maxsize=None)
def _golden_cell():
    """A masked-size field: n = 1200 unit-disk stations (mean degree
    about 12) and 63 messages on the 40 deepest stations, none at the
    root."""
    n = 1200
    graph = random_geometric(
        n, math.sqrt(12.0 / (math.pi * n)), random.Random(20261017)
    )
    tree = reference_bfs_tree(graph, 0)
    deepest = sorted(tree.nodes, key=lambda v: (-tree.level[v], v))[:40]
    sources = {v: [f"m{v}-{i}" for i in range(1 + v % 2)] for v in deepest}
    return graph, tree, sources


def _trajectory_digest(sim) -> str:
    blob = json.dumps({
        "completion": [int(x) for x in sim.completion_slots],
        "delivered": sim.delivered_slots(),
        "mask": {
            key: sim.mask_stats[key] for key in ("active_pairs", "data_slots")
        },
        "slot": sim.slot,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _queues(sim, b) -> list:
    """Replication ``b``'s buffers, station by station, read by following
    ``next_gid`` from each head to the -1 that ends the queue."""
    queues = []
    for v in range(sim.radio.n):
        queue, gid = [], int(sim.head[b, v])
        while gid != -1:
            queue.append(gid)
            gid = int(sim.next_gid[b, gid])
        queues.append(queue)
    return queues


def _traced_peak_mib(run) -> float:
    """Peak memory traced while ``run()`` executes, in MiB (NumPy
    reports its buffers to ``tracemalloc``)."""
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _unit_disk_field(n):
    graph = random_geometric(
        n, math.sqrt(12.0 / (math.pi * n)), random.Random(20261019)
    )
    return graph, reference_bfs_tree(graph, 0)


def _snapshot(sim) -> dict:
    """Everything a masked run reports, for run-to-run comparison."""
    return {
        "completion": sim.completion_slots.tolist(),
        "delivered": sim.delivered_slots(),
        "delivered_count": sim.delivered_count.tolist(),
        "mask_stats": dict(sim.mask_stats),
        "slot": sim.slot,
    }


class _CountingGen:
    """A coin generator that tallies the coins drawn from it."""

    def __init__(self, gen, tally, index):
        self.gen, self.tally, self.index = gen, tally, index

    def random(self, out, dtype):
        self.tally[self.index] += out.size
        return self.gen.random(out=out, dtype=dtype)


def _cell_by_name(name):
    if name == "golden":
        return _golden_cell()
    spec = e2_cell() if name == "e2" else e3_cell()
    return spec.graph, spec.tree, spec.sources


def _counting_cursor(monkeypatch, replications):
    """Tally each replication's coin draws: patches the coin cursor."""
    from repro.vector import collection

    drawn = [0] * replications

    class CountingCursor(collection._CoinCursor):
        def __init__(self, gens, n):
            super().__init__(
                [_CountingGen(g, drawn, b) for b, g in enumerate(gens)], n,
            )

    monkeypatch.setattr(collection, "_CoinCursor", CountingCursor)
    return drawn


def _coins_consumed(sim, drawn) -> list:
    """Coins each replication's stream has moved past: drawn, less the
    ones still unread in the cursor's buffer."""
    cursor = sim._coin_cursor
    unread = cursor.buffer.shape[1] - cursor.cursor
    return (np.array(drawn) - unread).tolist()


def _brute_force_resolve(radio, tx):
    """``(counts, senders, unique)`` of one slot by direct enumeration."""
    B, n = tx.shape
    counts = np.zeros((B, n), dtype=np.float32)
    senders = np.zeros((B, n), dtype=np.float32)
    for b in range(B):
        for vi, v in enumerate(radio.nodes):
            for u in radio.graph.neighbors(v):
                if tx[b, radio.index[u]]:
                    counts[b, vi] += 1
                    senders[b, vi] += radio.index[u]
    unique = (counts == 1) & ~tx
    return counts, senders, unique


def _assert_resolves_like_brute_force(radio, tx, label=""):
    expected = _brute_force_resolve(radio, tx)
    actual = radio.resolve(tx)
    assert actual[0].dtype == np.float32, label
    for got, want in zip(actual, expected):
        assert np.array_equal(got, want), label
    return actual


class TestEngineSelection:
    def test_engines(self):
        assert ENGINES == ("scalar", "vector")
        for engine in ENGINES:
            assert validate_engine(engine) == engine

    def test_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            validate_engine("quantum")


class TestLockstepRadio:
    def test_reception_matches_brute_force(self):
        graph = grid(4, 5)
        tree = reference_bfs_tree(graph, 0)
        radio = LockstepRadio(graph, tree, replications=8)
        rng = np.random.default_rng(3)
        for _ in range(25):
            tx = rng.random((8, radio.n)) < 0.3
            _assert_resolves_like_brute_force(radio, tx)

    def test_transmitter_hears_nothing(self):
        graph = path(3)
        tree = reference_bfs_tree(graph, 0)
        radio = LockstepRadio(graph, tree, replications=1)
        tx = np.array([[False, True, True]])
        _counts, _senders, unique = radio.resolve(tx)
        # Station 1 transmits, so it cannot hear station 2 (and vice
        # versa); station 0 hears station 1 uniquely.
        assert not unique[0, 1] and not unique[0, 2]
        assert unique[0, 0]

    def test_rejects_zero_replications(self):
        graph = path(3)
        tree = reference_bfs_tree(graph, 0)
        with pytest.raises(ConfigurationError):
            LockstepRadio(graph, tree, replications=0)


def _all_pairs(shape):
    """Every (replication, station) pair of ``shape``, b-major."""
    rows, cols = np.divmod(np.arange(shape[0] * shape[1]), shape[1])
    return rows, cols


class TestBatchDecay:
    def test_first_transmission_unconditional(self):
        decay = BatchDecay(budget=4, shape=(2, 3))
        rows, cols = _all_pairs((2, 3))
        decay.start_pairs(rows, cols)
        # All coins kill immediately — but the first step still transmits.
        tx = decay.transmit_pairs(rows, cols, np.zeros(6, np.float32))
        assert tx.all()
        # Everyone flipped 0 after transmitting: all sessions dead.
        tx = decay.transmit_pairs(rows, cols, np.ones(6, np.float32))
        assert not tx.any()

    def test_budget_caps_transmissions(self):
        decay = BatchDecay(budget=3, shape=(1, 1))
        rows, cols = _all_pairs((1, 1))
        decay.start_pairs(rows, cols)
        lucky = np.ones(1, dtype=np.float32)  # coin 1: never dies
        transmissions = sum(
            int(decay.transmit_pairs(rows, cols, lucky)[0])
            for _ in range(10)
        )
        assert transmissions == 3

    def test_opportunity_mask_freezes_other_sessions(self):
        # The opportunity is the pair list: an unlisted pair neither
        # transmits nor advances.
        decay = BatchDecay(budget=2, shape=(1, 2))
        decay.start_pairs(*_all_pairs((1, 2)))
        first = (np.array([0]), np.array([0]))
        lucky = np.ones(1, dtype=np.float32)
        tx = decay.transmit_pairs(*first, lucky)
        assert tx.tolist() == [True]
        assert decay.steps[0, 0] == 1
        # Station 1's session did not advance: it still has both steps.
        assert decay.steps[0, 1] == 0 and decay.alive[0, 1]

    def test_kill_silences(self):
        decay = BatchDecay(budget=8, shape=(1, 2))
        rows, cols = _all_pairs((1, 2))
        decay.start_pairs(rows, cols)
        decay.kill(np.array([0]), np.array([1]))
        tx = decay.transmit_pairs(rows, cols, np.ones(2, np.float32))
        assert tx.tolist() == [True, False]

    def test_rejects_bad_budget(self):
        with pytest.raises(ConfigurationError):
            BatchDecay(budget=0, shape=(1, 1))


class TestBatchCollection:
    def test_conservation_and_ack_parity(self):
        graph = layered_band(4, 3)
        tree = reference_bfs_tree(graph, 0)
        deepest = max(tree.nodes, key=lambda v: (tree.level[v], v))
        sources = {deepest: ["a", "b", "c"], 5: ["d"]}
        result = run_collection_batch(
            graph, tree, sources, seeds=[1, 2, 3, 4], trace=True
        )
        assert (result.completion_slots > 0).all()
        assert check_invariants(result) == []
        sim = result.simulation
        for record in sim.trace.data_slots():
            assert record.slot % 2 == 0
        for record in sim.trace.ack_slots():
            assert record.slot % 2 == 1

    def test_matches_scalar_on_deterministic_cell(self):
        # A single-source band pipeline drains deterministically: both
        # engines must land on exactly the same completion slot.
        graph = layered_band(5, 3)
        tree = reference_bfs_tree(graph, 0)
        deepest = max(tree.nodes, key=lambda v: (tree.level[v], v))
        sources = {deepest: [f"m{i}" for i in range(4)]}
        scalar = run_collection(graph, tree, sources, seed=9).slots
        batch = run_collection_batch(graph, tree, sources, seeds=[9, 10])
        assert list(batch.completion_slots) == [scalar, scalar]

    def test_purity_under_batch_composition(self):
        # Replication b's outcome is a function of its seed alone —
        # independent of which other seeds share the batch.  This is the
        # property that lets the runner cache vector results per task.
        cell = e2_cell()
        seeds = [101, 202, 303, 404]
        together = run_collection_batch(
            cell.graph, cell.tree, cell.sources, seeds
        ).completion_slots
        alone = [
            int(
                run_collection_batch(
                    cell.graph, cell.tree, cell.sources, [seed]
                ).completion_slots[0]
            )
            for seed in seeds
        ]
        assert list(together) == alone

    def test_root_sources_deliver_immediately(self):
        graph = star(4)
        tree = reference_bfs_tree(graph, 0)
        result = run_collection_batch(
            graph, tree, {0: ["at-root"]}, seeds=[5]
        )
        assert list(result.completion_slots) == [0]

    def test_root_sources_logged_per_replication(self):
        # As many root messages as replications: every replication must
        # still report every root id at slot 0, not one id each.
        graph = path(4)
        tree = reference_bfs_tree(graph, 0)
        result = run_collection_batch(
            graph, tree, {0: ["a", "b"], 3: ["c"]}, seeds=[1, 2],
            trace=True,
        )
        sim = result.simulation
        assert list(sim.delivered_count) == [3, 3]
        assert sim.delivered_ids() == [[0, 1, 2], [0, 1, 2]]
        for arrivals in sim.delivered_slots():
            assert arrivals[:2] == [(0, 0), (0, 1)]
        assert check_invariants(result) == []

    def test_empty_workload_completes_at_slot_zero(self):
        graph = path(4)
        tree = reference_bfs_tree(graph, 0)
        result = run_collection_batch(graph, tree, {}, seeds=[1, 2])
        assert list(result.completion_slots) == [0, 0]

    def test_timeout_raises(self):
        class MuteDecay(BatchDecay):
            """Every session dies silent: nothing ever moves."""

            def transmit_pairs(self, rows, cols, coins):
                self.alive[rows, cols] = False
                return np.zeros(rows.shape, dtype=bool)

        graph = path(6)
        tree = reference_bfs_tree(graph, 0)
        sim_sources = {5: ["m0", "m1"]}
        with pytest.raises(SimulationTimeout) as excinfo:
            run_collection_batch(
                graph, tree, sim_sources, seeds=[1], decay_factory=MuteDecay
            )
        # The scalar run_collection's cap: max(10 000, 20x Thm 4.4).
        assert excinfo.value.slots_elapsed == 10_000

    @pytest.mark.parametrize("cell", [e2_cell(), e3_cell()], ids=lambda c: c.name)
    @pytest.mark.parametrize("classes", [1, 2, 3, 4])
    def test_conservation_after_every_slot(self, cell, classes):
        # Each message sits in exactly one place after every slot, data
        # and ack alike: delivered at the root or queued at one station,
        # in a queue as long as that station's backlog.
        sim = BatchCollection(
            cell.graph, cell.tree, cell.sources, GOLDEN_SEEDS[:2],
            level_classes=classes,
        )
        everything = Counter(range(sim.total_messages))
        while not sim.done.all():
            sim.step()
            delivered = sim.delivered_ids()
            for b in range(sim.num_replications):
                buffered = sim.buffered_ids(b)
                assert Counter(delivered[b] + buffered) == everything, (
                    sim.slot, b
                )
                queues = _queues(sim, b)
                assert [gid for q in queues for gid in q] == buffered
                for v, queue in enumerate(queues):
                    assert len(queue) == sim.backlog[b, v], (sim.slot, b, v)
                    if queue:
                        assert queue[-1] == sim.tail[b, v]

    def test_memory_grows_with_k_not_n_times_k(self):
        # 64 deep stations hold the k messages, so the listed pairs are
        # the same at both k and only the queues get longer.  A
        # (B, n, k) identity store would grow by 109 MiB here.
        graph, tree = _unit_disk_field(2000)
        deepest = sorted(tree.nodes, key=lambda v: (-tree.level[v], v))[:64]
        seeds = list(range(1, 17))

        def peak(k):
            sources = {
                v: [f"m{v}-{i}" for i in range(k // 64)] for v in deepest
            }

            def run():
                sim = BatchCollection(graph, tree, sources, seeds)
                for _ in range(3 * sim.phase_length):
                    sim.step()

            return _traced_peak_mib(run)

        peak(128)  # first-build costs stay out of the comparison
        assert peak(1024) - peak(128) < 1.0

    def test_k_equals_n_at_ten_thousand_stations(self):
        # Theorem 4.4's k term at n = 10^4: a message on every station
        # (k = 10^4, B = 16) builds and steps within 64 MiB traced.
        graph, tree = _unit_disk_field(10_000)
        sources = {v: [f"m{v}"] for v in graph.nodes}
        seeds = list(range(1, 17))

        def run():
            sim = BatchCollection(graph, tree, sources, seeds)
            assert sim.total_messages == 10_000
            for _ in range(3 * sim.phase_length):
                sim.step()
            assert sim.delivered_count.min() > 0

        assert _traced_peak_mib(run) <= 64.0

    def test_rejects_unknown_source(self):
        graph = path(3)
        tree = reference_bfs_tree(graph, 0)
        with pytest.raises(ConfigurationError):
            run_collection_batch(graph, tree, {99: ["x"]}, seeds=[1])

    def test_rejects_empty_seeds(self):
        graph = path(3)
        tree = reference_bfs_tree(graph, 0)
        with pytest.raises(ConfigurationError):
            run_collection_batch(graph, tree, {2: ["x"]}, seeds=[])


class TestKs2Sample:
    def test_identical_samples_do_not_reject(self):
        sample = [1.0, 2.0, 3.0, 4.0, 5.0] * 10
        result = ks_2sample(sample, list(sample))
        assert result.statistic == 0.0
        assert result.pvalue == 1.0
        assert not result.rejects(0.01)

    def test_disjoint_samples_reject(self):
        result = ks_2sample([0.0] * 30, [10.0] * 30)
        assert result.statistic == 1.0
        assert result.rejects(0.01)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ks_2sample([], [1.0])

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(4)
        a = list(rng.normal(0.0, 1.0, 80))
        b = list(rng.normal(0.4, 1.0, 60))
        ours = ks_2sample(a, b)
        ref = scipy_stats.ks_2samp(a, b, method="asymp")
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
        # Different asymptotic approximations; agreement is loose.
        assert ours.pvalue == pytest.approx(ref.pvalue, abs=0.05)


@pytest.fixture(scope="module")
def real_equivalence():
    """The harness on the real engine, as ``vector-check`` runs it."""
    return run_equivalence(seed=20260704)


@pytest.fixture(scope="module")
def broken_equivalence():
    """The harness on the mandated negative control: an off-by-one coin
    flip (flip before the first transmission)."""
    return run_equivalence(seed=20260704, decay_factory=BrokenOffByOneDecay)


class TestEquivalenceHarness:
    def test_harness_passes_on_real_engine(self, real_equivalence):
        report = real_equivalence
        assert report.passed, report.summary()
        for cell in report.cells:
            assert cell.invariant_failures == []
            assert not cell.ks.rejects(0.01)

    def test_broken_decay_fails_invariants_and_ks(self, broken_equivalence):
        # The negative control must be caught BOTH ways.
        report = broken_equivalence
        assert not report.passed
        for cell in report.cells:
            assert cell.ks.rejects(0.01), (
                f"{cell.name}: KS failed to reject the broken engine"
            )
            assert any(
                "session-start" in failure
                for failure in cell.invariant_failures
            ), f"{cell.name}: session-start invariant failed to fire"

    def test_summary_mentions_each_cell(self, real_equivalence):
        text = real_equivalence.summary()
        assert "E3/" in text and "E2/" in text
        assert "PASS" in text or "FAIL" in text

    def test_compare_cell_traces_by_default(self):
        cell = e3_cell()
        report = compare_cell(cell, seed=5, replications=6)
        assert len(report.scalar_slots) == 6
        assert len(report.vector_slots) == 6
        assert report.ks.n1 == 6


class TestSparseReception:
    """The CSR scatter kernel on the vector-check cells."""

    @pytest.mark.parametrize("cell", [e3_cell(), e2_cell()], ids=lambda c: c.name)
    def test_resolve_bitwise_equal_on_check_cells(self, cell):
        # Every vector-check cell, every transmit density from silence to
        # all-transmit: exact equality with direct enumeration.
        radio = LockstepRadio(cell.graph, cell.tree, 8)
        rng = np.random.default_rng(11)
        for density in (0.0, 0.05, 0.3, 1.0):
            tx = rng.random((8, radio.n)) < density
            _assert_resolves_like_brute_force(radio, tx, density)

    @pytest.mark.parametrize("cell", [e3_cell(), e2_cell()], ids=lambda c: c.name)
    def test_full_trajectories_identical_across_kernels(self, cell):
        # Same seeds, traced (which steps every slot) or not (which
        # sleeps through silent phase tails): whole runs must agree.
        seeds = [101, 102, 103, 104]
        untraced, traced = (
            run_collection_batch(
                cell.graph, cell.tree, cell.sources, seeds, trace=trace
            ).simulation
            for trace in (False, True)
        )
        assert _snapshot(traced) == _snapshot(untraced)

    def test_sparse_radio_builds_dense_adjacency_lazily(self):
        cell = e2_cell()
        radio = LockstepRadio(cell.graph, cell.tree, 2)
        assert radio._adjacency is None
        adjacency = radio.adjacency  # trace/invariant path still works
        assert adjacency[radio.index[0], radio.index[1]]
        assert np.array_equal(adjacency, adjacency.T)


class TestSparseEdgeCases:
    """Degenerate slot shapes the CSR scatter must resolve exactly."""

    def _resolve(self, graph, tx):
        tree = reference_bfs_tree(graph, 0)
        return _assert_resolves_like_brute_force(
            LockstepRadio(graph, tree, tx.shape[0]), tx
        )

    def test_zero_transmitter_slot(self):
        graph = grid(4, 4)
        tx = np.zeros((3, 16), dtype=bool)
        counts, _senders, unique = self._resolve(graph, tx)
        assert not counts.any()
        assert not unique.any()

    def test_isolated_stations_hear_nothing(self):
        # Leaves of a star are mutually isolated: when only leaves
        # transmit, the silent hub hears a collision and every leaf
        # hears nothing at all.
        graph = star(9)
        tree = reference_bfs_tree(graph, 0)
        radio = LockstepRadio(graph, tree, 1)
        tx = np.ones((1, 9), dtype=bool)
        tx[0, radio.index[0]] = False  # hub (root) stays silent
        counts, _senders, unique = self._resolve(graph, tx)
        hub = radio.index[0]
        assert counts[0, hub] == 8
        assert not unique[0, hub]
        leaves = [i for i in range(9) if i != hub]
        assert not counts[0, leaves].any()

    def test_max_degree_hub_broadcast(self):
        # The hub alone transmits: all 63 leaves hear it uniquely — the
        # widest single-sender scatter a star can produce.
        graph = star(64)
        tree = reference_bfs_tree(graph, 0)
        radio = LockstepRadio(graph, tree, 2)
        tx = np.zeros((2, 64), dtype=bool)
        tx[:, radio.index[0]] = True
        counts, senders, unique = self._resolve(graph, tx)
        hub = radio.index[0]
        leaves = [i for i in range(64) if i != hub]
        assert unique[:, leaves].all()
        assert (senders[:, leaves] == hub).all()
        assert counts[:, hub].sum() == 0  # nobody talks back

    def test_edge_case_trajectories_span_backends(self):
        # Whole protocol runs on a star (max-degree hub) and a path
        # (every station near-isolated), one source each, so both drain
        # deterministically: the batch must land on the scalar engine's
        # completion slot and deliver in FIFO order.
        for graph in (star(12), path(12)):
            tree = reference_bfs_tree(graph, 0)
            deepest = max(tree.nodes, key=lambda v: (tree.level[v], v))
            sources = {deepest: ["a", "b", "c"]}
            seeds = [7, 8, 9]
            scalar = run_collection(graph, tree, sources, seed=7).slots
            batch = run_collection_batch(graph, tree, sources, seeds)
            assert list(batch.completion_slots) == [scalar] * 3
            assert batch.simulation.delivered_ids() == [[0, 1, 2]] * 3


class TestActiveSetMask:
    """The idle-aware lockstep loop: awake pairs only, same physics."""

    @pytest.mark.parametrize("cell", [e3_cell(), e2_cell()], ids=lambda c: c.name)
    def test_masked_run_keeps_exact_invariants(self, cell):
        seeds = [31, 32, 33, 34]
        batch = run_collection_batch(
            cell.graph, cell.tree, cell.sources, seeds, trace=True
        )
        assert check_invariants(batch) == []
        assert (batch.completion_slots >= 0).all()
        expected = list(range(batch.simulation.total_messages))
        for b in range(len(seeds)):
            assert sorted(batch.simulation.delivered_ids()[b]) == expected

    def test_masked_purity_under_batch_composition(self):
        # The sharding contract: each replication's coin stream is a
        # pure function of its own seed, so any partition of the seed
        # list produces bit-identical trajectories.
        cell = e3_cell()
        seeds = [51, 52, 53, 54]
        whole = run_collection_batch(
            cell.graph, cell.tree, cell.sources, seeds
        )
        parts = [
            run_collection_batch(cell.graph, cell.tree, cell.sources, chunk)
            for chunk in (seeds[:1], seeds[1:3], seeds[3:])
        ]
        stitched = np.concatenate([p.completion_slots for p in parts])
        assert np.array_equal(whole.completion_slots, stitched)

    def test_occupancy_reported(self):
        cell = e3_cell()
        sim = run_collection_batch(
            cell.graph, cell.tree, cell.sources, [61, 62]
        ).simulation
        assert 0.0 < sim.awake_occupancy <= 1.0
        assert sim.mask_stats["data_slots"] > 0

    def test_broken_decay_caught_under_mask(self, broken_equivalence):
        # The negative control must have teeth on the active-set loop.
        for cell in broken_equivalence.cells:
            assert not cell.passed(), cell.name

    # The masked loop steps live Decay sessions only and sleeps through
    # silent phase tails; the tests below pin that it still computes
    # exactly the trajectory of stepping every listed pair on every slot.

    def test_golden_masked_trajectory(self):
        # Recorded before the live-only loop and the sleep existed, from
        # the loop that drew a coin for, and stepped, every listed pair.
        graph, tree, sources = _golden_cell()
        sim = run_collection_batch(
            graph, tree, sources, GOLDEN_SEEDS
        ).simulation
        assert _trajectory_digest(sim) == (
            "93b405890cec1b7e77418d0b1bf39ea96a2b1873aa931b9a6015a34fadf95261"
        )

    @pytest.mark.parametrize("cell", [e2_cell(), e3_cell()], ids=lambda c: c.name)
    def test_golden_check_cell_trajectories(self, cell):
        # The small cells E2, E3 and vector-check run, at every level
        # class count 1-4; recorded from the active-set loop.
        digests = GOLDEN_CHECK_CELLS[cell.name]
        for classes, digest in enumerate(digests, start=1):
            sim = run_collection_batch(
                cell.graph, cell.tree, cell.sources, GOLDEN_SEEDS,
                level_classes=classes,
            ).simulation
            assert _trajectory_digest(sim) == digest, classes

    def test_sleep_matches_stepping(self):
        from repro.profiling import profiled
        from repro.vector.collection import BatchCollection

        graph, tree, sources = _golden_cell()
        runs = {}
        for mode in ("sleep", "step", "trace"):
            with profiled() as profile:
                sim = BatchCollection(
                    graph, tree, sources, GOLDEN_SEEDS,
                    trace=mode == "trace",
                )
                if mode == "step":
                    while not sim.done.all():
                        sim.step()
                else:
                    sim.run_until_done()
            runs[mode] = (sim, profile)
        sleeper, sleep_profile = runs["sleep"]
        for mode in ("step", "trace"):
            sim, profile = runs[mode]
            assert _snapshot(sim) == _snapshot(sleeper), mode
            for counter in (
                "vector_slots", "vector_awake_pairs", "vector_live_pairs",
            ):
                assert (
                    profile.counters[counter]
                    == sleep_profile.counters[counter]
                ), (mode, counter)
            # Every data slot stepped runs the Decay section once.
            assert (
                profile.samples["vector/decay"]
                == sim.mask_stats["data_slots"]
            )
        # ...and the untraced run really did sleep through most of them.
        assert (
            sleep_profile.samples["vector/decay"]
            < sleeper.mask_stats["data_slots"] // 2
        )
        assert 0 < sleeper.live_occupancy < sleeper.awake_occupancy

    @pytest.mark.parametrize("cell", ["golden", "e3"])
    def test_coin_refill_block_of_one(self, cell, monkeypatch):
        # A one-coin block makes the cursor buffer exactly n wide, so
        # refills (and sleeps that skip past the buffer end) happen all
        # the time; the coin streams, and so the results, must not move.
        from repro.vector import collection

        if cell == "golden":
            graph, tree, sources = _golden_cell()
        else:
            spec = e3_cell()
            graph, tree, sources = spec.graph, spec.tree, spec.sources
        seeds = [71, 72, 73]

        def run():
            return run_collection_batch(
                graph, tree, sources, seeds
            ).simulation

        default = _snapshot(run())
        monkeypatch.setattr(collection, "PAIR_COIN_BLOCK", 1)
        assert _snapshot(run()) == default

    def test_timeout_inside_silent_tail(self):
        from repro.profiling import profiled
        from repro.vector.collection import BatchCollection

        # One message at the end of a path whose station 1 has two more
        # leaves (Δ = 3, Decay budget 4): phase 0's only session is acked
        # at slot 5 (class 2, step 0), so slots 6..23 are silent.
        graph = Graph.from_edges(
            [(v, v + 1) for v in range(5)] + [(1, 6), (1, 7)]
        )
        tree = reference_bfs_tree(graph, 0)
        sources = {5: ["m0"]}
        with profiled() as profile:
            sleeper = BatchCollection(graph, tree, sources, [1, 2])
            assert sleeper.phase_length == 24
            sleeper.advance(15)
        assert sleeper.slot == 15
        assert not sleeper.done.any()
        # One pass resolves round 0 (slots 0-5), then the loop sleeps.
        assert profile.samples["vector/decay"] == 1
        stepper = BatchCollection(graph, tree, sources, [1, 2])
        for _ in range(15):
            stepper.step()
        assert _snapshot(sleeper) == _snapshot(stepper)
        assert profile.counters["vector_slots"] == 15

    def test_dead_class_still_owns_its_coins(self, monkeypatch):
        # The pitfall of dropping dead pairs: a class whose listed pairs
        # have all died must still consume one coin per listed pair at
        # each of its data slots, or every later coin of its replication
        # shifts.  Count each replication's consumed coins against the
        # listed pairs of every data slot, on a cell where such classes
        # occur while other classes stay live.
        drawn = _counting_cursor(monkeypatch, len(GOLDEN_SEEDS))
        graph, tree, sources = _golden_cell()
        sim = BatchCollection(graph, tree, sources, GOLDEN_SEEDS)
        listed = np.zeros(len(GOLDEN_SEEDS), dtype=np.int64)
        dead_class_slots = 0
        while not sim.done.all():
            if sim.slot % sim.phase_length == 0:
                sim.step()  # lists the phase's pairs, then steps slot 0
                listed += sim._pairs.counts[0]
                continue
            info = sim.slots.decode(sim.slot)
            if info.kind is SlotKind.DATA:
                pairs, c = sim._pairs, info.level_class
                listed += pairs.counts[c]
                live = np.diff(pairs.bounds)
                others_live = live.sum() > live[c]
                if pairs.listed[c] and not live[c] and others_live:
                    dead_class_slots += 1
            sim.step()
        assert dead_class_slots > 0
        assert _coins_consumed(sim, drawn) == listed.tolist()
        assert int(listed.sum()) == sim.mask_stats["active_pairs"]


class TestRounds:
    """A pass resolves a whole round, every class's data and ack slot;
    it must compute exactly the trajectory of one slot per pass."""

    COUNTERS = ("vector_slots", "vector_awake_pairs", "vector_live_pairs")

    @pytest.mark.parametrize("cell", ["golden", "e2", "e3"])
    @pytest.mark.parametrize("classes", [1, 2, 3, 4])
    def test_rounds_match_single_steps(self, cell, classes, monkeypatch):
        from repro.profiling import profiled

        graph, tree, sources = _cell_by_name(cell)
        runs = {}
        for mode in ("rounds", "steps"):
            drawn = _counting_cursor(monkeypatch, len(GOLDEN_SEEDS))
            with profiled() as profile:
                sim = BatchCollection(
                    graph, tree, sources, GOLDEN_SEEDS,
                    level_classes=classes,
                )
                if mode == "rounds":
                    sim.run_until_done()
                else:
                    while not sim.done.all():
                        sim.step()
            runs[mode] = (
                _snapshot(sim),
                [profile.counters[name] for name in self.COUNTERS],
                _coins_consumed(sim, drawn),
            )
        assert runs["rounds"] == runs["steps"]

    def test_advance_to_every_slot_of_two_phases(self):
        # Every ``until`` in phases 0 and 1: the odd ones end a pass
        # between a class's data slot and its ack slot, whose acks the
        # next pass must resolve.
        cell = e3_cell()
        seeds = GOLDEN_SEEDS[:2]

        def build():
            return BatchCollection(cell.graph, cell.tree, cell.sources, seeds)

        for until in range(1, 2 * build().phase_length + 1):
            jumper, stepper = build(), build()
            jumper.advance(until)
            for _ in range(until):
                stepper.step()
            assert jumper.slot == stepper.slot == until
            for sim in (jumper, stepper):
                assert not sim.done.any()
            assert _snapshot(jumper) == _snapshot(stepper), until
            for b in range(len(seeds)):
                assert _queues(jumper, b) == _queues(stepper, b), until
            jumper.run_until_done()
            stepper.run_until_done()
            assert _snapshot(jumper) == _snapshot(stepper), until

    @pytest.mark.parametrize("classes", [3, 4])
    def test_pass_ends_where_the_batch_drains(self, classes):
        # The root class (level 1's) is class 1, so a replication drains
        # one slot after round offset 3, before the data slots of the
        # classes after it.  The pass that drains the last replication
        # ends there: the later data slots are not run or counted.
        from repro.profiling import profiled

        cell = e3_cell()
        seeds = [81, 82, 83, 84, 85]
        runs = {}
        for mode in ("rounds", "steps"):
            with profiled() as profile:
                sim = BatchCollection(
                    cell.graph, cell.tree, cell.sources, seeds,
                    level_classes=classes,
                )
                if mode == "rounds":
                    sim.run_until_done()
                else:
                    while not sim.done.all():
                        sim.step()
            runs[mode] = (
                sim.slot,
                sim.completion_slots.tolist(),
                dict(sim.mask_stats),
                profile.counters["vector_slots"],
            )
        assert runs["rounds"] == runs["steps"]
        slot = runs["rounds"][0]
        assert slot == max(runs["rounds"][1])
        assert slot % sim.slots.round_width == 4

    @pytest.mark.parametrize("classes", [2, 3, 4])
    @pytest.mark.parametrize("queued", [1, 2])
    def test_forward_and_receive_in_one_round(self, classes, queued):
        # On a path, station x (level max(2, C-1)) forwards its head to
        # its parent (not the root) and hears its child's message in the
        # same round.  With C >= 3 x's class is C-1 and its child's is 0,
        # so in slot order the push comes first; the pass pops first.
        x = max(2, classes - 1)
        graph = path(x + 2)
        tree = reference_bfs_tree(graph, 0)
        sources = {x: [f"b{i}" for i in range(queued)], x + 1: ["a"]}

        def build():
            return BatchCollection(
                graph, tree, sources, [5, 6], level_classes=classes
            )

        jumper, stepper = build(), build()
        round_width = jumper.slots.round_width
        jumper.advance(round_width)
        for _ in range(round_width):
            stepper.step()
        child_gid = queued  # x's messages come first: ids 0..queued-1
        for b in range(2):
            queues = _queues(jumper, b)
            assert queues == _queues(stepper, b)
            # Both moves happened in this round.
            assert queues[x - 1] == [0]
            assert queues[x] == list(range(1, queued)) + [child_gid]
        assert _snapshot(jumper) == _snapshot(stepper)


class TestE2BatchDriver:
    """``runner.defs.advance_rate_metrics_batch``: Theorem 4.1's
    per-phase advance rate, all seeds of a cell in one batch."""

    #: Per config, each seed's (phases, advancing phases), recorded from
    #: the driver that stepped every slot of every phase.
    RECORDED = {
        (1, 2, 3): [(8, 6), (7, 6), (9, 6), (9, 6)],
        (1, 6, 3): [(28, 18), (26, 18), (28, 18), (24, 18)],
        (2, 8, 2): [(19, 16), (20, 16), (17, 16), (20, 16)],
        (3, 12, 2): [(38, 24), (37, 24), (36, 24), (32, 24)],
        (2, 24, 1): [(37, 24), (33, 24), (29, 24), (36, 24)],
    }
    SEEDS = [101, 102, 103, 104]

    def test_configs_match_recorded_outputs(self):
        from repro.runner.defs import (
            E2_CONFIGS,
            advance_rate_metrics_batch,
            contention_graph,
        )

        assert set(self.RECORDED) == set(E2_CONFIGS)
        for config in E2_CONFIGS:
            delta = contention_graph(*config[:2]).max_degree()
            expected = [
                {
                    "advance_rate": successes / phases,
                    "phases": phases,
                    "delta": delta,
                }
                for phases, successes in self.RECORDED[config]
            ]
            assert advance_rate_metrics_batch(*config, self.SEEDS) == expected

    def test_sleeps_through_silent_tails(self, monkeypatch):
        from repro.profiling import profiled
        from repro.runner import defs

        built = []

        class Recorded(BatchCollection):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(defs, "BatchCollection", Recorded)
        for config in defs.E2_CONFIGS:
            with profiled() as profile:
                defs.advance_rate_metrics_batch(*config, self.SEEDS)
            sim = built.pop()
            assert (
                profile.samples["vector/decay"]
                < sim.mask_stats["data_slots"]
            ), config
