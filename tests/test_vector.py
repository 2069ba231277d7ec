"""Tests for the vector engine (repro.vector).

Three layers: the batched primitives (reception product, Decay) against
brute-force/scalar references; the batched collection protocol's exact
guarantees (conservation, ack parity, purity under batch composition);
and the equivalence harness itself — including the mandated negative
control, a deliberately broken Decay that must fail both the invariant
checks and the KS test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import ks_2sample
from repro.core import run_collection
from repro.errors import ConfigurationError, SimulationTimeout
from repro.graphs import (
    Graph,
    grid,
    layered_band,
    path,
    reference_bfs_tree,
    star,
)
from repro.vector import (
    ENGINES,
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
            counts, senders, unique = radio.resolve(tx)
            for b in range(8):
                for vi, v in enumerate(radio.nodes):
                    transmitting_neighbors = [
                        u for u in graph.neighbors(v)
                        if tx[b, radio.index[u]]
                    ]
                    assert counts[b, vi] == len(transmitting_neighbors)
                    expected_unique = (
                        len(transmitting_neighbors) == 1 and not tx[b, vi]
                    )
                    assert unique[b, vi] == expected_unique
                    if expected_unique:
                        assert senders[b, vi] == radio.index[
                            transmitting_neighbors[0]
                        ]

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


class TestBatchDecay:
    def test_first_transmission_unconditional(self):
        decay = BatchDecay(budget=4, shape=(2, 3))
        decay.start(np.ones((2, 3), dtype=bool))
        # All coins kill immediately — but the first step still transmits.
        tx = decay.transmit(np.zeros((2, 3), dtype=np.float32))
        assert tx.all()
        # Everyone flipped 0 after transmitting: all sessions dead.
        tx = decay.transmit(np.ones((2, 3), dtype=np.float32))
        assert not tx.any()

    def test_budget_caps_transmissions(self):
        decay = BatchDecay(budget=3, shape=(1, 1))
        decay.start(np.ones((1, 1), dtype=bool))
        lucky = np.ones((1, 1), dtype=np.float32)  # coin 1: never dies
        transmissions = sum(
            int(decay.transmit(lucky)[0, 0]) for _ in range(10)
        )
        assert transmissions == 3

    def test_opportunity_mask_freezes_other_sessions(self):
        decay = BatchDecay(budget=2, shape=(1, 2))
        decay.start(np.ones((1, 2), dtype=bool))
        only_first = np.array([True, False])
        lucky = np.ones((1, 2), dtype=np.float32)
        tx = decay.transmit(lucky, opportunity=only_first)
        assert tx[0, 0] and not tx[0, 1]
        # Station 1's session did not advance: it still has both steps.
        assert decay.steps[0, 1] == 0 and decay.alive[0, 1]

    def test_kill_silences(self):
        decay = BatchDecay(budget=8, shape=(1, 2))
        decay.start(np.ones((1, 2), dtype=bool))
        decay.kill(np.array([0]), np.array([1]))
        tx = decay.transmit(np.ones((1, 2), dtype=np.float32))
        assert tx[0, 0] and not tx[0, 1]

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

    def test_empty_workload_completes_at_slot_zero(self):
        graph = path(4)
        tree = reference_bfs_tree(graph, 0)
        result = run_collection_batch(graph, tree, {}, seeds=[1, 2])
        assert list(result.completion_slots) == [0, 0]

    def test_timeout_raises(self):
        graph = path(6)
        tree = reference_bfs_tree(graph, 0)
        sim_sources = {5: ["m0", "m1"]}
        with pytest.raises(SimulationTimeout):
            run_collection_batch(
                graph, tree, sim_sources, seeds=[1], max_slots=4
            )

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


class TestEquivalenceHarness:
    def test_harness_passes_on_real_engine(self):
        report = run_equivalence(seed=20260704, replications=24)
        assert report.passed, report.summary()
        for cell in report.cells:
            assert cell.invariant_failures == []
            assert not cell.ks.rejects(0.01)

    def test_broken_decay_fails_invariants_and_ks(self):
        # The mandated negative control: an off-by-one coin flip (flip
        # before the first transmission) must be caught BOTH ways.
        report = run_equivalence(
            seed=20260704,
            replications=24,
            decay_factory=BrokenOffByOneDecay,
        )
        assert not report.passed
        for cell in report.cells:
            assert cell.ks.rejects(0.01), (
                f"{cell.name}: KS failed to reject the broken engine"
            )
            assert any(
                "session-start" in failure
                for failure in cell.invariant_failures
            ), f"{cell.name}: session-start invariant failed to fire"

    def test_summary_mentions_each_cell(self):
        report = run_equivalence(seed=1, replications=8)
        text = report.summary()
        assert "E3/" in text and "E2/" in text
        assert "PASS" in text or "FAIL" in text

    def test_compare_cell_traces_by_default(self):
        cell = e3_cell()
        report = compare_cell(cell, seed=5, replications=6)
        assert len(report.scalar_slots) == 6
        assert len(report.vector_slots) == 6
        assert report.ks.n1 == 6


class TestSparseReception:
    """The CSR scatter kernel: bit-identical to the dense product."""

    def test_validate_reception(self):
        from repro.vector import RECEPTION_MODES, validate_reception

        assert RECEPTION_MODES == ("dense", "sparse", "auto")
        for mode in RECEPTION_MODES:
            assert validate_reception(mode) == mode
        with pytest.raises(ConfigurationError):
            validate_reception("csr")

    @pytest.mark.parametrize("cell", [e3_cell(), e2_cell()], ids=lambda c: c.name)
    def test_resolve_bitwise_equal_on_check_cells(self, cell):
        # Every vector-check cell, dense vs sparse, exact equality: the
        # acceptance criterion for the kernel swap.
        dense = LockstepRadio(cell.graph, cell.tree, 8, reception="dense")
        sparse = LockstepRadio(cell.graph, cell.tree, 8, reception="sparse")
        rng = np.random.default_rng(11)
        for density in (0.0, 0.05, 0.3, 1.0):
            tx = rng.random((8, dense.n)) < density
            d_counts, d_senders, d_unique = dense.resolve(tx)
            s_counts, s_senders, s_unique = sparse.resolve(tx)
            assert np.array_equal(d_counts, s_counts)
            assert np.array_equal(d_senders, s_senders)
            assert np.array_equal(d_unique, s_unique)
            assert d_counts.dtype == s_counts.dtype == np.float32

    @pytest.mark.parametrize("cell", [e3_cell(), e2_cell()], ids=lambda c: c.name)
    def test_full_trajectories_identical_across_kernels(self, cell):
        # Same seeds, only the kernel differs: whole runs must agree.
        seeds = [101, 102, 103, 104]
        results = {
            mode: run_collection_batch(
                cell.graph, cell.tree, cell.sources, seeds, reception=mode
            )
            for mode in ("dense", "sparse")
        }
        assert np.array_equal(
            results["dense"].completion_slots,
            results["sparse"].completion_slots,
        )
        assert (
            results["dense"].simulation.delivered_ids()
            == results["sparse"].simulation.delivered_ids()
        )

    def test_auto_heuristic(self):
        from repro.vector.engine import SPARSE_MAX_DENSITY, SPARSE_MIN_NODES

        # Small and dense -> dense kernel.
        band = e3_cell()
        small = LockstepRadio(band.graph, band.tree, 1, reception="auto")
        assert small.requested_reception == "auto"
        assert small.reception == "dense"
        # Sparse topology (path density well under the threshold) -> sparse.
        chain = path(64)
        chain_tree = reference_bfs_tree(chain, 0)
        assert (2 * chain.num_edges) / 64**2 <= SPARSE_MAX_DENSITY
        assert LockstepRadio(chain, chain_tree, 1).reception == "sparse"
        # Node-count override: big graphs go sparse regardless of density.
        assert SPARSE_MIN_NODES == 1024

    def test_sparse_radio_builds_dense_adjacency_lazily(self):
        cell = e2_cell()
        radio = LockstepRadio(cell.graph, cell.tree, 2, reception="sparse")
        assert radio._adjacency is None
        adjacency = radio.adjacency  # trace/invariant path still works
        assert adjacency[radio.index[0], radio.index[1]]
        assert np.array_equal(adjacency, adjacency.T)


class TestBackends:
    """The pluggable kernel layer: selection, fallback, identity."""

    def test_validate_backend(self):
        from repro.vector import BACKENDS, validate_backend

        assert BACKENDS == ("numpy", "numba", "auto")
        for name in BACKENDS:
            assert validate_backend(name) == name
        with pytest.raises(ConfigurationError):
            validate_backend("fortran")

    def test_available_backends_always_has_numpy(self):
        from repro.vector import available_backends

        names = available_backends()
        assert names[0] == "numpy"
        assert "cupy" not in names

    def test_cupy_backend_fails_validation(self, tmp_path):
        # There are no GPU kernels: "cupy" is an unknown backend like
        # any other, and every entry point names the valid ones.
        import json

        from repro.scenario import ValidationError, parse_scenario
        from repro.vector import resolve_backend, validate_backend

        for check in (validate_backend, resolve_backend):
            with pytest.raises(ConfigurationError) as err:
                check("cupy")
            assert "'numpy', 'numba', 'auto'" in str(err.value)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "scenario": {"name": "gpu"},
            "topology": {"name": "path-4"},
            "protocol": {"kind": "collection"},
            "arrivals": {"kind": "none", "messages": 2},
            "engine": {"kind": "vector", "backend": "cupy"},
        }))
        with pytest.raises(ValidationError) as err:
            parse_scenario(spec)
        assert err.value.path == "engine.backend"
        assert "'numpy', 'numba', 'auto'" in str(err.value)

    def test_numba_request_falls_back_silently(self):
        # Without numba installed the request resolves to the numpy
        # kernels (bit-identical, so the fallback is safe); with numba
        # installed it resolves to the JIT set.  Either way the
        # *requested* name is preserved for cache identity.
        from repro.vector import numba_available, resolve_backend

        backend = resolve_backend("numba")
        assert backend.requested == "numba"
        expected = "numba" if numba_available() else "numpy"
        assert backend.name == expected

    def test_radio_resolve_identical_across_backends(self):
        from repro.vector import available_backends

        cell = e3_cell()
        rng = np.random.default_rng(5)
        radios = {
            name: LockstepRadio(
                cell.graph, cell.tree, 6, reception="sparse", backend=name
            )
            for name in available_backends()
        }
        for density in (0.0, 0.1, 0.5):
            tx = rng.random((6, radios["numpy"].n)) < density
            reference = radios["numpy"].resolve(tx)
            for name, radio in radios.items():
                counts, senders, unique = radio.resolve(tx)
                assert np.array_equal(counts, reference[0]), name
                assert np.array_equal(senders, reference[1]), name
                assert np.array_equal(unique, reference[2]), name


class TestSparseEdgeCases:
    """Degenerate slot shapes every kernel pair must agree on exactly."""

    def _resolve_all(self, graph, tx):
        from repro.vector import available_backends

        tree = reference_bfs_tree(graph, 0)
        B = tx.shape[0]
        outputs = {
            "dense": LockstepRadio(
                graph, tree, B, reception="dense"
            ).resolve(tx)
        }
        for name in available_backends():
            outputs[f"sparse/{name}"] = LockstepRadio(
                graph, tree, B, reception="sparse", backend=name
            ).resolve(tx)
        reference = outputs["dense"]
        for label, (counts, senders, unique) in outputs.items():
            assert np.array_equal(counts, reference[0]), label
            assert np.array_equal(senders, reference[1]), label
            assert np.array_equal(unique, reference[2]), label
        return reference

    def test_zero_transmitter_slot(self):
        graph = grid(4, 4)
        tx = np.zeros((3, 16), dtype=bool)
        counts, _senders, unique = self._resolve_all(graph, tx)
        assert not counts.any()
        assert not unique.any()

    def test_isolated_stations_hear_nothing(self):
        # Leaves of a star are mutually isolated: when only leaves
        # transmit, the silent hub hears a collision and every leaf
        # hears nothing at all.
        graph = star(9)
        tree = reference_bfs_tree(graph, 0)
        radio = LockstepRadio(graph, tree, 1, reception="sparse")
        tx = np.ones((1, 9), dtype=bool)
        tx[0, radio.index[0]] = False  # hub (root) stays silent
        counts, _senders, unique = self._resolve_all(graph, tx)
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
        radio = LockstepRadio(graph, tree, 2, reception="sparse")
        tx = np.zeros((2, 64), dtype=bool)
        tx[:, radio.index[0]] = True
        counts, senders, unique = self._resolve_all(graph, tx)
        hub = radio.index[0]
        leaves = [i for i in range(64) if i != hub]
        assert unique[:, leaves].all()
        assert (senders[:, leaves] == hub).all()
        assert counts[:, hub].sum() == 0  # nobody talks back

    def test_edge_case_trajectories_span_backends(self):
        # Whole protocol runs on a star (max-degree hub) and a path
        # (every station near-isolated): dense vs sparse x backends,
        # bit-identical completion and delivery.
        from repro.vector import available_backends

        for graph in (star(12), path(12)):
            tree = reference_bfs_tree(graph, 0)
            deepest = max(tree.nodes, key=lambda v: (tree.level[v], v))
            sources = {deepest: ["a", "b", "c"]}
            seeds = [7, 8, 9]
            runs = {}
            runs["dense"] = run_collection_batch(
                graph, tree, sources, seeds, reception="dense"
            )
            for name in available_backends():
                runs[f"sparse/{name}"] = run_collection_batch(
                    graph, tree, sources, seeds,
                    reception="sparse", backend=name,
                )
            reference = runs["dense"]
            for label, batch in runs.items():
                assert np.array_equal(
                    batch.completion_slots, reference.completion_slots
                ), label
                assert (
                    batch.simulation.delivered_ids()
                    == reference.simulation.delivered_ids()
                ), label


class TestActiveSetMask:
    """The idle-aware lockstep loop: awake pairs only, same physics."""

    def test_validate_mask(self):
        from repro.vector import MASK_MODES, validate_mask

        assert MASK_MODES == ("on", "off", "auto")
        for mode in MASK_MODES:
            assert validate_mask(mode) == mode
        with pytest.raises(ConfigurationError):
            validate_mask("maybe")

    def test_auto_threshold(self):
        from repro.vector.collection import MASK_MIN_NODES, BatchCollection

        cell = e3_cell()
        assert MASK_MIN_NODES == 1024
        small = BatchCollection(
            cell.graph, cell.tree, cell.sources, [1, 2], mask="auto"
        )
        assert not small.masked  # e3 band is far below the threshold
        forced = BatchCollection(
            cell.graph, cell.tree, cell.sources, [1, 2], mask="on"
        )
        assert forced.masked

    @pytest.mark.parametrize("cell", [e3_cell(), e2_cell()], ids=lambda c: c.name)
    def test_masked_run_keeps_exact_invariants(self, cell):
        seeds = [31, 32, 33, 34]
        batch = run_collection_batch(
            cell.graph, cell.tree, cell.sources, seeds,
            mask="on", trace=True,
        )
        assert check_invariants(batch) == []
        assert (batch.completion_slots >= 0).all()
        expected = list(range(batch.simulation.total_messages))
        for b in range(len(seeds)):
            assert sorted(batch.simulation.delivered_ids()[b]) == expected

    def test_masked_backends_bit_identical(self):
        from repro.vector import available_backends

        cell = e3_cell()
        seeds = [41, 42, 43]
        runs = [
            run_collection_batch(
                cell.graph, cell.tree, cell.sources, seeds,
                mask="on", backend=name,
            )
            for name in available_backends()
        ]
        for other in runs[1:]:
            assert np.array_equal(
                runs[0].completion_slots, other.completion_slots
            )

    def test_masked_purity_under_batch_composition(self):
        # The sharding contract: each replication's coin stream is a
        # pure function of its own seed, so any partition of the seed
        # list produces bit-identical trajectories.
        cell = e3_cell()
        seeds = [51, 52, 53, 54]
        whole = run_collection_batch(
            cell.graph, cell.tree, cell.sources, seeds, mask="on"
        )
        parts = [
            run_collection_batch(
                cell.graph, cell.tree, cell.sources, chunk, mask="on"
            )
            for chunk in (seeds[:1], seeds[1:3], seeds[3:])
        ]
        stitched = np.concatenate([p.completion_slots for p in parts])
        assert np.array_equal(whole.completion_slots, stitched)

    def test_occupancy_reported(self):
        cell = e3_cell()
        sim = run_collection_batch(
            cell.graph, cell.tree, cell.sources, [61, 62], mask="on"
        ).simulation
        assert 0.0 < sim.awake_occupancy <= 1.0
        assert sim.mask_stats["data_slots"] > 0

    def test_broken_decay_caught_under_mask(self):
        # The negative control must still have teeth in masked mode.
        report = run_equivalence(
            replications=24,
            decay_factory=BrokenOffByOneDecay,
            cells=[e3_cell()],
            backends=["numpy"],
            masks=("on",),
        )
        assert not report.passed
