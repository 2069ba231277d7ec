"""Tests for the open-system service mode (repro.service).

Covers the streaming estimators against exact references, the
backlog-drift stability test on synthetic queues, the service loop's
constant-memory contract and oracle agreement, and E19/E20 determinism
under runner sharding.
"""

import math
import random
import tracemalloc

import pytest

from repro.analysis.stats import quantile
from repro.errors import ConfigurationError
from repro.graphs import layered_band, path, reference_bfs_tree
from repro.rng import derive_seed
from repro.runner import run_experiment
from repro.runner.defs import service_metrics, service_sources, sweep_metrics
from repro.service import (
    BacklogDriftDetector,
    P2Quantile,
    RateWindow,
    Welford,
    compare_with_oracle,
    measure_capacity,
    run_service,
    saturation_sweep,
    sweep_rates,
)
from repro.workloads import BernoulliArrivals, PoissonArrivals


# ----------------------------------------------------------------------
# Streaming estimators vs exact references
# ----------------------------------------------------------------------

class TestWelford:
    def test_matches_numpy_on_long_stream(self):
        numpy = pytest.importorskip("numpy")
        rng = random.Random(1)
        data = [rng.gauss(5.0, 2.5) for _ in range(20_000)]
        w = Welford()
        for x in data:
            w.add(x)
        assert w.count == len(data)
        assert w.mean == pytest.approx(float(numpy.mean(data)), rel=1e-9)
        assert w.variance == pytest.approx(
            float(numpy.var(data, ddof=1)), rel=1e-9
        )
        assert w.stddev == pytest.approx(
            float(numpy.std(data, ddof=1)), rel=1e-9
        )

    def test_empty_and_single(self):
        w = Welford()
        assert w.count == 0 and w.variance == 0.0
        w.add(3.0)
        assert w.mean == 3.0
        assert w.variance == 0.0

    def test_is_constant_size(self):
        w = Welford()
        for i in range(10_000):
            w.add(float(i))
        assert not hasattr(w, "__dict__")  # __slots__: no per-sample state


class TestP2Quantile:
    @pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
    def test_tracks_exact_quantile_uniform(self, p):
        rng = random.Random(7)
        data = [rng.random() for _ in range(50_000)]
        sketch = P2Quantile(p)
        for x in data:
            sketch.add(x)
        exact = quantile(data, p)
        assert sketch.value == pytest.approx(exact, abs=0.02)

    def test_tracks_exact_quantile_exponential(self):
        rng = random.Random(8)
        data = [rng.expovariate(0.5) for _ in range(50_000)]
        sketch = P2Quantile(0.9)
        for x in data:
            sketch.add(x)
        exact = quantile(data, 0.9)
        # Heavier tail: relative tolerance on a larger magnitude.
        assert sketch.value == pytest.approx(exact, rel=0.05)

    def test_small_samples_are_exact(self):
        sketch = P2Quantile(0.5)
        for x in (9.0, 1.0, 5.0):
            sketch.add(x)
        assert sketch.value == quantile([9.0, 1.0, 5.0], 0.5)

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value)

    def test_validates_p(self):
        with pytest.raises(ConfigurationError):
            P2Quantile(0.0)
        with pytest.raises(ConfigurationError):
            P2Quantile(1.0)


class TestRateWindow:
    def test_windowed_mean_rate(self):
        w = RateWindow(10)
        for slot in (0, 3, 7, 12, 25):
            w.record(slot)
        w.finish(30)
        # 3 windows: [0,10)=3 events, [10,20)=1, [20,30)=1.
        assert w.windows == 3
        assert w.mean_rate == pytest.approx(5 / 30)
        assert w.max_rate == pytest.approx(0.3)
        assert w.min_rate == pytest.approx(0.1)

    def test_leading_empty_windows_counted(self):
        w = RateWindow(5)
        w.record(12)
        w.finish(15)
        # Windows [0,5) and [5,10) saw nothing but still count.
        assert w.windows == 3
        assert w.mean_rate == pytest.approx(1 / 15)
        assert w.min_rate == 0.0


# ----------------------------------------------------------------------
# Backlog-drift stability detection on synthetic queues
# ----------------------------------------------------------------------

class TestBacklogDrift:
    def test_stable_bounded_noise(self):
        rng = random.Random(3)
        det = BacklogDriftDetector(0, 10_000)
        for slot in range(0, 10_000, 10):
            det.observe(slot, max(0, int(rng.gauss(5.0, 2.0))))
        verdict = det.verdict()
        assert verdict.stable
        assert abs(verdict.tail_mean - verdict.head_mean) < 2.0

    def test_unstable_linear_growth(self):
        det = BacklogDriftDetector(0, 10_000)
        for slot in range(0, 10_000, 10):
            det.observe(slot, 1 + slot // 200)  # drifts up ~50 over the run
        verdict = det.verdict()
        assert not verdict.stable
        assert verdict.tail_mean > verdict.head_mean

    def test_stable_high_but_flat_queue(self):
        """A loaded-but-stationary queue (high mean, no drift) is stable."""
        rng = random.Random(4)
        det = BacklogDriftDetector(0, 10_000)
        for slot in range(0, 10_000, 10):
            det.observe(slot, max(0, int(rng.gauss(40.0, 6.0))))
        assert det.verdict().stable

    def test_transient_spike_does_not_flag(self):
        """A mid-run burst that drains again is not instability."""
        det = BacklogDriftDetector(0, 10_000)
        for slot in range(0, 10_000, 10):
            spike = 30 if 4_000 <= slot < 5_000 else 2
            det.observe(slot, spike)
        assert det.verdict().stable


# ----------------------------------------------------------------------
# The service loop: KPIs, oracle agreement, constant memory
# ----------------------------------------------------------------------

def _path_service(phases, rate=0.3, seed=7, **kwargs):
    graph = path(12)
    tree = reference_bfs_tree(graph, 0)
    from repro.core.slots import SlotStructure, decay_budget

    phase_length = SlotStructure(
        decay_budget(graph.max_degree()), 3, True
    ).phase_length
    arrivals = BernoulliArrivals(
        [11], rate, phase_length, seed=derive_seed(seed, "arrivals")
    )
    return graph, tree, run_service(
        graph, tree, arrivals, seed=seed,
        horizon_slots=phases * phase_length, **kwargs
    )


class TestServiceLoop:
    def test_kpis_track_tandem_oracle_on_path(self):
        """Single-source path at λ=0.3: sojourn and queue within the
        documented 35% tolerance of the Geo/Geo/1 tandem closed forms."""
        graph, tree, kpis = _path_service(1200)
        capacity = measure_capacity(graph, tree, [11], seed=7, phases=200)
        oracle = compare_with_oracle(kpis, capacity)
        assert kpis.stable
        assert 0.65 <= oracle.sojourn_ratio <= 1.35
        assert 0.65 <= oracle.queue_ratio <= 1.35

    def test_poisson_and_bernoulli_agree_at_same_load(self):
        graph = path(10)
        tree = reference_bfs_tree(graph, 0)
        from repro.core.slots import SlotStructure, decay_budget

        phase_length = SlotStructure(
            decay_budget(graph.max_degree()), 3, True
        ).phase_length
        kpis = {}
        for name, arrivals in (
            ("bernoulli", BernoulliArrivals([9], 0.3, phase_length, seed=5)),
            (
                "poisson",
                PoissonArrivals.per_phase_rate([9], 0.3, phase_length, seed=5),
            ),
        ):
            kpis[name] = run_service(
                graph, tree, arrivals, seed=9,
                horizon_slots=900 * phase_length,
            )
        assert kpis["bernoulli"].stable and kpis["poisson"].stable
        assert kpis["bernoulli"].sojourn_phases == pytest.approx(
            kpis["poisson"].sojourn_phases, rel=0.25
        )

    def test_in_flight_tracks_backlog_not_horizon(self):
        _, _, short = _path_service(300)
        _, _, long = _path_service(1500)
        assert long.submitted > 3 * short.submitted
        # The only per-message state is the in-flight map, and its peak
        # does not grow with the horizon in the stable regime.
        assert long.in_flight_peak <= 2 * short.in_flight_peak + 4

    def test_constant_memory_over_horizon(self):
        """Peak allocations are flat in the horizon (the acceptance
        criterion): tripling the horizon adds only noise-level memory."""

        def peak(phases):
            tracemalloc.start()
            try:
                _path_service(phases)
                _, peak_bytes = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak_bytes

        peak(100)  # warm caches so neither measurement pays import costs
        small = peak(300)
        large = peak(900)
        assert large < 1.3 * small

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _path_service(0)
        with pytest.raises(ConfigurationError):
            _path_service(10, warmup_fraction=1.0)

    def test_backlog_samples_equal_the_lane_sum(self, monkeypatch):
        """The running total the lanes keep reads, at every per-phase
        sample and at the end, what summing the non-root lanes reads."""
        import repro.service.loop as loop

        built = {}
        build = loop.build_collection_network

        def capture(graph, tree, *args, **kwargs):
            built["root"] = tree.root
            built["network"] = build(graph, tree, *args, **kwargs)
            return built["network"]

        def lane_sum():
            _, processes, _ = built["network"]
            return sum(
                len(process.lane.buffer)
                for node, process in processes.items()
                if node != built["root"]
            )

        samples = []
        observe = BacklogDriftDetector.observe

        def checked_observe(self, slot, backlog):
            samples.append((backlog, lane_sum()))
            observe(self, slot, backlog)

        monkeypatch.setattr(loop, "build_collection_network", capture)
        monkeypatch.setattr(BacklogDriftDetector, "observe", checked_observe)
        _, _, kpis = _path_service(600)
        assert len(samples) == 600
        assert all(total == summed for total, summed in samples)
        assert max(total for total, _ in samples) > 1
        assert kpis.final_backlog == lane_sum()

    def test_delivery_conservation(self):
        _, _, kpis = _path_service(800)
        assert kpis.delivered <= kpis.submitted
        assert kpis.delivered + kpis.final_backlog >= kpis.submitted - 1
        assert kpis.measured_delivered <= kpis.delivered


# ----------------------------------------------------------------------
# Saturation sweeps
# ----------------------------------------------------------------------

class TestSaturationSweep:
    def test_knee_brackets_analytic_critical_rate(self):
        graph = layered_band(4, 3)
        tree = reference_bfs_tree(graph, 0)
        sources = [n for n in tree.nodes if tree.level[n] == tree.depth]
        result = saturation_sweep(
            graph, tree, sources, seed=7, points=5,
            phases_per_point=400, capacity_phases=200,
        )
        assert result.knee_found
        assert result.knee_low < result.knee_high
        assert result.knee_brackets_critical()
        # Below the knee the measured points are stable, above unstable.
        stables = [p.stable for p in result.points]
        assert stables == sorted(stables, reverse=True)

    def test_sweep_rates_span_and_clamp(self):
        rates = sweep_rates(0.8, 5)
        assert rates[0] == pytest.approx(0.32)
        assert rates[-1] == 1.0  # 1.28 clamped to the Bernoulli maximum
        assert rates == sorted(rates)
        with pytest.raises(ConfigurationError):
            sweep_rates(0.5, 1)

    def test_empty_sources_rejected(self):
        graph = path(4)
        tree = reference_bfs_tree(graph, 0)
        with pytest.raises(ConfigurationError):
            saturation_sweep(graph, tree, [], seed=0)


# ----------------------------------------------------------------------
# E19/E20 runner integration
# ----------------------------------------------------------------------

class TestServiceExperiments:
    def test_service_sources_modes(self):
        _, tree, tail = service_sources("band-4x3", "tail", 7)
        assert len(tail) == 1 and tree.level[tail[0]] == tree.depth
        _, tree, bottom = service_sources("band-4x3", "bottom", 7)
        assert len(bottom) == 3
        _, tree, everyone = service_sources("band-4x3", "all", 7)
        assert len(everyone) == len(tree.nodes) - 1
        with pytest.raises(ConfigurationError):
            service_sources("band-4x3", "nowhere", 7)

    def test_e19_task_metrics_are_flat_scalars(self):
        metrics = service_metrics("path-8", "tail", "bernoulli", 0.25, 200, 7)
        assert metrics["stable"] is True
        assert metrics["sojourn_p90_phases"] >= metrics["sojourn_p50_phases"]
        for value in metrics.values():
            assert isinstance(value, (int, float, bool))

    def test_e20_task_detects_knee(self):
        metrics = sweep_metrics("band-4x3", "bottom", 3, 220, 7)
        assert metrics["knee_found"]
        assert metrics["knee_brackets_critical"]

    def test_e19_sharded_summaries_bit_identical(self):
        summaries = {}
        for workers in (0, 2):
            report = run_experiment(
                "E19", seed=11, replications=2, workers=workers, quick=True,
            )
            summaries[workers] = report.summary_table()
            assert report.executed == len(report.outcomes)
        assert summaries[0] == summaries[2]

    def test_e20_sharded_summaries_bit_identical(self):
        summaries = {}
        for workers in (0, 2):
            report = run_experiment(
                "E20", seed=5, replications=2, workers=workers, quick=True,
            )
            summaries[workers] = report.summary_table()
        assert summaries[0] == summaries[2]
