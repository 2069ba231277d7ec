"""Tests for arrival processes and the streaming collection driver."""

import random
import textwrap

import pytest

from repro.errors import ConfigurationError, SimulationTimeout
from repro.graphs import path, reference_bfs_tree, star
from repro.radio.process import QUIET_FOREVER
from repro.workloads import (
    BernoulliArrivals,
    BurstArrivals,
    DeterministicSchedule,
    PoissonArrivals,
    run_streaming_collection,
)
from repro.workloads.arrivals import BERNOULLI_LOOKAHEAD_PHASES


class TestArrivalProcesses:
    def test_deterministic_schedule(self):
        schedule = DeterministicSchedule(
            [(0, 3, "a"), (5, 2, "b"), (5, 3, "c")]
        )
        assert schedule.arrivals_at(0) == [(3, "a")]
        assert schedule.arrivals_at(5) == [(2, "b"), (3, "c")]
        assert schedule.arrivals_at(1) == []

    def test_deterministic_negative_slot(self):
        with pytest.raises(ConfigurationError):
            DeterministicSchedule([(-1, 0, "x")])

    def test_bernoulli_rate(self):
        arrivals = BernoulliArrivals(
            sources=range(10), rate=0.3, phase_length=4, seed=1
        )
        total = 0
        phases = 600
        for slot in range(4 * phases):
            batch = arrivals.arrivals_at(slot)
            if slot % 4 != 0:
                assert batch == []
            total += len(batch)
        # 10 sources × 600 phases × 0.3
        assert total == pytest.approx(1800, rel=0.1)

    def test_bernoulli_payloads_unique(self):
        arrivals = BernoulliArrivals(
            sources=range(5), rate=0.8, phase_length=1, seed=2
        )
        payloads = [
            payload
            for slot in range(50)
            for _source, payload in arrivals.arrivals_at(slot)
        ]
        assert len(payloads) == len(set(payloads))

    def test_bernoulli_validation(self):
        with pytest.raises(ConfigurationError):
            BernoulliArrivals([], 1.5, 1, seed=0)
        with pytest.raises(ConfigurationError):
            BernoulliArrivals([], 0.5, 0, seed=0)
        with pytest.raises(ConfigurationError):
            BernoulliArrivals([], 0.5, 1, seed=random.Random(0))

    def test_bernoulli_is_slot_indexed(self):
        """The batch at a slot is a pure function of (seed, slot): an
        idle-aware driver that skips slots sees identical arrivals."""
        dense = BernoulliArrivals(range(6), 0.5, phase_length=3, seed=9)
        sparse = BernoulliArrivals(range(6), 0.5, phase_length=3, seed=9)
        polled = [dense.arrivals_at(s) for s in range(60)]
        for slot in range(0, 60, 6):  # poll every other phase only
            assert sparse.arrivals_at(slot) == polled[slot]
        # And out-of-order / repeated polling changes nothing either.
        assert dense.arrivals_at(0) == polled[0]

    def test_poisson_rate_matches_calibration(self):
        arrivals = PoissonArrivals.per_phase_rate(
            sources=range(8), rate=0.25, phase_length=4, seed=3
        )
        total = sum(
            len(arrivals.arrivals_at(slot)) for slot in range(4 * 2000)
        )
        # 8 sources × 2000 phases × 0.25
        assert total == pytest.approx(4000, rel=0.1)

    def test_poisson_skipped_slots_lose_nothing(self):
        dense = PoissonArrivals(range(4), 7.5, seed=11)
        sparse = PoissonArrivals(range(4), 7.5, seed=11)
        everything = [
            pair for slot in range(400) for pair in dense.arrivals_at(slot)
        ]
        skipped = [
            pair
            for slot in range(9, 400, 10)  # poll 1 slot in 10
            for pair in sparse.arrivals_at(slot)
        ]
        # Same arrivals (late, but never lost), modulo in-gap ordering.
        assert sorted(map(repr, skipped)) == sorted(
            map(repr, everything)
        )

    def test_poisson_rejects_backwards_polls(self):
        arrivals = PoissonArrivals(range(2), 5.0, seed=0)
        arrivals.arrivals_at(10)
        with pytest.raises(ConfigurationError):
            arrivals.arrivals_at(9)

    def test_burst_pattern(self):
        arrivals = BurstArrivals(sources=[1, 2], period=10, bursts=2)
        assert len(arrivals.arrivals_at(0)) == 2
        assert arrivals.arrivals_at(5) == []
        assert len(arrivals.arrivals_at(10)) == 2
        assert arrivals.arrivals_at(20) == []  # bursts exhausted

    def test_burst_jitter_spreads_but_conserves(self):
        arrivals = BurstArrivals(
            sources=range(10), period=20, bursts=3, jitter=6, seed=4
        )
        per_burst = {}
        for slot in range(60):
            for source, payload in arrivals.arrivals_at(slot):
                burst = payload[1]
                assert burst * 20 <= slot <= burst * 20 + 6
                per_burst.setdefault(burst, []).append(source)
        assert {b: sorted(s) for b, s in per_burst.items()} == {
            b: list(range(10)) for b in range(3)
        }

    def test_burst_jitter_requires_seed(self):
        with pytest.raises(ConfigurationError):
            BurstArrivals(sources=[1], period=10, bursts=1, jitter=3)


ARRIVAL_PROCESSES = {
    "deterministic": lambda: DeterministicSchedule(
        [(3, 0, "a"), (3, 1, "b"), (17, 2, "c"), (90, 0, "d")]
    ),
    "bernoulli": lambda: BernoulliArrivals(
        range(4), 0.1, phase_length=5, seed=3
    ),
    "poisson": lambda: PoissonArrivals(range(3), 9.0, seed=4),
    "burst": lambda: BurstArrivals(range(4), period=12, bursts=4),
    "burst-jittered": lambda: BurstArrivals(
        range(4), period=12, bursts=4, jitter=5, seed=6
    ),
}


class TestNextArrivalSlot:
    @pytest.mark.parametrize("kind", sorted(ARRIVAL_PROCESSES))
    def test_next_arrival_slot_is_exact(self, kind):
        """``next_arrival_slot(s)`` is the first slot >= s with an
        arrival: every slot before it is empty.  Asked at every slot,
        interleaved with the polls, it leaves the batches unchanged."""
        horizon = 120
        arrivals = ARRIVAL_PROCESSES[kind]()
        nexts, batches = [], []
        for slot in range(horizon):
            nexts.append(arrivals.next_arrival_slot(slot))
            batches.append(arrivals.arrivals_at(slot))
        untouched = ARRIVAL_PROCESSES[kind]()
        assert batches == [untouched.arrivals_at(s) for s in range(horizon)]
        assert any(batches)
        for slot, upcoming in enumerate(nexts):
            assert upcoming >= slot
            assert not any(batches[slot:upcoming])
            if upcoming < horizon:
                assert batches[upcoming]
            else:
                assert not any(batches[slot:])

    def test_bernoulli_look_ahead_is_bounded(self):
        arrivals = BernoulliArrivals([0], 1e-12, phase_length=2, seed=0)
        upcoming = arrivals.next_arrival_slot(1)
        assert upcoming == 2 * (1 + BERNOULLI_LOOKAHEAD_PHASES)
        assert not any(arrivals.arrivals_at(s) for s in range(upcoming + 1))

    def test_no_arrival_ever(self):
        assert BernoulliArrivals([0], 0.0, 4, seed=1).next_arrival_slot(
            3
        ) == QUIET_FOREVER
        assert BurstArrivals([0], period=5, bursts=2).next_arrival_slot(
            6
        ) == QUIET_FOREVER
        assert DeterministicSchedule([(4, 0, "x")]).next_arrival_slot(
            5
        ) == QUIET_FOREVER
        assert PoissonArrivals([], 3.0, seed=2).next_arrival_slot(
            0
        ) == QUIET_FOREVER


class TestStreamingDriver:
    def test_all_arrivals_delivered_with_latencies(self):
        graph = path(6)
        tree = reference_bfs_tree(graph, 0)
        schedule = DeterministicSchedule(
            [(0, 5, "a"), (40, 3, "b"), (80, 5, "c")]
        )
        result = run_streaming_collection(
            graph, tree, schedule, seed=3, horizon_slots=100
        )
        assert result.submitted == 3
        assert result.delivered == 3
        assert result.delivery_ratio == 1.0
        for record in result.records:
            assert record.latency is not None and record.latency > 0

    def test_latency_measured_from_submission(self):
        graph = path(4)
        tree = reference_bfs_tree(graph, 0)
        schedule = DeterministicSchedule([(50, 3, "late")])
        result = run_streaming_collection(
            graph, tree, schedule, seed=1, horizon_slots=60
        )
        record = result.records[0]
        assert record.submitted_slot == 50
        assert record.delivered_slot > 50
        assert record.latency == record.delivered_slot - 50

    def test_root_submission_has_zero_latency(self):
        graph = path(3)
        tree = reference_bfs_tree(graph, 0)
        schedule = DeterministicSchedule([(7, 0, "self")])
        result = run_streaming_collection(
            graph, tree, schedule, seed=0, horizon_slots=10
        )
        assert result.records[0].latency == 0

    def test_no_drain_leaves_messages_in_flight(self):
        graph = path(10)
        tree = reference_bfs_tree(graph, 0)
        schedule = DeterministicSchedule([(0, 9, "x")])
        result = run_streaming_collection(
            graph, tree, schedule, seed=2, horizon_slots=5, drain=False
        )
        assert result.delivered == 0
        assert result.delivery_ratio == 0.0

    def test_drain_budget_timeout(self):
        graph = path(10)
        tree = reference_bfs_tree(graph, 0)
        schedule = DeterministicSchedule([(0, 9, "x")])
        with pytest.raises(SimulationTimeout):
            run_streaming_collection(
                graph,
                tree,
                schedule,
                seed=2,
                horizon_slots=1,
                drain=True,
                drain_budget=3,
            )

    def test_unknown_source_rejected(self):
        graph = path(3)
        tree = reference_bfs_tree(graph, 0)
        schedule = DeterministicSchedule([(0, 99, "x")])
        with pytest.raises(ConfigurationError):
            run_streaming_collection(
                graph, tree, schedule, seed=0, horizon_slots=2
            )

    def test_sustained_bernoulli_stream_is_stable_below_mu(self):
        """Offered load well under the service rate: everything delivered,
        latencies stay bounded (no queue blow-up)."""
        graph = star(8)
        tree = reference_bfs_tree(graph, 0)
        from repro.core.slots import SlotStructure, decay_budget

        phase_length = SlotStructure(
            decay_budget(graph.max_degree()), 3, True
        ).phase_length
        arrivals = BernoulliArrivals(
            sources=[n for n in graph.nodes if n != 0],
            rate=0.02,  # aggregate 0.14/phase « µ
            phase_length=phase_length,
            seed=5,
        )
        result = run_streaming_collection(
            graph, tree, arrivals, seed=6, horizon_slots=300 * phase_length
        )
        assert result.delivery_ratio == 1.0
        assert result.submitted > 10
        # Mean sojourn in phases is small: the system is far from the knee.
        assert result.mean_latency_phases(phase_length) < 10


class TestStreamingP2p:
    def test_routed_stream_delivers_with_latency(self):
        from repro.workloads import run_streaming_p2p

        graph = path(8)
        tree = reference_bfs_tree(graph, 0)
        tree.assign_dfs_intervals()
        schedule = DeterministicSchedule(
            [(0, 7, "a"), (30, 2, "b"), (60, 7, "c")]
        )
        destinations = {"a": 0, "b": 6, "c": 3}
        result = run_streaming_p2p(
            graph,
            tree,
            schedule,
            destination_of=lambda src, payload: destinations[payload],
            seed=4,
            horizon_slots=80,
        )
        assert result.delivered == 3
        # A submission must wake its sleeping source at once: the
        # latencies are those of a run that polls every station.
        assert [r.latency for r in result.records] == [75, 35, 39]

    def test_unknown_destination_rejected(self):
        from repro.errors import ConfigurationError
        from repro.workloads import run_streaming_p2p

        graph = path(4)
        tree = reference_bfs_tree(graph, 0)
        tree.assign_dfs_intervals()
        schedule = DeterministicSchedule([(0, 3, "x")])
        with pytest.raises(ConfigurationError):
            run_streaming_p2p(
                graph,
                tree,
                schedule,
                destination_of=lambda s, p: 99,
                seed=0,
                horizon_slots=2,
            )

    def test_hotspot_workload(self):
        """Everyone streams to one destination; all messages arrive."""
        from repro.workloads import run_streaming_p2p

        graph = star(6)
        tree = reference_bfs_tree(graph, 0)
        tree.assign_dfs_intervals()
        events = [(10 * i, 1 + (i % 5), f"m{i}") for i in range(10)]
        schedule = DeterministicSchedule(
            [(s, src, p) for s, src, p in events if src != 5]
        )
        result = run_streaming_p2p(
            graph,
            tree,
            schedule,
            destination_of=lambda s, p: 5,
            seed=2,
            horizon_slots=120,
        )
        assert result.delivery_ratio == 1.0


class TestStreamingWithSingleClass:
    def test_level_classes_one_also_streams(self, tmp_path):
        """Streaming collection without §2.2's multiplexing still drains
        (the scenario DSL's ``classes = 1``)."""
        from repro.scenario import (
            compile_scenario,
            parse_scenario,
            run_scenario,
        )

        spec = tmp_path / "one-class.toml"
        spec.write_text(textwrap.dedent("""
            [scenario]
            name = "one-class"

            [topology]
            name = "path-6"

            [arrivals]
            kind = "bernoulli"
            rate = 0.05
            sources = "all"

            [protocol]
            kind = "collection"
            classes = 1

            [run]
            seed = 3
            replications = 1
            horizon_phases = 12
        """))
        report = run_scenario(compile_scenario(parse_scenario(spec)))
        (outcome,) = report.outcomes
        assert outcome.spec.params["classes"] == 1
        assert outcome.metrics["delivered"] == outcome.metrics["submitted"] > 0
