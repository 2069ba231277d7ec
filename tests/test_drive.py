"""Tests for the drive loop behind every streamed run.

Two kinds of check:

* the scenario driver paths no other test runs (every fault kind,
  mobility epochs, warmup, burst/Poisson arrivals, closed and streamed
  collection and p2p) are pinned to their recorded metrics, and each
  conserves messages: ``submitted == delivered + lost``;
* the record sink (``run_streaming_collection``) and the service KPIs
  (``run_service``) watch the same run and must agree on it.
"""

import pytest

from repro.core.slots import SlotStructure, decay_budget
from repro.graphs import layered_band, reference_bfs_tree
from repro.profiling import profiled
from repro.radio import RadioNetwork
from repro.rng import derive_seed
from repro.runner.task import TaskSpec
from repro.scenario.runtime import run_scenario_task
from repro.service import run_service
from repro.workloads import BernoulliArrivals, run_streaming_collection

#: Base cell: streamed Bernoulli collection from every station.
BASE = {
    "protocol": "collection", "topology": "band-4x3", "sources": "all",
    "arrival": "bernoulli", "rate": 0.05, "horizon_phases": 40,
}
#: Overrides that turn the base cell into a closed 2-message workload.
CLOSED = {"arrival": "none", "rate": None, "horizon_phases": None,
          "messages": 2}

#: case -> (overrides of BASE, pinned metrics).  The metrics are
#: (submitted, delivered, lost, slots, transmissions,
#: sojourn_mean_phases, sojourn_p90_phases) at seed 11.
PINNED = {
    "churn": (
        {"fault": "churn", "fail_rate": 0.01, "recover_rate": 0.05},
        (25, 25, 0, 1479, 97, 1.4833333333333334, 2.541666666666667),
    ),
    "fading": (
        {"fault": "fading", "p_bad": 0.05, "p_good": 0.3},
        (25, 25, 0, 1587, 155, 3.083333333333333, 6.4783999920308),
    ),
    "outage": (
        {"fault": "outage", "fraction": 0.5, "start_phase": 2,
         "end_phase": 30},
        (25, 25, 0, 1767, 150, 10.396666666666668, 25.550204601657377),
    ),
    # No end_phase: the jammer blanks every slot from the end of the
    # horizon on, so the drain stalls and two messages are left over.
    "jammer": (
        {"fault": "jammer", "jam_period": 60, "jam_duty": 60,
         "start_phase": 40},
        (25, 23, 2, 21440, 121, 1.1775362318840579, 2.2739309535631955),
    ),
    "mobility": (
        {"topology": "rgg-20", "mobility_epochs": 3},
        (33, 33, 0, 1737, 236, 3.042929292929292, 5.534264122048758),
    ),
    "warmup": (
        {"warmup_fraction": 0.3},
        (25, 25, 0, 1551, 133, 2.275, 4.148654155939089),
    ),
    "burst": (
        {"arrival": "burst", "rate": None, "period": 10, "bursts": 2,
         "jitter": 2},
        (22, 22, 0, 1440, 208, 7.563131313131313, 11.876822254480574),
    ),
    "poisson": (
        {"arrival": "poisson"},
        (16, 16, 0, 1440, 68, 1.1996527777777777, 2.298079926205355),
    ),
    "collection-closed": (
        CLOSED,
        (22, 22, 0, 903, 250, 13.803030303030303, 21.1250644301184),
    ),
    "collection-streamed": (
        {},
        (25, 25, 0, 1551, 133, 1.9566666666666666, 3.9010472807196783),
    ),
    "p2p-closed": (
        {"protocol": "p2p", **CLOSED},
        (22, 22, 0, 617, 256, 8.030303030303031, 13.286102454740256),
    ),
    "p2p-streamed": (
        {"protocol": "p2p"},
        (25, 25, 0, 1441, 143, 2.0166666666666666, 2.987446505826135),
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_scenario_driver_paths_are_pinned(case):
    overrides, pinned = PINNED[case]
    params = {
        key: value
        for key, value in {**BASE, **overrides}.items()
        if value is not None
    }
    spec = TaskSpec(
        exp_id="scenario:t:x", case=tuple(sorted(params.items())),
        replicate=0, seed=11,
    )
    metrics = run_scenario_task(spec)
    assert metrics["submitted"] == metrics["delivered"] + metrics["lost"]
    names = ("submitted", "delivered", "lost", "slots", "transmissions")
    assert tuple(metrics[name] for name in names) == pinned[:5]
    assert metrics["sojourn_mean_phases"] == pytest.approx(pinned[5])
    assert metrics["sojourn_p90_phases"] == pytest.approx(pinned[6])


def test_record_sink_and_service_kpis_agree():
    """Same seed, same arrivals: the record-retaining driver and the
    constant-memory service loop report the same run."""
    seed, rate, phases = 7, 0.2, 200
    graph = layered_band(4, 3)
    tree = reference_bfs_tree(graph, 0)
    sources = [n for n in tree.nodes if tree.level[n] == tree.depth]
    phase_length = SlotStructure(
        decay_budget(graph.max_degree()), 3, True
    ).phase_length

    def arrivals():
        return BernoulliArrivals(
            sources, rate, phase_length, seed=derive_seed(seed, "arrivals")
        )

    horizon = phases * phase_length
    records = run_streaming_collection(
        graph, tree, arrivals(), seed, horizon, drain=False
    )
    kpis = run_service(
        graph, tree, arrivals(), seed, horizon, warmup_fraction=0.0
    )
    assert records.submitted == kpis.submitted
    assert records.delivered == kpis.delivered
    assert records.submitted - records.delivered == kpis.final_backlog
    assert records.mean_latency_phases(phase_length) == pytest.approx(
        kpis.sojourn_phases
    )


def test_service_cell_skips_and_counts_like_stepping(monkeypatch):
    """The drive loop jumps over silent slots, yet the profiler counts
    every slot as stepping did: these counters were recorded before the
    loop learned to jump."""
    graph = layered_band(4, 3)
    tree = reference_bfs_tree(graph, 0)
    sources = [n for n in tree.nodes if tree.level[n] == tree.depth]
    phase_length = SlotStructure(
        decay_budget(graph.max_degree()), 3, True
    ).phase_length
    arrivals = BernoulliArrivals(
        sources, 0.2, phase_length, seed=derive_seed(7, "arrivals")
    )
    steps = []
    step = RadioNetwork.step

    def counted(self):
        steps.append(self.slot)
        step(self)

    monkeypatch.setattr(RadioNetwork, "step", counted)
    with profiled() as profile:
        run_service(graph, tree, arrivals, 7, 200 * phase_length)
    counters = {
        name: profile.counters[name]
        for name in ("polled", "skipped", "scalar_slots")
    }
    assert counters == {
        "polled": 1117,
        "skipped": 85_283,
        "scalar_slots": 7200,
    }
    assert len(steps) < counters["scalar_slots"] // 4
