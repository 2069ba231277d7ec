"""The experiment registry: DESIGN.md §3 as data.

Each entry ties one experiment ID to the paper claim it reproduces, the
bench file that regenerates its table, and the modules under test — so
the index stays checkable: tests assert every registered bench file
exists and every bench file is registered.

``python -m repro experiments`` prints this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Experiment:
    """One experiment of the reproduction harness."""

    exp_id: str
    claim: str  # the paper statement being reproduced
    paper_ref: str  # where in the paper the claim lives
    bench_file: str  # under benchmarks/
    modules: Tuple[str, ...]  # primary modules under test


REGISTRY: List[Experiment] = [
    Experiment(
        "E0",
        "infrastructure: simulator slot throughput and its scaling",
        "(not a paper claim)",
        "bench_engine.py",
        ("repro.radio.network",),
    ),
    Experiment(
        "E1",
        "Decay delivers some message to a contended receiver w.p. ≥ 1/2",
        "§1.4 property (2)",
        "bench_decay.py",
        ("repro.core.decay", "repro.radio"),
    ),
    Experiment(
        "E2",
        "per-phase level-advance probability ≥ µ = e⁻¹(1−e⁻¹)",
        "Theorem 4.1",
        "bench_theorem41.py",
        ("repro.core.collection",),
    ),
    Experiment(
        "E3",
        "k-collection completes in ≤ 32.27·(k+D)·log Δ expected slots",
        "Theorem 4.4",
        "bench_collection.py",
        ("repro.core.collection",),
    ),
    Experiment(
        "E4",
        "E[T₁] ≤ E[T₂] ≤ E[T₃] ≤ E[T₄] = k/λ + D(1−λ)/(µ−λ)",
        "§4.2, Lemmas 4.10/4.11, Theorems 4.3/4.15",
        "bench_model_chain.py",
        ("repro.queueing.tandem", "repro.queueing.exact"),
    ),
    Experiment(
        "E5",
        "Geo/Geo/1 stationary law, Little's result, Bernoulli departures",
        "§4.3 (Burke, Hsu–Burke)",
        "bench_queueing.py",
        ("repro.queueing.analysis", "repro.queueing.bernoulli"),
    ),
    Experiment(
        "E6",
        "setup phase lasts expected O((n + D·log n)·log Δ) slots",
        "§2",
        "bench_setup.py",
        ("repro.core.bfs", "repro.core.leader"),
    ),
    Experiment(
        "E7",
        "k point-to-point in O((k+D)·log Δ); O(log Δ)/message throughput",
        "§5.4",
        "bench_p2p.py",
        ("repro.core.point_to_point",),
    ),
    Experiment(
        "E8",
        "k broadcasts in O((k+D)·log Δ·log n)",
        "§6",
        "bench_broadcast.py",
        ("repro.core.broadcast",),
    ),
    Experiment(
        "E9",
        "ranking in O(n·log n·log Δ)",
        "§7",
        "bench_ranking.py",
        ("repro.core.ranking",),
    ),
    Experiment(
        "E10",
        "pipelining beats TDMA / sequential forwarding / per-message floods",
        "§1.3, §6 (vs [7], [8])",
        "bench_baselines.py",
        ("repro.baselines",),
    ),
    Experiment(
        "E11",
        "level multiplexing: correctness device at ×3 slot cost",
        "§2.2",
        "bench_ablation_multiplex.py",
        ("repro.core.slots",),
    ),
    Experiment(
        "E12",
        "Decay budget 2·log Δ is the knee; Decay vs fixed-p ALOHA regimes",
        "§1.4 (ablation)",
        "bench_ablation_decay.py",
        ("repro.core.decay", "repro.baselines.aloha"),
    ),
    Experiment(
        "E13",
        "every received message is acknowledged with certainty",
        "Theorem 3.1",
        "bench_ack.py",
        ("repro.core.transport",),
    ),
    Experiment(
        "E14",
        "tree routing congests the root's neighborhood",
        "§8 remark (5)",
        "bench_congestion.py",
        ("repro.analysis.timeline",),
    ),
    Experiment(
        "E15",
        "bounded sojourn below the service rate; blow-up at the knee",
        "§4.3 (stability, live)",
        "bench_saturation.py",
        ("repro.workloads",),
    ),
    Experiment(
        "E16",
        "self-healing collection under churn, fading, jamming, partition",
        "beyond the model (§1.1 relaxed)",
        "bench_resilience.py",
        ("repro.core.repair", "repro.analysis.resilience"),
    ),
    Experiment(
        "E17",
        "vector lockstep engine ≥ 10× scalar replications/sec, "
        "distributionally equivalent (invariants + KS)",
        "(not a paper claim)",
        "bench_vector.py",
        ("repro.vector", "repro.runner"),
    ),
    Experiment(
        "E18",
        "lockstep loop scales to n = 10⁵ unit-disk stations with "
        "awake occupancy < 5%",
        "(not a paper claim)",
        "bench_scale.py",
        ("repro.vector.collection", "repro.graphs.generators"),
    ),
    Experiment(
        "E19",
        "open-system KPIs in constant memory track the tandem oracle",
        "§4 (Geo/Geo/1 tandem, open system)",
        "bench_service.py",
        ("repro.service", "repro.workloads"),
    ),
    Experiment(
        "E20",
        "the measured stability knee brackets the analytic critical λ",
        "§4.3 (stability threshold)",
        "bench_service.py",
        ("repro.service.sweep", "repro.queueing"),
    ),
    Experiment(
        "E21",
        "declarative scenario specs dispatch within 5% of direct "
        "registry invocation, with cache-identical registry twins",
        "(not a paper claim)",
        "bench_scenario.py",
        ("repro.scenario", "repro.kpi"),
    ),
]


def by_id(exp_id: str) -> Experiment:
    """Look up one experiment; raises KeyError with the known IDs."""
    for experiment in REGISTRY:
        if experiment.exp_id == exp_id:
            return experiment
    raise KeyError(
        f"unknown experiment {exp_id!r}; known: "
        f"{[e.exp_id for e in REGISTRY]}"
    )


def registry_table() -> str:
    """The registry rendered as an ASCII table (for the CLI)."""
    from repro.analysis.tables import format_table

    return format_table(
        ["id", "paper", "claim", "bench"],
        [
            [e.exp_id, e.paper_ref, e.claim, e.bench_file]
            for e in REGISTRY
        ],
        title="Experiments (regenerate: pytest benchmarks/ --benchmark-only -s)",
    )
