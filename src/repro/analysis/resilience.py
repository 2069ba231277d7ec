"""The resilience harness (experiment E16): collection under faults.

Quantifies exactly how load-bearing the paper's failure-free model is:
:func:`scenario_metrics` runs self-healing collection
(:mod:`repro.core.repair`) on one layered-band field under one named
fault scenario and reports delivery ratio, completion-time
inflation versus the failure-free baseline, repair count, and
partition-detection accuracy — the numbers behind the "Beyond the model"
sections of the docs.  :mod:`repro.runner.defs` registers it as E16, and
``python -m repro resilience [seed]`` prints one seed's rows through
:func:`resilience_table`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.analysis.tables import format_table
from repro.core.repair import run_resilient_collection
from repro.errors import ConfigurationError
from repro.graphs import layered_band, reference_bfs_tree
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import NodeId
from repro.radio.failures import (
    AdversarialJammer,
    GilbertElliott,
    MarkovChurn,
    RegionOutage,
)

#: The field every scenario runs on: ``layered_band(LAYERS, WIDTH)``.
LAYERS = 6
WIDTH = 3

#: A station continuously down this many slots while holding traffic is
#: written off, so a crash-stop cannot hold termination hostage.
DOWN_GRACE_SLOTS = 2_000

#: Per-slot Markov churn rates of the interior stations.
CHURN_FAIL = 0.002
CHURN_RECOVER = 0.01

#: Per-slot Gilbert–Elliott rates of every link: a good link turns bad
#: with ``FADE_P_BAD`` and a bad one recovers with ``FADE_P_GOOD``.
FADE_P_BAD = 0.02
FADE_P_GOOD = 0.2

#: The wideband jammer jams the first ``JAM_DUTY`` slots of every
#: ``JAM_PERIOD``-slot window.
JAM_PERIOD = 24
JAM_DUTY = 6


def _interior_nodes(tree: BFSTree) -> List[NodeId]:
    """Non-root stations with BFS children (crashing one hurts a subtree)."""
    return [
        node
        for node in tree.nodes
        if node != tree.root and tree.children[node]
    ]


def _busiest_interior(tree: BFSTree) -> NodeId:
    return max(
        _interior_nodes(tree), key=lambda v: (tree.subtree_size(v), v)
    )


def _churn(tree: BFSTree, seed: int) -> MarkovChurn:
    return MarkovChurn(
        _interior_nodes(tree),
        fail_rate=CHURN_FAIL,
        recover_rate=CHURN_RECOVER,
        seed=seed,
    )


def _fading(tree: BFSTree, seed: int) -> GilbertElliott:
    return GilbertElliott(p_bad=FADE_P_BAD, p_good=FADE_P_GOOD, seed=seed)


def _jammer(tree: BFSTree, seed: int) -> AdversarialJammer:
    return AdversarialJammer(period=JAM_PERIOD, duty=JAM_DUTY)


def _blackout(tree: BFSTree, seed: int) -> RegionOutage:
    span = tuple(tree.subtree(_busiest_interior(tree)))
    window = 40 * len(span)
    return RegionOutage(span, start=window, end=2 * window)


def _partition(tree: BFSTree, seed: int) -> RegionOutage:
    return RegionOutage([_busiest_interior(tree)], start=0, end=None)


#: Fault scenario name -> builder ``(tree, seed) -> failure model``:
#:
#: * ``churn`` — every non-root interior station churns (Markov up/down);
#: * ``fading`` — Gilbert–Elliott bursty loss on every link;
#: * ``jammer`` — a duty-cycled wideband jammer over the whole network;
#: * ``blackout`` — the busiest interior station and its subtree go dark
#:   for a window mid-run, then recover;
#: * ``partition`` — that station crashes forever at slot 0, severing
#:   its subtree wherever the graph offers no detour.
SCENARIOS = {
    "churn": _churn,
    "fading": _fading,
    "jammer": _jammer,
    "blackout": _blackout,
    "partition": _partition,
}


def default_sources(tree: BFSTree) -> Dict[NodeId, List[Any]]:
    """The harness's standard traffic shape: a burst of four messages at
    the deepest station plus two injected mid-tree."""
    deepest = max(tree.nodes, key=lambda v: (tree.level[v], v))
    mid = min(
        (v for v in tree.nodes if 0 < tree.level[v] < tree.depth),
        default=deepest,
    )
    sources: Dict[NodeId, List[Any]] = {
        deepest: [f"m{i}" for i in range(4)]
    }
    sources.setdefault(mid, []).extend(["n0", "n1"])
    return sources


def scenario_metrics(scenario: str, seed: int) -> Dict[str, float]:
    """One pure resilience task for the parallel runner (experiment E16).

    Runs self-healing collection on the ``layered_band(LAYERS, WIDTH)``
    field twice with the same seed — failure-free baseline, then the
    named scenario — and returns the headline numbers as a flat metrics
    dict.  The baseline runs the *same* resilient stack, so the slowdown
    isolates the cost of the faults (and repairs) rather than the cost
    of the hardening machinery.
    """
    build = SCENARIOS.get(scenario)
    if build is None:
        raise ConfigurationError(
            f"unknown scenario {scenario!r}; known: {sorted(SCENARIOS)}"
        )
    graph = layered_band(LAYERS, WIDTH)
    tree = reference_bfs_tree(graph, 0)
    sources = default_sources(tree)
    baseline = run_resilient_collection(
        graph, tree, sources, seed, failures=None
    )
    result = run_resilient_collection(
        graph,
        tree,
        sources,
        seed,
        failures=build(tree, seed),
        down_grace_slots=DOWN_GRACE_SLOTS,
    )
    return {
        "slots": result.slots,
        "baseline_slots": baseline.slots,
        "slowdown": (
            result.slots / baseline.slots if baseline.slots else 1.0
        ),
        "delivered": result.messages_delivered,
        "expected": result.expected,
        "delivery_ratio": result.delivery_ratio,
        "reachable_delivery_ratio": result.reachable_delivery_ratio,
        "repairs": len(result.repairs),
        "declared_partitioned": len(result.declared_partitioned),
        "partition_precision": result.partition_precision,
        "partition_recall": result.partition_recall,
        "timed_out": int(result.timed_out),
    }


def resilience_table(rows: Mapping[str, Mapping[str, float]]) -> str:
    """Render ``{scenario: scenario_metrics(...)}`` as one ASCII table."""
    return format_table(
        [
            "scenario",
            "delivered",
            "ratio",
            "reachable",
            "slowdown",
            "repairs",
            "declared",
            "part P/R",
            "timeout",
        ],
        [
            [
                scenario,
                f"{m['delivered']}/{m['expected']}",
                f"{m['delivery_ratio']:.2f}",
                f"{m['reachable_delivery_ratio']:.2f}",
                f"{m['slowdown']:.2f}x",
                m["repairs"],
                m["declared_partitioned"],
                f"{m['partition_precision']:.2f}"
                f"/{m['partition_recall']:.2f}",
                "yes" if m["timed_out"] else "no",
            ]
            for scenario, m in rows.items()
        ],
        title=(
            "Resilience: collection under injected faults on "
            f"layered_band({LAYERS}, {WIDTH})"
        ),
    )
