"""Tests for the trace-verification oracle."""

import random

import pytest

from repro.core import DataMessage, SlotStructure
from repro.core.collection import build_collection_network
from repro.core.messages import AckMessage
from repro.graphs import (
    layered_band,
    random_geometric,
    reference_bfs_tree,
    star,
)
from repro.radio import (
    EventTrace,
    audit_collection_trace,
    check_ack_determinism,
    check_exactly_once,
    check_level_classes,
    check_slot_discipline,
)
from repro.radio.trace import DeliverEvent, TransmitEvent


def traced_collection(graph, sources, seed, capture=False):
    tree = reference_bfs_tree(graph, 0)
    network, processes, slots = build_collection_network(
        graph, tree, sources, seed, strict=not capture
    )
    trace = EventTrace()
    if capture:
        from repro.radio import RadioNetwork

        network = RadioNetwork(
            graph,
            num_channels=1,
            trace=trace,
            capture_effect=True,
            capture_seed=seed,
        )
        for process in processes.values():
            network.attach(process)
    else:
        network.trace = trace
    total = sum(len(v) for v in sources.values())
    root = processes[tree.root]
    network.run(
        500_000,
        until=lambda n: len(root.delivered) >= total
        and all(p.is_done() for p in processes.values()),
    )
    return trace, slots, tree


class TestCleanRunsPassAudit:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: star(9),
            lambda: layered_band(3, 4),
            lambda: random_geometric(20, 0.4, random.Random(4)),
        ],
        ids=["star", "band", "rgg"],
    )
    def test_full_audit_clean(self, graph_factory):
        graph = graph_factory()
        sources = {n: ["a", "b"] for n in list(graph.nodes)[1:]}
        trace, slots, tree = traced_collection(graph, sources, seed=2)
        violations = audit_collection_trace(trace, slots, tree.level)
        assert violations == []


class TestViolationsAreDetected:
    def test_capture_model_fails_the_audit(self):
        """Under §8 remark (3) semantics, Thm 3.1 violations must be
        *found* by the oracle (a negative control for the checker)."""
        from repro.graphs import BFSTree, Graph

        graph = Graph.from_edges(
            [(0, 1), (0, 2), (1, 3), (2, 4), (3, 2), (4, 1)]
        )
        tree = BFSTree(
            root=0,
            parent={0: 0, 1: 0, 2: 0, 3: 1, 4: 2},
            level={0: 0, 1: 1, 2: 1, 3: 2, 4: 2},
        )
        sources = {3: ["x"] * 4, 4: ["y"] * 4}
        found_violation = False
        for seed in range(10):
            network, processes, slots = build_collection_network(
                graph, tree, sources, seed=seed, strict=False
            )
            from repro.radio import RadioNetwork

            trace = EventTrace()
            capture_net = RadioNetwork(
                graph,
                num_channels=1,
                trace=trace,
                capture_effect=True,
                capture_seed=seed,
            )
            for process in processes.values():
                capture_net.attach(process)
            root = processes[0]
            capture_net.run(
                400_000,
                until=lambda n: len(root.delivered) >= 8
                and all(p.is_done() for p in processes.values()),
            )
            if check_ack_determinism(trace) or check_exactly_once(trace):
                found_violation = True
                break
        assert found_violation

    def test_missing_ack_flagged(self):
        """Hand-built trace: a designated delivery without its ack."""
        trace = EventTrace()
        message = DataMessage(
            msg_id=(5, 0), origin=5, hop_sender=5, hop_dest=4
        )
        trace.record(DeliverEvent(10, 0, 4, 5, message))
        violations = check_ack_determinism(trace)
        assert len(violations) == 1
        assert "never" in violations[0]

    def test_paired_ack_accepted(self):
        trace = EventTrace()
        message = DataMessage(
            msg_id=(5, 0), origin=5, hop_sender=5, hop_dest=4
        )
        trace.record(DeliverEvent(10, 0, 4, 5, message))
        trace.record(
            DeliverEvent(
                11, 0, 5, 4, AckMessage(msg_id=(5, 0), hop_sender=4, hop_dest=5)
            )
        )
        assert check_ack_determinism(trace) == []

    def test_duplicate_delivery_flagged(self):
        trace = EventTrace()
        message = DataMessage(
            msg_id=(5, 0), origin=5, hop_sender=5, hop_dest=4
        )
        trace.record(DeliverEvent(10, 0, 4, 5, message))
        trace.record(DeliverEvent(22, 0, 4, 5, message))
        violations = check_exactly_once(trace)
        assert len(violations) == 1
        assert "again" in violations[0]

    def test_data_in_ack_slot_flagged(self):
        slots = SlotStructure(decay_budget=2, level_classes=3)
        trace = EventTrace()
        message = DataMessage(
            msg_id=(1, 0), origin=1, hop_sender=1, hop_dest=0
        )
        trace.record(TransmitEvent(1, 0, 1, message))  # slot 1 is an ACK slot
        violations = check_slot_discipline(trace, slots, channel=0)
        assert len(violations) == 1

    def test_wrong_level_class_flagged(self):
        slots = SlotStructure(decay_budget=2, level_classes=3)
        trace = EventTrace()
        message = DataMessage(
            msg_id=(1, 0), origin=1, hop_sender=1, hop_dest=0
        )
        # Slot 0 is the class-0 data slot; a level-1 station must not use it.
        trace.record(TransmitEvent(0, 0, 1, message))
        violations = check_level_classes(trace, slots, {1: 1}, channel=0)
        assert len(violations) == 1

    def test_unknown_level_flagged(self):
        slots = SlotStructure(decay_budget=2, level_classes=3)
        trace = EventTrace()
        message = DataMessage(
            msg_id=(9, 0), origin=9, hop_sender=9, hop_dest=0
        )
        trace.record(TransmitEvent(0, 0, 9, message))
        violations = check_level_classes(trace, slots, {}, channel=0)
        assert "unknown level" in violations[0]

    def test_channel_filter(self):
        trace = EventTrace()
        message = DataMessage(
            msg_id=(5, 0), origin=5, hop_sender=5, hop_dest=4
        )
        trace.record(DeliverEvent(10, 1, 4, 5, message))  # channel 1
        assert check_ack_determinism(trace, channel=0) == []
        assert len(check_ack_determinism(trace, channel=1)) == 1
