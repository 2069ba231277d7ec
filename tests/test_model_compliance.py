"""Model-compliance tests: the protocols respect §1.1's constraints.

* Messages are O(log n) bits (a constant number of IDs/levels/flags).
* No protocol uses collision detection (receivers only ever see payloads).
* Transmit/receive exclusivity per channel is enforced by the engine.
* Protocols survive outside-the-model failures only in non-strict mode.
"""

import random

import pytest

from repro.core import run_collection
from repro.core.messages import (
    AckMessage,
    BroadcastMessage,
    BroadcastSubmission,
    CheckpointAck,
    DataMessage,
    JoinMessage,
    LeaderMessage,
    ResendRequest,
    TokenMessage,
    is_protocol_message,
    message_bits,
)
from repro.errors import SimulationTimeout
from repro.graphs import path, reference_bfs_tree, star
from repro.radio import (
    BernoulliLinkLoss,
    ComposedFailures,
    CrashSchedule,
    EventTrace,
    PermanentCrashes,
    RadioNetwork,
)


#: One instance of every message type, every field set.
MESSAGES = [
    DataMessage(
        msg_id=(1, 2),
        origin=1,
        hop_sender=1,
        hop_dest=2,
        dest_address=3,
        payload="p",
    ),
    AckMessage(msg_id=(1, 2), hop_sender=2, hop_dest=1),
    JoinMessage(sender=4, level=2),
    LeaderMessage(sender=1, round=9),
    BroadcastMessage(seq=7, origin=3, payload="x", sender_level=2),
    TokenMessage(
        holder=1,
        next_holder=2,
        traversal=2,
        holder_bfs_parent=0,
        dfs_number=5,
        returning=True,
        max_descendant=6,
    ),
    BroadcastSubmission(origin=3, body="payload"),
    CheckpointAck(origin=3, checkpoint=2),
    ResendRequest(requester=3, seq=7),
]


def _values(message):
    return tuple(
        getattr(message, name) for name in message.__dataclass_fields__
    )


class TestMessageValues:
    """Messages are values: they compare, hash and print by their
    fields, as the frozen dataclasses they were did."""

    @pytest.mark.parametrize(
        "message", MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_compares_hashes_and_prints_by_fields(self, message):
        cls = type(message)
        values = _values(message)
        twin = cls(*values)
        assert twin == message and twin is not message
        assert hash(twin) == hash(message) == hash(values)
        assert repr(message) == "{}({})".format(
            cls.__name__,
            ", ".join(
                f"{name}={value!r}"
                for name, value in zip(cls.__dataclass_fields__, values)
            ),
        )
        assert not hasattr(message, "__dict__")
        for index, name in enumerate(cls.__dataclass_fields__):
            changed = list(values)
            changed[index] = ("other", values[index])
            assert cls(*changed) != message, name
        assert message != values

    @staticmethod
    def _tagged(cls):
        """A ``cls`` whose every field holds a value naming that field,
        so a copy that drops, resets or swaps a field is seen."""
        return cls(*(("field", name) for name in cls.__dataclass_fields__))

    def _assert_carried_over(self, copy, original, restamped):
        for name in type(original).__dataclass_fields__:
            if name not in restamped:
                assert getattr(copy, name) is getattr(original, name), name

    def test_rehop_keeps_the_end_to_end_fields(self):
        message = self._tagged(DataMessage)
        hopped = message.rehop(2, 5)
        assert (hopped.hop_sender, hopped.hop_dest) == (2, 5)
        self._assert_carried_over(
            hopped, message, restamped=("hop_sender", "hop_dest")
        )
        assert message == self._tagged(DataMessage)

    def test_at_level_restamps_only_the_level(self):
        message = self._tagged(BroadcastMessage)
        stamped = message.at_level(5)
        assert stamped is not message and stamped.sender_level == 5
        self._assert_carried_over(
            stamped, message, restamped=("sender_level",)
        )
        assert message == self._tagged(BroadcastMessage)
        level_two = MESSAGES[4]
        assert level_two.at_level(level_two.sender_level) == level_two


class TestMessageSizes:
    @pytest.mark.parametrize("message", MESSAGES)
    def test_constant_number_of_words(self, message):
        """Each packet carries O(1) IDs/levels/flags = O(log n) bits."""
        assert message_bits(message) <= 10
        assert is_protocol_message(message)

    def test_non_protocol_payload(self):
        assert not is_protocol_message("random string")


class TestCollisionOpacity:
    def test_collision_and_silence_are_indistinguishable(self):
        """The engine gives receivers no callback on collisions — the only
        signal is the *absence* of on_receive, same as silence."""
        from repro.radio import Transmission
        from tests.conftest import ScriptedProcess

        g = star(3)
        trace = EventTrace()
        net = RadioNetwork(g, trace=trace)
        center = ScriptedProcess(0)
        net.attach(center)
        net.attach(ScriptedProcess(1, {0: Transmission("a")}))
        net.attach(ScriptedProcess(2, {0: Transmission("b")}))
        net.step()  # collision at 0
        net.step()  # silence at 0
        assert center.heard == []  # identical observable in both slots
        # ... although the omniscient trace knows the difference:
        assert len(trace.collisions) == 1


class TestFailureInjection:
    def test_collection_times_out_when_cut_by_crash(self):
        """A crashed relay on the only path stalls collection (and the
        Las-Vegas driver surfaces it as a timeout, not silent loss)."""
        graph = path(4)
        tree = reference_bfs_tree(graph, 0)
        from repro.core.collection import build_collection_network

        network, processes, _ = build_collection_network(
            graph, tree, {3: ["m"]}, seed=1
        )
        network.failures = PermanentCrashes({1})
        with pytest.raises(SimulationTimeout):
            network.run(
                5_000, until=lambda n: len(processes[0].delivered) >= 1
            )

    def test_collection_survives_transient_crash(self):
        """The relay recovers: resend-until-ack rides out the outage."""
        graph = path(4)
        tree = reference_bfs_tree(graph, 0)
        from repro.core.collection import build_collection_network

        network, processes, _ = build_collection_network(
            graph, tree, {3: ["m"]}, seed=1, strict=False
        )
        network.failures = CrashSchedule({1: [(0, 400)]})
        network.run(
            100_000, until=lambda n: len(processes[0].delivered) >= 1
        )
        assert processes[0].delivered[0].payload == "m"

    def test_link_loss_breaks_ack_determinism_but_not_delivery(self):
        """Outside the model (fading), Thm 3.1 can fail — duplicates appear
        — but non-strict transport still delivers at least once."""
        graph = path(5)
        tree = reference_bfs_tree(graph, 0)
        from repro.core.collection import build_collection_network

        duplicates_total = 0
        delivered_ok = 0
        for seed in range(8):
            network, processes, _ = build_collection_network(
                graph, tree, {4: ["a", "b", "c"]}, seed=seed, strict=False
            )
            network.failures = BernoulliLinkLoss(
                0.15, random.Random(seed + 50)
            )
            try:
                network.run(
                    300_000,
                    until=lambda n: len(
                        {m.msg_id for m in processes[0].delivered}
                    )
                    >= 3,
                )
            except SimulationTimeout:
                continue
            delivered_ok += 1
            duplicates_total += sum(
                p.lane.duplicates_seen for p in processes.values()
            )
        assert delivered_ok >= 6  # loss slows but rarely halts progress
        assert duplicates_total > 0  # ...and Thm 3.1's premise is indeed load-bearing

    def test_composed_failures(self):
        model = ComposedFailures(
            [PermanentCrashes({1}), PermanentCrashes({2}, from_slot=10)]
        )
        assert model.node_down(1, 0)
        assert not model.node_down(2, 5)
        assert model.node_down(2, 10)

    def test_crash_schedule_validation(self):
        with pytest.raises(ValueError):
            CrashSchedule({0: [(5, 5)]})

    def test_link_loss_validation(self):
        with pytest.raises(ValueError):
            BernoulliLinkLoss(1.5, random.Random(0))


class TestStrictModeGuards:
    def test_strict_run_collection_never_raises_in_model(self):
        """In the failure-free model, strict mode is exactly as permissive:
        many seeds, zero protocol errors."""
        graph = star(8)
        tree = reference_bfs_tree(graph, 0)
        for seed in range(10):
            result = run_collection(
                graph,
                tree,
                {n: ["z"] for n in range(1, 8)},
                seed=seed,
            )
            assert len(result.delivered) == 7
