"""Failure injection for robustness experiments.

The paper's model is failure-free: its acknowledgement determinism
(Theorem 3.1) relies on reception being symmetric and lossless apart from
collisions.  These models let tests and ablation benches explore what
happens *outside* the model — crashed stations and fading links — and
quantify how much of the protocols' correctness is load-bearing on the
model assumptions.  The richer models (churn, fading, regional outages,
jamming) build on :class:`FailureModel` in :mod:`repro.radio.faults`.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, Tuple

from repro.graphs.graph import NodeId


class FailureModel:
    """No failures: every station is always up, every delivery succeeds."""

    def node_down(self, node: NodeId, slot: int) -> bool:
        """Whether ``node`` is crashed during ``slot``.

        A down station neither transmits nor receives, but it still exists
        in the topology (its presence cannot cause collisions while down).
        """
        return False

    def drop_delivery(
        self, sender: NodeId, receiver: NodeId, slot: int
    ) -> bool:
        """Whether a would-be successful delivery is lost to fading."""
        return False


class CrashSchedule(FailureModel):
    """Stations crash (and optionally recover) at scripted slots.

    ``outages`` maps node -> iterable of (start_slot, end_slot) half-open
    intervals during which the node is down.
    """

    def __init__(
        self, outages: Dict[NodeId, Iterable[Tuple[int, int]]]
    ):
        self._outages: Dict[NodeId, Tuple[Tuple[int, int], ...]] = {
            node: tuple(sorted(spans)) for node, spans in outages.items()
        }
        for node, spans in self._outages.items():
            for start, end in spans:
                if start >= end:
                    raise ValueError(
                        f"empty outage [{start}, {end}) for node {node!r}"
                    )

    def node_down(self, node: NodeId, slot: int) -> bool:
        for start, end in self._outages.get(node, ()):
            if start <= slot < end:
                return True
        return False


class BernoulliLinkLoss(FailureModel):
    """Each would-be delivery is independently lost with probability p."""

    def __init__(self, loss_probability: float, rng: random.Random):
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError(
                f"loss probability must be in [0,1], got {loss_probability}"
            )
        self.loss_probability = loss_probability
        self._rng = rng

    def drop_delivery(
        self, sender: NodeId, receiver: NodeId, slot: int
    ) -> bool:
        return self._rng.random() < self.loss_probability


class PermanentCrashes(FailureModel):
    """A fixed set of stations is down from a given slot onward."""

    def __init__(self, crashed: Iterable[NodeId], from_slot: int = 0):
        self.crashed: FrozenSet[NodeId] = frozenset(crashed)
        self.from_slot = from_slot

    def node_down(self, node: NodeId, slot: int) -> bool:
        return node in self.crashed and slot >= self.from_slot


class ComposedFailures(FailureModel):
    """Union of several failure models (any says down/drop => down/drop)."""

    def __init__(self, models: Iterable[FailureModel]):
        self.models = tuple(models)

    def node_down(self, node: NodeId, slot: int) -> bool:
        return any(m.node_down(node, slot) for m in self.models)

    def drop_delivery(
        self, sender: NodeId, receiver: NodeId, slot: int
    ) -> bool:
        return any(m.drop_delivery(sender, receiver, slot) for m in self.models)


__all__ = [
    "BernoulliLinkLoss",
    "ComposedFailures",
    "CrashSchedule",
    "FailureModel",
    "PermanentCrashes",
]
