"""Batched Decay: lockstep invocations over (replication, station) pairs.

The scalar :class:`~repro.core.decay.DecaySession` steps one station's
invocation one transmission opportunity at a time.  Here the same
pseudocode —

    repeat at most 2·log Δ times
        transmit m to all neighbors;
        flip coin R ∈ {0, 1}
    until coin = 0

— runs for a whole list of (replication, station) pairs at once: the
session state ``alive`` and ``steps`` are ``(B, n)`` arrays (B lockstep
replications × n stations), each opportunity steps the listed pairs
with one coin per pair, and the returned per-pair transmit mask drives
the batched reception of :mod:`repro.vector.engine`.

Faithfulness: the first transmission of an invocation is unconditional
(the paper transmits, *then* flips), a station dies on coin 0, and no
invocation exceeds ``budget`` transmissions.  The equivalence harness
(:mod:`repro.vector.check`) verifies the first property as an exact
invariant; :class:`BrokenOffByOneDecay` there deliberately violates it to
prove the harness has teeth.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.vector.backend import decay_pairs


class BatchDecay:
    """Lockstep Decay sessions for a ``(B, n)`` array of stations.

    One instance manages *all* sessions of the batch: sessions are
    started for the listed pairs when a phase begins (:meth:`start_pairs`;
    nothing reads a session before its first transmission opportunity),
    stepped via :meth:`transmit_pairs` once per opportunity, and
    silenced early by :meth:`kill` when the in-flight message is
    acknowledged.  A pair that is not listed at an
    opportunity neither transmits nor advances.
    """

    def __init__(self, budget: int, shape: tuple):
        if budget < 1:
            raise ConfigurationError(
                f"Decay budget must be >= 1, got {budget}"
            )
        self.budget = budget
        self.shape = shape
        self.alive = np.zeros(shape, dtype=bool)
        self.steps = np.zeros(shape, dtype=np.int16)

    def reset(self) -> None:
        """Phase boundary: all in-flight invocations end."""
        self.alive[:] = False

    def kill(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Silence the sessions at ``(rows, cols)`` (message acked)."""
        self.alive[rows, cols] = False

    def start_pairs(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Begin fresh invocations at the listed (replication, station)
        pairs."""
        self.alive[rows, cols] = True
        self.steps[rows, cols] = 0

    def transmit_pairs(
        self, rows: np.ndarray, cols: np.ndarray, coins: np.ndarray
    ) -> np.ndarray:
        """One transmission opportunity for the listed pairs.

        Paper order: transmit first, flip after — the first step of a
        session always transmits, and a killed or exhausted session
        stays silent.  Work is O(pairs), never O(B·n): ``coins`` carries
        one uniform[0,1) draw *per pair*.  Returns the per-pair transmit
        mask.
        """
        return decay_pairs(
            self.alive, self.steps, self.budget, rows, cols, coins
        )
