"""The move-vector calculus of §4.4–§4.7 (Lemmas 4.5–4.15).

The paper's upper-bound proof reduces the radio network (model 1) to a
steady-state tandem queue (model 4) through a chain of couplings expressed
in a small combinatorial calculus:

* a **partition** ``a = (a_1, …, a_{D+1})`` records how many messages sit
  at each level (index D+1 is the arrival reservoir; level 0 — the root —
  absorbs and is not recorded);
* a **move vector** ``m`` moves ``min(a_i, m_i)`` messages from level i to
  level i−1, simultaneously at all levels;
* ``a ⪯ b`` ("a precedes b") iff some move sequence turns b into a, i.e.
  a is *further along* than b.

This module implements the calculus executably so the lemmas become
testable properties:

* Lemma 4.5 — any move vector equals a sequence of singletons applied in
  ascending level order (:func:`singleton_decomposition`).
* Lemma 4.7 — ⪯ is preserved by applying the same move vector.
* Lemma 4.8/4.9 — completion time is monotone w.r.t. ⪯ (pathwise and in
  expectation).
* Lemma 4.12/4.13 — domination of move vectors/sequences only helps.
* The ⪯ order itself has a clean characterization by suffix sums
  (:func:`precedes`), cross-checked against an explicit constructive
  witness (:func:`move_sequence_witness`).

Note on the paper's definition: it states ``δ_{D+1} = m_{D+1}`` without a
clamp; we clamp at every index (``δ_i = min(a_i, m_i)``), which keeps
partitions non-negative and agrees with the paper wherever the reservoir
is non-empty (the only case its proofs exercise).
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Moves :func:`completion_time` applies before it gives up.
COMPLETION_LIMIT = 10**7

Partition = Tuple[int, ...]
MoveVector = Tuple[int, ...]


def _validate(vector: Sequence[int], name: str) -> Tuple[int, ...]:
    out = tuple(int(x) for x in vector)
    if any(x < 0 for x in out):
        raise ConfigurationError(f"{name} must be non-negative, got {out}")
    if not out:
        raise ConfigurationError(f"{name} must have at least one level")
    return out


def move(a: Sequence[int], m: Sequence[int]) -> Partition:
    """One application of a move vector: ``a' = Move(a, m)``.

    ``δ_i = min(a_i, m_i)`` messages leave level i toward level i−1;
    level 1's departures leave the system (reach the root).
    """
    a = _validate(a, "partition")
    m = _validate(m, "move vector")
    if len(a) != len(m):
        raise ConfigurationError(
            f"dimension mismatch: partition {len(a)}, move {len(m)}"
        )
    delta = [min(ai, mi) for ai, mi in zip(a, m)]
    out = list(a)
    for i in range(len(a)):
        out[i] -= delta[i]
        if i + 1 < len(a):
            out[i] += delta[i + 1]
    return tuple(out)


def move_star(a: Sequence[int], moves: Iterable[Sequence[int]]) -> Partition:
    """``Move*(a, M)``: apply every move of the sequence in order."""
    state = _validate(a, "partition")
    for m in moves:
        state = move(state, m)
    return state


def singleton(dimension: int, index: int) -> MoveVector:
    """``e_index``: the singleton moving one message out of 1-based level."""
    if not 1 <= index <= dimension:
        raise ConfigurationError(
            f"singleton index {index} out of range 1..{dimension}"
        )
    return tuple(1 if i == index - 1 else 0 for i in range(dimension))


def singleton_decomposition(m: Sequence[int]) -> List[MoveVector]:
    """Lemma 4.5: the singleton sequence equivalent to move vector ``m``.

    Singletons are emitted in ascending level order (level 1 first) —
    "lexicographically nonincreasing" in the paper's vector order — which
    is exactly the order that makes the sequential application agree with
    the simultaneous one: moving the lower level first ensures a message
    cannot ride two hops on one move vector.
    """
    m = _validate(m, "move vector")
    out: List[MoveVector] = []
    for index, count in enumerate(m, start=1):
        out.extend(singleton(len(m), index) for _ in range(count))
    return out


def dominates(m: Sequence[int], m_prime: Sequence[int]) -> bool:
    """Whether ``m`` dominates ``m'`` (componentwise ≥, §4.7)."""
    m = _validate(m, "move vector")
    m_prime = _validate(m_prime, "move vector")
    if len(m) != len(m_prime):
        raise ConfigurationError("dimension mismatch")
    return all(x >= y for x, y in zip(m, m_prime))


def suffix_sums(a: Sequence[int]) -> Tuple[int, ...]:
    """``(Σ_{j≥1} a_j, Σ_{j≥2} a_j, …, a_{D+1})``."""
    a = _validate(a, "partition")
    out = []
    total = 0
    for value in reversed(a):
        total += value
        out.append(total)
    return tuple(reversed(out))


def precedes(a: Sequence[int], b: Sequence[int]) -> bool:
    """The partial order ``a ⪯ b``: a reachable from b by moves.

    Characterization: every suffix sum of ``a`` is at most the matching
    suffix sum of ``b``.  (Moves only push mass toward the root and out of
    the system, so suffix sums are non-increasing along any move; and when
    the inequalities hold, :func:`move_sequence_witness` constructs an
    explicit schedule.)
    """
    a = _validate(a, "partition")
    b = _validate(b, "partition")
    if len(a) != len(b):
        raise ConfigurationError("dimension mismatch")
    return all(x <= y for x, y in zip(suffix_sums(a), suffix_sums(b)))


def move_sequence_witness(
    b: Sequence[int], a: Sequence[int]
) -> Optional[List[MoveVector]]:
    """An explicit move sequence turning ``b`` into ``a`` (or None).

    Construction: let ``c_i = suffix_i(b) − suffix_i(a)`` be the number of
    messages that must cross the (i−1, i) boundary; schedule the bulk
    moves from the highest level downward, each as repeated singletons.
    """
    b = _validate(b, "partition")
    a = _validate(a, "partition")
    if len(a) != len(b):
        raise ConfigurationError("dimension mismatch")
    if not precedes(a, b):
        return None
    crossings = [
        sb - sa for sb, sa in zip(suffix_sums(b), suffix_sums(a))
    ]
    sequence: List[MoveVector] = []
    for index in range(len(b), 0, -1):  # highest level first
        count = crossings[index - 1]
        sequence.extend(singleton(len(b), index) for _ in range(count))
    return sequence


def is_empty(a: Sequence[int]) -> bool:
    return all(x == 0 for x in a)


def completion_time(a: Sequence[int], moves: Iterable[Sequence[int]]) -> int:
    """``T(a, M)``: moves needed to empty the partition (§4.5).

    Raises :class:`ConfigurationError` if the sequence is exhausted or
    ``COMPLETION_LIMIT`` moves pass before the partition empties
    (completion time may be infinite for some sequences, as the paper
    notes).
    """
    state = _validate(a, "partition")
    if is_empty(state):
        return 0
    for step, m in enumerate(moves, start=1):
        if step > COMPLETION_LIMIT:
            break
        state = move(state, m)
        if is_empty(state):
            return step
    raise ConfigurationError(
        f"move sequence exhausted before completion (state {state})"
    )


def random_move_vector(
    dimension: int, mu: float, lam: float, rng: random.Random
) -> MoveVector:
    """One stochastic move vector of the tandem model (§4.5).

    ``P(m_i = 1) = µ`` for the D servers (levels 1..D) and
    ``P(m_{D+1} = 1) = λ`` for arrivals out of the reservoir.
    """
    if dimension < 1:
        raise ConfigurationError("need dimension >= 1")
    if not (0.0 <= mu <= 1.0 and 0.0 <= lam <= 1.0):
        raise ConfigurationError(f"mu={mu}, lam={lam} must be in [0,1]")
    parts = [1 if rng.random() < mu else 0 for _ in range(dimension - 1)]
    parts.append(1 if rng.random() < lam else 0)
    return tuple(parts)


def random_move_sequence(
    dimension: int,
    mu: float,
    lam: float,
    rng: random.Random,
    length: int,
) -> List[MoveVector]:
    """A finite prefix of the model's stochastic move sequence."""
    return [
        random_move_vector(dimension, mu, lam, rng) for _ in range(length)
    ]
