"""§8 remark (2): running without pre-assigned IDs.

"If there are no IDs then the processors can randomly choose sufficiently
long IDs such that with probability 1−ε all the IDs are distinct."

The whole protocol stack (leader election, confirmation routing, DFS
ordering) only needs IDs to be *distinct and totally ordered*, so the
anonymous-network variant is: every station draws a uniform ID from a
space of size ``⌈N²/ε⌉`` (birthday bound: collision probability ≤ ε) and
proceeds as usual.  A collision is eventually caught by the Las-Vegas
setup verification — two stations claiming the same ID confuse either the
election or the confirmation count — whereupon fresh IDs are drawn.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.graphs.graph import Graph, NodeId

#: Collision probability ε the random IDs are drawn for.
ID_EPSILON = 0.01

#: Draws :func:`choose_random_ids` makes before it gives up.
ID_ATTEMPTS = 64


def id_space_size(n_bound: int, epsilon: float) -> int:
    """Smallest ID space making P[any collision] ≤ ε (birthday bound).

    With m stations drawing uniformly from S values,
    ``P[collision] ≤ m(m−1)/(2S)``; solve for S.
    """
    if n_bound < 1:
        raise ConfigurationError(f"need n_bound >= 1, got {n_bound}")
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError(f"epsilon must be in (0,1), got {epsilon}")
    return max(1, math.ceil(n_bound * (n_bound - 1) / (2.0 * epsilon)))


def collision_probability_bound(n: int, space: int) -> float:
    """The birthday upper bound ``n(n−1)/(2·space)`` (clamped to 1)."""
    if n < 0 or space < 1:
        raise ConfigurationError("need n >= 0 and space >= 1")
    return min(1.0, n * (n - 1) / (2.0 * space))


@dataclass
class AnonymousIdAssignment:
    """Result of one round of random ID choice."""

    ids: Dict[NodeId, int]  # station -> chosen ID
    space: int
    attempts: int

    @property
    def distinct(self) -> bool:
        return len(set(self.ids.values())) == len(self.ids)


def choose_random_ids(
    stations: List[NodeId],
    n_bound: int,
    rng: random.Random,
) -> AnonymousIdAssignment:
    """Draw distinct random IDs for anonymous stations.

    Each station independently draws from ``id_space_size(n_bound, ε)``
    with ε = ``ID_EPSILON``.  The draw is repeated until all IDs differ
    (the simulation's stand-in for the Las-Vegas retry that a real
    deployment performs after detecting confusion); the expected number
    of attempts is ≤ 1/(1−ε), and ``ID_ATTEMPTS`` failed draws raise
    :class:`~repro.errors.ConfigurationError`.
    """
    if len(stations) > n_bound:
        raise ConfigurationError(
            f"{len(stations)} stations exceed the bound {n_bound}"
        )
    space = id_space_size(n_bound, ID_EPSILON)
    for attempt in range(1, ID_ATTEMPTS + 1):
        ids = {station: rng.randrange(space) for station in stations}
        assignment = AnonymousIdAssignment(
            ids=ids, space=space, attempts=attempt
        )
        if assignment.distinct:
            return assignment
    raise ConfigurationError(
        f"no distinct assignment found in {ID_ATTEMPTS} attempts "
        f"(space={space}, stations={len(stations)})"
    )


def relabel_graph(
    graph: Graph, assignment: AnonymousIdAssignment
) -> Graph:
    """The same topology with stations renamed to their chosen IDs.

    Requires a distinct assignment (a simple graph cannot merge nodes).
    """
    if not assignment.distinct:
        raise ConfigurationError("cannot relabel with colliding IDs")
    ids = assignment.ids
    return Graph(
        {
            ids[node]: [ids[neighbor] for neighbor in graph.neighbors(node)]
            for node in graph.nodes
        }
    )
