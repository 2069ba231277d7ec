"""The paper's whole lifecycle, pinned end to end.

Election → Las-Vegas BFS setup → DFS preparation → collection →
point-to-point → broadcast → ranking, on a 48-station unit-disk field
(the ``stack`` benchmark's shape).  A change to a hot path of the
engine or of a protocol must leave these digests unedited: each stage's
slots, ``NetworkStats`` and results are hashed.  The election is pinned
by its result only (leaders, slots, agreement), not by its traffic, so
the number of invocations a station relays may change as long as a
successful election still returns the same leader in the same slots.
"""

import hashlib
import json
import math
import random

from repro.core import (
    apply_preparation,
    run_bit_election,
    run_broadcast,
    run_collection,
    run_dfs_preparation,
    run_point_to_point,
    run_ranking,
    run_setup,
)
from repro.graphs import random_geometric, reference_bfs_tree
from repro.profiling import profiled

N = 48
RADIUS = math.sqrt(12 / (math.pi * N))  # mean degree about 12

#: sha256 of one lifecycle's stage digests (JSON, sorted keys) per seed.
GOLDEN_LIFECYCLE = {
    1: "9e9496fd2fa66081d6c1358256cebe2a161b39e090f07e24407282b3d7c3bcb4",
    2: "18127ae71a622fd825fd9db09ee9d554f2e727b320903bbb80576237d47c0fa0",
}


def _field(seed):
    return random_geometric(N, RADIUS, random.Random(seed))


def _stats(result):
    return result.stats.as_dict()


def _lifecycle(seed):
    """Every stage's slots, stats and results, JSON-safe."""
    graph = _field(seed)
    stations = sorted(graph.nodes)
    rng = random.Random(seed + 1)
    sources = {}
    for i in range(16):
        sources.setdefault(rng.choice(stations[:-1]), []).append(f"c{i}")
    pairs = [(*rng.sample(stations, 2), f"p{i}") for i in range(16)]
    submissions = {}
    for i in range(4):
        submissions.setdefault(rng.choice(stations), []).append(f"b{i}")

    election = run_bit_election(graph, seed)
    assert election.unique and election.agreed
    setup = run_setup(graph, election.leaders[0], seed)
    tree = setup.tree
    prep = run_dfs_preparation(graph, tree)
    apply_preparation(tree, prep)
    collection = run_collection(graph, tree, sources, seed)
    p2p = run_point_to_point(graph, tree, pairs, seed)
    broadcast = run_broadcast(graph, tree, submissions, seed)
    ranking = run_ranking(graph, tree, seed)
    return {
        "election": [
            election.slots, election.leaders, election.true_max,
            election.agreed,
        ],
        "setup": [
            setup.slots, setup.attempts, setup.is_true_bfs,
            sorted(tree.parent.items()), sorted(tree.level.items()),
        ],
        "dfs": [
            prep.slots, sorted(prep.dfs_number.items()),
            sorted(prep.subtree_max.items()),
            sorted(prep.bfs_children.items()),
        ],
        "collection": [
            collection.slots, collection.phases, _stats(collection),
            [repr(m) for m in collection.delivered],
        ],
        "p2p": [
            p2p.slots, _stats(p2p),
            sorted(
                (dest, [repr(m) for m in messages])
                for dest, messages in p2p.delivered.items()
            ),
        ],
        "broadcast": [
            broadcast.slots, broadcast.superphases, broadcast.messages,
            broadcast.resends, broadcast.delivered_everywhere,
            _stats(broadcast),
        ],
        "ranking": [
            ranking.slots, ranking.collect_slots, _stats(ranking),
            sorted(ranking.ranks.items()),
        ],
    }


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class TestLifecycleGolden:
    def test_lifecycle_digests(self):
        for seed, digest in GOLDEN_LIFECYCLE.items():
            stages = _lifecycle(seed)
            assert _digest(stages) == digest, (seed, stages)

    def test_idle_profile_counters(self):
        """The idle fast path polls and skips the same station-slots."""
        graph = _field(1)
        tree = reference_bfs_tree(graph, max(graph.nodes))
        sources = {station: ["m"] for station in range(0, N - 1, 3)}
        with profiled() as profile:
            result = run_collection(graph, tree, sources, seed=4)
        counters = {
            name: profile.counters[name]
            for name in ("polled", "skipped", "scalar_slots")
        }
        assert result.slots == 964
        assert counters == {
            "polled": 276,
            "skipped": 45_996,
            "scalar_slots": 964,
        }

    def test_lifecycle_profile_counters(self):
        """Every stage polls and skips the recorded station-slots.  A
        dropped reception saves the end-of-slot work and never changes a
        poll; a lane whose head waits for the next phase (§4.1) is not
        polled before that phase."""
        with profiled() as profile:
            _lifecycle(1)
        counters = {
            name: profile.counters[name]
            for name in ("polled", "skipped", "scalar_slots")
        }
        assert counters == {
            "polled": 17_978,
            "skipped": 688_006,
            "scalar_slots": 14_708,
        }
