"""repro — a reproduction of Bar-Yehuda, Israeli & Itai,
"Multiple Communication in Multi-Hop Radio Networks" (PODC 1989).

The package provides:

* :mod:`repro.radio` — a slot-accurate simulator of the paper's
  synchronous multi-hop radio model (no collision detection, reception iff
  exactly one transmitting neighbor);
* :mod:`repro.graphs` — topology generators and the BFS-tree substrate;
* :mod:`repro.core` — the paper's protocols: Decay, the Las-Vegas setup
  phase (leader election + distributed BFS + token-DFS preparation),
  deterministic acknowledgements, collection, point-to-point transmission,
  pipelined broadcast, and the ranking application;
* :mod:`repro.queueing` — the queueing-theoretic analysis apparatus of §4
  (Bernoulli servers, tandem queues, the model 1–4 reduction chain and the
  move-vector calculus behind it);
* :mod:`repro.baselines` — the comparison protocols (TDMA convergecast,
  sequential store-and-forward routing, non-pipelined broadcast, ALOHA);
* :mod:`repro.vector` — the NumPy lockstep batch engine: B replications
  of a grid cell simulated simultaneously, with an equivalence harness
  (exact invariants + KS test) tying it to the scalar reference;
* :mod:`repro.analysis` — replication, statistics and table harnesses for
  the experiments indexed in DESIGN.md / EXPERIMENTS.md.

Quickstart::

    from repro.graphs import random_geometric, reference_bfs_tree
    from repro.core import run_collection
    import random

    graph = random_geometric(60, radius=0.25, rng=random.Random(7))
    tree = reference_bfs_tree(graph, root=0)
    result = run_collection(
        graph, tree, sources={5: ["hello"], 17: ["world"]}, seed=42
    )
    print(result.slots, [m.payload for m in result.delivered])
"""

__version__ = "1.11.0"

from repro import core, graphs, radio
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    SimulationTimeout,
    TopologyError,
)
from repro.rng import RngFactory

__all__ = [
    "ConfigurationError",
    "ProtocolError",
    "ReproError",
    "RngFactory",
    "SimulationTimeout",
    "TopologyError",
    "core",
    "graphs",
    "radio",
    "__version__",
]
