"""A minimal undirected-graph type for radio topologies.

The simulator only ever needs neighbor queries, so :class:`Graph` stores a
plain adjacency map.  It is deliberately independent of :mod:`networkx`
(which is used only by some generators and tests as a cross-check) so the
hot simulation loop stays allocation-free and easy to reason about.

Nodes are arbitrary hashable IDs; the paper assumes distinct IDs with a
total order (stations compare IDs during leader election and DFS), so all
generators in :mod:`repro.graphs.generators` use integers.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, List, Optional,
    Tuple,
)

from repro.errors import TopologyError

if TYPE_CHECKING:  # NumPy is imported only by the CSR methods that need it.
    import numpy as np

NodeId = Hashable


class Graph:
    """An undirected simple graph backed by an adjacency map.

    The constructor copies and normalizes its input: neighbor lists are
    deduplicated, sorted (for deterministic iteration), and checked for
    symmetry and self-loops.  After construction the graph is treated as
    immutable; mutation goes through :meth:`with_edge` / :meth:`without_node`
    which return new graphs.
    """

    __slots__ = ("_adj", "_nodes", "_num_edges", "_csr", "_max_degree")

    def __init__(self, adjacency: Dict[NodeId, Iterable[NodeId]]):
        adj: Dict[NodeId, Tuple[NodeId, ...]] = {}
        for node, neighbors in adjacency.items():
            unique = sorted(set(neighbors))
            if node in unique:
                raise TopologyError(f"self-loop at node {node!r}")
            adj[node] = tuple(unique)
        for node, neighbors in adj.items():
            for other in neighbors:
                if other not in adj:
                    raise TopologyError(
                        f"edge ({node!r}, {other!r}) references unknown node"
                    )
                if node not in adj[other]:
                    raise TopologyError(
                        f"asymmetric adjacency: {node!r}->{other!r} present, "
                        f"reverse missing"
                    )
        self._adj = adj
        self._nodes = tuple(sorted(adj))
        self._num_edges = sum(len(v) for v in adj.values()) // 2
        self._csr = None
        self._max_degree: Optional[int] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[NodeId, NodeId]], nodes: Iterable[NodeId] = ()
    ) -> "Graph":
        """Build a graph from an edge list (plus optional isolated nodes)."""
        adj: Dict[NodeId, List[NodeId]] = {node: [] for node in nodes}
        for u, v in edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        return cls(adj)

    @classmethod
    def from_csr(
        cls, indptr: Iterable[int], indices: Iterable[int]
    ) -> "Graph":
        """A graph on nodes ``0..n-1`` from its sorted CSR adjacency.

        Node v's neighbors are ``indices[indptr[v]:indptr[v + 1]]``, each
        row strictly increasing.  Array operations check what the
        constructor checks of an adjacency map (every index in range, no
        self-loop, no repeated neighbor, symmetry); the int64 copies of
        both arrays are kept, read-only, as :meth:`csr`.  Needs NumPy.
        """
        import numpy as np

        indptr = _index_array(indptr, "indptr")
        indices = _index_array(indices, "indices")
        n = indptr.size - 1
        degrees = np.diff(indptr)
        if (
            n < 0
            or indptr[0] != 0
            or indptr[-1] != indices.size
            or (degrees < 0).any()
        ):
            raise TopologyError(
                "malformed CSR indptr: it must start at 0, never decrease "
                f"and end at len(indices) = {indices.size}"
            )
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise TopologyError(
                f"CSR indices reference a node outside 0..{n - 1}"
            )
        rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        loops = np.flatnonzero(indices == rows)
        if loops.size:
            raise TopologyError(f"self-loop at node {int(rows[loops[0]])}")
        # Row-major keys increase strictly iff every row does.
        keys = rows * n + indices
        if (np.diff(keys) <= 0).any():
            raise TopologyError(
                "CSR rows must be strictly increasing (a neighbor is "
                "unsorted or repeated)"
            )
        if not np.array_equal(np.sort(indices * n + rows), keys):
            raise TopologyError("asymmetric CSR adjacency")
        del rows, keys
        # One int object per node, shared by every tuple that names it:
        # an object array holds references, so gathering from it copies
        # no ints.
        ids = list(range(n))
        flat = np.array(ids, dtype=object)[indices].tolist()
        bounds = indptr.tolist()
        graph = cls.__new__(cls)
        graph._adj = {
            v: tuple(flat[bounds[v]:bounds[v + 1]]) for v in ids
        }
        graph._nodes = tuple(ids)
        graph._num_edges = indices.size // 2
        graph._max_degree = int(degrees.max()) if n else 0
        indptr.flags.writeable = False
        indices.flags.writeable = False
        graph._csr = (indptr, indices)
        return graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """All node IDs, sorted."""
        return self._nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Neighbors of ``node``, sorted."""
        return self._adj[node]

    def degree(self, node: NodeId) -> int:
        return len(self._adj[node])

    def max_degree(self) -> int:
        """Δ, the maximum degree (0 for an empty or single-node graph).

        Scanned on the first call and kept, as :meth:`csr` keeps its
        arrays: the graph is immutable.
        """
        if self._max_degree is None:
            self._max_degree = max(
                (len(v) for v in self._adj.values()), default=0
            )
        return self._max_degree

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return v in self._adj.get(u, ())

    def edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u in self._nodes:
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def csr(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """The adjacency as read-only int64 CSR arrays ``(indptr, indices)``.

        Nodes are numbered by position in :attr:`nodes`:
        ``indices[indptr[i]:indptr[i + 1]]`` are the positions of
        ``nodes[i]``'s neighbors, ascending.  A graph not built by
        :meth:`from_csr` derives them on the first call.  Needs NumPy.
        """
        if self._csr is None:
            import numpy as np

            position = {node: i for i, node in enumerate(self._nodes)}
            n = len(self._nodes)
            degrees = np.fromiter(
                (len(self._adj[node]) for node in self._nodes),
                dtype=np.int64,
                count=n,
            )
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            indices = np.fromiter(
                (position[v] for u in self._nodes for v in self._adj[u]),
                dtype=np.int64,
                count=int(indptr[-1]),
            )
            indptr.flags.writeable = False
            indices.flags.writeable = False
            self._csr = (indptr, indices)
        return self._csr

    def __contains__(self, node: NodeId) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash(tuple((n, self._adj[n]) for n in self._nodes))

    def __repr__(self) -> str:
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def with_edge(self, u: NodeId, v: NodeId) -> "Graph":
        """A new graph with edge ``(u, v)`` added (nodes created if new)."""
        adj = {node: list(neigh) for node, neigh in self._adj.items()}
        adj.setdefault(u, [])
        adj.setdefault(v, [])
        if v not in adj[u]:
            adj[u].append(v)
            adj[v].append(u)
        return Graph(adj)

    def without_node(self, node: NodeId) -> "Graph":
        """A new graph with ``node`` and its incident edges removed."""
        if node not in self._adj:
            raise TopologyError(f"unknown node {node!r}")
        adj = {
            n: [w for w in neigh if w != node]
            for n, neigh in self._adj.items()
            if n != node
        }
        return Graph(adj)

    def subgraph(self, keep: Iterable[NodeId]) -> "Graph":
        """The induced subgraph on ``keep``."""
        keep_set = set(keep)
        unknown = keep_set - set(self._adj)
        if unknown:
            raise TopologyError(f"unknown nodes {sorted(unknown)!r}")
        adj = {
            n: [w for w in self._adj[n] if w in keep_set]
            for n in keep_set
        }
        return Graph(adj)


def _index_array(values: Iterable[int], name: str) -> "np.ndarray":
    """An int64 copy of a one-dimensional integer array (or sequence)."""
    import numpy as np

    array = np.asarray(values)
    if array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
        raise TopologyError(
            f"CSR {name} must be a one-dimensional integer array"
        )
    return array.astype(np.int64)
