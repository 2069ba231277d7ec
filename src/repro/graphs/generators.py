"""Topology generators for experiments.

Each generator returns a connected :class:`~repro.graphs.graph.Graph` with
integer node IDs ``0..n-1``.  The families below are chosen to sweep the two
parameters the paper's bounds depend on — the diameter ``D`` and the maximum
degree ``Δ`` — independently:

* ``path``/``cycle``: D = Θ(n), Δ ≤ 2 (deep, thin; worst case for D terms).
* ``star``: D = 2, Δ = n-1 (shallow, fat; worst case for log Δ terms).
* ``grid``: D = Θ(√n), Δ ≤ 4.
* ``random_tree`` / ``balanced_tree``: tunable depth/branching.
* ``caterpillar``: a path with leaf tufts — deep *and* locally fat.
* ``random_geometric`` (unit-disk): the classical radio-network model.
* ``gnp_connected``: Erdős–Rényi, conditioned on connectivity.

Randomized generators take a ``random.Random`` so experiments stay
reproducible (see :mod:`repro.rng`).
"""

from __future__ import annotations

import math
import random
import sys
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.graphs.graph import Graph


def _require_positive(n: int) -> None:
    if n < 1:
        raise ConfigurationError(f"need at least one node, got n={n}")


def path(n: int) -> Graph:
    """A simple path 0-1-…-(n-1); diameter n-1, Δ ≤ 2."""
    _require_positive(n)
    return Graph.from_edges(((i, i + 1) for i in range(n - 1)), nodes=range(n))


def cycle(n: int) -> Graph:
    """A cycle on n ≥ 3 nodes; diameter ⌊n/2⌋, Δ = 2."""
    if n < 3:
        raise ConfigurationError(f"a cycle needs n >= 3, got n={n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(edges)


def star(n: int) -> Graph:
    """A star with center 0 and n-1 leaves; diameter ≤ 2, Δ = n-1."""
    _require_positive(n)
    return Graph.from_edges(((0, i) for i in range(1, n)), nodes=range(n))


def complete(n: int) -> Graph:
    """The complete graph (a single-hop radio network); D = 1, Δ = n-1."""
    _require_positive(n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(edges, nodes=range(n))


def grid(rows: int, cols: int) -> Graph:
    """A ``rows × cols`` 4-connected grid; node ``r*cols + c``."""
    if rows < 1 or cols < 1:
        raise ConfigurationError("grid needs rows >= 1 and cols >= 1")
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return Graph.from_edges(edges, nodes=range(rows * cols))


def balanced_tree(branching: int, depth: int) -> Graph:
    """A complete ``branching``-ary tree of the given depth.

    Depth 0 is a single root.  Node 0 is the root; children of node v are
    assigned breadth-first.
    """
    if branching < 1:
        raise ConfigurationError("branching factor must be >= 1")
    if depth < 0:
        raise ConfigurationError("depth must be >= 0")
    edges: List[Tuple[int, int]] = []
    frontier = [0]
    next_id = 1
    for _ in range(depth):
        new_frontier: List[int] = []
        for parent in frontier:
            for _ in range(branching):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return Graph.from_edges(edges, nodes=range(next_id))


def caterpillar(spine: int, legs: int) -> Graph:
    """A path of ``spine`` nodes, each carrying ``legs`` extra leaves.

    Diameter is Θ(spine) while Δ = legs + 2, so it sweeps D and Δ together.
    """
    if spine < 1:
        raise ConfigurationError("spine must have >= 1 node")
    if legs < 0:
        raise ConfigurationError("legs must be >= 0")
    edges: List[Tuple[int, int]] = [(i, i + 1) for i in range(spine - 1)]
    next_id = spine
    for body in range(spine):
        for _ in range(legs):
            edges.append((body, next_id))
            next_id += 1
    return Graph.from_edges(edges, nodes=range(next_id))


def random_tree(n: int, rng: random.Random) -> Graph:
    """A uniformly random labelled tree via a random Prüfer sequence."""
    _require_positive(n)
    if n == 1:
        return Graph({0: []})
    if n == 2:
        return Graph.from_edges([(0, 1)])
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for node in prufer:
        degree[node] += 1
    edges: List[Tuple[int, int]] = []
    leaves = sorted(node for node in range(n) if degree[node] == 1)
    import heapq

    heapq.heapify(leaves)
    for node in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, node))
        degree[node] -= 1
        if degree[node] == 1:
            heapq.heappush(leaves, node)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(edges, nodes=range(n))


#: Resamples a connected-graph generator draws before it gives up.
SAMPLE_ATTEMPTS = 200

#: Unit-disk fields of at least this many stations find their edges with
#: NumPy array operations (:func:`_unit_disk_csr`); smaller ones run the
#: pure-Python cell list (:func:`_unit_disk_edges`), which needs no
#: NumPy.  Importing NumPy adds ~14 MiB of resident memory and ~0.1 s,
#: more than the array path saves on a small field.  The threshold is
#: the break-even of one placement (points drawn, edges found, Graph
#: built; mean degree 15.4), timed in an interpreter that had not yet
#: imported NumPy, so the array path pays the import.  Medians of five
#: on one 2-core x86-64 Linux container (Python 3.11, NumPy 2.4): 0.13
#: vs 0.15 s at 5,000 stations, 0.16 vs 0.14 s at 6,000, 0.22 vs 0.13 s
#: at 7,000 and 0.28 vs 0.17 s at 10⁴ (Python vs array).
ARRAY_MIN_N = 6000

#: Smallest cell side of the array path's grid: it keeps the cell
#: indices' float-to-int cast and the cell keys inside int64 for any
#: radius, and a pair at distance <= radius still lies in the same or
#: adjacent cells of a side >= radius.
_MIN_CELL = 2.0 ** -30

#: Half-width of the relative band around r² in which the array path's
#: squared distances do not settle a pair and ``math.dist`` does.
_DIST_BAND = 1e-9


def random_geometric(n: int, radius: float, rng: random.Random) -> Graph:
    """A connected unit-disk graph: n points in [0,1]², edge iff dist ≤ radius.

    This is the canonical model of a multi-hop radio network (stations with
    identical transmission range on a plane); sampled by
    :func:`random_geometric_with_positions`, which also returns the points.
    """
    return random_geometric_with_positions(n, radius, rng)[0]


def random_geometric_with_positions(
    n: int,
    radius: float,
    rng: random.Random,
) -> Tuple[Graph, Dict[int, Tuple[float, float]]]:
    """A connected unit-disk graph *with* the generating coordinates.

    Placement is resampled until the graph is connected; raises
    :class:`ConfigurationError` for a NaN radius, or if the radius is too
    small to connect within ``SAMPLE_ATTEMPTS`` resamples.  The accepted
    placement is returned so the field can be drawn
    (:func:`repro.graphs.ascii_map`).

    Stations i and j are joined iff ``math.dist(p_i, p_j) <= radius``.
    Both paths find the pairs with a cell-list grid (cells of side
    ``radius``, cell ``(int(x / radius), int(y / radius))``; only points
    in the same or adjacent cells are compared) — O(n · neighborhood)
    instead of the all-pairs O(n²) scan:

    * below :data:`ARRAY_MIN_N` stations, a pure-Python loop over each
      point's nine cells (:func:`_unit_disk_edges`) feeds
      :meth:`Graph.from_edges`;
    * from :data:`ARRAY_MIN_N` stations on, NumPy gathers the candidate
      pairs one offset of the half neighborhood at a time
      (:func:`_unit_disk_csr`) and :meth:`Graph.from_csr` builds the
      graph, which keeps its CSR arrays for the vector engine.  Its
      squared distances settle every pair outside a relative 1e-9 band
      around radius², and ``math.dist`` settles the pairs inside it, so
      the rule above holds exactly.

    The threshold exists because importing NumPy costs more memory and
    time than the array path saves on small fields (see
    :data:`ARRAY_MIN_N`).  The point stream is drawn from ``rng`` the
    same way on both paths and the edge sets are identical, so a sampled
    topology depends only on the rng, n and radius.
    """
    _require_positive(n)
    if math.isnan(radius):
        raise ConfigurationError("unit-disk radius must be a number, got nan")
    from repro.graphs.properties import is_connected

    build = _unit_disk_graph if n < ARRAY_MIN_N else _unit_disk_array_graph
    for _ in range(SAMPLE_ATTEMPTS):
        points = [(rng.random(), rng.random()) for _ in range(n)]
        graph = build(points, radius)
        if is_connected(graph):
            return graph, dict(enumerate(points))
        # Drop the rejected placement now: still referenced, it would
        # add to the peak while the next one is built.
        del points, graph
    raise ConfigurationError(
        f"could not sample a connected unit-disk graph with n={n}, "
        f"radius={radius} in {SAMPLE_ATTEMPTS} attempts"
    )


def _unit_disk_graph(
    points: List[Tuple[float, float]], radius: float
) -> Graph:
    return Graph.from_edges(
        _unit_disk_edges(points, radius), nodes=range(len(points))
    )


def _unit_disk_array_graph(
    points: List[Tuple[float, float]], radius: float
) -> Graph:
    return Graph.from_csr(*_unit_disk_csr(points, radius))


def _unit_disk_edges(
    points: List[Tuple[float, float]], radius: float
) -> List[Tuple[int, int]]:
    """All pairs at distance <= radius, via cell-list bucketing.

    Yields each pair once as ``(i, j)`` with i < j — the same edge set
    the naive double loop produces (Graph normalizes order anyway).
    This is the reference the array path (:func:`_unit_disk_csr`) is
    tested against.
    """
    if radius <= 0:
        return []
    cells: Dict[Tuple[int, int], List[int]] = {}
    coords: List[Tuple[int, int]] = []
    for index, (x, y) in enumerate(points):
        cell = (int(x / radius), int(y / radius))
        coords.append(cell)
        cells.setdefault(cell, []).append(index)
    edges: List[Tuple[int, int]] = []
    for i, (x, y) in enumerate(points):
        cx, cy = coords[i]
        for nx in (cx - 1, cx, cx + 1):
            for ny in (cy - 1, cy, cy + 1):
                for j in cells.get((nx, ny), ()):
                    if j > i and math.dist((x, y), points[j]) <= radius:
                        edges.append((i, j))
    return edges


def _unit_disk_csr(points: List[Tuple[float, float]], radius: float):
    """:func:`_unit_disk_edges`'s pairs as sorted CSR ``(indptr, indices)``.

    Points are sorted by cell, row-major, so each cell is one run of the
    sorted order.  Candidate pairs are gathered one offset of the half
    neighborhood at a time — later points of the own cell, then the
    cells at (0, +1), (+1, -1), (+1, 0) and (+1, +1) — so each adjacent
    pair is met once and only one offset's candidates are held at a
    time.  A pair is kept iff ``math.dist(p, q) <= radius``: the float64
    squared distance decides outside a relative :data:`_DIST_BAND`
    around radius² (its rounding error is far below that), and
    ``math.dist`` itself decides inside it.
    """
    import numpy as np

    n = len(points)
    indptr = np.zeros(n + 1, dtype=np.int64)
    if radius <= 0 or n < 2:
        return indptr, np.zeros(0, dtype=np.int64)
    coords = np.array(points, dtype=np.float64)
    cells = (coords / max(radius, _MIN_CELL)).astype(np.int64)
    # Row-major cell keys.  The width leaves one empty column, so the key
    # of a cell's (+1, -1) or (0, +1) neighbor never lands on an occupied
    # cell of another row.
    width = int(cells[:, 1].max()) + 2
    keys = cells[:, 0] * width + cells[:, 1]
    del cells
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    xs = coords[order, 0]
    ys = coords[order, 1]
    del coords
    r2 = radius * radius
    # The smallest normal float widens the band past the rounding of
    # subnormal squares, for radii below 1e-154.
    slack = r2 * _DIST_BAND + sys.float_info.min
    low = r2 - slack
    high = r2 + slack
    # Each del frees an array as soon as it is used: without them the
    # peak at n = 10⁴ about doubles (7.6 vs 3.9 MiB under tracemalloc).
    positions = np.arange(n, dtype=np.int64)
    heads: List["np.ndarray"] = []
    tails: List["np.ndarray"] = []
    for offset in (0, 1, width - 1, width, width + 1):
        # Point p's candidates are the run first[p] : first[p] + lengths[p]
        # of the sorted order: in its own cell, the points after it.
        target = keys + offset
        first = (
            positions + 1
            if offset == 0
            else np.searchsorted(keys, target, side="left")
        )
        lengths = np.searchsorted(keys, target, side="right") - first
        ends = np.cumsum(lengths)
        i = np.repeat(positions, lengths)
        j = np.repeat(first - (ends - lengths), lengths) + np.arange(
            int(ends[-1]), dtype=np.int64
        )
        del target, first, lengths, ends
        dx = xs[i] - xs[j]
        dy = ys[i] - ys[j]
        d2 = dx * dx + dy * dy
        del dx, dy
        keep = d2 < low
        for k in np.flatnonzero(~keep & (d2 <= high)).tolist():
            keep[k] = math.dist(
                points[order[i[k]]], points[order[j[k]]]
            ) <= radius
        del d2
        heads.append(order[i[keep]])
        tails.append(order[j[keep]])
        del i, j, keep
    u = np.concatenate(heads)
    v = np.concatenate(tails)
    del heads, tails
    # Both directions of every edge, sorted by (row, column).
    flat = np.concatenate((u * n + v, v * n + u))
    del u, v
    flat.sort()
    np.cumsum(np.bincount(flat // n, minlength=n), out=indptr[1:])
    return indptr, flat % n


def gnp_connected(n: int, p: float, rng: random.Random) -> Graph:
    """A connected Erdős–Rényi G(n, p) graph (resampled until connected)."""
    _require_positive(n)
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"edge probability must be in [0,1], got {p}")
    from repro.graphs.properties import is_connected

    for _ in range(SAMPLE_ATTEMPTS):
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        graph = Graph.from_edges(edges, nodes=range(n))
        if is_connected(graph):
            return graph
    raise ConfigurationError(
        f"could not sample a connected G({n}, {p}) in {SAMPLE_ATTEMPTS} "
        "attempts"
    )


def lollipop(clique_size: int, tail: int) -> Graph:
    """A clique with a path attached: simultaneously large Δ and large D."""
    if clique_size < 1 or tail < 0:
        raise ConfigurationError("need clique_size >= 1 and tail >= 0")
    edges = [
        (i, j) for i in range(clique_size) for j in range(i + 1, clique_size)
    ]
    previous = 0
    next_id = clique_size
    for _ in range(tail):
        edges.append((previous, next_id))
        previous = next_id
        next_id += 1
    return Graph.from_edges(edges, nodes=range(next_id))


def layered_band(layers: int, width: int) -> Graph:
    """``layers`` levels of ``width`` nodes; consecutive levels fully joined.

    This is the worst-case shape for Theorem 4.1: every node of level i+1 is
    within range of *all* nodes of level i, so intra-layer contention is
    maximal while the BFS structure stays trivial (D = layers - 1,
    Δ = 2·width — or width+(width-1) at the ends).
    """
    if layers < 1 or width < 1:
        raise ConfigurationError("need layers >= 1 and width >= 1")
    edges: List[Tuple[int, int]] = []
    for layer in range(layers):
        base = layer * width
        for a in range(width):
            for b in range(a + 1, width):
                edges.append((base + a, base + b))
        if layer + 1 < layers:
            for a in range(width):
                for b in range(width):
                    edges.append((base + a, base + width + b))
    return Graph.from_edges(edges, nodes=range(layers * width))


def hypercube(dimension: int) -> Graph:
    """The d-dimensional hypercube: n = 2^d, D = d, Δ = d.

    D and Δ grow *together* (both log n) — the regime where the paper's
    log Δ factors and the diameter term are balanced.
    """
    if dimension < 0:
        raise ConfigurationError(f"dimension must be >= 0, got {dimension}")
    n = 1 << dimension
    edges = [
        (v, v ^ (1 << bit))
        for v in range(n)
        for bit in range(dimension)
        if v < (v ^ (1 << bit))
    ]
    return Graph.from_edges(edges, nodes=range(n))


def torus(rows: int, cols: int) -> Graph:
    """A ``rows × cols`` torus (grid with wraparound); Δ ≤ 4, D = ⌊r/2⌋+⌊c/2⌋.

    Rows/cols of 1 or 2 would create self-loops or parallel edges, so
    both must be ≥ 3.
    """
    if rows < 3 or cols < 3:
        raise ConfigurationError("torus needs rows >= 3 and cols >= 3")
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            edges.append((node, r * cols + (c + 1) % cols))
            edges.append((node, ((r + 1) % rows) * cols + c))
    return Graph.from_edges(edges, nodes=range(rows * cols))
