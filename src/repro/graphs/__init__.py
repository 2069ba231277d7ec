"""Topology substrate: graphs, generators, properties, BFS trees."""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "bfs_tree": ("BFSTree", "reference_bfs_tree"),
    "drawing": ("ascii_map",),
    "generators": (
        "balanced_tree",
        "caterpillar",
        "complete",
        "cycle",
        "gnp_connected",
        "grid",
        "hypercube",
        "layered_band",
        "lollipop",
        "path",
        "random_geometric",
        "random_geometric_with_positions",
        "random_tree",
        "star",
        "torus",
    ),
    "graph": ("Graph", "NodeId"),
    "properties": (
        "bfs_layers",
        "bfs_levels",
        "degree_histogram",
        "diameter",
        "eccentricity",
        "is_connected",
        "radius_and_center",
        "require_connected",
        "shortest_path",
    ),
})
