"""ASCII rendering of positioned radio networks.

Unit-disk graphs are *geometric* objects — stations on a plane with a
common transmission radius — and debugging a protocol is much easier
when you can see the field.  This module renders positioned networks as
character maps: stations as symbols placed by their coordinates, with
optional per-station annotations (BFS level, leader marker, load).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.graphs.graph import Graph, NodeId

Position = Tuple[float, float]


def ascii_map(
    graph: Graph,
    positions: Dict[NodeId, Position],
    width: int = 60,
    height: int = 24,
    label: Optional[Callable[[NodeId], str]] = None,
) -> str:
    """Render stations on a character grid by their coordinates.

    ``label(node)`` supplies the 1-character symbol (default: last digit
    of the ID; overlapping stations render as ``*``).  Coordinates are
    normalized to the bounding box of the positions.
    """
    if width < 4 or height < 3:
        raise ConfigurationError("map needs width >= 4 and height >= 3")
    missing = set(graph.nodes) - set(positions)
    if missing:
        raise ConfigurationError(
            f"no positions for stations {sorted(missing)[:5]!r}"
        )
    xs = [positions[v][0] for v in graph.nodes]
    ys = [positions[v][1] for v in graph.nodes]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x = max(1e-12, max_x - min_x)
    span_y = max(1e-12, max_y - min_y)
    grid = [[" " for _ in range(width)] for _ in range(height)]
    for node in graph.nodes:
        x, y = positions[node]
        col = min(width - 1, int((x - min_x) / span_x * (width - 1)))
        row = min(
            height - 1, int((max_y - y) / span_y * (height - 1))
        )  # y grows upward
        symbol = (
            label(node) if label is not None else str(node)[-1]
        ) or "?"
        cell = grid[row][col]
        grid[row][col] = symbol[0] if cell == " " else "*"
    border = "+" + "-" * width + "+"
    body = "\n".join("|" + "".join(row) + "|" for row in grid)
    return f"{border}\n{body}\n{border}"

