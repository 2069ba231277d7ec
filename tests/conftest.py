"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import threading
from pathlib import Path

import pytest

from repro.graphs import (
    Graph,
    grid,
    path,
    random_geometric,
    reference_bfs_tree,
    star,
)
from repro.radio import Process


class ScriptedProcess(Process):
    """A station that transmits a fixed script: slot -> transmissions.

    The script maps slot numbers to a slot action; unknown slots
    listen.  Engine tests use it to build exact collision scenarios.
    """

    def __init__(self, node_id, script=None):
        super().__init__(node_id)
        self.script = dict(script or {})
        self.heard: list = []

    def on_slot(self, slot):
        return self.script.get(slot)

    def on_receive(self, slot, channel, payload):
        self.heard.append((slot, channel, payload))


@pytest.fixture
def path10() -> Graph:
    return path(10)


@pytest.fixture
def star8() -> Graph:
    return star(8)


@pytest.fixture
def grid4() -> Graph:
    return grid(4, 4)


@pytest.fixture
def rgg30() -> Graph:
    """A fixed connected random geometric graph (seeded)."""
    return random_geometric(30, radius=0.32, rng=random.Random(2024))


@pytest.fixture
def prepared_rgg30(rgg30):
    """(graph, tree-with-DFS-intervals) over the fixed RGG."""
    tree = reference_bfs_tree(rgg30, root=0)
    tree.assign_dfs_intervals()
    return rgg30, tree


def small_test_graphs():
    """A deterministic assortment of small graphs for parametrized tests."""
    rng = random.Random(7)
    return [
        ("path5", path(5)),
        ("star6", star(6)),
        ("grid3x3", grid(3, 3)),
        ("rgg16", random_geometric(16, radius=0.45, rng=rng)),
    ]


class _LoopbackCoordinator:
    """A TCP coordinator on a loopback port, serving from a thread."""

    def __init__(self, root, **kwargs):
        from repro.runner import CoordServer

        kwargs.setdefault("ttl", 10.0)
        kwargs.setdefault("tick", 0.05)
        self.server = CoordServer(root, **kwargs)
        self.root = Path(root)
        self.address = self.server.start()
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    def stop(self):
        from repro.runner import CoordClient, CoordinatorUnreachable

        if not self.thread.is_alive():
            return
        client = CoordClient(self.root, timeout=2.0, offline_budget=5.0)
        try:
            client.request({"op": "stop"})
        except (CoordinatorUnreachable, OSError):
            pass
        finally:
            client.close()
        self.thread.join(timeout=5.0)
        self.server.close()
        assert not self.thread.is_alive()


@pytest.fixture
def coord_server():
    """Start loopback coordinators as ``coord_server(root, **kwargs)``.

    Each one serves from a thread until its ``stop()`` — or until the
    test ends, when every coordinator still running is stopped.
    """
    started = []

    def start(root, **kwargs):
        box = _LoopbackCoordinator(root, **kwargs)
        started.append(box)
        return box

    yield start
    for box in started:
        box.stop()
