"""Reactive workloads: arrival processes and streaming drivers."""

from repro.workloads.arrivals import (
    ArrivalProcess,
    BernoulliArrivals,
    BurstArrivals,
    DeterministicSchedule,
    PoissonArrivals,
)
from repro.workloads.driver import (
    MessageRecord,
    StreamingResult,
    run_streaming_collection,
    run_streaming_p2p,
)

__all__ = [
    "ArrivalProcess",
    "BernoulliArrivals",
    "BurstArrivals",
    "DeterministicSchedule",
    "MessageRecord",
    "PoissonArrivals",
    "StreamingResult",
    "run_streaming_collection",
    "run_streaming_p2p",
]
