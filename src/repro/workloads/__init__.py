"""Reactive workloads: arrival processes and streaming drivers."""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "arrivals": (
        "ArrivalProcess",
        "BernoulliArrivals",
        "BurstArrivals",
        "DeterministicSchedule",
        "PoissonArrivals",
    ),
    "driver": (
        "MessageRecord",
        "StreamingResult",
        "run_streaming_collection",
        "run_streaming_p2p",
    ),
})
