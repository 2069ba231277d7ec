"""Baseline protocols the paper is compared against (experiment E10/E12)."""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "aloha": (
        "AlohaSession",
        "aloha_session_factory",
        "aloha_success_probability",
    ),
    "naive_broadcast": (
        "FloodResult",
        "NaiveBroadcastResult",
        "flood_whp_budget",
        "naive_broadcast_reference_slots",
        "staged_flood_slots",
        "run_naive_broadcast",
        "run_single_flood",
    ),
    "sequential": (
        "SequentialForwardProcess",
        "SequentialResult",
        "run_sequential_p2p",
        "sequential_reference_slots",
    ),
    "spatial_tdma": (
        "SpatialTdmaResult",
        "distance2_coloring",
        "run_spatial_tdma_collection",
        "spatial_tdma_reference_slots",
        "verify_distance2_coloring",
    ),
    "tdma": (
        "TdmaCollectionProcess",
        "TdmaCollectionResult",
        "run_tdma_collection",
        "tdma_reference_slots",
    ),
})
