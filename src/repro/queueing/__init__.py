"""Queueing-theoretic apparatus of §4: Bernoulli servers, tandem queues,
the model 1–4 reduction chain, and the move-vector calculus."""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "analysis": (
        "expected_queue_length",
        "expected_sojourn_time",
        "geometric_ratio",
        "optimal_lambda",
        "sample_stationary_queue_length",
        "stationary_distribution",
        "stationary_probability",
        "tandem_completion_time",
        "utilization",
    ),
    "bernoulli": (
        "BernoulliServer",
        "SingleServerObservation",
        "interdeparture_histogram",
        "observe_single_server",
    ),
    "busy": (
        "BusyPeriodObservation",
        "busy_fraction",
        "mean_busy_period",
        "mean_idle_period",
        "observe_busy_periods",
    ),
    "exact": (
        "completion_time_distribution",
        "expected_completion_exact",
        "expected_completion_model2_exact",
        "expected_completion_model3_exact",
        "reachable_states",
    ),
    "moves": (
        "MoveVector",
        "Partition",
        "completion_time",
        "dominates",
        "is_empty",
        "move",
        "move_sequence_witness",
        "move_star",
        "precedes",
        "random_move_sequence",
        "random_move_vector",
        "singleton",
        "singleton_decomposition",
        "suffix_sums",
    ),
    "tandem": (
        "TandemRunResult",
        "mean_completion",
        "model4_prediction",
        "radio_completion_phases",
        "simulate_model2",
        "simulate_model3",
        "simulate_model4",
    ),
})
