"""Richer failure models for robustness experiments.

The base hierarchy (:class:`~repro.radio.failures.FailureModel` and the
scripted/Bernoulli models) lives in :mod:`repro.radio.failures`; this
package adds the stochastic and adversarial models used by the
fault-tolerance layer and the resilience harness:

* :class:`MarkovChurn` — stations crash and recover as independent
  two-state Markov chains (mean up/down times set by the rates);
* :class:`GilbertElliott` — bursty link fading: each directed link is a
  good/bad two-state chain with state-dependent loss probabilities;
* :class:`RegionOutage` — a whole set of stations goes dark for a slot
  window (models a regional power cut or a partition-inducing outage);
* :class:`AdversarialJammer` — a duty-cycled jammer that blanks every
  reception at targeted stations during its jam windows.

All stochastic models are seeded through the repo's RNG discipline
(:func:`repro.rng.derive_seed`): per-node and per-link streams are derived
from a single seed via stable keys, so results are reproducible and
independent of the order in which the engine queries the model.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "churn": ("MarkovChurn",),
    "fading": ("GilbertElliott",),
    "jammer": ("AdversarialJammer",),
    "regional": ("RegionOutage", "subtree_outage"),
})
