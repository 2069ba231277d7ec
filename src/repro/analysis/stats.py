"""Statistics utilities for experiment harnesses.

Kept dependency-light (plain Python + math); SciPy is only used by tests
for cross-validation, never by the library itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Summary:
    """Mean with a normal-approximation confidence interval."""

    mean: float
    stddev: float
    count: int
    ci_low: float
    ci_high: float

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.ci_half_width:.2f} (n={self.count})"


def summarize(samples: Sequence[float]) -> Summary:
    """Mean, sample stddev and a 95% normal interval (z = 1.96) for the
    mean."""
    if not samples:
        raise ConfigurationError("cannot summarize an empty sample")
    n = len(samples)
    mean = sum(samples) / n
    if n > 1:
        variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    else:
        variance = 0.0
    stddev = math.sqrt(variance)
    half = 1.96 * stddev / math.sqrt(n)
    return Summary(
        mean=mean,
        stddev=stddev,
        count=n,
        ci_low=mean - half,
        ci_high=mean + half,
    )


def quantile(samples: Sequence[float], p: float) -> float:
    """Exact p-quantile by sorted linear interpolation.

    Uses the inclusive midpoint convention (numpy's default
    ``linear``): the p-quantile of n samples sits at rank
    ``p·(n−1)`` of the sorted data, interpolating between the two
    nearest order statistics.  This is the ground truth the streaming
    :class:`repro.analysis.sketches.P2Quantile` sketch is validated
    against.
    """
    if not samples:
        raise ConfigurationError("cannot take a quantile of an empty sample")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"quantile must be in [0,1], got {p}")
    ordered = sorted(float(v) for v in samples)
    rank = p * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit ``y ≈ slope·x + intercept``."""
    if len(xs) != len(ys):
        raise ConfigurationError("x/y length mismatch")
    if len(xs) < 2:
        raise ConfigurationError("need at least two points to fit a line")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ConfigurationError("degenerate fit: all x equal")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, mean_y - slope * mean_x

def r_squared(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Coefficient of determination of the linear fit."""
    slope, intercept = linear_fit(xs, ys)
    mean_y = sum(ys) / len(ys)
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def scaling_exponent(sizes: Sequence[float], costs: Sequence[float]) -> float:
    """Fit ``cost ≈ c·size^α`` and return α (log–log slope).

    Experiments use this to check measured growth against the paper's
    orders: e.g. collection slots vs k should fit α ≈ 1 at fixed D, Δ.
    """
    if any(s <= 0 for s in sizes) or any(c <= 0 for c in costs):
        raise ConfigurationError("scaling fit requires positive data")
    slope, _intercept = linear_fit(
        [math.log(s) for s in sizes], [math.log(c) for c in costs]
    )
    return slope


def geometric_pmf(p: float, k: int) -> float:
    """P[Geom(p) = k] for k ≥ 1 (support on {1, 2, …})."""
    if not 0.0 < p <= 1.0:
        raise ConfigurationError(f"p must be in (0,1], got {p}")
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    return p * (1.0 - p) ** (k - 1)


def total_variation_distance(
    p: Sequence[float], q: Sequence[float]
) -> float:
    """½·Σ|p_i − q_i| over the common support (padded with zeros)."""
    length = max(len(p), len(q))
    padded_p = list(p) + [0.0] * (length - len(p))
    padded_q = list(q) + [0.0] * (length - len(q))
    return 0.5 * sum(abs(a - b) for a, b in zip(padded_p, padded_q))


@dataclass(frozen=True)
class KSResult:
    """Two-sample Kolmogorov–Smirnov outcome."""

    statistic: float  # sup |F1 - F2|
    pvalue: float  # asymptotic two-sided p-value
    n1: int
    n2: int

    def rejects(self, alpha: float = 0.01) -> bool:
        return self.pvalue < alpha


def _ks_pvalue(lam: float) -> float:
    """Asymptotic Kolmogorov Q(λ) = 2·Σ (−1)^{j−1}·exp(−2 j² λ²)."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, total))


def ks_2sample(
    sample1: Sequence[float], sample2: Sequence[float]
) -> KSResult:
    """Two-sample KS test: are the samples from one distribution?

    Exact D statistic over the pooled support; asymptotic two-sided
    p-value via the Kolmogorov distribution with the standard
    small-sample correction ``λ = (√n_e + 0.12 + 0.11/√n_e)·D``
    (Numerical Recipes §14.3).  The vector-engine equivalence harness
    uses this to compare scalar vs vector completion-slot distributions;
    ties (both samples are integer slot counts) are handled by stepping
    both empirical CDFs through the pooled sorted values.
    """
    if not sample1 or not sample2:
        raise ConfigurationError("KS test requires two non-empty samples")
    xs = sorted(float(v) for v in sample1)
    ys = sorted(float(v) for v in sample2)
    n1, n2 = len(xs), len(ys)
    i = j = 0
    d = 0.0
    while i < n1 and j < n2:
        value = min(xs[i], ys[j])
        while i < n1 and xs[i] <= value:
            i += 1
        while j < n2 and ys[j] <= value:
            j += 1
        d = max(d, abs(i / n1 - j / n2))
    effective = n1 * n2 / (n1 + n2)
    root = math.sqrt(effective)
    lam = (root + 0.12 + 0.11 / root) * d
    return KSResult(statistic=d, pvalue=_ks_pvalue(lam), n1=n1, n2=n2)
