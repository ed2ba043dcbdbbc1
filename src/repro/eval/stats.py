"""Statistical significance for method comparisons.

The paper backs its Table IV discussion with means *and* standard
deviations; a credible reproduction should be able to say whether an
observed F1 gap survives resampling.  Two seeded, dependency-light tools:

* :func:`bootstrap_ci` — percentile bootstrap confidence interval for the
  mean of per-query scores;
* :func:`paired_permutation_test` — sign-flip permutation p-value for the
  mean difference of two methods scored on the *same* queries (the right
  test for paired per-query metrics).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.metrics import mean


@dataclass(frozen=True, slots=True)
class BootstrapCI:
    """A bootstrap interval for a mean."""

    mean: float
    low: float
    high: float
    confidence: float

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def bootstrap_ci(
    scores: list[float],
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> BootstrapCI:
    """Percentile bootstrap CI of ``mean(scores)``.

    Raises:
        ValueError: for empty input or a confidence outside (0, 1).
    """
    if not scores:
        raise ValueError("bootstrap_ci needs at least one score")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    rng = random.Random(seed)
    n = len(scores)
    means = sorted(
        mean(rng.choices(scores, k=n)) for _ in range(n_resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    low_idx = int(alpha * n_resamples)
    high_idx = min(n_resamples - 1, int((1.0 - alpha) * n_resamples))
    return BootstrapCI(
        mean=mean(scores),
        low=means[low_idx],
        high=means[high_idx],
        confidence=confidence,
    )


@dataclass(frozen=True, slots=True)
class PermutationResult:
    """Outcome of a paired permutation test."""

    observed_difference: float
    p_value: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def paired_permutation_test(
    scores_a: list[float],
    scores_b: list[float],
    n_permutations: int = 5000,
    seed: int = 0,
) -> PermutationResult:
    """Two-sided sign-flip permutation test on paired score differences.

    Under H0 (no difference between methods), each per-query difference is
    symmetric around zero, so random sign flips generate the null
    distribution of the mean difference.

    Raises:
        ValueError: when the score lists have different lengths or are
            empty.
    """
    if len(scores_a) != len(scores_b):
        raise ValueError("paired test needs equal-length score lists")
    if not scores_a:
        raise ValueError("paired test needs at least one pair")
    differences = [a - b for a, b in zip(scores_a, scores_b)]
    observed = mean(differences)
    if all(d == 0 for d in differences):
        return PermutationResult(observed_difference=0.0, p_value=1.0)
    rng = random.Random(seed)
    extreme = 0
    for _ in range(n_permutations):
        flipped = mean(d if rng.random() < 0.5 else -d for d in differences)
        if abs(flipped) >= abs(observed) - 1e-12:
            extreme += 1
    # Add-one smoothing keeps the p-value away from an impossible 0.
    p_value = (extreme + 1) / (n_permutations + 1)
    return PermutationResult(observed_difference=observed, p_value=p_value)
