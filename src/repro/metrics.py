"""Evaluation metrics: multi-valued P/R/F1 (Eq. 12) and Recall@K.

A foundation-layer leaf (scoring math over value sets, nothing else) so
that both ``repro.core`` and ``repro.eval`` may depend on it without an
upward edge.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.util import canonical_value


def normalized(values: Iterable[str]) -> set[str]:
    """Canonicalized value set used by every metric.

    Uses the *semantic* canonical form: "Nolan, Christopher" and
    "Christopher Nolan" count as the same answer, whichever source's
    spelling a method surfaced.
    """
    return {canonical_value(v) for v in values if str(v).strip()}


def precision(predicted: Iterable[str], gold: Iterable[str]) -> float:
    """|pred ∩ gold| / |pred|; 1.0 when nothing was predicted and gold is
    empty, 0.0 when something was predicted against empty gold."""
    pred = normalized(predicted)
    truth = normalized(gold)
    if not pred:
        return 1.0 if not truth else 0.0
    return len(pred & truth) / len(pred)


def recall(predicted: Iterable[str], gold: Iterable[str]) -> float:
    """|pred ∩ gold| / |gold|; 1.0 when gold is empty."""
    pred = normalized(predicted)
    truth = normalized(gold)
    if not truth:
        return 1.0
    return len(pred & truth) / len(truth)


def f1_score(predicted: Iterable[str], gold: Iterable[str]) -> float:
    """Harmonic mean of set precision and recall (Eq. 12)."""
    p = precision(predicted, gold)
    r = recall(predicted, gold)
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def recall_at_k(retrieved: list[str], gold: Iterable[str], k: int = 5) -> float:
    """Fraction of gold items appearing in the first ``k`` retrieved items.

    Items are compared after normalization; duplicates in ``retrieved``
    count once.
    """
    truth = normalized(gold)
    if not truth:
        return 1.0
    top = normalized(retrieved[:k])
    return len(top & truth) / len(truth)


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    xs = list(values)
    return sum(xs) / len(xs) if xs else 0.0


def std(values: Iterable[float]) -> float:
    """Population standard deviation; 0.0 for fewer than two values."""
    xs = list(values)
    if len(xs) < 2:
        return 0.0
    mu = mean(xs)
    return math.sqrt(sum((x - mu) ** 2 for x in xs) / len(xs))
