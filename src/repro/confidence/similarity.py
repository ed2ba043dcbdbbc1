"""Mutual-information-entropy similarity (Eqs. 4–6 of the paper).

Each line-graph node's content is a set of attribute values; we represent a
value set by its token distribution.  The joint distribution ``p(x, y)``
between two nodes is estimated with a diagonal-boosted product kernel:

    p(x, y) ∝ p_i(x) · p_j(y) · k(x, y),   k(x, y) = 1 if x == y else ε

With ε → 1 the variables become independent (I → 0); with matching token
mass the diagonal dominates and I approaches min(H_i, H_j).  The paper's
normalization ``S = I / (H(V_i) + H(V_j))`` (Eq. 5) then yields a score in
[0, ~0.5] for noisy agreement and exactly the degenerate-case conventions
documented on :func:`similarity`:

* two identical single-valued nodes (both entropies zero) → 1.0;
* two different single-valued nodes → 0.0.

The scaling by 2 inside :func:`similarity` stretches the effective range to
[0, 1] so the paper's thresholds (0.5 graph-level, 0.7 node-level on
``S_n + A``) are directly usable.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

import repro.perf as perf
from repro.retrieval.tokenize import tokenize
from repro.util import normalize_value

#: Off-diagonal kernel mass: how much co-occurrence probability two
#: *different* tokens share.  Small but non-zero to keep logs finite.
EPSILON = 0.01


# Keyed on the value tuple *in call order* — no canonicalization, so the
# accumulation order (and therefore every float) matches an unmemoized
# computation over the same list.
@lru_cache(maxsize=16384)
def _distribution_cached(values: tuple[str, ...]) -> dict[str, float]:
    counts: Counter[str] = Counter()
    for value in values:
        tokens = tokenize(normalize_value(value), drop_stopwords=False)
        counts.update(tokens if tokens else [normalize_value(value)])
    total = sum(counts.values())
    if total == 0:
        return {}
    return {token: count / total for token, count in counts.items()}


perf.register_cache(_distribution_cached.cache_clear)


def value_distribution(values: list[str]) -> dict[str, float]:
    """Token probability distribution of a node's attribute-value set."""
    return dict(_distribution_cached(tuple(values)))


def entropy(dist: dict[str, float]) -> float:
    """Shannon entropy ``H(V)`` (Eq. 6), natural log."""
    return -sum(p * math.log(p) for p in dist.values() if p > 0.0)


def mutual_information(
    dist_i: dict[str, float],
    dist_j: dict[str, float],
    epsilon: float = EPSILON,
) -> float:
    """Mutual information ``I(v_i, v_j)`` (Eq. 4) under the product kernel."""
    if not dist_i or not dist_j:
        return 0.0
    # Joint before normalization: p_i(x) p_j(y) k(x, y).
    weights: dict[tuple[str, str], float] = {}
    total = 0.0
    for x, px in dist_i.items():
        for y, py in dist_j.items():
            w = px * py * (1.0 if x == y else epsilon)
            weights[(x, y)] = w
            total += w
    if total <= 0.0:
        return 0.0
    # Marginals of the normalized joint.
    marg_x: dict[str, float] = {}
    marg_y: dict[str, float] = {}
    for (x, y), w in weights.items():
        p = w / total
        marg_x[x] = marg_x.get(x, 0.0) + p
        marg_y[y] = marg_y.get(y, 0.0) + p
    info = 0.0
    for (x, y), w in weights.items():
        p = w / total
        if p > 0.0:
            info += p * math.log(p / (marg_x[x] * marg_y[y]))
    return max(0.0, info)


# (values_i, values_j) is an ordered key on purpose: similarity() is not
# guaranteed symmetric at the ULP level, so swapped arguments memoize
# separately rather than risk returning the mirrored float.
@lru_cache(maxsize=65536)
def _similarity_cached(
    values_i: tuple[str, ...], values_j: tuple[str, ...]
) -> float:
    norm_i = {normalize_value(v) for v in values_i}
    norm_j = {normalize_value(v) for v in values_j}
    dist_i = value_distribution(list(values_i))
    dist_j = value_distribution(list(values_j))
    h_i = entropy(dist_i)
    h_j = entropy(dist_j)
    if h_i + h_j == 0.0:
        return 1.0 if norm_i == norm_j and norm_i else 0.0
    info = mutual_information(dist_i, dist_j)
    score = 2.0 * info / (h_i + h_j)
    return max(0.0, min(1.0, score))


perf.register_cache(_similarity_cached.cache_clear)


def similarity(values_i: list[str], values_j: list[str]) -> float:
    """Normalized similarity ``S(v_i, v_j)`` (Eq. 5), clamped to [0, 1].

    Degenerate cases (zero total entropy, e.g. both nodes single-valued):
    1.0 when the normalized value sets coincide, else 0.0.
    """
    return _similarity_cached(tuple(values_i), tuple(values_j))
