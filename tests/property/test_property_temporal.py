"""Property-based tests for the temporal store."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.temporal import TemporalStore, TimestampedClaim, latest_consensus

observations = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.sampled_from(["s1", "s2", "s3"]),
        st.sampled_from(["v1", "v2", "v3"]),
    ),
    max_size=20,
)


def build_store(obs) -> TemporalStore:
    store = TemporalStore()
    store.add_all([
        TimestampedClaim(t, source, "E", "a", value) for t, source, value in obs
    ])
    return store


class TestTemporalProperties:
    @given(observations)
    @settings(max_examples=100, deadline=None)
    def test_history_sorted(self, obs):
        store = build_store(obs)
        times = [c.observed_at for c in store.history("E", "a")]
        assert times == sorted(times)

    @given(observations, st.floats(min_value=0.0, max_value=100.0,
                                   allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_as_of_monotone(self, obs, cut):
        store = build_store(obs)
        early = store.as_of("E", "a", cut)
        later = store.as_of("E", "a", 100.0)
        assert len(early) <= len(later)
        assert all(c.observed_at <= cut for c in early)

    @given(observations)
    @settings(max_examples=100, deadline=None)
    def test_latest_per_source_is_each_sources_max(self, obs):
        store = build_store(obs)
        latest = store.latest_per_source("E", "a")
        for source, claim in latest.items():
            source_times = [t for t, s, _ in obs if s == source]
            assert claim.observed_at == max(source_times)

    @given(observations)
    @settings(max_examples=100, deadline=None)
    def test_consensus_winner_among_values(self, obs):
        store = build_store(obs)
        winner, counts = latest_consensus(store, "E", "a")
        if obs:
            assert winner in {"v1", "v2", "v3"}
            assert sum(counts.values()) == len({s for _, s, _ in obs})
        else:
            assert winner is None

