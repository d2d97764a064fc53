"""Property tests for the streaming stores over seeded random streams."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from streamaug.cycle_aug_stream import WeightedAugState
from streamaug.graph_core import WeightedEdge
from streamaug.sndp_coreset import Cascade
from streamaug.spanner_stream import SpannerState

SEEDS = st.integers(0, 2**32 - 1)


def _weight(rng: random.Random) -> int:
    return rng.choice([0, rng.randint(1, 9), rng.randint(1, 10**6)])


def _stream(rng: random.Random, n: int, m: int) -> list[WeightedEdge]:
    edges = []
    for i in range(m):
        u, v = rng.sample(range(n), 2)
        edges.append(WeightedEdge(u, v, _weight(rng), i))
    return edges


def _cycle_store(rng: random.Random) -> tuple[WeightedAugState, list[WeightedEdge]]:
    n = rng.randint(2, 9)
    # eps >= 1/n keeps the banded store, which has partitions
    eps = rng.choice([Fraction(1), Fraction(1, 2), Fraction(1, 3)][: min(n - 1, 3)])
    return WeightedAugState(n, eps), _stream(rng, n, rng.randint(1, 25))


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS)
def test_cycle_store_partitions_only_coarsen(seed):
    rng = random.Random(seed)
    state, links = _cycle_store(rng)
    top = max(state.coarse_class_of(e.w) for e in links) + 2
    ks = range(-1, top)
    before = {k: state.partition(k) for k in ks}
    for link in links:
        state.insert(link)
        after = {k: state.partition(k) for k in ks}
        for k in ks:
            assert before[k].refines(after[k]), (k, link)
        before = after


def _peaks_hold(store, edges) -> None:
    peak = store.peak_stored
    for e in edges:
        store.insert(e)
        assert store.stored_count <= store.peak_stored
        assert store.peak_stored >= peak
        peak = store.peak_stored


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS)
def test_stored_count_stays_under_a_peak_that_never_falls(seed):
    rng = random.Random(seed)
    state, links = _cycle_store(rng)
    _peaks_hold(state, links)
    n = rng.randint(2, 9)
    t = rng.randint(1, 3)
    eps = rng.choice([Fraction(1), Fraction(1, 2), Fraction(1, 4)])
    edges = _stream(rng, n, rng.randint(1, 40))
    _peaks_hold(SpannerState(n, t, eps), edges)
    _peaks_hold(Cascade(n, rng.randint(1, 3), t, eps), edges)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS)
def test_spanner_reinserting_an_eviction_changes_nothing(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    state = SpannerState(n, rng.randint(1, 3), rng.choice([Fraction(1), Fraction(1, 2)]))
    for e in _stream(rng, n, rng.randint(1, 40)):
        _accepted, evicted = state.insert(e)
        kept = state.edges()
        for gone in evicted:
            _accepted, again = state.insert(gone)
            assert again == [gone]
            assert state.edges() == kept
