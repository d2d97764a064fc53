"""Tests for the streaming rooted-cycle augmentation stores."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from streamaug.cycle_aug_stream import UnweightedArcStore, WeightedAugState
from streamaug.errors import Infeasible, SizeGuardError
from streamaug.graph_core import WeightedEdge, three_edge_components

import support


def _ring(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _links(pairs):
    return [WeightedEdge(u, v, w, i) for i, (u, v, w) in enumerate(pairs)]


def _random_links(rng, n, m, wide=False):
    out = []
    for i in range(m):
        u, v = rng.sample(range(n), 2)
        w = rng.randint(1, 9) * 10 ** rng.randint(0, 12) if wide else 1
        out.append(WeightedEdge(u, v, w, i))
    return out


def _arc_covers(arc, l, r):
    return l <= arc.y <= r and not (l <= arc.x <= r)


# -- unweighted store -------------------------------------------------------


def test_unweighted_store_rejects_single_vertex():
    with pytest.raises(ValueError):
        UnweightedArcStore(1)


def test_unweighted_insert_validates_links():
    store = UnweightedArcStore(6)
    with pytest.raises(ValueError):
        store.insert(WeightedEdge(0, 6, 1, 0))
    with pytest.raises(ValueError):
        store.insert(WeightedEdge(3, 3, 1, 0))


def test_first_link_stores_both_directions():
    store = UnweightedArcStore(10)
    store.insert(WeightedEdge(2, 6, 1, 0))
    assert sorted((a.x, a.y) for a in store.arcs()) == [(2, 6), (6, 2)]


def test_smaller_tail_wins_on_the_low_side():
    store = UnweightedArcStore(10)
    store.insert(WeightedEdge(1, 5, 1, 0))
    store.insert(WeightedEdge(3, 5, 1, 1))
    low_into_5 = [a for a in store.arcs() if a.y == 5 and a.x < 5]
    assert [(a.x, a.y) for a in low_into_5] == [(1, 5)]
    # the loser still contributes its reverse arc at head 3
    assert any((a.x, a.y) == (5, 3) for a in store.arcs())


def test_larger_tail_wins_on_the_high_side():
    store = UnweightedArcStore(10)
    store.insert(WeightedEdge(7, 5, 1, 0))
    store.insert(WeightedEdge(9, 5, 1, 1))
    high_into_5 = [a for a in store.arcs() if a.y == 5 and a.x > 5]
    assert [(a.x, a.y) for a in high_into_5] == [(9, 5)]


def test_equal_tails_keep_the_earlier_arrival():
    store = UnweightedArcStore(10)
    store.insert(WeightedEdge(1, 5, 1, 0))
    store.insert(WeightedEdge(5, 1, 1, 1))
    kept = [a for a in store.arcs() if (a.x, a.y) == (1, 5)]
    assert len(kept) == 1 and kept[0].origin.arrival == 0


def test_no_arc_points_at_the_root():
    store = UnweightedArcStore(8)
    store.insert(WeightedEdge(0, 4, 1, 0))
    store.insert(WeightedEdge(6, 0, 1, 1))
    assert all(a.y != 0 for a in store.arcs())
    assert sorted((a.x, a.y) for a in store.arcs()) == [(0, 4), (0, 6)]


def test_unweighted_store_size_bound():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(3, 9)
        store = UnweightedArcStore(n)
        for link in _random_links(rng, n, 40):
            store.insert(link)
            assert len(store) <= 2 * (n - 1)


def test_dominance_preserves_interval_coverage():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(3, 9)
        store = UnweightedArcStore(n)
        links = _random_links(rng, n, rng.randint(1, 25))
        for link in links:
            store.insert(link)
        for l, r in support.interval_cuts(n):
            ingested = any(support.chord_splits(e.u, e.v, l, r) for e in links)
            stored = any(_arc_covers(a, l, r) for a in store.arcs())
            assert stored == ingested


def test_unweighted_finalize_two_crossing_chords():
    store = UnweightedArcStore(4)
    for link in _links([(1, 3, 1), (0, 2, 1)]):
        store.insert(link)
    links, count = store.finalize()
    assert count == 2
    assert support.link_multiset(links) == [(0, 2, 1), (1, 3, 1)]


def test_unweighted_finalize_single_chord_infeasible():
    store = UnweightedArcStore(3)
    store.insert(WeightedEdge(0, 1, 1, 0))
    with pytest.raises(Infeasible):
        store.finalize()


def test_unweighted_finalize_triangle_pair():
    store = UnweightedArcStore(3)
    store.insert(WeightedEdge(0, 1, 1, 0))
    store.insert(WeightedEdge(0, 2, 1, 1))
    _links_out, count = store.finalize()
    assert count == 2


def test_unweighted_finalize_two_vertex_cycle():
    store = UnweightedArcStore(2)
    store.insert(WeightedEdge(0, 1, 1, 0))
    links, count = store.finalize()
    assert count == 1 and links[0].pair == (0, 1)


def test_unweighted_finalize_within_twice_optimum():
    rng = random.Random(43)
    for n in range(4, 9):
        for _ in range(6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            store = UnweightedArcStore(n)
            for i, (u, v) in enumerate(pairs):
                store.insert(WeightedEdge(u, v, 1, i))
            opt = support.undirected_cycle_opt(n, [(u, v, 1) for u, v in pairs])
            assert opt is not None
            _links_out, count = store.finalize()
            assert count <= 2 * opt[0]


# -- weighted store ---------------------------------------------------------


def test_weighted_store_parameter_validation():
    with pytest.raises(ValueError):
        WeightedAugState(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        WeightedAugState(5, 0)
    with pytest.raises(ValueError):
        WeightedAugState(5, 2)
    state = WeightedAugState(5, Fraction(1, 2))
    with pytest.raises(ValueError):
        state.insert(WeightedEdge(0, 5, 1, 0))
    with pytest.raises(ValueError):
        state.insert(WeightedEdge(2, 2, 1, 0))
    with pytest.raises(ValueError):
        state.insert(WeightedEdge(0, 2, -1, 0))


def test_tiny_epsilon_keeps_cheapest_link_per_pair():
    state = WeightedAugState(8, Fraction(1, 10))
    assert state.is_trivial
    state.insert(WeightedEdge(0, 3, 5, 0))
    state.insert(WeightedEdge(3, 0, 2, 1))
    state.insert(WeightedEdge(0, 3, 2, 2))
    state.insert(WeightedEdge(2, 6, 7, 3))
    assert state.stored_count == 2
    assert state.forest_classes() == []
    kept = {a.origin.pair: a.origin for a in state.all_arcs()}
    assert kept[(0, 3)].w == 2 and kept[(0, 3)].arrival == 1
    assert kept[(2, 6)].w == 7
    # both directions of each survivor feed the final solve
    assert len(state.all_arcs()) == 4


def test_zero_weight_links_form_their_own_class():
    state = WeightedAugState(5, Fraction(1, 2))
    assert state.coarse_class_of(0) == -1
    state.insert(WeightedEdge(0, 2, 0, 0))
    state.insert(WeightedEdge(2, 0, 0, 1))
    assert state.forest_classes() == [-1]
    assert support.link_multiset(state.forest_edges(-1)) == [(0, 2, 0)]
    # zero links never enter the deferred arc table
    assert state.arc_count() == 0


def test_cheap_chords_delete_redundant_heavy_link():
    # on the 6-cycle the chords (1,4) and (2,5) give 2 and 4 three
    # edge-disjoint paths, so a heavy (2,4) link two coarse classes up
    # is redundant whichever order the stream presents them in
    cheap = [(1, 4, 1), (2, 5, 1)]
    heavy = (2, 4, 1000)
    for order in (cheap + [heavy], [heavy] + cheap):
        state = WeightedAugState(6, Fraction(1, 2))
        assert state.coarse_class_of(1) == 0
        assert state.coarse_class_of(1000) == 2
        for link in _links(order):
            state.insert(link)
        assert state.forest_edges(2) == []
        assert support.link_multiset(state.forest_edges(0)) == [
            (1, 4, 1),
            (2, 5, 1),
        ]


def test_forest_budget_after_every_insert():
    rng = random.Random(44)
    for _ in range(15):
        n = rng.randint(4, 10)
        state = WeightedAugState(n, Fraction(1, 2))
        for link in _random_links(rng, n, 30, wide=True):
            state.insert(link)
            assert state.forest_count() <= 2 * (n - 1)


def test_screening_preserves_three_edge_components():
    rng = random.Random(45)
    for _ in range(12):
        n = rng.randint(4, 9)
        state = WeightedAugState(n, Fraction(1, 2))
        ingested = []
        for link in _random_links(rng, n, 20, wide=True):
            state.insert(link)
            ingested.append(link)
        classes = {state.coarse_class_of(e.w) for e in ingested}
        for k in classes:
            chain = [
                e
                for e in ingested
                if state.coarse_class_of(e.w) == -1
                or (
                    0 <= state.coarse_class_of(e.w) <= k
                    and state.coarse_class_of(e.w) % 2 == k % 2
                )
            ]
            edges = _ring(n) + [(e.u, e.v) for e in chain]
            if k == -1:
                edges = _ring(n) + [
                    (e.u, e.v) for e in ingested if state.coarse_class_of(e.w) == -1
                ]
            assert state.partition(k) == three_edge_components(edges, n)


def test_peak_counts_start_at_zero_and_stay_small():
    state = WeightedAugState(5, Fraction(1, 2))
    assert state.peak_stored == 0
    state.insert(WeightedEdge(0, 2, 7, 0))
    # one forest link plus its two deferred arcs
    assert state.stored_count == 3
    assert state.peak_stored == 3


def test_peak_tracks_running_maximum():
    rng = random.Random(46)
    n = 8
    state = WeightedAugState(n, Fraction(1, 2))
    high = 0
    for link in _random_links(rng, n, 40, wide=True):
        state.insert(link)
        high = max(high, state.stored_count)
        assert state.peak_stored >= state.stored_count
    # insert counts the fresh link before screening runs, so the peak may
    # sit one above the largest count observable between inserts
    assert high <= state.peak_stored <= high + 1


def test_weighted_finalize_two_crossing_chords():
    state = WeightedAugState(4, Fraction(1, 2))
    for link in _links([(0, 2, 1), (1, 3, 1)]):
        state.insert(link)
    links, weight = state.finalize()
    assert weight == 2
    assert support.link_multiset(links) == [(0, 2, 1), (1, 3, 1)]


def test_weighted_finalize_single_link_infeasible():
    state = WeightedAugState(5, Fraction(1, 2))
    state.insert(WeightedEdge(0, 2, 1, 0))
    with pytest.raises(Infeasible):
        state.finalize()


def test_weighted_finalize_feasible_and_within_ratio():
    rng = random.Random(47)
    for trial in range(30):
        n = rng.randint(4, 8)
        eps = rng.choice([Fraction(1, 4), Fraction(1, 2)])
        # a full star from the root keeps every instance feasible
        links = [
            WeightedEdge(0, j, rng.randint(1, 9) * 10 ** rng.randint(0, 6), j)
            for j in range(1, n)
        ]
        links += _random_links(rng, n, rng.randint(0, 8), wide=True)
        for i, e in enumerate(links):
            links[i] = WeightedEdge(e.u, e.v, e.w, i)
        state = WeightedAugState(n, eps)
        for link in links:
            state.insert(link)
        chosen, weight = state.finalize()
        for l, r in support.interval_cuts(n):
            assert any(support.chord_splits(e.u, e.v, l, r) for e in chosen)
        opt = support.undirected_cycle_opt(n, [(e.u, e.v, e.w) for e in links])
        assert opt is not None
        assert weight <= (2 + 6 * eps) * opt[0]


# -- interval bitsets against the generic 3-edge-connectivity routes --------


class _ThreeEccStore(WeightedAugState):
    """The store screening through ``three_edge_components`` on every question.

    This is how the store worked before interval bitsets: each partition and
    each kept link re-ran the generic routes (cut table up to n = 18,
    pairwise max-flow above).
    """

    def partition(self, k):
        if k not in self._parts:
            edges = _ring(self.n) + list(self._forest.get(-1, ()))
            for kk in range(k, -1, -2):
                edges.extend(self._forest.get(kk, ()))
            self._parts[k] = three_edge_components(edges, self.n)
        return self._parts[k]

    def _cleanup_from(self, kp):
        if kp == -1:
            self._clean_classes([-1], _ring(self.n))
            zero = list(self._forest.get(-1, ()))
            for parity in (0, 1):
                ks = sorted(k for k in self._forest if k >= 0 and k % 2 == parity)
                self._clean_classes(ks, _ring(self.n) + zero)
        else:
            parity = kp % 2
            base = _ring(self.n) + list(self._forest.get(-1, ()))
            for k in sorted(k for k in self._forest if 0 <= k < kp and k % 2 == parity):
                base.extend(self._forest[k])
            ks = sorted(k for k in self._forest if k >= kp and k % 2 == parity)
            self._clean_classes(ks, base)

    def _clean_classes(self, ks, base):
        held = list(base)
        part = three_edge_components(held, self.n)
        for k in ks:
            kept = []
            for e in self._forest.get(k, ()):
                if part.same(e.u, e.v):
                    self._forest_count -= 1
                    continue
                kept.append(e)
                held.append(e)
                part = three_edge_components(held, self.n)
            self._forest[k] = kept


def _finalize_outcome(state):
    try:
        return state.finalize()
    except Infeasible as exc:
        return type(exc)


def _differential_stream(rng, n, m):
    """Links with zero, small and wide weights, repeated pairs included."""
    out = []
    for i in range(m):
        u, v = rng.sample(range(n), 2)
        kind = rng.random()
        if kind < 0.15:
            w = 0
        elif kind < 0.5:
            w = rng.randint(1, 4)
        else:
            w = rng.randint(1, 9) * 10 ** rng.randint(0, 12)
        out.append(WeightedEdge(u, v, w, i))
    return out


def test_interval_bitsets_match_the_three_ecc_store_after_every_insert():
    rng = random.Random(48)
    epsilons = [Fraction(1, 40), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    inserts = 0
    for trial in range(200):
        # both generic routes: the cut table up to 18 vertices, flows above
        n = 3 + trial % 22
        eps = epsilons[trial % len(epsilons)]
        m = rng.randint(1, 40 if n <= 12 else 10 if n <= 18 else 6)
        new, old = WeightedAugState(n, eps), _ThreeEccStore(n, eps)
        for link in _differential_stream(rng, n, m):
            new.insert(link)
            old.insert(link)
            inserts += 1
            assert new.stored_count == old.stored_count
            assert new.peak_stored == old.peak_stored
            assert new.forest_classes() == old.forest_classes()
            for k in new.forest_classes():
                assert new.forest_edges(k) == old.forest_edges(k)
            if not new.is_trivial:
                # every class the store screens or files arcs under
                for k in {-1, *new.forest_classes(), *new._arcs}:
                    assert new.partition(k) == old.partition(k)
            assert new.all_arcs() == old.all_arcs()
            assert _finalize_outcome(new) == _finalize_outcome(old)
    assert inserts > 2000


def test_store_screens_past_the_generic_vertex_guard():
    # three_edge_components refuses n > 64; the interval bitsets have no
    # guard, and two vertices share a class exactly when 3 edge-disjoint
    # paths join them in the cycle plus every ingested link of the chain
    rng = random.Random(49)
    for n, m in ((80, 90), (100, 110)):
        with pytest.raises(SizeGuardError):
            three_edge_components(_ring(n), n)
        state = WeightedAugState(n, Fraction(1, 2))
        ingested = []
        for i in range(m):
            u, v = rng.sample(range(n), 2)
            link = WeightedEdge(u, v, rng.choice([0, 0, 0, 1, 5, 10**6]), i)
            state.insert(link)
            ingested.append(link)
        chains = {state.coarse_class_of(e.w) for e in ingested}
        for k in sorted(chains):
            chain = [
                e
                for e in ingested
                if state.coarse_class_of(e.w) == -1
                or (0 <= state.coarse_class_of(e.w) <= k and (k - state.coarse_class_of(e.w)) % 2 == 0)
            ]
            edges = _ring(n) + chain
            part = state.partition(k)
            assert 1 < part.class_count < n
            # 3-edge-connectivity is an equivalence, so checking every
            # vertex against its class representative and every pair of
            # representatives decides every vertex pair
            for v in range(n):
                rep = part.rep_of(v)
                if rep != v:
                    assert support.nx_pair_flow(edges, n, rep, v) >= 3
            reps = sorted({part.rep_of(v) for v in range(n)})
            for i, a in enumerate(reps):
                for b in reps[i + 1 :]:
                    assert support.nx_pair_flow(edges, n, a, b) < 3
