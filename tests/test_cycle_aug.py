"""Tests for the streaming rooted-cycle augmentation stores."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from streamaug.cycle_aug_stream import UnweightedArcStore, WeightedAugState
from streamaug.errors import Infeasible
from streamaug.graph_core import Arc, WeightedEdge, three_edge_components
from streamaug.oracles import exact_directed_cycle_cover
from streamaug.weightbands import GeometricBands

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
            assert state.components(k) == three_edge_components(edges, n)


def test_class_state_labels_cycle_edges_and_names_components_by_smallest_vertex():
    # cycle edge e_i = (i, i+1): on the 8-ring, keeping (1, 5) splits
    # e_1..e_4 off the one label, and keeping (2, 4) then splits e_2, e_3
    # off that; comp[x] is the smallest vertex 3-edge-connected to x
    n = 8
    state = WeightedAugState(n, Fraction(1, 2))
    held = _ring(n)
    steps = [
        ((1, 5), [0, 1, 1, 1, 1, 0, 0, 0], [0, 1, 2, 3, 4, 1, 6, 7]),
        ((2, 4), [0, 1, 2, 2, 1, 0, 0, 0], [0, 1, 2, 3, 2, 1, 6, 7]),
    ]
    for i, ((u, v), lab, comp) in enumerate(steps):
        state.insert(WeightedEdge(u, v, 1, i))
        held.append((u, v))
        assert state.forest_edges(0)[-1].pair == (u, v)
        assert state._state[0] == (lab, comp)
        assert comp == three_edge_components(held, n)
        # every class keeps two length-n int lists and nothing else
        for pair in state._state.values():
            assert len(pair) == 2
            for xs in pair:
                assert type(xs) is list and len(xs) == n
                assert all(type(x) is int for x in xs)


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


# -- cycle-edge labels against the generic 3-edge-connectivity route --------


class _ThreeEccStore:
    """The weighted store written out plainly, sharing no code with it.

    Only ``GeometricBands`` is borrowed.  The class forests are re-screened
    with ``three_edge_components`` after every kept link, every arc table is
    re-keyed after every insert by the smallest vertex of each component,
    and the trivial mode keeps the cheapest link per pair.  This is how the
    store worked before it screened by interval bitsets, and later by
    cycle-edge labels.
    """

    def __init__(self, n, eps):
        self.n = n
        self.trivial = eps < Fraction(1, n)
        self.fine = GeometricBands(1 + eps)
        self.coarse = GeometricBands(Fraction(n) / eps)
        self.best = {}
        self.forest = {}
        self.tables = {}
        self.parts = {}  # component labels of the current forests, dropped by each insert
        self.peak_stored = 0

    def coarse_class_of(self, w):
        return -1 if w == 0 else self.coarse.index(w)

    @property
    def stored_count(self):
        tables = sum(len(t) for t in self.tables.values())
        return len(self.best) + sum(len(f) for f in self.forest.values()) + tables

    def forest_classes(self):
        return sorted(k for k, kept in self.forest.items() if kept)

    def forest_edges(self, k):
        return list(self.forest.get(k, ()))

    def _chain(self, k):
        """The ring, the zero links and the kept links of classes k, k-2, ..., 0 or 1."""
        edges = _ring(self.n) + self.forest.get(-1, [])
        for j in sorted(self.forest):
            if 0 <= j <= k and (k - j) % 2 == 0:
                edges += self.forest[j]
        return edges

    def components(self, k):
        if k not in self.parts:
            self.parts[k] = three_edge_components(self._chain(k), self.n)
        return self.parts[k]

    def _screen(self, ks, held):
        part = three_edge_components(held, self.n)
        for k in ks:
            kept = []
            for e in self.forest[k]:
                if part[e.u] != part[e.v]:
                    kept.append(e)
                    held = held + [e]
                    part = three_edge_components(held, self.n)
            self.forest[k] = kept

    @staticmethod
    def _better(a, b, side):
        ka = (a.x if side == "lo" else -a.x, a.w, a.origin.arrival)
        kb = (b.x if side == "lo" else -b.x, b.w, b.origin.arrival)
        return a if ka <= kb else b

    def _file(self, table, key, arc):
        table[key] = arc if key not in table else self._better(table[key], arc, key[2])

    def insert(self, link):
        if self.trivial:
            cur = self.best.get(link.pair)
            if cur is None or (link.w, link.arrival) < (cur.w, cur.arrival):
                self.best[link.pair] = link
            self.peak_stored = max(self.peak_stored, self.stored_count)
            return
        kp = self.coarse_class_of(link.w)
        self.forest.setdefault(kp, []).append(link)
        self.peak_stored = max(self.peak_stored, self.stored_count)
        self.parts = {}
        if kp == -1:
            self._screen([-1], _ring(self.n))
        for parity in (0, 1) if kp == -1 else (kp % 2,):
            ks = sorted(k for k in self.forest if k >= max(kp, 0) and k % 2 == parity)
            if ks:
                self._screen(ks, self._chain(ks[0] - 2))
        for k, table in self.tables.items():
            part = self.components(k)
            self.tables[k] = {}
            for (_, fi, side), arc in table.items():
                self._file(self.tables[k], (part[arc.y], fi, side), arc)
        if link.w >= 1:
            part = self.components(kp - 2)
            table = self.tables.setdefault(kp - 2, {})
            for x, y in ((link.u, link.v), (link.v, link.u)):
                if part[x] != part[y]:
                    key = (part[y], self.fine.index(link.w), "lo" if x < y else "hi")
                    self._file(table, key, Arc(x, y, link.w, link))
        self.peak_stored = max(self.peak_stored, self.stored_count)

    def all_arcs(self):
        links = sorted(self.best.values(), key=lambda e: e.arrival)
        for k in sorted(self.forest):
            links += self.forest[k]
        arcs = [a for e in links for a in (Arc(e.u, e.v, e.w, e), Arc(e.v, e.u, e.w, e))]
        for k in sorted(self.tables):
            arcs += [self.tables[k][key] for key in sorted(self.tables[k])]
        return arcs

    def finalize(self):
        chosen, _ = exact_directed_cycle_cover(self.n, self.all_arcs())
        links = {a.origin.arrival: a.origin for a in chosen}
        picked = [links[i] for i in sorted(links)]
        return picked, sum(e.w for e in picked)


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


def _run_side_by_side(n, eps, links):
    """Feed both stores and compare everything observable after every insert."""
    new, old = WeightedAugState(n, eps), _ThreeEccStore(n, eps)
    for link in links:
        new.insert(link)
        old.insert(link)
        assert new.stored_count == old.stored_count
        assert new.peak_stored == old.peak_stored
        assert new.forest_classes() == old.forest_classes()
        for k in new.forest_classes():
            assert new.forest_edges(k) == old.forest_edges(k)
        if not old.trivial:
            # every class the store screens or files arcs under
            for k in {-1, *old.forest_classes(), *old.tables}:
                assert new.components(k) == old.components(k)
        assert new.all_arcs() == old.all_arcs()
        assert _finalize_outcome(new) == _finalize_outcome(old)
    return old


def test_interval_bitsets_match_the_three_ecc_store_after_every_insert():
    rng = random.Random(48)
    epsilons = [Fraction(1, 40), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    inserts = 0
    for trial in range(200):
        n = 3 + trial % 22
        eps = epsilons[trial % len(epsilons)]
        m = rng.randint(1, 40 if n <= 12 else 10 if n <= 18 else 6)
        links = _differential_stream(rng, n, m)
        _run_side_by_side(n, eps, links)
        inserts += len(links)
    assert inserts > 2000


def test_wide_weights_match_the_three_ecc_store_with_several_classes_per_chain():
    # weights log-uniform up to 10^18, about 10% zero, spread each parity
    # chain over several coarse classes, so re-screens start inside a chain
    rng = random.Random(18)
    epsilons = [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    deep_chains = 0
    for trial in range(8):
        n = rng.randint(25, 40)
        links = []
        for i in range(30):
            u, v = rng.sample(range(n), 2)
            w = 0 if rng.random() < 0.1 else round(10 ** rng.uniform(0, 18))
            links.append(WeightedEdge(u, v, w, i))
        ref = _run_side_by_side(n, epsilons[trial % 4], links)
        for parity in (0, 1):
            deep_chains += len([k for k in ref.forest if k >= 0 and k % 2 == parity]) >= 3
    assert deep_chains >= 8


def test_links_redundant_on_arrival_leave_classes_and_tables_alone(monkeypatch):
    # every class is a fixed point of its screen between inserts, so a link
    # whose ends its class already 3-edge-connects re-screens no class and
    # re-keys no table; its arcs are still filed two classes down
    rng = random.Random(19)
    n, eps = 14, Fraction(1, 2)
    warm = _differential_stream(rng, n, 80)
    plain, patched = WeightedAugState(n, eps), WeightedAugState(n, eps)
    for link in warm:
        plain.insert(link)
        patched.insert(link)
    redundant = []
    while len(redundant) < 60:
        u, v = rng.sample(range(n), 2)
        w = rng.choice([0, 0, 1, 3, 40, 10**6, 10**12])
        comp = plain.components(plain.coarse_class_of(w))
        if comp[u] == comp[v]:
            redundant.append(WeightedEdge(u, v, w, len(warm) + len(redundant)))
    assert sum(e.w == 0 for e in redundant) >= 10

    def refuse(*args):
        raise AssertionError("a redundant link re-screened or re-keyed the store")

    monkeypatch.setattr(patched, "_regroup", refuse)
    monkeypatch.setattr(patched, "_screen", refuse)
    for link in redundant:
        plain.insert(link)
        patched.insert(link)
        assert patched.stored_count == plain.stored_count
        assert patched.peak_stored == plain.peak_stored
    assert patched.all_arcs() == plain.all_arcs()
    assert patched.forest_count() == plain.forest_count() == sum(
        len(plain.forest_edges(k)) for k in plain.forest_classes()
    )


def test_store_matches_three_edge_components_past_sixty_four_vertices():
    # two vertices share a class exactly when 3 edge-disjoint paths join
    # them in the cycle plus every ingested link of the chain
    rng = random.Random(49)
    for n, m in ((80, 90), (100, 110)):
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
            part = state.components(k)
            assert 1 < len(set(part)) < n
            assert three_edge_components(edges, n) == part
            # 3-edge-connectivity is an equivalence, so checking every
            # vertex against its class representative and every pair of
            # representatives decides every vertex pair
            for v in range(n):
                rep = part[v]
                if rep != v:
                    assert support.nx_pair_flow(edges, n, rep, v) >= 3
            reps = sorted(set(part))
            for i, a in enumerate(reps):
                for b in reps[i + 1 :]:
                    assert support.nx_pair_flow(edges, n, a, b) < 3


def test_three_edge_components_of_a_500_ring_with_chords():
    rng = random.Random(500)
    n = 500
    chords = [tuple(rng.sample(range(n), 2)) for _ in range(500)]
    edges = _ring(n) + chords
    part = three_edge_components(edges, n)
    assert 1 < len(set(part)) < n
    for _ in range(40):
        u, v = rng.sample(range(n), 2)
        assert (part[u] == part[v]) == (support.nx_pair_flow(edges, n, u, v) >= 3), (u, v)
