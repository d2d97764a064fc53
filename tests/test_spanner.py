"""One-pass weighted spanner: stretch, girth, and eviction behavior."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import support
from streamaug import SpannerState, WeightedEdge
from streamaug.graph_core import Partition, UnionFind
from streamaug.weightbands import GeometricBands, ceil_power_index

HALF = Fraction(1, 2)


def _stream(state: SpannerState, triples):
    seen = []
    for i, (u, v, w) in enumerate(triples):
        e = WeightedEdge(u, v, w, i)
        seen.append(e)
        state.insert(e)
    return seen


def _stretch_ok(state: SpannerState, ingested, t: int, eps: Fraction) -> bool:
    bound = (2 * t - 1) * (1 + eps)
    stored = state.edges()
    dists = support.all_dists(state.n, stored)
    return all(dists[e.u][e.v] <= bound * e.w for e in ingested)


def test_constructor_validation():
    SpannerState(10, 2, HALF)
    with pytest.raises(ValueError):
        SpannerState(10, 0, HALF)
    with pytest.raises(ValueError):
        SpannerState(10, 2, Fraction(0))
    with pytest.raises(ValueError):
        SpannerState(10, 2, Fraction(3, 2))


def test_first_edge_accepted():
    state = SpannerState(10, 2, HALF)
    accepted, evicted = state.insert(WeightedEdge(0, 1, 5, 0))
    assert accepted and evicted == []
    assert state.stored_count == 1


def test_unit_triangle_closing_edge_rejected():
    state = SpannerState(10, 2, HALF)
    _stream(state, [(0, 1, 1), (1, 2, 1)])
    accepted, evicted = state.insert(WeightedEdge(0, 2, 1, 2))
    assert not accepted
    assert evicted == [WeightedEdge(0, 2, 1, 2)]


def test_hop_limit_is_strict():
    # with t=2 the within-class rule rejects at distance <= 3 hops and
    # accepts at 4
    state = SpannerState(10, 2, HALF)
    _stream(state, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    accepted, _ = state.insert(WeightedEdge(0, 3, 1, 3))
    assert not accepted
    state2 = SpannerState(10, 2, HALF)
    _stream(state2, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
    accepted, _ = state2.insert(WeightedEdge(0, 4, 1, 4))
    assert accepted


def test_distance_test_accept_then_sparsify_evicts():
    # a second parallel (0,1) edge far enough up the weight scale lands in a
    # higher even bucket; the distance test inside its own class accepts it,
    # then re-certification deletes it as a self-loop on the prefix
    # components
    state = SpannerState(4, 2, HALF)
    _stream(state, [(0, 1, 1)])
    heavy = WeightedEdge(0, 1, 10**8, 1)
    assert state.bucket_of_band(state.band_of_weight(heavy.w)) >= 2
    assert state.bucket_of_band(state.band_of_weight(heavy.w)) % 2 == 0
    accepted, evicted = state.insert(heavy)
    assert accepted
    assert evicted == [heavy]
    assert heavy not in state.edges()


def test_zero_weight_edges_keep_one_forest():
    state = SpannerState(5, 2, HALF)
    accepted, _ = state.insert(WeightedEdge(0, 1, 0, 0))
    assert accepted
    accepted, evicted = state.insert(WeightedEdge(1, 0, 0, 1))
    assert not accepted and len(evicted) == 1
    assert [e.arrival for e in state.zero_edges()] == [0]


def test_zero_edge_can_evict_stored_weighted_edge():
    state = SpannerState(6, 2, HALF)
    _stream(state, [(0, 1, 3)])
    accepted, evicted = state.insert(WeightedEdge(0, 1, 0, 1))
    assert accepted
    assert evicted == [WeightedEdge(0, 1, 3, 0)]


def test_zero_edge_re_certifies_only_buckets_whose_contraction_changes(monkeypatch):
    # (0, 1) is stored in bucket 0, so bucket 0's closure joins 0 and 1
    # already; the zero edge changes the contraction under bucket 0 only,
    # and bucket 2 above it keeps its certificate without a pass
    state = SpannerState(6, 2, HALF)
    assert state.bucket_width == 13
    heavy = 2 * 10**6
    _stream(state, [(0, 1, 1), (2, 3, heavy), (3, 4, heavy)])
    assert [state.bucket_of_band(state.band_of_weight(w)) for w in (1, heavy)] == [0, 2]
    passes = []
    full_pass = SpannerState._recert_bucket

    def recording(self, k, prefix):
        passes.append(k)
        return full_pass(self, k, prefix)

    monkeypatch.setattr(SpannerState, "_recert_bucket", recording)
    accepted, evicted = state.insert(WeightedEdge(0, 1, 0, 3))
    assert accepted
    assert [e.arrival for e in evicted] == [0]
    assert passes == [0]


def test_spanning_tree_stream_kept_whole():
    rng = random.Random(41)
    n = 20
    tree = []
    for v in range(1, n):
        tree.append((rng.randrange(v), v, rng.randint(1, 10**6)))
    state = SpannerState(n, 2, HALF)
    ingested = _stream(state, tree)
    assert sorted(state.edges(), key=lambda e: e.arrival) == ingested


def test_parallel_rule_keeps_lighter_edge():
    # two edges between the same endpoints inside one bucket: the heavier
    # one is deleted during re-certification
    state = SpannerState(8, 2, HALF)
    _stream(state, [(0, 1, 100), (2, 3, 100)])
    accepted, evicted = state.insert(WeightedEdge(0, 1, 140, 2))
    assert evicted == [WeightedEdge(0, 1, 140, 2)]
    state2 = SpannerState(8, 2, HALF)
    _stream(state2, [(0, 1, 140), (2, 3, 100)])
    accepted, evicted = state2.insert(WeightedEdge(0, 1, 100, 2))
    assert accepted
    assert evicted == [WeightedEdge(0, 1, 140, 0)]


def test_edges_sorted_by_arrival_and_total_weight():
    state = SpannerState(6, 2, HALF)
    _stream(state, [(3, 4, 7), (0, 1, 2), (1, 2, 9)])
    assert [e.arrival for e in state.edges()] == [0, 1, 2]
    assert state.total_weight() == 18


def test_peak_stored_monotone():
    rng = random.Random(71)
    state = SpannerState(12, 2, HALF)
    peaks = []
    for i in range(60):
        u, v = rng.sample(range(12), 2)
        state.insert(WeightedEdge(u, v, rng.randint(1, 10**9), i))
        peaks.append(state.peak_stored)
        assert state.stored_count <= state.peak_stored
    assert peaks == sorted(peaks)


def test_stretch_bound_after_every_prefix():
    rng = random.Random(515)
    for t, eps in ((2, HALF), (3, Fraction(1, 10))):
        n = 14
        state = SpannerState(n, t, eps)
        ingested = []
        for i in range(50):
            u, v = rng.sample(range(n), 2)
            e = WeightedEdge(u, v, rng.randint(0, 10**12), i)
            ingested.append(e)
            state.insert(e)
            if i % 10 == 9:
                assert _stretch_ok(state, ingested, t, eps)
        assert _stretch_ok(state, ingested, t, eps)


def test_stretch_bound_on_fifty_vertex_graph():
    rng = random.Random(50)
    n = 50
    state = SpannerState(n, 2, HALF)
    ingested = []
    for i in range(300):
        u, v = rng.sample(range(n), 2)
        e = WeightedEdge(u, v, rng.randint(1, 10**9), i)
        ingested.append(e)
        state.insert(e)
    assert _stretch_ok(state, ingested, 2, HALF)


def test_stored_classes_have_no_short_cycles():
    rng = random.Random(616)
    for t in (2, 3):
        n = 12
        state = SpannerState(n, t, HALF)
        for i in range(70):
            u, v = rng.sample(range(n), 2)
            state.insert(WeightedEdge(u, v, rng.randint(0, 10**10), i))
            assert not support.class_girth_violated(state, t)


def test_high_girth_stream_is_kept_whole():
    # a graph of girth above 2t gives no edge a detour of at most 2t-1
    # hops, so every (2t-1+eps)-spanner keeps all of it: each insert is
    # accepted and evicts nothing, under unit weights and under weights
    # within a factor two of W = 10^9
    for t in (2, 3):
        rng = random.Random(60 + t)
        pairs = support.greedy_high_girth_pairs(rng, 60, 2 * t - 1)
        assert len(pairs) > 60
        top = 10**9
        for weigh in (lambda: 1, lambda: rng.randint(top // 2, top)):
            state = SpannerState(60, t, HALF)
            for i, (u, v) in enumerate(pairs):
                assert state.insert(WeightedEdge(u, v, weigh(), i)) == (True, []), (t, i)
            assert state.stored_count == state.peak_stored == len(pairs)


def test_no_stored_edge_is_a_prefix_self_loop():
    # after every insert, an edge stored in bucket k must still join two
    # different components of the same-parity prefix below k; when an edge
    # is evicted as such a self-loop, the prefix connects its endpoints at
    # distance no more than the edge weight
    rng = random.Random(717)
    n = 10
    state = SpannerState(n, 2, HALF)
    for i in range(80):
        u, v = rng.sample(range(n), 2)
        e = WeightedEdge(u, v, rng.randint(1, 10**9), i)
        _, evicted = state.insert(e)
        for j in state.band_indices():
            k = state.bucket_of_band(j)
            prefix = state.parity_prefix_partition(k % 2, k)
            for kept in state.band_edges(j):
                assert not prefix.same(kept.u, kept.v)
        for gone in evicted:
            if gone.w == 0:
                continue
            k = state.bucket_of_band(state.band_of_weight(gone.w))
            prefix_edges = [
                kept
                for j in state.band_indices()
                if state.bucket_of_band(j) % 2 == k % 2 and state.bucket_of_band(j) < k
                for kept in state.band_edges(j)
            ] + state.zero_edges()
            dist = support.dijkstra(n, prefix_edges, gone.u)[gone.v]
            if dist != float("inf"):
                assert dist <= gone.w


def test_peak_within_factor_two_under_weight_scaling():
    rng = random.Random(818)
    n = 20
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(120)]
    weights = [rng.randint(1, 10**3) for _ in pairs]
    peaks = []
    for scale in (1, 10**12):
        state = SpannerState(n, 2, HALF)
        for i, ((u, v), w) in enumerate(zip(pairs, weights)):
            state.insert(WeightedEdge(u, v, w * scale, i))
        peaks.append(state.peak_stored)
    small, big = peaks
    assert max(small, big) <= 2 * min(small, big)


def test_kept_edge_evicts_later_band_edge_through_a_contraction():
    # the zero edge merges 3 and 4 into one supernode S.  No raw path of
    # at most 3 hops joins 0 and 4, so (0, 4) passes its distance test; on
    # supernodes it closes the 4-cycle 0-1-2-S, and the heavier (2, 3) then
    # has a 3-hop detour through it
    state = SpannerState(5, 2, HALF)
    _stream(state, [(3, 4, 0), (0, 1, 12), (1, 2, 13), (2, 3, 15)])
    accepted, evicted = state.insert(WeightedEdge(0, 4, 14, 4))
    assert accepted
    assert evicted == [WeightedEdge(2, 3, 15, 3)]


def test_bucket_filled_late_contracts_lighter_buckets():
    # n=4, eps=1: buckets are five bands of 2 wide, so weights 1, 1024 and
    # 2^20 land in the even buckets 0, 2 and 4.  Bucket 2 gets its first
    # edge after bucket 4 has one; bucket 4 must still see 0 and 1 merged
    # by bucket 0, which makes (0, 3) parallel to the stored (1, 2)
    state = SpannerState(4, 1, Fraction(1))
    _stream(state, [(0, 1, 1), (1, 2, 2**20), (2, 3, 1024)])
    heavy = WeightedEdge(0, 3, 2**20 + 1, 3)
    assert [state.bucket_of_band(state.band_of_weight(w)) for w in (1, 1024, heavy.w)] == [0, 2, 4]
    accepted, evicted = state.insert(heavy)
    assert accepted
    assert evicted == [heavy]


def test_one_bucket_inserts_never_scan_the_bucket_or_label_every_vertex(monkeypatch):
    # every weight up to 50,000 shares bucket 0 at n=100, so no insert here
    # changes a contraction: each one must stay local to its edge, reading
    # single finds and the indexes, never a whole bucket or all n labels
    state = SpannerState(100, 2, HALF)
    assert state.bucket_of_band(state.band_of_weight(50_000)) == 0

    def refuse(*args):
        raise AssertionError("an insert read the whole bucket or every label")

    monkeypatch.setattr(UnionFind, "labels", refuse)
    monkeypatch.setattr(SpannerState, "_bucket_edges", refuse)
    rng = random.Random(1500)
    for i in range(1500):
        u, v = rng.sample(range(100), 2)
        state.insert(WeightedEdge(u, v, rng.randint(1, 50_000), i))
    assert 0 < state.stored_count < 1500


# -- incremental re-certification against the full pass ----------------------


def _cert_order(e: WeightedEdge) -> tuple[int, int, int, int]:
    return (e.w, e.arrival, min(e.u, e.v), max(e.u, e.v))


def _component_labels(n: int, pairs) -> list[int]:
    """Per vertex, the smallest vertex of its component in the graph of pairs."""
    adj: dict[int, list[int]] = {}
    for u, v in pairs:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    label = list(range(n))
    seen = set()
    for s in range(n):
        if s in seen:
            continue
        seen.add(s)
        stack = [s]
        while stack:
            x = stack.pop()
            label[x] = s
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return label


def _joined_within(adj: dict[int, set[int]], s: int, g: int, hops: int) -> bool:
    """Whether adj has an s-g path of at most hops edges."""
    reached, frontier = {s}, {s}
    for _ in range(hops):
        if g in reached or not frontier:
            break
        frontier = {y for x in frontier for y in adj.get(x, ())} - reached
        reached |= frontier
    return g in reached


def _link(adj: dict[int, set[int]], a: int, b: int) -> None:
    adj.setdefault(a, set()).add(b)
    adj.setdefault(b, set()).add(a)


class _FullPassSpanner:
    """Reference spanner that re-runs the greedy pass over whole buckets.

    It shares no state and no helper with SpannerState.  It keeps its own
    band lists and tests an arriving edge's distance on the raw edges of its
    band.  After an accepted edge it re-runs the greedy keep/delete pass
    over the edge's bucket and then over every higher bucket of the same
    parity, each against the contraction of the stored zero edges and
    lighter same-parity buckets, rebuilt from scratch.  A zero-weight edge
    re-runs the pass over every bucket.  A bucket whose contraction did not
    change is a fixed point, so the extra passes delete nothing unless the
    store under test skipped a pass it needed.
    """

    def __init__(self, n: int, t: int, eps: Fraction):
        self.n = n
        self.hops = 2 * t - 1
        self.bands = GeometricBands(1 + eps)
        self.width = ceil_power_index(1 + eps, Fraction(2 * n * n) / eps)
        self.zero: list[WeightedEdge] = []
        self.kept: dict[int, list[WeightedEdge]] = {}
        self.stored_count = 0
        self.peak_stored = 0

    def edges(self) -> list[WeightedEdge]:
        out = self.zero + [e for band in self.kept.values() for e in band]
        return sorted(out, key=lambda e: e.arrival)

    def _prefix_labels(self, parity: int, k: int) -> list[int]:
        pairs = [(e.u, e.v) for e in self.zero]
        for j, band in self.kept.items():
            if j // self.width < k and j // self.width % 2 == parity:
                pairs += [(e.u, e.v) for e in band]
        return _component_labels(self.n, pairs)

    def parity_prefix_partition(self, parity: int, k: int) -> Partition:
        return Partition(self._prefix_labels(parity, k))

    def _full_pass(self, k: int) -> list[WeightedEdge]:
        label = self._prefix_labels(k % 2, k)
        bands = range(k * self.width, (k + 1) * self.width)
        bucket = [e for j in bands for e in self.kept.get(j, ())]
        pairs: set[frozenset[int]] = set()
        kept_in_band: dict[int, dict[int, set[int]]] = {}
        deleted = []
        for e in sorted(bucket, key=_cert_order):
            a, b = label[e.u], label[e.v]
            mine = kept_in_band.setdefault(self.bands.index(e.w), {})
            if a == b or frozenset((a, b)) in pairs or _joined_within(mine, a, b, self.hops):
                deleted.append(e)
            else:
                pairs.add(frozenset((a, b)))
                _link(mine, a, b)
        for e in deleted:
            band = self.kept[self.bands.index(e.w)]
            band.pop(next(i for i, x in enumerate(band) if x is e))
        self.stored_count -= len(deleted)
        return deleted

    def _store(self) -> None:
        self.stored_count += 1
        self.peak_stored = max(self.peak_stored, self.stored_count)

    def _passes(self, parity: int, k0: int) -> list[WeightedEdge]:
        buckets = {j // self.width for j, band in self.kept.items() if band}
        out = []
        for k in sorted(k for k in buckets if k >= k0 and k % 2 == parity):
            out += self._full_pass(k)
        return out

    def insert(self, e: WeightedEdge) -> tuple[bool, list[WeightedEdge]]:
        if e.u == e.v:
            return False, [e]
        if e.w == 0:
            forest = _component_labels(self.n, [(x.u, x.v) for x in self.zero])
            if forest[e.u] == forest[e.v]:
                return False, [e]
            self.zero.append(e)
            self._store()
            return True, self._passes(0, 0) + self._passes(1, 0)
        j = self.bands.index(e.w)
        raw: dict[int, set[int]] = {}
        for x in self.kept.get(j, ()):
            _link(raw, x.u, x.v)
        if _joined_within(raw, e.u, e.v, self.hops):
            return False, [e]
        self.kept.setdefault(j, []).append(e)
        self._store()
        k0 = j // self.width
        return True, self._passes(k0 % 2, k0)


def _assert_same_as_full_pass(n, t, eps, triples):
    fast, full = SpannerState(n, t, eps), _FullPassSpanner(n, t, eps)
    for i, (u, v, w) in enumerate(triples):
        e = WeightedEdge(u, v, w, i)
        assert fast.insert(e) == full.insert(e), (n, t, eps, i)
        assert fast.edges() == full.edges()
        assert fast.stored_count == full.stored_count
        assert fast.peak_stored == full.peak_stored
    top = max((fast.bucket_of_band(j) for j in fast.band_indices()), default=0)
    for k in range(top + 2):
        assert fast.parity_prefix_partition(k % 2, k) == full.parity_prefix_partition(
            k % 2, k
        )


def test_incremental_recert_matches_full_pass_on_seeded_streams():
    for seed in range(300):
        rng = random.Random(9000 + seed)
        t = (1, 2, 3)[seed % 3]
        eps = (Fraction(1, 10), HALF, Fraction(1))[seed // 3 % 3]
        # small vertex counts and many zero-weight edges give dense bands
        # over nontrivial contractions, where later edges fall through e
        n = rng.randint(3, rng.choice((12, 60)))
        top = rng.choice((10, 10**3, 10**6, 10**18))
        zero_share = rng.choice((0.0, 0.05, 0.15))
        triples = []
        for _ in range(rng.randint(10, 200)):
            u, v = rng.sample(range(n), 2)
            w = 0 if rng.random() < zero_share else rng.randint(1, top)
            triples.append((u, v, w))
        _assert_same_as_full_pass(n, t, eps, triples)


def test_incremental_recert_matches_full_pass_on_benchmark_shaped_streams():
    # one bucket holds every weight up to 1.5^27 at n=100, so each insert
    # re-certifies one large bucket; log-uniform weights over 1..10^18 at
    # n=150 spread inserts over many buckets and their prefix contractions
    rng = random.Random(1100)
    narrow = [(*rng.sample(range(100), 2), rng.randint(1, 50_000)) for _ in range(600)]
    _assert_same_as_full_pass(100, 2, HALF, narrow)
    wide = [
        (*rng.sample(range(150), 2), max(1, int(10 ** rng.uniform(0, 18))))
        for _ in range(1000)
    ]
    _assert_same_as_full_pass(150, 2, HALF, wide)


def test_incremental_recert_matches_full_pass_on_dense_stretch_five_streams():
    # t=3 on 20..40 vertices with up to 600 inserts: bands hold many short
    # supernode paths, so one accepted edge often displaces several later
    # band edges, and each displaced edge's hop test must see neither the
    # edges deleted before it in the same call nor any edge after it
    for seed in range(120):
        rng = random.Random(4400 + seed)
        n = rng.randint(20, 40)
        top = rng.choice((10, 1000))
        eps = (Fraction(1, 10), HALF, Fraction(1))[seed % 3]
        triples = []
        for _ in range(rng.randint(80, 600)):
            u, v = rng.sample(range(n), 2)
            w = 0 if rng.random() < 0.05 else rng.randint(1, top)
            triples.append((u, v, w))
        _assert_same_as_full_pass(n, 3, eps, triples)
