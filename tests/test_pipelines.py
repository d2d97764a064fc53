"""End-to-end tests for the streaming pipelines."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from streamaug.cactus import cactus_build
from streamaug.graph_core import WeightedEdge
from streamaug.pipelines import (
    PipelineReport,
    ReplayableStream,
    StreamEvent,
    kcap_fully_streaming,
    kcap_link_arrival,
    kecss,
    ratio_of,
    stap_fully_streaming,
)

import support


def _edges(pairs):
    return [WeightedEdge(u, v, w, i) for i, (u, v, w) in enumerate(pairs)]


def _ev(kind, u, v, w, arrival):
    return StreamEvent(kind, WeightedEdge(u, v, w, arrival))


def _events(base, links, base_first=True):
    evs = [StreamEvent("E", e) for e in base] + [StreamEvent("L", e) for e in links]
    if not base_first:
        evs = [StreamEvent("L", e) for e in links] + [StreamEvent("E", e) for e in base]
    return evs


RING4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
BOWTIE = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]


def _kruskal_weight(edges, n):
    from streamaug.graph_core import UnionFind

    uf = UnionFind(n)
    total = 0
    for e in sorted(edges, key=lambda x: (x.w, x.arrival)):
        if uf.union(e.u, e.v):
            total += e.w
    return total


# -- report helpers ---------------------------------------------------------


def test_stream_event_rejects_unknown_kind():
    with pytest.raises(ValueError):
        StreamEvent("X", WeightedEdge(0, 1, 1, 0))


def test_ratio_handles_missing_and_zero_oracles():
    assert ratio_of(5, None) is None
    assert ratio_of(0, 0) == 1.0
    assert ratio_of(3, 0) is None
    assert ratio_of(6, 4) == 1.5
    report = PipelineReport([], 0, {}, True, oracle_weight=0)
    assert report.ratio == 1.0


def test_replayable_stream_counts_passes():
    stream = ReplayableStream(_edges([(0, 1, 1), (1, 2, 2)]))
    assert len(stream) == 2
    assert stream.passes == 0
    first = list(stream.replay())
    second = list(stream.replay())
    assert first == second
    assert stream.passes == 2
    assert stream.items() == first


# -- link-arrival augmentation ---------------------------------------------


def test_link_arrival_ring_with_both_chords():
    links = _edges([(0, 2, 1), (1, 3, 1)])
    report = kcap_link_arrival(
        links, k=3, base_edges=RING4, n=4, epsilon=Fraction(1, 2), with_oracle=True
    )
    assert report.feasible
    assert report.total_weight == 2
    assert support.link_multiset(report.output) == [(0, 2, 1), (1, 3, 1)]
    assert report.oracle_weight == 2
    assert report.ratio == 1.0
    assert report.peak_stored["aug_store"] > 0


def test_link_arrival_accepts_a_prebuilt_cactus():
    cac = cactus_build(RING4, 4)
    links = _edges([(0, 2, 1), (1, 3, 1)])
    report = kcap_link_arrival(
        links, cactus=cac, epsilon=Fraction(1, 2), with_oracle=True
    )
    assert report.feasible
    assert report.total_weight == 2
    assert report.oracle_weight is None
    assert report.ratio is None
    assert report.details["cycle_cover_weight"] == 2


def test_link_arrival_refuses_link_ends_outside_the_cactus_vertex_map():
    # read through phi, an end -1 would stand for vertex 3 and one end 4 has no node
    cac = cactus_build(RING4, 4)
    for bad in ((-1, 1, 1), (0, 4, 1)):
        links = _edges([(0, 2, 1), (1, 3, 1), bad])
        with pytest.raises(ValueError, match="out of range"):
            kcap_link_arrival(links, cactus=cac, epsilon=Fraction(1, 2))


def test_link_arrival_spans_the_shared_vertex_of_two_blocks():
    # both lobes of the bowtie need their own chord; the junction cut is
    # closed for free inside the unfolded cycle
    links = _edges([(1, 3, 4), (2, 4, 4)])
    report = kcap_link_arrival(
        links, k=3, base_edges=BOWTIE, n=5, epsilon=Fraction(1, 2), with_oracle=True
    )
    assert report.feasible
    assert support.link_multiset(report.output) == [(1, 3, 4), (2, 4, 4)]
    assert report.details["junction_links"] == 1
    assert report.details["cycle_length"] == 6
    assert report.oracle_weight == 8


def test_link_arrival_one_lobe_uncovered_is_infeasible():
    report = kcap_link_arrival(
        _edges([(1, 3, 4)]), k=3, base_edges=BOWTIE, n=5, epsilon=Fraction(1, 2)
    )
    assert not report.feasible
    assert report.output == []
    assert report.total_weight == 0
    assert "reason" in report.details


def test_link_arrival_drops_links_inside_one_component():
    # the doubled (1, 2) edge makes that pair three-edge-connected, so a
    # link between them can never help and is dropped on arrival
    base = [(0, 1), (1, 2), (2, 0), (1, 2), (0, 3), (3, 4), (4, 0)]
    report = kcap_link_arrival(
        _edges([(1, 2, 9)]), k=3, base_edges=base, n=5, epsilon=Fraction(1, 2)
    )
    assert report.details["dropped_links"] == 1
    assert not report.feasible


def test_link_arrival_validates_the_base():
    links = _edges([(0, 2, 1)])
    with pytest.raises(ValueError):
        kcap_link_arrival(links, k=2, base_edges=RING4, n=4, epsilon=Fraction(1, 2))
    with pytest.raises(ValueError):
        kcap_link_arrival(
            links, k=2, base_edges=[(0, 1), (2, 3)], n=4, epsilon=Fraction(1, 2)
        )
    with pytest.raises(ValueError):
        kcap_link_arrival(links, k=3, epsilon=Fraction(1, 2))


def test_link_arrival_price_stays_near_the_oracle():
    rng = random.Random(60)
    eps = Fraction(1, 2)
    bound = 2 + 6 * eps
    checked = 0
    for trial in range(25):
        n = rng.randint(4, 8)
        ring = [(i, (i + 1) % n) for i in range(n)]
        links = [
            WeightedEdge(0, j, rng.randint(1, 9) * 10 ** rng.randint(0, 4), j)
            for j in range(1, n)
        ]
        links += [
            WeightedEdge(*rng.sample(range(n), 2), rng.randint(1, 500), n + j)
            for j in range(rng.randint(0, 6))
        ]
        report = kcap_link_arrival(
            links, k=3, base_edges=ring, n=n, epsilon=eps, with_oracle=True
        )
        assert report.feasible
        assert report.oracle_weight is not None
        assert report.total_weight <= bound * report.oracle_weight
        combined = ring + [(e.u, e.v) for e in report.output]
        assert support.nx_edge_connectivity(combined, n) >= 3
        checked += 1
    assert checked == 25


# -- fully streaming augmentation ------------------------------------------


def test_fully_streaming_ring_with_both_chords():
    base = _edges([(u, v, 1) for u, v in RING4])
    links = [WeightedEdge(0, 2, 1, 10), WeightedEdge(1, 3, 1, 11)]
    report = kcap_fully_streaming(
        _events(base, links), 4, 3, t=2, epsilon=Fraction(1, 2), with_oracle=True
    )
    assert report.feasible
    assert report.total_weight == 2
    assert support.link_multiset(report.output) == [(0, 2, 1), (1, 3, 1)]
    assert report.oracle_weight == 2


def test_fully_streaming_is_order_independent():
    rng = random.Random(61)
    for trial in range(25):
        n = rng.randint(4, 8)
        k = rng.randint(2, 3)
        base = [
            WeightedEdge(u, v, 1, i)
            for i, (u, v) in enumerate(
                support.random_two_connected_graph(rng, n, rng.randint(0, 3))
            )
        ]
        links = [
            WeightedEdge(*rng.sample(range(n), 2), rng.randint(1, 30), 100 + j)
            for j in range(rng.randint(1, 8))
        ]
        first = kcap_fully_streaming(
            _events(base, links, base_first=True),
            n,
            k,
            t=2,
            epsilon=Fraction(1, 2),
        )
        second = kcap_fully_streaming(
            _events(base, links, base_first=False),
            n,
            k,
            t=2,
            epsilon=Fraction(1, 2),
        )
        assert first.feasible == second.feasible
        assert first.output == second.output
        assert first.total_weight == second.total_weight


def test_fully_streaming_feasible_output_reaches_target():
    rng = random.Random(62)
    t = 2
    eps = Fraction(1, 2)
    bound = Fraction(2 * t - 1) + eps
    checked = 0
    for trial in range(30):
        n = rng.randint(4, 7)
        k = rng.choice([2, 3])
        topo = (
            support.random_connected_graph(rng, n, rng.randint(0, 2))
            if k == 2
            else support.random_two_connected_graph(rng, n, rng.randint(0, 2))
        )
        base = [WeightedEdge(u, v, 1, i) for i, (u, v) in enumerate(topo)]
        links = [
            WeightedEdge(*rng.sample(range(n), 2), rng.randint(1, 20), 100 + j)
            for j in range(rng.randint(3, 10))
        ]
        report = kcap_fully_streaming(
            _events(base, links), n, k, t=t, epsilon=eps, with_oracle=True
        )
        if not report.feasible:
            continue
        combined = [(e.u, e.v) for e in base] + [(e.u, e.v) for e in report.output]
        assert support.nx_edge_connectivity(combined, n) >= k
        if report.oracle_weight is not None:
            assert report.total_weight <= bound * report.oracle_weight
            checked += 1
    assert checked >= 10


def test_fully_streaming_without_links_reports_infeasible():
    base = _edges([(u, v, 1) for u, v in RING4])
    report = kcap_fully_streaming(
        _events(base, []), 4, 3, t=2, epsilon=Fraction(1, 2)
    )
    assert not report.feasible
    assert "reason" in report.details


def test_fully_streaming_underconnected_base_reports_cleanly():
    # a base below k-1 edge-connectivity is a violated precondition, not an
    # infeasible instance, exactly as in kcap_link_arrival
    base = _edges([(0, 1, 1), (1, 2, 1)])
    links = [WeightedEdge(0, 2, 1, 5)]
    with pytest.raises(ValueError):
        kcap_fully_streaming(_events(base, links), 4, 3, t=2, epsilon=Fraction(1, 2))


# -- tree augmentation with terminals --------------------------------------


def test_tree_augmentation_over_all_vertices():
    base = _edges([(0, 1, 0), (1, 2, 0), (2, 3, 0)])
    links = [
        WeightedEdge(0, 2, 1, 10),
        WeightedEdge(1, 3, 1, 11),
        WeightedEdge(0, 3, 5, 12),
    ]
    report = stap_fully_streaming(
        _events(base, links), 4, range(4), t=2, epsilon=Fraction(1, 2), with_oracle=True
    )
    assert report.feasible
    assert report.total_weight == 2
    assert support.link_multiset(report.output) == [(0, 2, 1), (1, 3, 1)]
    assert report.oracle_weight == 2
    assert report.ratio == 1.0


def test_tree_augmentation_with_two_terminals_stays_local():
    base = _edges([(0, 1, 0), (0, 2, 0), (0, 3, 0)])
    links = [WeightedEdge(1, 2, 3, 10), WeightedEdge(2, 3, 4, 11)]
    report = stap_fully_streaming(
        _events(base, links), 4, [1, 2], t=2, epsilon=Fraction(1, 2)
    )
    assert report.feasible
    assert report.total_weight == 3
    assert support.link_multiset(report.output) == [(1, 2, 3)]
    assert report.details["terminals"] == [1, 2]


def test_tree_augmentation_without_links_is_infeasible():
    base = _edges([(0, 1, 0), (1, 2, 0)])
    report = stap_fully_streaming(
        _events(base, []), 3, [0, 2], t=2, epsilon=Fraction(1, 2)
    )
    assert not report.feasible
    assert "reason" in report.details


def test_tree_augmentation_validates_input():
    base = _edges([(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    with pytest.raises(ValueError):
        stap_fully_streaming(
            _events(base, []), 3, [0, 2], t=2, epsilon=Fraction(1, 2)
        )
    with pytest.raises(ValueError):
        stap_fully_streaming([], 3, [0], t=2, epsilon=Fraction(1, 2))
    with pytest.raises(ValueError):
        stap_fully_streaming([], 3, [0, 5], t=2, epsilon=Fraction(1, 2))
    lonely = _edges([(0, 1, 0)])
    with pytest.raises(ValueError):
        stap_fully_streaming(
            _events(lonely, []), 3, [0, 2], t=2, epsilon=Fraction(1, 2)
        )


def test_tree_augmentation_doubles_every_terminal_pair():
    rng = random.Random(63)
    for trial in range(15):
        n = rng.randint(4, 7)
        tree = [(v, rng.randrange(v)) for v in range(1, n)]
        base = [WeightedEdge(u, v, 0, i) for i, (u, v) in enumerate(tree)]
        links = [
            WeightedEdge(*rng.sample(range(n), 2), rng.randint(1, 9), 50 + j)
            for j in range(rng.randint(2, 8))
        ]
        terms = sorted(rng.sample(range(n), rng.randint(2, min(4, n))))
        report = stap_fully_streaming(
            _events(base, links), n, terms, t=2, epsilon=Fraction(1, 2)
        )
        if not report.feasible:
            continue
        combined = [(e.u, e.v) for e in base] + [(e.u, e.v) for e in report.output]
        for i, a in enumerate(terms):
            for b in terms[i + 1 :]:
                assert support.nx_pair_flow(combined, n, a, b) >= 2


# -- subgraph construction by repeated augmentation -------------------------


def test_kecss_on_the_unit_clique():
    stream = _edges(
        [(u, v, 1) for u in range(4) for v in range(u + 1, 4)]
    )
    report = kecss(stream, 4, 2, epsilon=Fraction(1, 2), with_oracle=True)
    assert report.feasible
    assert support.nx_edge_connectivity([(e.u, e.v) for e in report.output], 4) >= 2
    assert report.details["pass_weights"] == {"pass_1": 3, "pass_2": 2}
    assert report.details["pass_oracles"] == {"pass_1": 3, "pass_2": 2}
    assert report.total_weight == 5


def test_kecss_single_level_is_an_exact_spanning_forest():
    rng = random.Random(64)
    for _ in range(10):
        n = rng.randint(4, 9)
        edges = [
            WeightedEdge(*rng.sample(range(n), 2), rng.randint(1, 40), i)
            for i in range(20)
        ]
        stream = ReplayableStream(edges)
        report = kecss(stream, n, 1, epsilon=Fraction(1, 2))
        assert stream.passes == 1
        if report.feasible:
            assert report.total_weight == _kruskal_weight(edges, n)


def test_kecss_replays_once_per_level():
    stream = ReplayableStream(
        _edges([(u, v, 1) for u in range(5) for v in range(u + 1, 5)])
    )
    report = kecss(stream, 5, 3, epsilon=Fraction(1, 2))
    assert stream.passes == 3
    assert report.feasible
    assert support.nx_edge_connectivity([(e.u, e.v) for e in report.output], 5) >= 3


def test_kecss_disconnected_stream_reports_infeasible():
    report = kecss(_edges([(0, 1, 1), (2, 3, 1)]), 4, 2, epsilon=Fraction(1, 2))
    assert not report.feasible
    assert "reason" in report.details


def test_kecss_rejects_bad_target():
    with pytest.raises(ValueError):
        kecss([], 4, 0, epsilon=Fraction(1, 2))


def test_kecss_levels_nest_deterministically():
    rng = random.Random(65)
    for _ in range(8):
        n = rng.randint(5, 7)
        edges = [
            WeightedEdge(u, v, rng.randint(1, 20), i)
            for i, (u, v) in enumerate(
                (u, v) for u in range(n) for v in range(u + 1, n)
            )
        ]
        two = kecss(edges, n, 2, epsilon=Fraction(1, 2))
        three = kecss(edges, n, 3, epsilon=Fraction(1, 2))
        assert two.feasible and three.feasible
        arr2 = {e.arrival for e in two.output}
        arr3 = {e.arrival for e in three.output}
        assert arr2 <= arr3


def test_kecss_per_level_price_stays_bounded():
    rng = random.Random(66)
    eps = Fraction(1, 2)
    bound = 2 + 6 * eps
    checked = 0
    for _ in range(10):
        n = rng.randint(5, 7)
        edges = [
            WeightedEdge(u, v, rng.randint(1, 20), i)
            for i, (u, v) in enumerate(
                (u, v) for u in range(n) for v in range(u + 1, n)
            )
        ]
        report = kecss(edges, n, rng.choice([2, 3]), epsilon=eps, with_oracle=True)
        assert report.feasible
        for name, oracle in report.details["pass_oracles"].items():
            got = report.details["pass_weights"][name]
            if name == "pass_1":
                assert got == oracle
            else:
                assert got <= bound * oracle
                checked += 1
    assert checked >= 5
