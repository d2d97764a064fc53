"""Foundational graph utilities against hand values and networkx oracles."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from streamaug import SizeGuardError, WeightedEdge, three_edge_components
from streamaug.graph_core import (
    Partition,
    UnionFind,
    _cut_tree,
    connected_components,
    cut_size_table,
    edge_connectivity_at_least,
    edge_ends,
    is_connected,
    side_bits,
    side_classes,
)

C4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
TRIANGLE = [(0, 1), (1, 2), (2, 0)]


def test_connected_components_triangle_is_one_class():
    p = connected_components(TRIANGLE, 3)
    assert p.classes() == (frozenset({0, 1, 2}),)


def test_connected_components_empty_graph_is_singletons():
    p = connected_components([], 3)
    assert p.classes() == (frozenset({0}), frozenset({1}), frozenset({2}))


def test_connected_components_path_plus_isolated():
    p = connected_components([(0, 1), (1, 2)], 4)
    assert set(p.classes()) == {frozenset({0, 1, 2}), frozenset({3})}
    assert p.rep_of(2) == 0
    assert p.rep_of(3) == 3


def test_connected_components_accepts_weighted_edges():
    edges = [WeightedEdge(0, 1, 7, 0), WeightedEdge(1, 2, 7, 1)]
    assert connected_components(edges, 3).class_count == 1


def test_connected_components_rejects_out_of_range():
    with pytest.raises(ValueError):
        connected_components([(0, 5)], 3)


def test_three_edge_components_cycle_is_singletons():
    p = three_edge_components(C4, 4)
    assert p.class_count == 4


def test_three_edge_components_k4_is_one_class():
    p = three_edge_components(K4, 4)
    assert p.class_count == 1


def test_three_edge_components_cycle_with_chords():
    p = three_edge_components(C4 + [(0, 2), (1, 3)], 4)
    assert p.class_count == 1


def test_three_edge_components_agrees_with_pairwise_flow():
    rng = random.Random(411)
    for trial in range(250):
        n = rng.randint(2, 10)
        edges = support.random_multigraph(rng, n, rng.randint(0, 2 * n))
        p = three_edge_components(edges, n)
        for u, v in itertools.combinations(range(n), 2):
            flow = support.nx_pair_flow(edges, n, u, v)
            assert p.same(u, v) == (flow >= 3), (trial, edges, u, v, flow)


def test_three_edge_components_unchanged_by_an_isolated_vertex():
    # the same graph at n = 18 and with an isolated vertex 18 added must
    # give the same classes on its own 18 vertices
    rng = random.Random(902)
    for _ in range(20):
        edges = support.random_multigraph(rng, 18, 30)
        small = three_edge_components(edges, 18)
        large = three_edge_components(edges, 19)
        for u, v in itertools.combinations(range(18), 2):
            assert small.same(u, v) == large.same(u, v)


def test_is_k_edge_connected_cycle():
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    assert edge_connectivity_at_least(c5, 5, 2)
    assert not edge_connectivity_at_least(c5, 5, 3)


def test_is_k_edge_connected_empty():
    assert not edge_connectivity_at_least([], 2, 1)
    assert edge_connectivity_at_least([], 1, 5)


def test_edge_connectivity_agrees_with_networkx():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(2, 9)
        edges = support.random_multigraph(rng, n, rng.randint(1, 3 * n))
        conn = support.nx_edge_connectivity(edges, n)
        for k in range(0, conn + 2):
            assert edge_connectivity_at_least(edges, n, k) == (k <= conn)


def test_edge_connectivity_refuses_endpoints_outside_the_vertex_range():
    # read as lying in no side, vertex 7 would leave the triangle 2-connected
    with pytest.raises(ValueError, match="out of range"):
        edge_connectivity_at_least(TRIANGLE + [(0, 7)], 3, 2)
    ring = [(i, (i + 1) % 20) for i in range(20)]
    for bad in ((0, 25), (-1, 3)):
        with pytest.raises(ValueError, match="out of range"):
            edge_connectivity_at_least(ring + [bad], 20, 2)


def test_edge_connectivity_agrees_with_networkx_at_twenty_vertices():
    rng = random.Random(31)
    for _ in range(12):
        edges = support.random_two_connected_graph(rng, 20, 10)
        conn = support.nx_edge_connectivity(edges, 20)
        assert edge_connectivity_at_least(edges, 20, conn)
        assert not edge_connectivity_at_least(edges, 20, conn + 1)


# -- capped flow against the cut table ----------------------------------------


def _table_at_least(edges, n, k):
    """k-edge-connectivity read off the table of every cut's size."""
    return int(support.reference_cut_size_table(edges, n)[1:].min()) >= k


def _table_three_ecc(edges, n):
    """Vertices grouped by the sides of size at most 2 that hold them."""
    # bit 0 is the empty side, which separates no vertices
    small = support.reference_pack(support.reference_cut_size_table(edges, n) <= 2)
    return Partition(side_classes(small, n))


def _route_graphs(rng, n):
    """Empty, sparse, disconnected, cyclic and dense multigraphs on n vertices."""
    yield []
    yield support.random_multigraph(rng, n, rng.randint(1, n))
    if n >= 4:
        half = n // 2
        left = support.random_two_connected_graph(rng, half, half)
        right = support.random_two_connected_graph(rng, n - half, n - half)
        yield left + [(u + half, v + half) for u, v in right]
    yield support.random_two_connected_graph(rng, n, rng.randint(0, n))
    yield support.random_connected_graph(rng, n, rng.randint(n, 3 * n))
    yield support.random_multigraph(rng, n, 3 * n)


def test_connectivity_routes_match_the_cut_table():
    rng = random.Random(3110)
    seen = {"loops": 0, "parallel": 0, "weighted": 0, "split": 0, "classes": 0}
    for n in range(2, 19):
        for edges in _route_graphs(rng, n):
            for _ in range(rng.choice([0, 0, 1, 2])):
                edges.insert(rng.randrange(len(edges) + 1), (rng.randrange(n),) * 2)
            if edges and rng.random() < 0.5:
                edges.extend(rng.sample(edges, rng.randint(1, len(edges))))
            if rng.random() < 0.5:
                edges = [WeightedEdge(u, v, rng.randint(0, 9), i) for i, (u, v) in enumerate(edges)]
                seen["weighted"] += 1
            pairs = [tuple(sorted(edge_ends(e))) for e in edges]
            seen["loops"] += any(u == v for u, v in pairs)
            seen["parallel"] += len(set(pairs)) < len(pairs)
            seen["split"] += not is_connected(edges, n)
            for k in range(5):
                got = edge_connectivity_at_least(edges, n, k)
                assert got == _table_at_least(edges, n, k), (n, k, edges)
            part = three_edge_components(edges, n)
            assert part == _table_three_ecc(edges, n), (n, edges)
            seen["classes"] += 1 < part.class_count < n
    assert all(seen.values()), seen


# -- the library against copies of the star-flow and pairwise-flow routes ---


def _flow_route_graphs(rng, n):
    """Empty, sparse, split, cyclic and dense multigraphs on n >= 0 vertices,
    with self-loops, parallel edges and WeightedEdge edges mixed in."""
    graphs = [[]]
    if n >= 2:
        graphs += list(_route_graphs(rng, n))[1:]
    for edges in graphs:
        edges = list(edges)
        if n:
            for _ in range(rng.choice([0, 1, 2])):
                edges.insert(rng.randrange(len(edges) + 1), (rng.randrange(n),) * 2)
        if edges and rng.random() < 0.5:
            edges.extend(rng.sample(edges, rng.randint(1, len(edges))))
        if rng.random() < 0.5:
            edges = [WeightedEdge(u, v, rng.randint(0, 9), i) for i, (u, v) in enumerate(edges)]
        yield edges


def test_connectivity_matches_the_flow_route_copies():
    rng = random.Random(1515)
    seen = {"loops": 0, "parallel": 0, "weighted": 0, "split": 0, "classes": 0}
    for n, _ in itertools.product(range(25), range(4)):
        for edges in _flow_route_graphs(rng, n):
            pairs = [tuple(sorted(edge_ends(e))) for e in edges]
            seen["loops"] += any(u == v for u, v in pairs)
            seen["parallel"] += len(set(pairs)) < len(pairs)
            seen["weighted"] += any(isinstance(e, WeightedEdge) for e in edges)
            seen["split"] += n > 1 and not is_connected(edges, n)
            for k in range(-1, 6):
                want = support.reference_edge_connectivity_at_least(edges, n, k)
                assert edge_connectivity_at_least(edges, n, k) == want, (n, k, edges)
            part = three_edge_components(edges, n)
            assert part == Partition(support.reference_three_edge_components(edges, n)), (n, edges)
            seen["classes"] += 1 < part.class_count < n
    assert all(seen.values()), seen


def _tree_path_min(parent, value, u, v):
    """The least value on the tree path between u and v; parents have smaller ids."""
    least = None
    while u != v:
        if u < v:
            u, v = v, u
        least = value[u] if least is None else min(least, value[u])
        u = parent[u]
    return least


def test_cut_tree_path_minima_are_capped_pair_flows():
    rng = random.Random(2215)
    checked = 0
    for n in range(2, 23):
        for edges in _flow_route_graphs(rng, n):
            pairs = list(itertools.combinations(range(n), 2))
            pairs = rng.sample(pairs, min(len(pairs), 15))
            flows = {(u, v): support.nx_pair_flow(edges, n, u, v) for u, v in pairs}
            for limit in range(1, 7):
                parent, value = _cut_tree(edges, n, limit)
                assert all(parent[s] < s for s in range(1, n))
                for (u, v), flow in flows.items():
                    got = _tree_path_min(parent, value, u, v)
                    assert got == min(flow, limit), (n, limit, u, v, edges)
                    checked += 1
    assert checked > 9_000


def test_cuts_of_size_at_most_c4():
    sides = support.cuts_of_size_at_most(C4, 4, 2)
    got = {frozenset(s.members) for s in sides}
    assert got == {
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({1, 2, 3}),
    }
    assert all(s.boundary_size == 2 for s in sides)


def test_cuts_of_size_at_most_triangle_none_below_two():
    assert support.cuts_of_size_at_most(TRIANGLE, 3, 1) == []


def test_cuts_of_size_at_most_single_edge():
    sides = support.cuts_of_size_at_most([(0, 1)], 2, 1)
    assert [set(s.members) for s in sides] == [{1}]


def test_cuts_of_size_at_most_unbounded_counts_all_sides():
    rng = random.Random(12)
    for n in (2, 3, 5, 7):
        edges = support.random_multigraph(rng, n, 2 * n)
        sides = support.cuts_of_size_at_most(edges, n, 10**9)
        assert len(sides) == 2 ** (n - 1) - 1
        # every side excludes vertex 0
        assert all(0 not in s.members for s in sides)


def test_cuts_of_size_at_most_boundary_recount():
    rng = random.Random(13)
    edges = support.random_multigraph(rng, 6, 12)
    for s in support.cuts_of_size_at_most(edges, 6, 4):
        crossing = sum(1 for u, v in edges if (u in s.members) != (v in s.members))
        assert crossing == s.boundary_size <= 4


def test_cuts_of_size_at_most_size_guard():
    with pytest.raises(SizeGuardError):
        support.cuts_of_size_at_most([], 25, 1)


def test_cuts_of_size_at_most_refuses_endpoints_outside_the_vertex_range():
    # read as lying in no side, vertex 5 would make every side a 0-cut
    for edges in ([(0, 5)], TRIANGLE + [(-1, 2)]):
        for n in (3, 1):
            with pytest.raises(ValueError, match="out of range"):
                support.cuts_of_size_at_most(edges, n, 0)


def test_cut_size_table_guards():
    with pytest.raises(ValueError):
        cut_size_table([], 0, 1)
    with pytest.raises(SizeGuardError):
        cut_size_table([], 25, 1)


def test_cut_size_table_levels_match_the_numpy_table():
    rng = random.Random(14)
    for n in range(1, 10):
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
        sizes = support.reference_cut_size_table(edges, n)
        for top in (-1, 0, 1, len(edges) // 2, len(edges), 10**9):
            levels = cut_size_table(edges, n, top)
            # no side is crossed more often than there are edges
            assert len(levels) == max(0, min(top, len(edges))) + 1
            assert levels == [support.reference_pack(sizes >= j) for j in range(len(levels))]


def test_partition_refinement_under_edge_growth():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(3, 12)
        b = support.random_multigraph(rng, n, 2 * n)
        a = b[: rng.randrange(len(b) + 1)]
        assert connected_components(a, n).refines(connected_components(b, n))
        assert three_edge_components(a, n).refines(three_edge_components(b, n))


def test_partition_labels_are_canonical():
    p = connected_components([(2, 3), (0, 1)], 4)
    q = connected_components([(0, 1), (2, 3)], 4)
    assert p == q
    assert p.label(0) == q.label(0)


def test_union_find_copy_is_independent():
    uf = UnionFind(4)
    uf.union(0, 1)
    dup = uf.copy()
    dup.union(2, 3)
    assert uf.same(0, 1)
    assert not uf.same(2, 3)
    assert dup.same(2, 3)


def test_partition_from_union_find_reps_are_minima():
    uf = UnionFind(5)
    uf.union(4, 2)
    uf.union(2, 3)
    p = Partition.from_union_find(uf)
    assert p.rep_of(4) == 2
    assert p.rep_of(0) == 0
    assert is_connected([(0, 1), (1, 2)], 3)
    assert not is_connected([(0, 1)], 3)


@st.composite
def _vertex_pair(draw):
    n = draw(st.integers(1, 12))
    return n, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


@settings(max_examples=200, deadline=None)
@given(_vertex_pair())
def test_side_bits_cross_exactly_the_separating_sides(case):
    n, u, v = case
    bits = side_bits(n)

    def holds(x, mask):
        return x > 0 and (mask >> (x - 1)) & 1 == 1

    crossing = bits[u] ^ bits[v]
    for mask in range(1 << (n - 1)):
        assert (crossing >> mask) & 1 == (holds(u, mask) != holds(v, mask))
        assert (bits[u] >> mask) & 1 == holds(u, mask)
    assert crossing >> (1 << (n - 1)) == 0
    assert bits[0] == 0


def test_side_bits_guards():
    with pytest.raises(ValueError):
        side_bits(0)
    with pytest.raises(SizeGuardError):
        side_bits(25)


def _bit_walk_classes(masks, n):
    """Per vertex, the smallest vertex with the same bit signature over masks."""
    sig = [0] * n
    for pos, mask in enumerate(masks):
        v = 1
        while mask:
            if mask & 1:
                sig[v] |= 1 << pos
            mask >>= 1
            v += 1
    first: dict[int, int] = {}
    return [first.setdefault(s, v) for v, s in enumerate(sig)]


@st.composite
def _mask_list(draw):
    n = draw(st.integers(1, 12))
    return n, draw(st.lists(st.integers(0, (1 << (n - 1)) - 1), max_size=40))


@settings(max_examples=300, deadline=None)
@given(_mask_list())
def test_side_classes_match_the_bit_walk_signatures(case):
    n, masks = case
    sides = sum(1 << mask for mask in set(masks))
    assert side_classes(sides, n) == _bit_walk_classes(masks, n)
