"""Cactus construction, validation, unfolding, and the text format."""

from __future__ import annotations

import random
import time

import pytest

import support
from streamaug import (
    AugmentationInstance,
    CactusGraph,
    Infeasible,
    SizeGuardError,
    WeightedEdge,
    cactus_build,
    cactus_unfold,
    cactus_validate,
    cuts_of_size_at_most,
    exact_kcap,
)
from streamaug.errors import StreamFormatError
from streamaug.cactus import format_cactus, parse_cactus
from streamaug.graph_core import edge_connectivity_at_least, is_connected

C5 = [(i, (i + 1) % 5) for i in range(5)]
K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
FIGURE_EIGHT = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]


def _min_cut_family(edges, n):
    """All min-cut sides of a connected multigraph, as frozensets."""
    sides = cuts_of_size_at_most(edges, n, 10**9)
    best = min(s.boundary_size for s in sides)
    return {frozenset(s.members) for s in sides if s.boundary_size == best}, best


def test_validate_accepts_plain_cycle():
    assert cactus_validate(CactusGraph(size=5, edges=tuple(C5), phi=tuple(range(5))))


def test_validate_rejects_k4():
    assert not cactus_validate(CactusGraph(size=4, edges=tuple(K4), phi=tuple(range(4))))


def test_validate_accepts_figure_eight():
    c = CactusGraph(size=5, edges=tuple(FIGURE_EIGHT), phi=tuple(range(5)))
    assert cactus_validate(c)


def test_validate_rejects_loops_and_bridges():
    assert not cactus_validate(CactusGraph(size=2, edges=((0, 1),), phi=(0, 1)))
    assert not cactus_validate(CactusGraph(size=1, edges=((0, 0),), phi=(0,)))


# -- one-pass validation against the three-stage check ------------------------


def _three_stage_is_cactus(size, edges):
    """Connected, 2-edge-connected by capped flow, and one u-v path avoiding each edge."""
    if any(u == v for u, v in edges):
        return False
    if size == 1:
        return not edges
    if not is_connected(edges, size) or not edge_connectivity_at_least(edges, size, 2):
        return False
    adj = [[] for _ in range(size)]
    for idx, (u, v) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))

    def paths(x, t, skip, seen):
        if x == t:
            return 1
        seen.add(x)
        found = 0
        for y, idx in adj[x]:
            if idx != skip and y not in seen:
                found += paths(y, t, skip, seen)
                if found >= 2:
                    break
        seen.discard(x)
        return found

    return all(paths(u, v, idx, set()) == 1 for idx, (u, v) in enumerate(edges))


def _validation_graphs(rng, max_nodes):
    """Glued cycles and doubled edges, each also with a chord or an edge cut, plus
    random and disconnected multigraphs, as (size, edges)."""
    size, edges = support.random_cactus_edges(rng, max_nodes)
    yield size, edges
    if size >= 2:
        yield size, edges + [tuple(rng.sample(range(size), 2))]
        cut = list(edges)
        del cut[rng.randrange(len(cut))]
        yield size, cut
    n = rng.randint(1, max_nodes)
    if n >= 2:
        yield n, support.random_multigraph(rng, n, rng.randint(1, 2 * n))
    if size + 1 <= max_nodes:
        right, more = support.random_cactus_edges(rng, max_nodes - size)
        yield size + right, edges + [(u + size, v + size) for u, v in more]


def test_validate_matches_the_three_stage_check():
    rng = random.Random(5150)
    seen = {"cactus": 0, "refused": 0, "loops": 0, "split": 0, "one_node": 0}
    graphs = 0
    while graphs < 2400:
        for size, edges in _validation_graphs(rng, rng.randint(1, 10)):
            if edges and rng.random() < 0.05:
                edges = edges + [(rng.randrange(size),) * 2]
                seen["loops"] += 1
            rng.shuffle(edges)
            want = _three_stage_is_cactus(size, edges)
            got = cactus_validate(CactusGraph(size=size, edges=tuple(edges), phi=tuple(range(size))))
            assert got == want, (size, edges)
            seen["cactus" if want else "refused"] += 1
            seen["split"] += not is_connected(edges, size)
            seen["one_node"] += size == 1
            graphs += 1
    assert min(seen.values()) >= 20, seen


def _validates_within_a_second(size, edges):
    start = time.perf_counter()
    ok = cactus_validate(CactusGraph(size=size, edges=tuple(edges), phi=tuple(range(size))))
    assert time.perf_counter() - start < 1.0, size
    return ok


def test_validate_accepts_a_long_ring():
    assert _validates_within_a_second(1500, [(i, (i + 1) % 1500) for i in range(1500)])


def test_validate_accepts_a_long_path_of_doubled_edges():
    assert _validates_within_a_second(2000, [(i // 2, i // 2 + 1) for i in range(2 * 1999)])


def test_validate_refuses_a_long_ring_with_a_chord():
    ring = [(i, (i + 1) % 2000) for i in range(2000)]
    assert not _validates_within_a_second(2000, ring + [(0, 1000)])


def test_build_cycle_is_itself():
    c = cactus_build(C5, 5)
    assert c.size == 5
    assert tuple(c.phi) == tuple(range(5))
    got = sorted(tuple(sorted(e)) for e in c.edges)
    assert got == sorted(tuple(sorted(e)) for e in C5)


def test_build_path_doubles_edges():
    c = cactus_build([(0, 1), (1, 2)], 3)
    assert sorted(tuple(sorted(e)) for e in c.edges) == [
        (0, 1),
        (0, 1),
        (1, 2),
        (1, 2),
    ]


def test_build_k4_min_cut_family_contract():
    c = cactus_build(K4, 4)
    want, _ = _min_cut_family(K4, 4)
    got, _ = _min_cut_family(c.edges, c.size)
    # normalize preimages to the representative excluding vertex 0
    mapped = set()
    for side in got:
        pre = {v for v in range(4) if c.phi[v] in side}
        if not pre or len(pre) == 4:
            continue
        if 0 in pre:
            pre = set(range(4)) - pre
        mapped.add(frozenset(pre))
    assert mapped == want


def test_build_min_cut_family_equality_random():
    rng = random.Random(940)
    done = 0
    while done < 80:
        n = rng.randint(2, 10)
        edges = support.random_multigraph(rng, n, rng.randint(n - 1, 3 * n))
        if not is_connected(edges, n):
            continue
        c = cactus_build(edges, n)
        assert cactus_validate(c)
        assert c.size <= 2 * n - 1
        want, _ = _min_cut_family(edges, n)
        got, best_c = _min_cut_family(c.edges, c.size)
        assert best_c == 2
        mapped = set()
        for side in got:
            pre = {v for v in range(n) if c.phi[v] in side}
            if not pre or len(pre) == n:
                continue
            if 0 in pre:
                pre = set(range(n)) - pre
            mapped.add(frozenset(pre))
        assert mapped == want, (edges, n)
        done += 1


def test_build_guards():
    with pytest.raises(SizeGuardError):
        cactus_build([(i, i + 1) for i in range(16)] + [(16, 0)], 17)
    with pytest.raises(ValueError):
        cactus_build([(0, 1)], 3)  # disconnected


def test_unfold_plain_cycle():
    c = CactusGraph(size=5, edges=tuple(C5), phi=tuple(range(5)))
    unf = cactus_unfold(c)
    assert unf.length == 5
    assert unf.links == ()
    assert sorted(p for ps in unf.positions for p in ps) == list(range(5))


def test_unfold_figure_eight_chains_the_junction():
    c = CactusGraph(size=5, edges=tuple(FIGURE_EIGHT), phi=tuple(range(5)))
    unf = cactus_unfold(c)
    assert unf.length == 6
    assert len(unf.positions[0]) == 2
    assert len(unf.links) == 1
    zl = unf.links[0]
    assert zl.w == 0
    assert {zl.u, zl.v} == set(unf.positions[0])


def test_unfold_doubled_edge_consecutive_steps():
    c = CactusGraph(size=2, edges=((0, 1), (0, 1)), phi=(0, 1))
    unf = cactus_unfold(c)
    assert unf.length == 2
    assert unf.links == ()


def test_unfold_length_equals_edge_count_and_covers_vertices():
    rng = random.Random(77)
    for _ in range(25):
        size, edges = support.random_cactus_edges(rng, 9)
        if size < 2:
            continue
        c = CactusGraph(size=size, edges=tuple(edges), phi=tuple(range(size)))
        assert cactus_validate(c)
        unf = cactus_unfold(c)
        assert unf.length == len(edges)
        for node in range(size):
            assert unf.positions[node]
            assert unf.position_of(node) == unf.positions[node][0]
        # zero links chain consecutive positions of one node
        for zl in unf.links:
            assert zl.w == 0
            owner = [node for node in range(size) if zl.u in unf.positions[node]]
            assert len(owner) == 1
            assert zl.v in unf.positions[owner[0]]


def test_unfold_preserves_exact_augmentation_optimum():
    rng = random.Random(93)
    done = 0
    while done < 40:
        size, edges = support.random_cactus_edges(rng, 8)
        if size < 3:
            continue
        c = CactusGraph(size=size, edges=tuple(edges), phi=tuple(range(size)))
        unf = cactus_unfold(c)
        links = [
            WeightedEdge(*rng.sample(range(size), 2), rng.randint(1, 20), i)
            for i in range(rng.randint(2, 6))
        ]
        if len(unf.links) + len(links) > 22:
            continue

        def opt(n, base, lks):
            try:
                return exact_kcap(AugmentationInstance(n=n, k=3, base=base, links=lks))[1]
            except Infeasible:
                return None

        want = opt(size, list(c.edges), links)
        ring = [(i, (i + 1) % unf.length) for i in range(unf.length)]
        mapped = [
            WeightedEdge(unf.position_of(l.u), unf.position_of(l.v), l.w, 100 + l.arrival)
            for l in links
        ]
        got = opt(unf.length, ring, list(unf.links) + mapped)
        assert got == want, (edges, [(l.u, l.v, l.w) for l in links])
        done += 1


def test_text_format_round_trip():
    c = cactus_build(FIGURE_EIGHT, 5)
    text = format_cactus(c)
    assert text.splitlines()[0] == f"cactus m={c.size} n=5"
    assert parse_cactus(text) == c


def test_text_format_rejects_bad_input():
    with pytest.raises(StreamFormatError):
        parse_cactus("not a header\n")
    with pytest.raises(StreamFormatError):
        parse_cactus("cactus m=2\n")
    with pytest.raises(StreamFormatError):
        parse_cactus("cactus m=2 n=2\nC 0 1\nC 0 1\nP 0 0\n")
    with pytest.raises(StreamFormatError):
        parse_cactus("cactus m=2 n=2\nC 0 1\nC 0 1\nP 0 0\nP 0 1\n")
    with pytest.raises(StreamFormatError):
        parse_cactus("cactus m=2 n=2\nQ 0 1\n")
