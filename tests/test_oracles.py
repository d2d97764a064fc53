"""Exact solvers against hand values and independent enumeration."""

from __future__ import annotations

import collections
import itertools
import random

import pytest

import support
from streamaug import (
    Arc,
    AugmentationInstance,
    Infeasible,
    SizeGuardError,
    WeightedEdge,
    exact_directed_cycle_cover,
    exact_kcap,
    exact_sndp,
    validate_certificate,
)
from streamaug.graph_core import cuts_of_size_at_most
from streamaug.oracles import _cover_branch_and_bound

C4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
TRIANGLE = [(0, 1), (1, 2), (2, 0)]


def _links(pairs_with_weights):
    return [WeightedEdge(u, v, w, i) for i, (u, v, w) in enumerate(pairs_with_weights)]


# ---------------------------------------------------------------------------
# exact_kcap


def test_kcap_four_cycle_needs_both_chords():
    inst = AugmentationInstance(n=4, k=3, base=C4, links=_links([(0, 2, 1), (1, 3, 1)]))
    chosen, weight = exact_kcap(inst)
    assert weight == 2
    assert support.link_multiset(chosen) == [(0, 2, 1), (1, 3, 1)]


def test_kcap_single_chord_infeasible():
    inst = AugmentationInstance(n=4, k=3, base=C4, links=_links([(0, 2, 1)]))
    with pytest.raises(Infeasible):
        exact_kcap(inst)


def test_kcap_already_connected_base_needs_nothing():
    k4 = C4 + [(0, 2), (1, 3)]
    inst = AugmentationInstance(n=4, k=3, base=k4, links=_links([(0, 1, 9)]))
    assert exact_kcap(inst) == ([], 0)


def test_kcap_rejects_underconnected_base():
    with pytest.raises(ValueError):
        AugmentationInstance(n=4, k=3, base=[(0, 1), (1, 2), (2, 3)], links=[])


def test_kcap_refuses_endpoints_outside_the_vertex_range():
    # read as lying in no side, a base edge (-1, 2) would pass as (0, 2)
    # and one chord would look enough
    links = _links([(0, 2, 1), (1, 3, 1)])
    for base in (C4 + [(-1, 2)], C4 + [(2, 4)]):
        with pytest.raises(ValueError, match="out of range"):
            AugmentationInstance(n=4, k=3, base=base, links=links)
    for bad in _links([(0, 4, 1), (-1, 2, 1)]):
        with pytest.raises(ValueError, match="out of range"):
            AugmentationInstance(n=4, k=3, base=C4, links=links + [bad])


def test_kcap_link_count_guard():
    many = _links([(0, 1, 1)] * 23)
    with pytest.raises(SizeGuardError):
        exact_kcap(AugmentationInstance(n=4, k=3, base=C4, links=many))


def test_kcap_output_is_feasible_and_optimal_on_random_instances():
    rng = random.Random(515)
    solved = 0
    while solved < 80:
        n = rng.randint(3, 7)
        k = rng.randint(2, 3)
        base = support.random_two_connected_graph(rng, n, rng.randint(0, n))
        if support.nx_edge_connectivity(base, n) != k - 1:
            continue
        links = _links(
            [
                (*sorted(rng.sample(range(n), 2)), rng.randint(1, 30))
                for _ in range(rng.randint(2, 8))
            ]
        )
        inst = AugmentationInstance(n=n, k=k, base=base, links=links)
        try:
            chosen, weight = exact_kcap(inst)
        except Infeasible:
            assert support.nx_edge_connectivity(list(base) + links, n) < k
            solved += 1
            continue
        assert support.nx_edge_connectivity(list(base) + chosen, n) >= k
        # independent optimum by subset enumeration
        best = None
        for r in range(len(links) + 1):
            for combo in itertools.combinations(links, r):
                w = sum(l.w for l in combo)
                if (best is None or w < best) and support.nx_edge_connectivity(
                    list(base) + list(combo), n
                ) >= k:
                    best = w
        assert weight == best
        solved += 1


# ---------------------------------------------------------------------------
# exact_directed_cycle_cover


def _arcs(triples):
    return [Arc(x, y, w, None) for x, y, w in triples]


def test_directed_cover_four_cycle_hand_value():
    sol, weight = exact_directed_cycle_cover(
        4, _arcs([(1, 3, 1), (3, 1, 1), (0, 2, 1), (2, 0, 1)])
    )
    assert weight == 3
    assert sorted((a.x, a.y) for a in sol) == [(0, 2), (1, 3), (3, 1)]


def test_directed_cover_three_cycle_two_arcs():
    sol, weight = exact_directed_cycle_cover(3, _arcs([(0, 1, 1), (0, 2, 1)]))
    assert weight == 2
    assert len(sol) == 2


def test_directed_cover_missing_head_infeasible():
    with pytest.raises(Infeasible):
        exact_directed_cycle_cover(3, _arcs([(0, 1, 1)]))


def test_directed_cover_equals_subset_enumeration():
    rng = random.Random(606)
    for trial in range(200):
        n = rng.randint(2, 8)
        arcs = []
        for _ in range(rng.randint(1, 10)):
            x, y = rng.sample(range(n), 2)
            arcs.append((x, y, rng.randint(0, 12)))
        want = support.brute_directed_cover(n, arcs)
        try:
            sol, weight = exact_directed_cycle_cover(n, _arcs(arcs))
        except Infeasible:
            assert want is None, (trial, n, arcs)
            continue
        assert want is not None
        assert (weight, len(sol)) == (want[0], want[1]), (trial, n, arcs)


def test_directed_cover_rejects_degenerate_arcs():
    with pytest.raises(ValueError):
        exact_directed_cycle_cover(4, [Arc(2, 2, 1, None)])
    with pytest.raises(ValueError):
        exact_directed_cycle_cover(1, [])


def test_bidirected_sandwich_bound():
    # directed optimum with both orientations lies between the undirected
    # optimum and twice the undirected optimum
    rng = random.Random(707)
    checked = 0
    while checked < 60:
        n = rng.randint(4, 9)
        chords = []
        for _ in range(rng.randint(2, 7)):
            u, v = rng.sample(range(n), 2)
            chords.append((u, v, rng.randint(1, 50)))
        und = support.undirected_cycle_opt(n, chords)
        arcs = []
        for u, v, w in chords:
            arcs.append((u, v, w))
            arcs.append((v, u, w))
        try:
            _, directed = exact_directed_cycle_cover(n, _arcs(arcs))
        except Infeasible:
            assert und is None
            continue
        assert und is not None
        assert und[0] <= directed <= 2 * und[0]
        checked += 1


# ---------------------------------------------------------------------------
# exact_sndp


def test_sndp_single_pair_single_edge():
    k3 = _links([(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    chosen, weight = exact_sndp(3, k3, {(0, 1): 1})
    assert weight == 1
    assert support.link_multiset(chosen) == [(0, 1, 1)]


def test_sndp_k4_all_pairs_two_connected():
    k4 = _links([(u, v, 1) for u, v in itertools.combinations(range(4), 2)])
    req = {(u, v): 2 for u, v in itertools.combinations(range(4), 2)}
    chosen, weight = exact_sndp(4, k4, req)
    assert weight == 4
    for u, v in req:
        assert support.nx_pair_flow(chosen, 4, u, v) >= 2


def test_sndp_no_requirements_is_empty():
    k4 = _links([(u, v, 1) for u, v in itertools.combinations(range(4), 2)])
    assert exact_sndp(4, k4, {}) == ([], 0)


def test_sndp_infeasible_when_flow_short():
    path = _links([(0, 1, 1), (1, 2, 1)])
    with pytest.raises(Infeasible):
        exact_sndp(3, path, {(0, 2): 2})


def test_sndp_edge_count_guard():
    edges = _links([(0, 1, 1)] * 21)
    with pytest.raises(SizeGuardError):
        exact_sndp(2, edges, {(0, 1): 1})


def test_sndp_feasibility_matches_flow_oracle_on_random_instances():
    rng = random.Random(808)
    for _ in range(50):
        n = rng.randint(3, 6)
        edges = _links(
            [
                (*sorted(rng.sample(range(n), 2)), rng.randint(1, 9))
                for _ in range(rng.randint(2, 10))
            ]
        )
        pairs = {}
        for _ in range(rng.randint(1, 3)):
            u, v = sorted(rng.sample(range(n), 2))
            pairs[(u, v)] = rng.randint(1, 3)
        try:
            chosen, weight = exact_sndp(n, edges, pairs)
        except Infeasible:
            assert any(
                support.nx_pair_flow(edges, n, u, v) < r for (u, v), r in pairs.items()
            )
            continue
        for (u, v), r in pairs.items():
            assert support.nx_pair_flow(chosen, n, u, v) >= r
        # no strictly cheaper feasible subset
        for r in range(len(chosen)):
            for combo in itertools.combinations(edges, r):
                if sum(e.w for e in combo) < weight:
                    assert any(
                        support.nx_pair_flow(combo, n, u, v) < need
                        for (u, v), need in pairs.items()
                    )


# ---------------------------------------------------------------------------
# validate_certificate


def test_certificate_full_set_validates():
    assert validate_certificate(TRIANGLE, TRIANGLE, 3, 2)


def test_certificate_missing_edge_fails():
    assert not validate_certificate(TRIANGLE, [(0, 1), (1, 2)], 3, 2)


def test_certificate_vacuous_when_no_small_cut():
    # triangle has no cut of size <= 1, so any subset passes for k=1
    assert validate_certificate(TRIANGLE, [(0, 1), (1, 2)], 3, 1)


def test_certificate_refuses_endpoints_outside_the_vertex_range():
    # read as lying in no side, vertex 5 would leave every cut of the
    # triangle's vertex set uncrossed and the empty certificate valid
    for full in ([(0, 5)], TRIANGLE + [(-1, 2)]):
        for n in (3, 1):
            with pytest.raises(ValueError, match="out of range"):
                validate_certificate(full, [], n, 1)


def test_certificate_respects_multiplicity():
    full = [(0, 1), (0, 1), (0, 1)]
    assert validate_certificate(full, [(0, 1), (0, 1)], 2, 2)
    assert not validate_certificate(full, [(0, 1), (0, 1)], 2, 3)


# ---------------------------------------------------------------------------
# side bitsets against the per-side solvers they replaced


def _per_side_multicover(cross, weights, need):
    """Test-only copy of the multicover that kept per-side deficit and slack."""
    m = len(cross)
    deficit = list(need)
    num_unsat = sum(1 for d in deficit if d > 0)
    slack = [-d for d in deficit]
    for lst in cross:
        for s in lst:
            slack[s] += 1
    num_bad = sum(1 for s in slack if s < 0)
    best: list = [None]

    def walk(i, weight, chosen, unsat, bad):
        if unsat == 0:
            cand = (weight, tuple(chosen))
            if best[0] is None or cand < best[0]:
                best[0] = cand
            return
        if i == m or bad > 0:
            return
        if best[0] is not None and weight > best[0][0]:
            return
        hits = cross[i]
        gained = 0
        for s in hits:
            deficit[s] -= 1
            if deficit[s] == 0:
                gained += 1
        chosen.append(i)
        walk(i + 1, weight + weights[i], chosen, unsat - gained, bad)
        chosen.pop()
        for s in hits:
            deficit[s] += 1
        worsened = 0
        for s in hits:
            slack[s] -= 1
            if slack[s] == -1:
                worsened += 1
        walk(i + 1, weight, chosen, unsat, bad + worsened)
        for s in hits:
            slack[s] += 1

    walk(0, 0, [], num_unsat, num_bad)
    return best[0]


def _per_side_exact_sndp(n, edges, pairs):
    """Test-only copy of exact_sndp with a Python loop over sides and pairs."""
    pairs = sorted((min(s, t), max(s, t), r) for (s, t), r in pairs.items())
    sides, need = [], []
    for mask in range(1, 1 << (n - 1)):
        demand = 0
        for s, t, r in pairs:
            in_s = s > 0 and (mask >> (s - 1)) & 1
            in_t = t > 0 and (mask >> (t - 1)) & 1
            if in_s != in_t and r > demand:
                demand = r
        if demand > 0:
            sides.append(mask)
            need.append(demand)
    if not sides:
        return [], 0
    cross = []
    for e in edges:
        hits = []
        for idx, mask in enumerate(sides):
            in_u = e.u > 0 and (mask >> (e.u - 1)) & 1
            in_v = e.v > 0 and (mask >> (e.v - 1)) & 1
            if in_u != in_v:
                hits.append(idx)
        cross.append(hits)
    hit = _per_side_multicover(cross, [e.w for e in edges], need)
    if hit is None:
        raise Infeasible("per-side multicover found no cover")
    weight, chosen = hit
    return [edges[i] for i in chosen], weight


def _per_side_exact_kcap(instance):
    """Test-only copy of exact_kcap building link masks side by side."""
    sides = cuts_of_size_at_most(instance.base, instance.n, instance.k - 1)
    if not sides:
        return [], 0
    masks = []
    for e in instance.links:
        mask = 0
        for idx, side in enumerate(sides):
            if (e.u in side.members) != (e.v in side.members):
                mask |= 1 << idx
        masks.append(mask)
    hit = _cover_branch_and_bound(
        masks, [e.w for e in instance.links], (1 << len(sides)) - 1
    )
    if hit is None:
        raise Infeasible("per-side cover found no cover")
    weight, chosen = hit
    return [instance.links[i] for i in chosen], weight


def _outcome(solve, *args):
    try:
        return solve(*args)
    except (Infeasible, ValueError) as exc:
        return type(exc)


def _random_weights(rng, count):
    scale = rng.choice(["zero", "small", "wide", "mixed"])
    if scale == "zero":
        return [0] * count
    if scale == "small":
        return [rng.randint(0, 5) for _ in range(count)]
    if scale == "wide":
        return [rng.randint(1, 10**12) for _ in range(count)]
    return [rng.choice([0, rng.randint(1, 9), rng.randint(1, 10**12)]) for _ in range(count)]


def _random_pairs_with_repeats(rng, n, count):
    """count vertex pairs, about 40% of them repeats of a few earlier ones."""
    pool = [tuple(rng.sample(range(n), 2)) for _ in range(max(1, count // 2))]
    return [
        rng.choice(pool) if rng.random() < 0.4 else tuple(rng.sample(range(n), 2))
        for _ in range(count)
    ]


def _random_design_ends(rng, n):
    """Up to 20 edge ends: a multigraph, a tree or a cycle plus parallel extras."""
    shape = rng.choice(["any", "tree", "cycle"] if n > 2 else ["any", "tree"])
    extra = _random_pairs_with_repeats(rng, n, rng.randint(0, 20 - n))
    if shape == "any":
        return _random_pairs_with_repeats(rng, n, rng.randint(0, 20))
    if shape == "tree":
        return support.random_connected_graph(rng, n, 0) + extra
    return support.random_two_connected_graph(rng, n, 0) + extra


def test_side_bitset_design_matches_the_per_side_solver():
    rng = random.Random(5150)
    kinds = collections.Counter()
    for trial in range(150):
        n = rng.randint(2, 12) if trial % 3 else rng.randint(10, 12)
        ends = _random_design_ends(rng, n)
        edges = _links([(u, v, w) for (u, v), w in zip(ends, _random_weights(rng, len(ends)))])
        pairs = {}
        for _ in range(rng.randint(0, 4)):
            s, t = sorted(rng.sample(range(n), 2))
            pairs[(s, t)] = rng.randint(0, 3)
        want = _outcome(_per_side_exact_sndp, n, edges, pairs)
        got = _outcome(exact_sndp, n, edges, pairs)
        assert got == want, (trial, n, edges, pairs)
        kinds[want if isinstance(want, type) else ("empty" if not want[0] else n >= 10)] += 1
    # infeasible, empty, covers below and at n >= 10 all occur often
    assert min(kinds[k] for k in (Infeasible, "empty", False, True)) >= 15, kinds


def test_side_bitset_design_matches_on_clique_demands():
    # dense demands on every pair push the search deep at the largest n
    rng = random.Random(5151)
    for trial in range(6):
        n = 12 - trial % 3
        edges = _links(
            [(i, (i + 1) % n, rng.randint(0, 4)) for i in range(n)]
            + [(*rng.sample(range(n), 2), rng.randint(0, 4)) for _ in range(20 - n)]
        )
        pairs = {(u, v): rng.randint(1, 2) for u in range(n) for v in range(u + 1, n)}
        assert exact_sndp(n, edges, pairs) == _per_side_exact_sndp(n, edges, pairs), trial


def test_side_bitset_augmentation_matches_the_per_side_solver():
    rng = random.Random(5152)
    for trial in range(150):
        n = rng.randint(2, 12)
        k = rng.randint(1, 3)
        if k == 1:
            base = support.random_multigraph(rng, n, rng.randint(0, n)) if n > 1 else []
        elif k == 2:
            base = support.random_connected_graph(rng, n, rng.randint(0, 2))
        else:
            if n < 3:
                continue
            base = support.random_two_connected_graph(rng, n, rng.randint(0, 3))
        m = rng.randint(0, 22 if n <= 8 else 14)
        ends = _random_pairs_with_repeats(rng, n, m)
        links = _links([(u, v, w) for (u, v), w in zip(ends, _random_weights(rng, m))])
        inst = AugmentationInstance(n=n, k=k, base=base, links=links)
        assert _outcome(exact_kcap, inst) == _outcome(_per_side_exact_kcap, inst), trial


def test_design_refuses_edges_outside_the_vertex_range():
    for bad in (WeightedEdge(1, 7, 1, 0), WeightedEdge(-1, 2, 1, 0), WeightedEdge(3, 0, 1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            exact_sndp(3, [WeightedEdge(0, 1, 1, 1), bad], {(0, 1): 1})
