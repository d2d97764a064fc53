"""Tests for the eviction cascade coreset and the reverse-phase solver."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from streamaug.errors import Infeasible, SizeGuardError, StreamFormatError
from streamaug.graph_core import WeightedEdge
from streamaug.sndp_coreset import Cascade, Requirements, SndpSolution, solve_sndp
from streamaug.spanner_stream import SpannerState

import support


def _edges(pairs):
    return [WeightedEdge(u, v, w, i) for i, (u, v, w) in enumerate(pairs)]


def _clique(n, w=1):
    return _edges([(u, v, w) for u in range(n) for v in range(u + 1, n)])


def _feasible_flow(edges, reqs):
    n = reqs.n
    for (s, t), r in reqs.items():
        if r > 0 and support.nx_pair_flow([(e.u, e.v) for e in edges], n, s, t) < r:
            return False
    return True


# -- requirements -----------------------------------------------------------


def test_requirements_store_symmetric_values():
    reqs = Requirements({(0, 3): 2, (2, 1): 1}, 4)
    assert reqs.value(0, 3) == 2
    assert reqs.value(3, 0) == 2
    assert reqs.value(1, 2) == 1
    assert reqs.value(0, 1) == 0
    assert reqs.max_requirement == 2
    assert len(reqs) == 2
    assert reqs.items() == [((0, 3), 2), ((1, 2), 1)]


def test_requirements_reject_bad_input():
    with pytest.raises(ValueError):
        Requirements({(0, 4): 1}, 4)
    with pytest.raises(ValueError):
        Requirements({(2, 2): 1}, 4)
    with pytest.raises(ValueError):
        Requirements({(0, 1): -1}, 4)
    with pytest.raises(ValueError):
        Requirements({(0, 1): "2"}, 4)
    with pytest.raises(ValueError):
        Requirements({(0, 1): 1, (1, 0): 2}, 4)
    # agreeing mirror entries collapse to one requirement
    assert len(Requirements({(0, 1): 1, (1, 0): 1}, 4)) == 1


def test_requirements_parse_round_trip_text():
    text = "# demands\nR 0 3 2\n\nR 2 1 1\n"
    reqs = Requirements.parse(text, 4)
    assert reqs.items() == [((0, 3), 2), ((1, 2), 1)]


def test_requirements_parse_errors_carry_line_numbers():
    with pytest.raises(StreamFormatError) as err:
        Requirements.parse("R 0 1 1\nQ 0 2 1\n", 4)
    assert err.value.line_no == 2
    with pytest.raises(StreamFormatError):
        Requirements.parse("R 0 1\n", 4)
    with pytest.raises(StreamFormatError):
        Requirements.parse("R a b c\n", 4)
    with pytest.raises(StreamFormatError) as err:
        Requirements.parse("R 0 1 1\nR 1 0 2\n", 4)
    assert err.value.line_no == 2


def test_cut_demand_examples():
    reqs = Requirements({(0, 3): 2, (1, 2): 1}, 4)
    assert reqs.cut_demand([3]) == 2
    assert reqs.cut_demand([1]) == 1
    assert reqs.cut_demand([1, 2]) == 0
    assert reqs.cut_demand([1, 2, 3]) == 2
    assert reqs.cut_demand([]) == 0
    assert reqs.cut_demand(range(4)) == 0


def test_cut_demand_symmetry_and_disjoint_maximality():
    rng = random.Random(51)
    n = 9
    pairs = {}
    for _ in range(6):
        s, t = rng.sample(range(n), 2)
        pairs.setdefault((min(s, t), max(s, t)), rng.randint(0, 3))
    reqs = Requirements(pairs, n)
    verts = set(range(n))
    for _ in range(200):
        a = {v for v in range(n) if rng.random() < 0.4}
        assert reqs.cut_demand(a) == reqs.cut_demand(verts - a)
        b = {v for v in verts - a if rng.random() < 0.4}
        assert reqs.cut_demand(a | b) <= max(reqs.cut_demand(a), reqs.cut_demand(b))


# -- cascade ----------------------------------------------------------------


def test_cascade_validates_parameters():
    with pytest.raises(ValueError):
        Cascade(4, 0, 2, Fraction(1, 2))
    with pytest.raises(ValueError):
        Cascade(4, 2, 2, 0)
    with pytest.raises(ValueError):
        Cascade(4, 2, 2, 2)


def test_first_edge_lands_in_layer_one():
    cas = Cascade(4, 3, 2, Fraction(1, 2))
    e = WeightedEdge(0, 1, 5, 0)
    cas.insert(e)
    assert cas.layer_edges(1) == [e]
    assert cas.layer_edges(2) == []
    assert cas.layer_edges(3) == []


def test_rejected_edge_falls_to_the_next_layer():
    cas = Cascade(3, 2, 2, Fraction(1, 2))
    for e in _edges([(0, 1, 1), (1, 2, 1), (0, 2, 1)]):
        cas.insert(e)
    assert [e.pair for e in cas.layer_edges(1)] == [(0, 1), (1, 2)]
    assert [e.pair for e in cas.layer_edges(2)] == [(0, 2)]


def test_evicted_edge_falls_to_the_next_layer():
    cas = Cascade(4, 2, 2, Fraction(1, 2))
    heavy = WeightedEdge(0, 1, 3, 0)
    cas.insert(heavy)
    cas.insert(WeightedEdge(0, 1, 0, 1))
    assert heavy not in cas.layer_edges(1)
    assert cas.layer_edges(2) == [heavy]


def test_layers_are_arrival_disjoint():
    cas = Cascade(20, 3, 2, Fraction(1, 2))
    for e in _clique(20):
        cas.insert(e)
    seen: set[int] = set()
    for layer in cas.layers():
        arrivals = {e.arrival for e in layer}
        assert not (arrivals & seen)
        seen |= arrivals
    assert cas.stored_count == len(seen)


def test_single_layer_matches_plain_spanner():
    rng = random.Random(52)
    n, t = 10, 2
    eps = Fraction(1, 2)
    stream = [
        WeightedEdge(*rng.sample(range(n), 2), rng.randint(1, 50), i)
        for i in range(60)
    ]
    cas = Cascade(n, 1, t, eps)
    plain = SpannerState(n, t, eps / (2 * t - 1))
    for e in stream:
        cas.insert(e)
        plain.insert(e)
    assert cas.layer_edges(1) == plain.edges()


def test_tree_stream_stays_in_layer_one():
    rng = random.Random(53)
    n = 12
    tree = [(v, rng.randrange(v)) for v in range(1, n)]
    cas = Cascade(n, 3, 2, Fraction(1, 2))
    for i, (u, v) in enumerate(tree):
        cas.insert(WeightedEdge(u, v, rng.randint(1, 100), i))
    assert len(cas.layer_edges(1)) == n - 1
    assert cas.layer_edges(2) == []
    assert cas.layer_edges(3) == []


def test_each_layer_spans_the_edges_it_passed_down():
    rng = random.Random(54)
    n, t, k = 9, 2, 3
    eps = Fraction(1, 2)
    inner = eps / (2 * t - 1)
    stream = [
        WeightedEdge(*rng.sample(range(n), 2), rng.randint(1, 30), i)
        for i in range(70)
    ]
    cas = Cascade(n, k, t, eps)
    for e in stream:
        cas.insert(e)
    layer_of = {}
    for i in range(1, k + 1):
        for e in cas.layer_edges(i):
            layer_of[e.arrival] = i
    dists = [support.all_dists(n, cas.layer_edges(i)) for i in range(1, k + 1)]
    bound = (2 * t - 1) * (1 + inner)
    for e in stream:
        depth = layer_of.get(e.arrival, k + 1)
        # every layer above the resting place saw the edge and refused it,
        # so each must already connect its endpoints within the stretch
        for i in range(1, min(depth, k + 1)):
            assert dists[i - 1][e.u][e.v] <= bound * e.w


# -- solver -----------------------------------------------------------------


def test_solver_with_no_demands_returns_nothing():
    sol = solve_sndp([[]], Requirements({}, 4))
    assert sol.edges == ()
    assert sol.weight == 0
    assert sol.phases == ((),)


def test_single_demand_price_is_a_shortest_path():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(4, 8)
        stream = [
            WeightedEdge(*rng.sample(range(n), 2), rng.randint(1, 40), i)
            for i in range(25)
        ]
        cas = Cascade(n, 1, 2, Fraction(1, 2))
        for e in stream:
            cas.insert(e)
        s, t = rng.sample(range(n), 2)
        reqs = Requirements({(s, t): 1}, n)
        reachable = support.dijkstra(n, cas.layer_edges(1), s)[t]
        if reachable == float("inf"):
            with pytest.raises(Infeasible):
                solve_sndp(cas, reqs)
            continue
        sol = solve_sndp(cas, reqs)
        assert sol.weight == reachable
        assert _feasible_flow(sol.edges, reqs)


def test_uniform_demand_two_on_the_clique():
    cas = Cascade(4, 2, 2, Fraction(1, 2))
    for e in _clique(4):
        cas.insert(e)
    reqs = Requirements({(u, v): 2 for u in range(4) for v in range(u + 1, 4)}, 4)
    sol = solve_sndp(cas, reqs)
    assert _feasible_flow(sol.edges, reqs)
    assert len(sol.phases) == 2
    assert sol.weight == sum(e.w for e in sol.edges)
    assert sum(e.w for p in sol.phases for e in p) == sol.weight
    # the best doubly-connected subgraph of an unweighted clique is a
    # hamiltonian cycle, so four edges bound the solver from below
    assert sol.weight >= 4


def test_phase_choices_match_restricted_exact_cover():
    rng = random.Random(56)
    t = 2
    eps = Fraction(1, 2)
    ratio = Fraction(2 * t - 1) + eps
    for _ in range(15):
        n = rng.randint(4, 7)
        k = rng.randint(1, 3)
        stream = [
            WeightedEdge(*rng.sample(range(n), 2), rng.randint(1, 20), i)
            for i in range(20)
        ]
        pairs = {}
        for _ in range(3):
            s, u = rng.sample(range(n), 2)
            pairs.setdefault((min(s, u), max(s, u)), rng.randint(1, k))
        reqs = Requirements(pairs, n)
        cas = Cascade(n, k, t, eps)
        for e in stream:
            cas.insert(e)
        try:
            sol = solve_sndp(cas, reqs)
        except Infeasible:
            continue
        sides = []
        need = []
        for mask in range(1, 1 << (n - 1)):
            members = [v for v in range(1, n) if (mask >> (v - 1)) & 1]
            demand = reqs.cut_demand(members)
            if demand > 0:
                sides.append(mask)
                need.append(demand)

        def crosses(e, mask):
            iu = e.u > 0 and (mask >> (e.u - 1)) & 1
            iv = e.v > 0 and (mask >> (e.v - 1)) & 1
            return bool(iu) != bool(iv)

        crossings = [0] * len(sides)
        taken: set[int] = set()
        for phase_no, grabbed in enumerate(sol.phases, start=1):
            targets = [
                i
                for i in range(len(sides))
                if max(0, need[i] - (k - phase_no)) - crossings[i] == 1
            ]
            if targets:
                # the whole ingested stream minus earlier picks is the
                # strongest pool any one phase could have shopped from
                avail = [e for e in stream if e.arrival not in taken]
                masks = []
                for e in avail:
                    m = 0
                    for pos, i in enumerate(targets):
                        if crosses(e, sides[i]):
                            m |= 1 << pos
                    masks.append(m)
                best = support.exact_cover(
                    masks, [e.w for e in avail], (1 << len(targets)) - 1
                )
                assert best is not None
                phase_weight = sum(e.w for e in grabbed)
                assert phase_weight <= ratio * best[0]
            else:
                assert grabbed == ()
            for e in grabbed:
                taken.add(e.arrival)
                for i in range(len(sides)):
                    if crosses(e, sides[i]):
                        crossings[i] += 1
        assert _feasible_flow(sol.edges, reqs)


def test_unreachable_demand_is_infeasible():
    cas = Cascade(4, 1, 2, Fraction(1, 2))
    cas.insert(WeightedEdge(0, 1, 1, 0))
    with pytest.raises(Infeasible):
        solve_sndp(cas, Requirements({(2, 3): 1}, 4))


def test_solver_size_guard_and_requirement_ceiling():
    with pytest.raises(SizeGuardError):
        solve_sndp([[]], Requirements({(0, 1): 1}, 13))
    with pytest.raises(ValueError):
        solve_sndp([[], []], Requirements({(0, 1): 3}, 4))


def test_solver_accepts_plain_layer_lists():
    layers = [
        [WeightedEdge(0, 1, 2, 0), WeightedEdge(1, 2, 3, 1)],
        [WeightedEdge(0, 2, 9, 2)],
    ]
    sol = solve_sndp(layers, Requirements({(0, 2): 2}, 3))
    assert _feasible_flow(sol.edges, Requirements({(0, 2): 2}, 3))
    assert sol.weight == 14


# -- side vectors against the per-side solver they replaced ------------------


def _per_side_solve_sndp(layers, requirements):
    """Test-only copy of solve_sndp with a Python loop over every side."""
    n = requirements.n
    k = len(layers)
    if requirements.max_requirement > k:
        raise ValueError("requirement above the layer count")
    sides, need = [], []
    for mask in range(1, 1 << (n - 1)):
        members = [v for v in range(1, n) if (mask >> (v - 1)) & 1]
        demand = requirements.cut_demand(members)
        if demand > 0:
            sides.append(mask)
            need.append(demand)
    chosen, chosen_arrivals, phases, pool = [], set(), [], []
    crossings = [0] * len(sides)

    def crosses(e, mask):
        in_u = e.u > 0 and (mask >> (e.u - 1)) & 1
        in_v = e.v > 0 and (mask >> (e.v - 1)) & 1
        return bool(in_u) != bool(in_v)

    for phase in range(1, k + 1):
        pool.extend(layers[phase - 1])
        targets = []
        for idx in range(len(sides)):
            deficit = max(0, need[idx] - (k - phase)) - crossings[idx]
            if deficit > 1:
                raise RuntimeError("phase deficit exceeded 1")
            if deficit == 1:
                targets.append(idx)
        if not targets:
            phases.append(())
            continue
        avail = [e for e in pool if e.arrival not in chosen_arrivals]
        masks = []
        for e in avail:
            m = 0
            for pos, idx in enumerate(targets):
                if crosses(e, sides[idx]):
                    m |= 1 << pos
            masks.append(m)
        hit = support.reference_cover_branch_and_bound(
            masks, [e.w for e in avail], (1 << len(targets)) - 1
        )
        if hit is None:
            raise Infeasible(f"phase {phase} cannot cover all deficient cuts")
        grabbed = tuple(avail[i] for i in hit[1])
        phases.append(grabbed)
        for e in grabbed:
            chosen.append(e)
            chosen_arrivals.add(e.arrival)
            for idx in range(len(sides)):
                if crosses(e, sides[idx]):
                    crossings[idx] += 1
    return SndpSolution(tuple(chosen), sum(e.w for e in chosen), tuple(phases))


def _solve_outcome(solve, layers, reqs):
    try:
        return solve(layers, reqs)
    except (Infeasible, RuntimeError, ValueError) as exc:
        return type(exc)


def _weights(rng, count):
    scale = rng.choice([0, 5, 10**12])
    return [rng.randint(0, scale) for _ in range(count)]


def test_side_vectors_match_the_per_side_solver_on_cascades():
    rng = random.Random(5153)
    kinds = set()
    for trial in range(300):
        n = rng.randint(2, 12)
        k = rng.randint(1, 3)
        t = rng.randint(1, 2)
        m = rng.randint(0, 30)
        ends = [tuple(rng.sample(range(n), 2)) for _ in range(max(1, m // 2))]
        stream = [
            WeightedEdge(*rng.choice(ends), w, i) for i, w in enumerate(_weights(rng, m))
        ]
        cas = Cascade(n, k, t, Fraction(1, rng.choice([1, 2, 4])))
        for e in stream:
            cas.insert(e)
        pairs = {}
        for _ in range(rng.randint(0, 4)):
            s, u = sorted(rng.sample(range(n), 2))
            pairs[(s, u)] = rng.randint(0, k)
        reqs = Requirements(pairs, n)
        want = _solve_outcome(_per_side_solve_sndp, cas.layers(), reqs)
        assert _solve_outcome(solve_sndp, cas, reqs) == want, (trial, n, k, t, stream, pairs)
        kinds.add(want if isinstance(want, type) else bool(want.edges))
    assert kinds == {Infeasible, False, True}


def test_side_vectors_match_the_per_side_solver_on_plain_layers():
    # arbitrary layers, parallel edges and demands above the layer count
    rng = random.Random(5154)
    kinds = set()
    for trial in range(300):
        n = rng.randint(2, 12)
        k = rng.randint(1, 3)
        ends = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 8))]
        arrival = iter(range(100))
        layers = [
            [WeightedEdge(*rng.choice(ends), w, next(arrival)) for w in _weights(rng, size)]
            for size in [rng.randint(0, 8) for _ in range(k)]
        ]
        pairs = {}
        for _ in range(rng.randint(1, 3)):
            s, u = sorted(rng.sample(range(n), 2))
            pairs[(s, u)] = rng.randint(0, k + (trial % 10 == 0))
        reqs = Requirements(pairs, n)
        want = _solve_outcome(_per_side_solve_sndp, layers, reqs)
        assert _solve_outcome(solve_sndp, layers, reqs) == want, (trial, n, layers, pairs)
        kinds.add(want if isinstance(want, type) else bool(want.edges))
    assert kinds == {Infeasible, ValueError, False, True}


def test_solver_refuses_edges_outside_the_vertex_range():
    reqs = Requirements({(0, 1): 1}, 3)
    for bad in (WeightedEdge(1, 7, 1, 1), WeightedEdge(-1, 2, 1, 1), WeightedEdge(3, 0, 1, 1)):
        with pytest.raises(ValueError, match="out of range"):
            solve_sndp([[WeightedEdge(0, 1, 1, 0)], [bad]], reqs)
