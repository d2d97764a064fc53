"""Side sets as Python ints against the numpy side tables.

``support.reference_*`` are numpy copies of the cut table, the side
membership matrix and the reverse-phase SNDP loop; the reference solvers
search with support's copies of the branch-and-bound searches as they stood
before affordable-edge pruning.  Every function built on them whose
signature is fixed is held to them here, on seeded multigraphs at
n = 1..16: empty graphs, self-loops, parallel edges, tuple and WeightedEdge
edges, and caps from -1 to past the edge count.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import support
from streamaug.cactus import cactus_build
from streamaug.errors import Infeasible
from streamaug.graph_core import WeightedEdge, is_connected, side_bits
from streamaug.oracles import (
    AugmentationInstance,
    _requirement_pairs,
    exact_kcap,
    exact_sndp,
    validate_certificate,
)
from streamaug.sndp_coreset import Requirements, solve_sndp


def _graphs(rng, n):
    """Empty, looped, parallel and connected multigraphs; half of them weighted."""
    yield []
    for extra in (rng.randint(1, n), rng.randint(n, 3 * n)):
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(extra)]
        if n >= 2:
            edges += support.random_connected_graph(rng, n, rng.randint(0, n))
        edges += rng.sample(edges, rng.randint(0, len(edges)))
        rng.shuffle(edges)
        if rng.random() < 0.5:
            edges = [WeightedEdge(u, v, rng.randint(0, 9), i) for i, (u, v) in enumerate(edges)]
        yield edges


def _caps(rng, m):
    return sorted({-1, 0, 1, rng.randint(0, m + 1), m + 1})


def _seen(edges, n):
    pairs = [tuple(sorted(support._ends(e))) for e in edges]
    return {
        "empty": not edges,
        "loops": any(u == v for u, v in pairs),
        "parallel": len(set(pairs)) < len(pairs),
        "weighted": any(isinstance(e, WeightedEdge) for e in edges),
        "tuples": any(isinstance(e, tuple) for e in edges),
        "split": n >= 2 and not is_connected(edges, n),
    }


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (Infeasible, RuntimeError) as exc:
        return type(exc).__name__, None


@pytest.mark.parametrize("n", range(1, 17))
def test_side_bits_match_the_packed_membership_rows(n):
    assert side_bits(n) == support.reference_side_bits(n)


def test_cut_readers_match_the_numpy_table():
    rng = random.Random(1201)
    seen: dict[str, int] = {}
    for n in range(1, 17):
        for edges in _graphs(rng, n):
            for key, hit in _seen(edges, n).items():
                seen[key] = seen.get(key, 0) + hit
            m = len(edges)
            cert = rng.sample(edges, rng.randint(0, m))
            stranger = cert + [(0, n - 1)]
            for c in _caps(rng, m):
                got = [(s.members, s.boundary_size) for s in support.cuts_of_size_at_most(edges, n, c)]
                assert got == support.reference_cuts_of_size_at_most(edges, n, c), (n, c, edges)
                for sub in (cert, stranger):
                    want = support.reference_validate_certificate(edges, sub, n, c)
                    assert validate_certificate(edges, sub, n, c) == want, (n, c, edges, sub)
    assert all(seen.values()), seen


def _reference_kcap(instance):
    full = support.reference_deficient_sides(instance.base, instance.n, instance.k)
    if instance.n < 2 or not full:
        return [], 0
    bits = support.reference_side_bits(instance.n)
    masks = [(bits[e.u] ^ bits[e.v]) & full for e in instance.links]
    hit = support.reference_cover_branch_and_bound(masks, [e.w for e in instance.links], full)
    if hit is None:
        raise Infeasible("uncovered")
    return [instance.links[i] for i in hit[1]], hit[0]


def _cactus_digest(cactus) -> str:
    return hashlib.sha256(repr((cactus.size, cactus.edges, cactus.phi)).encode()).hexdigest()


def test_exact_kcap_and_cactus_build_match_the_numpy_table():
    rng = random.Random(1202)
    digest = hashlib.sha256()
    for n in range(2, 17):
        for base in _graphs(rng, n):
            if not is_connected(base, n):
                continue
            family, lam = support.reference_min_cut_family(base, n)
            cactus = cactus_build(base, n)
            pulled = set()
            for side in support.reference_min_cut_family(cactus.edges, cactus.size)[0]:
                pre = frozenset(v for v in range(n) if cactus.phi[v] in side)
                if pre and len(pre) < n:
                    pulled.add(frozenset(range(n)) - pre if 0 in pre else pre)
            assert pulled == family, (n, base)
            digest.update(_cactus_digest(cactus).encode())
            for k in sorted({1, rng.randint(1, lam + 1), lam + 1}):
                links = [
                    WeightedEdge(rng.randrange(n), rng.randrange(n), rng.randint(0, 9), i)
                    for i in range(rng.randint(0, 10))
                ]
                instance = AugmentationInstance(n=n, k=k, base=base, links=links)
                assert _outcome(exact_kcap, instance) == _outcome(_reference_kcap, instance)
    # the exact cactus, node numbering included, as built from the numpy table
    assert digest.hexdigest() == CACTUS_DIGEST


CACTUS_DIGEST = "30299859533a701446ed996c1a8a3413de087b2bcb5329c7081036921a746b3e"


def _reference_sndp(n, edges, requirements):
    pairs = _requirement_pairs(requirements)
    need = support.reference_demand_levels(n, pairs)
    if not need:
        return [], 0
    if len(need) > len(edges):
        raise Infeasible("demand exceeds the edges")
    bits = support.reference_side_bits(n)
    cross = [bits[e.u] ^ bits[e.v] for e in edges]
    hit = support.reference_multicover_branch_and_bound(cross, [e.w for e in edges], need)
    if hit is None:
        raise Infeasible("unmet")
    return [edges[i] for i in hit[1]], hit[0]


def _requirements(rng, n, top):
    pairs = {}
    for _ in range(rng.randint(0, 4)):
        s, t = rng.sample(range(n), 2)
        pairs[(min(s, t), max(s, t))] = rng.randint(0, top)
    return Requirements(pairs, n)


def test_design_solvers_match_the_numpy_demand_levels():
    rng = random.Random(1203)
    solved = {"ok": 0, "Infeasible": 0}
    for n in range(2, 13):
        for _ in range(6):
            k = rng.randint(1, 3)
            arrival = iter(range(100))
            layers = [
                [
                    WeightedEdge(rng.randrange(n), rng.randrange(n), rng.randint(0, 9), next(arrival))
                    for _ in range(rng.randint(0, 2 * n))
                ]
                for _ in range(k)
            ]
            reqs = _requirements(rng, n, k)
            got = _outcome(solve_sndp, layers, reqs)
            if got[0] == "ok":
                got = ("ok", (got[1].edges, got[1].weight, got[1].phases))
            elif got[0] == "Infeasible":
                got = ("ok", None)
            want = _outcome(
                support.reference_solve_sndp, layers, reqs, support.reference_cover_branch_and_bound
            )
            assert got == want, (n, layers, reqs.items())
            edges = [e for layer in layers for e in layer][: rng.randint(0, 12)]
            got = _outcome(exact_sndp, n, edges, reqs)
            assert got == _outcome(_reference_sndp, n, edges, reqs), (n, edges, reqs.items())
            solved[got[0]] += 1
    assert all(solved.values()), solved
