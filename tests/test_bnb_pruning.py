"""Pruning and dominance in both branch-and-bound searches.

Each search is held to two copies in ``support``: the search that pruned on
the running weight alone (``reference_cover_branch_and_bound``,
``reference_multicover_branch_and_bound``) and the search that pruned to
the affordable edges but branched on zero-weight edges and kept dominated
links (``affordable_cover_branch_and_bound``,
``affordable_multicover_branch_and_bound``).  On every instance the search
under test must return the same ``(weight, chosen)``, or the same ``None``,
as both, and visit no more ``walk`` nodes than either.  The random tiers
lean on zero weights, heavy ties and infeasible instances, with demand
levels up to 3 and up to 20 edges.  The shaped tiers follow the benchmark's
exact-oracle calls: ``stap`` design multicovers over a zero-weight tree,
``kcap`` covers of a ring's deficient cuts by 22 links, and covers whose
masks nest or repeat, with tied and zero weights.

A longer seeded sweep of every tier runs from the command line:

    PYTHONPATH=src python3 tests/test_bnb_pruning.py 20000
"""

from __future__ import annotations

import collections
import random
import sys

import pytest

import support
from streamaug import Requirements, WeightedEdge, exact_sndp, solve_sndp
from streamaug.graph_core import cut_size_table, side_bits, sides_at_most
from streamaug.oracles import (
    _cover_branch_and_bound,
    _demand_levels,
    _multicover_branch_and_bound,
    _requirement_pairs,
)


def _weights(rng, m):
    # all-zero weights leave both searches with no weight to prune on, so
    # they stay at m <= 12 to keep the sweep fast
    kinds = ["zeros", "ties", "mixed", "wide"] + ["zero"] * (m <= 12)
    kind = rng.choice(kinds)
    if kind == "zero":
        return [0] * m
    if kind == "zeros":
        return [0 if rng.random() < 0.6 else rng.randint(1, 3) for _ in range(m)]
    if kind == "ties":
        return [rng.choice([0, 1, 2]) for _ in range(m)]
    if kind == "mixed":
        return [rng.choice([0, rng.randint(1, 5), rng.randint(1, 10**12)]) for _ in range(m)]
    return [rng.randint(1, 10**12) for _ in range(m)]


def _subset(rng, universe: int, density: float) -> int:
    """Each set bit of ``universe`` kept with probability ``density``."""
    bits = [b for b in range(universe.bit_length()) if universe >> b & 1]
    return sum(1 << b for b in bits if rng.random() < density)


def random_cover(rng):
    """(masks, weights, full): up to 20 masks over up to 16 bits, all inside ``full``."""
    full = (1 << rng.randint(1, 16)) - 1
    m = rng.randint(0, rng.choice([8, 14, 20]))
    density = rng.uniform(0.15, 0.6)
    return [_subset(rng, full, density) for _ in range(m)], _weights(rng, m), full


def random_multicover(rng):
    """(cross, weights, need): up to 20 edges, nested demand levels up to 3."""
    sides = (1 << rng.randint(1, 16)) - 1
    m = rng.randint(0, rng.choice([8, 14, 20]))
    density = rng.uniform(0.2, 0.7)
    need = [_subset(rng, sides, rng.uniform(0.2, 1.0))]
    for _ in range(rng.randint(1, 3) - 1):
        need.append(_subset(rng, need[-1], rng.uniform(0.3, 1.0)))
    return [_subset(rng, sides, density) for _ in range(m)], _weights(rng, m), need


def _design_instance(n, edges, pairs):
    """(cross, weights, need) as exact_sndp builds them from (u, v, w) edges and (s, t, r) pairs."""
    bits = side_bits(n)
    pairs = _requirement_pairs({(s, t): r for s, t, r in pairs})
    need = _demand_levels(bits, pairs, max(r for _, _, r in pairs))
    return [bits[u] ^ bits[v] for u, v, _ in edges], [w for _, _, w in edges], need


def _ring(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return [(order[i], order[(i + 1) % n]) for i in range(n)]


def design_shaped(rng, stap: bool):
    """A design instance shaped like the benchmark's design calls.

    ``sndp`` and ``oracle``: n = 12, a Hamiltonian cycle plus one or two
    random edges, weights 1..1000, demands of 1 or 2 on four vertex pairs.
    ``stap``: n = 8, a random spanning tree at weight 0 listed first, then a
    Hamiltonian cycle and one more link at weights 1..1000, demand 2
    between every two of three or four terminals.
    """
    if stap:
        n = 8
        order = list(range(n))
        rng.shuffle(order)
        tree = [(order[i], order[rng.randrange(i)], 0) for i in range(1, n)]
        links = _ring(rng, n) + [tuple(rng.sample(range(n), 2))]
        terminals = rng.sample(range(n), rng.randint(3, 4))
        pairs = [(s, t, 2) for i, s in enumerate(terminals) for t in terminals[i + 1 :]]
        return _design_instance(n, tree + [(u, v, rng.randint(1, 1000)) for u, v in links], pairs)
    n = 12
    ends = _ring(rng, n) + [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 2))]
    rng.shuffle(ends)
    every_pair = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pairs = [(s, t, rng.randint(1, 2)) for s, t in rng.sample(every_pair, 4)]
    return _design_instance(n, [(u, v, rng.randint(1, 1000)) for u, v in ends], pairs)


def kcap_shaped(rng):
    """A ``kcap`` cover: 22 links at weights 1..1000 over a ring with three chords, k = 3.

    n is 8 to 10, and one vertex stays off the chords.  The sides to cover
    are those the base crosses at most twice, and a link's mask is the part
    of them it crosses, as in ``exact_kcap``; n of the links form a second
    ring, so every instance is feasible.
    """
    n = rng.randint(8, 10)
    others = rng.sample(range(n), n - 1)
    base = _ring(rng, n) + [tuple(rng.sample(others, 2)) for _ in range(3)]
    full = sides_at_most(cut_size_table(base, n, 3), 2) & ~1
    ends = _ring(rng, n) + [tuple(rng.sample(range(n), 2)) for _ in range(22 - n)]
    rng.shuffle(ends)
    bits = side_bits(n)
    return [(bits[u] ^ bits[v]) & full for u, v in ends], [rng.randint(1, 1000) for _ in ends], full


def nested_cover(rng):
    """A cover whose masks nest or repeat, at tied and zero weights.

    Each mask is a subset of an earlier one, a copy of one, or fresh, so
    many links are dominated, zero-weight ones included.
    """
    full = (1 << rng.randint(1, 12)) - 1
    masks: list[int] = []
    for _ in range(rng.randint(0, 18)):
        pick = rng.random()
        if masks and pick < 0.4:
            masks.append(_subset(rng, rng.choice(masks), 0.6))
        elif masks and pick < 0.6:
            masks.append(rng.choice(masks))
        else:
            masks.append(_subset(rng, full, rng.uniform(0.2, 0.7)))
    rng.shuffle(masks)
    return masks, [rng.choice([0, 0, 1, 1, 2, 3]) for _ in masks], full


def _walks(search, *args):
    """The search's result and the number of ``walk`` frames it entered."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_name == "walk":
            count += 1

    sys.setprofile(hook)
    try:
        result = search(*args)
    finally:
        sys.setprofile(None)
    return result, count


def _kind(instance, result) -> str:
    if result is None:
        return "infeasible"
    weights = instance[1]
    if weights and not any(weights):
        return "all zero"
    if len(set(weights)) < len(weights):
        return "ties"
    return "distinct"


# name: (instance generator, search under test, weight-only search, affordable-edge search)
SEARCHES = {
    "cover": (
        random_cover,
        _cover_branch_and_bound,
        support.reference_cover_branch_and_bound,
        support.affordable_cover_branch_and_bound,
    ),
    "multicover": (
        random_multicover,
        _multicover_branch_and_bound,
        support.reference_multicover_branch_and_bound,
        support.affordable_multicover_branch_and_bound,
    ),
}
# tier: (instance generator, search)
TIERS = {
    "stap": (lambda rng: design_shaped(rng, stap=True), "multicover"),
    "kcap": (kcap_shaped, "cover"),
    "nested": (nested_cover, "cover"),
}


def _agree(name, instance):
    """The search's result on ``instance``, asserted equal to both references'."""
    _, search, *references = SEARCHES[name]
    got = search(*instance)
    for reference in references:
        assert reference(*instance) == got, (name, instance)
    return got


def _nodes(name, instance) -> tuple[int, int, int]:
    """``walk`` nodes of the search and of both references.

    Asserts one result for all three and no more nodes than either reference.
    """
    _, *searches = SEARCHES[name]
    (got, nodes), *refs = [_walks(search, *instance) for search in searches]
    for want, ref_nodes in refs:
        assert got == want, (name, instance)
        assert nodes <= ref_nodes, (nodes, ref_nodes, name, instance)
    return nodes, refs[0][1], refs[1][1]


def sweep(count: int, seed: int, shaped: int = 0) -> collections.Counter:
    """``count`` random instances per search and ``shaped`` per tier, against both references."""
    rng = random.Random(seed)
    kinds: collections.Counter = collections.Counter()
    for _ in range(count):
        for name, (make, *_) in SEARCHES.items():
            instance = make(rng)
            kinds[name, _kind(instance, _agree(name, instance))] += 1
    for tier, (make, name) in TIERS.items():
        for _ in range(shaped):
            instance = make(rng)
            kinds[tier, _kind(instance, _agree(name, instance))] += 1
    return kinds


def test_both_searches_match_the_references_on_random_instances():
    kinds = sweep(1500, 2201)
    # every search meets zero weights, ties, distinct weights and infeasibility
    kinds_seen = [kinds[name, kind] for name in SEARCHES
                  for kind in ("infeasible", "all zero", "ties", "distinct")]
    assert min(kinds_seen) >= 50, kinds


@pytest.mark.parametrize("name", SEARCHES)
def test_pruned_search_never_visits_more_nodes(name):
    make = SEARCHES[name][0]
    rng = random.Random(2202)
    for _ in range(300):
        _nodes(name, make(rng))


def test_design_shaped_instances_visit_at_most_a_third_of_the_nodes():
    # half stap-shaped and half sndp-shaped, as in the benchmark's design calls
    rng = random.Random(2203)
    total = ref_total = 0
    for trial in range(60):
        instance = design_shaped(rng, stap=trial % 2 == 1)
        want, ref_nodes = _walks(support.reference_multicover_branch_and_bound, *instance)
        got, nodes = _walks(_multicover_branch_and_bound, *instance)
        assert got == want is not None, instance
        assert nodes <= ref_nodes, (nodes, ref_nodes, instance)
        total += nodes
        ref_total += ref_nodes
    assert 3 * total <= ref_total, (total, ref_total)


def test_design_solvers_refuse_negative_weights():
    # a negative weight would make a heavier edge affordable, so the pruning
    # is only exact over non-negative weights
    edges = [WeightedEdge(0, 1, 2, 0), WeightedEdge(1, 2, -1, 1)]
    with pytest.raises(ValueError, match="negative edge weight"):
        exact_sndp(3, edges, {(0, 2): 1})
    with pytest.raises(ValueError, match="negative edge weight"):
        solve_sndp([edges], Requirements({(0, 2): 1}, 3))


@pytest.mark.parametrize(("tier", "share"), [("stap", 4), ("kcap", 3)])
def test_shaped_tiers_visit_a_fraction_of_the_affordable_edge_nodes(tier, share):
    # the affordable-edge search branched on each zero-weight tree edge of a
    # stap call and kept every dominated link of a kcap call
    make, name = TIERS[tier]
    rng = random.Random(2401)
    total = affordable_total = 0
    for _ in range(40):
        instance = make(rng)
        nodes, _, affordable_nodes = _nodes(name, instance)
        total += nodes
        affordable_total += affordable_nodes
    assert share * total <= affordable_total, (total, affordable_total)


def test_nested_masks_keep_the_lex_least_cover():
    # dominated links of positive weight go; zero-weight ones stay, and the
    # tie-break over the kept ones is unchanged
    rng = random.Random(2402)
    kinds = collections.Counter()
    for _ in range(400):
        instance = nested_cover(rng)
        _nodes("cover", instance)
        kinds[_kind(instance, _cover_branch_and_bound(*instance))] += 1
    assert min(kinds[k] for k in ("infeasible", "ties")) >= 20, kinds
    # a zero-weight link inside the mask of a lighter-or-equal earlier one
    # must stay: without link 1 the optimum (0, (0, 2)) ties and is lex-larger
    assert _cover_branch_and_bound([0b011, 0b010, 0b100], [0, 0, 0], 0b111) == (0, (0, 1, 2))
    assert _cover_branch_and_bound([0b011, 0b010, 0b100], [1, 1, 1], 0b111) == (2, (0, 2))


if __name__ == "__main__":
    count = int(sys.argv[1])
    found = sweep(count, 1, count // 20)
    print(f"{sum(found.values())} instances agree:", dict(sorted(found.items())))
