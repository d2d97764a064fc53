"""Desk-scale exact solvers.

These are the reference finalizers: branch-and-bound covers for cut
augmentation, an interval DP for rooted cycle instances, and a certificate
checker.  All of them enumerate cuts exhaustively and therefore carry hard
size guards; callers that outgrow the guards get SizeGuardError, never a
silently approximate answer.

Ties are broken deterministically.  The cover solvers minimize
(total weight, lexicographic tuple of chosen link indices).  The cycle DP
minimizes (total weight, arc count, sorted index tuple); cardinality sits
between weight and the index tuple because plain lexicographic order does
not survive concatenation of independent subproblems.

Every set of cut sides is one int, as in ``graph_core``: bit ``mask`` of a
link's set is whether the link crosses side ``mask``.  The design
multicover keeps its counts bit-sliced: ``cov[j]`` holds the sides that at
least j chosen edges cross.  Every demand is met when each side needing at
least j crossings lies in ``cov[j]``.

Both branch-and-bound searches run depth-first over the indices in order,
include-first, and prune to the affordable edges: the undecided edges
(index i and up) that weigh at most ``best - weight``, ``best`` being the
incumbent's weight and ``weight`` the chosen edges'.  A branch goes on only
while the chosen edges plus the affordable ones can still meet every
demand; for the multicover, only while each side needing j crossings lies
in the OR over a of ``cov[a] & rest[j - a]``, ``rest`` being the affordable
edges' levels.  Edge i is included only when it is itself affordable.

The pruning is admissible.  Weights are non-negative, so a completion that
ties or beats the incumbent adds at most ``best - weight`` in total, and
each edge it adds weighs at most that; if the affordable edges cannot meet
every demand, no such completion exists.  It is also strict: an edge
weighing exactly ``best - weight`` stays affordable, so every subset that
ties the incumbent is still reached.  Include-first order reaches covering
subsets in increasing lexicographic order, because a covering prefix ends
its branch.  So a later tie never replaces the incumbent, and the search
returns the lex-least optimum, as a search pruning on the running weight
alone does, while visiting a subset of its nodes.  Before any incumbent
exists the budget is infinite and every undecided edge is affordable; a
branch already heavier than the incumbent has a negative budget and no
affordable edge, so it is cut.  A node finds the affordable edges' state by
one bisection into a table built once per call (``_affordable``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from math import inf

from .errors import Infeasible, SizeGuardError
from .graph_core import (
    Arc,
    WeightedEdge,
    check_endpoints,
    cut_size_table,
    edge_connectivity_at_least,
    edge_ends,
    side_bits,
    sides_at_most,
)

KCAP_MAX_LINKS = 22
SNDP_MAX_EDGES = 20
SNDP_MAX_N = 12


@dataclass(frozen=True)
class AugmentationInstance:
    """A base multigraph to be made k-edge-connected using candidate links."""

    n: int
    k: int
    base: tuple
    links: tuple[WeightedEdge, ...]

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(self, "links", tuple(self.links))
        if self.k < 1:
            raise ValueError(f"connectivity target must be >= 1, got {self.k}")
        check_endpoints(self.base, self.n)
        check_endpoints(self.links, self.n)
        for e in self.links:
            if e.w < 0:
                raise ValueError(f"negative link weight: {e}")
        if not edge_connectivity_at_least(self.base, self.n, self.k - 1):
            raise ValueError(
                f"base graph is not {self.k - 1}-edge-connected; augmentation "
                "by one only applies on top of that"
            )


def _affordable(weights: list[int], fold, empty) -> list[tuple[list[int], list]]:
    """Per index i, the weights of edges i..m-1 in ascending order and their prefix states.

    ``tables[i] = (ws, states)``, where ``states[k]`` folds ``empty`` over
    the k lightest of edges i..m-1 with ``fold(state, index)``, so
    ``states[bisect_right(ws, budget)]`` is the state of the undecided edges
    that weigh at most ``budget``.  ``fold`` must not depend on the order of
    the edges folded.  Built right to left: edge i enters the table of i + 1
    at its rank, the states below the rank are shared, and the ones above
    are folded once more.
    """
    tables = [([], [empty])]
    for i in range(len(weights) - 1, -1, -1):
        ws, states = tables[-1]
        r = bisect_right(ws, weights[i])
        tables.append(
            (ws[:r] + [weights[i]] + ws[r:], states[: r + 1] + [fold(st, i) for st in states[r:]])
        )
    tables.reverse()
    return tables


def _cover_branch_and_bound(masks: list[int], weights: list[int], full: int):
    """Min-weight cover of the bits in ``full``; ties to the lex-least index set.

    A branch stops as soon as it covers everything: any strict superset of a
    covering prefix weighs at least as much and its index tuple is
    lexicographically larger, so nothing better lies below.  Otherwise it
    goes on only while the affordable edges (module docstring) can cover what
    is left; their state is the OR of their masks.
    """
    tables = _affordable(weights, lambda covered, i: covered | masks[i], 0)
    best: list = [None]

    def walk(i: int, covered: int, weight: int, chosen: list[int]) -> None:
        if covered == full:
            cand = (weight, tuple(chosen))
            if best[0] is None or cand < best[0]:
                best[0] = cand
            return
        ws, states = tables[i]
        budget = inf if best[0] is None else best[0][0] - weight
        rest = states[bisect_right(ws, budget)]
        if covered | rest != full:
            return
        if weights[i] <= budget:
            chosen.append(i)
            walk(i + 1, covered | masks[i], weight + weights[i], chosen)
            chosen.pop()
        walk(i + 1, covered, weight, chosen)

    walk(0, 0, 0, [])
    return best[0]


def exact_kcap(instance: AugmentationInstance) -> tuple[list[WeightedEdge], int]:
    """Cheapest link subset whose addition makes the base k-edge-connected.

    The base is (k-1)-edge-connected, so every deficient cut has exactly k-1
    base edges crossing it and needs at least one link; the problem is a pure
    set cover over the deficient sides.  Returns (chosen links, total weight)
    or raises Infeasible.
    """
    if len(instance.links) > KCAP_MAX_LINKS:
        raise SizeGuardError(
            f"exact cover handles at most {KCAP_MAX_LINKS} links, got {len(instance.links)}"
        )
    n = instance.n
    if n < 2:
        return [], 0
    # bit 0 is the empty side, which no link crosses
    full = sides_at_most(cut_size_table(instance.base, n, instance.k), instance.k - 1) & ~1
    if not full:
        return [], 0
    bits = side_bits(n)
    masks = [(bits[e.u] ^ bits[e.v]) & full for e in instance.links]
    hit = _cover_branch_and_bound(masks, [e.w for e in instance.links], full)
    if hit is None:
        raise Infeasible(f"{full.bit_count()} deficient cuts cannot all be covered")
    weight, chosen = hit
    return [instance.links[i] for i in chosen], weight


_EMPTY_COVER = (0, 0, ())


def exact_directed_cycle_cover(n: int, arcs: list[Arc]) -> tuple[list[Arc], int]:
    """Min-weight arc set covering every interval cut of the rooted n-cycle.

    Cycle vertices are 0..n-1 with 0 as root; the 2-cuts are exactly the
    intervals [l, r] with 1 <= l <= r <= n-1, and arc x -> y covers [l, r]
    when y lies inside and x outside.  Solved by interval DP: the cheapest
    cover of [l, r] picks a head q inside, one arc into q from outside
    [l, r], and covers [l, q-1] and [q+1, r] independently.
    """
    if n < 2:
        raise ValueError(f"rooted cycle needs n >= 2, got {n}")
    by_head: dict[int, list[tuple[int, int, int]]] = {}
    for i, a in enumerate(arcs):
        if a.x == a.y:
            raise ValueError(f"arc with equal endpoints: {a}")
        if not (0 <= a.x < n and 0 <= a.y < n):
            raise ValueError(f"arc endpoint out of range: {a}")
        by_head.setdefault(a.y, []).append((a.w, i, a.x))
    for lst in by_head.values():
        lst.sort()

    memo: dict[tuple[int, int], tuple] = {}

    def sub(l: int, r: int):
        return _EMPTY_COVER if l > r else memo[(l, r)]

    # Infeasible at the first interval left without a cover.  An interval
    # that no arc enters has no cover, so no arc set covers every interval.
    # If every interval has an entering arc, induction on length sets every
    # entry: for an arc into q from outside [l, r], the shorter [l, q-1] and
    # [q+1, r] are set, so [l, r] is too.  Raising at the first unset entry
    # is therefore raising exactly when the whole cycle has no cover.
    m = n - 1
    for length in range(1, m + 1):
        for l in range(1, m - length + 2):
            r = l + length - 1
            best = None
            for q in range(l, r + 1):
                left = sub(l, q - 1)
                right = sub(q + 1, r)
                for w, i, x in by_head.get(q, ()):
                    if x < l or x > r:
                        cand = (
                            w + left[0] + right[0],
                            1 + left[1] + right[1],
                            tuple(sorted(left[2] + right[2] + (i,))),
                        )
                        if best is None or cand < best:
                            best = cand
                        break
            if best is None:
                raise Infeasible("some interval cut of the cycle has no covering arc")
            memo[(l, r)] = best
    top = memo[(1, m)]
    return [arcs[i] for i in top[2]], top[0]


def _multicover_branch_and_bound(cross: list[int], weights: list[int], need: list[int]):
    """Min-weight multicover over side bitsets; ties to the lex-least index set.

    ``cross[i]`` holds the sides edge i crosses and ``need[j-1]`` the sides
    to be crossed at least j times.  The affordable edges' state (module
    docstring) is their bit-sliced levels, laid out as ``cov``; level 0 of
    both stands for every side with a demand.
    """
    top = len(need)
    levels = range(1, top + 1)

    def grow(counts: list[int], c: int) -> list[int]:
        return [counts[0]] + [counts[j] | (counts[j - 1] & c) for j in levels]

    empty = [need[0]] + [0] * top
    tables = _affordable(weights, lambda counts, i: grow(counts, cross[i]), empty)
    # a side reaches j crossings when a chosen and j - a affordable edges can
    reach_terms = [(need[j - 1], [(a, j - a) for a in range(j + 1)]) for j in levels]
    met = list(zip(need, levels))
    best: list = [None]

    def walk(i: int, weight: int, chosen: list[int], cov: list[int]) -> None:
        for want, j in met:
            if want & ~cov[j]:
                break
        else:
            cand = (weight, tuple(chosen))
            if best[0] is None or cand < best[0]:
                best[0] = cand
            return
        ws, states = tables[i]
        budget = inf if best[0] is None else best[0][0] - weight
        rest = states[bisect_right(ws, budget)]
        for want, terms in reach_terms:
            reach = 0
            for a, b in terms:
                reach |= cov[a] & rest[b]
            if want & ~reach:
                return
        if weights[i] <= budget:
            chosen.append(i)
            walk(i + 1, weight + weights[i], chosen, grow(cov, cross[i]))
            chosen.pop()
        walk(i + 1, weight, chosen, cov)

    walk(0, 0, [], empty)
    return best[0]


def _requirement_pairs(requirements) -> list[tuple[int, int, int]]:
    if hasattr(requirements, "items"):
        items = requirements.items()
    else:
        items = requirements
    out = []
    for key, r in items:
        s, t = key
        out.append((min(s, t), max(s, t), r))
    return sorted(out)


def _demand_levels(bits: list[int], pairs, top: int) -> list[int]:
    """``need[j - 1]``: the sides separating a pair (s, t, r <= top) with r >= j."""
    need = [0] * top
    for s, t, r in pairs:
        for j in range(r):
            need[j] |= bits[s] ^ bits[t]
    return need


def exact_sndp(
    n: int, edges: list[WeightedEdge], requirements
) -> tuple[list[WeightedEdge], int]:
    """Cheapest edge subset giving each terminal pair its demanded connectivity.

    The sides demanding at least j crossings are the OR of the separating
    side sets of all pairs requiring at least j; branch-and-bound then runs
    over edge subsets with bit-sliced crossing counts.  Returns (chosen
    edges, weight) or raises Infeasible; an edge or pair with an end outside
    0..n-1, or an edge of negative weight, is a ValueError.
    """
    edges = list(edges)
    if n > SNDP_MAX_N:
        raise SizeGuardError(f"exact design handles at most n = {SNDP_MAX_N}, got {n}")
    if len(edges) > SNDP_MAX_EDGES:
        raise SizeGuardError(
            f"exact design handles at most {SNDP_MAX_EDGES} edges, got {len(edges)}"
        )
    pairs = _requirement_pairs(requirements)
    for s, t, r in pairs:
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"requirement endpoint out of range: ({s}, {t})")
        if s == t:
            raise ValueError(f"requirement on a single vertex: ({s}, {t})")
        if r < 0:
            raise ValueError(f"negative requirement: {r}")
    check_endpoints(edges, n)
    for e in edges:
        if e.w < 0:
            raise ValueError(f"negative edge weight: {e}")
    top = max((r for _, _, r in pairs), default=0)
    if top == 0:
        return [], 0
    if top > len(edges):
        raise Infeasible(f"a demand of {top} exceeds the {len(edges)} edges")
    bits = side_bits(n)
    need = _demand_levels(bits, pairs, top)
    cross = [bits[e.u] ^ bits[e.v] for e in edges]
    hit = _multicover_branch_and_bound(cross, [e.w for e in edges], need)
    if hit is None:
        raise Infeasible("some separating cut cannot reach its demanded crossing count")
    weight, chosen = hit
    return [edges[i] for i in chosen], weight


def validate_certificate(full_edges, cert_edges, n: int, k: int) -> bool:
    """Whether cert preserves every cut of the full graph of size at most k.

    cert must be a sub-multiset of full; every side crossed by at most k full
    edges must be crossed by exactly the same edges, hence the same count.
    """
    full_edges, cert_edges = list(full_edges), list(cert_edges)
    full_levels = cut_size_table(full_edges, n, k + 1)
    cert_levels = cut_size_table(cert_edges, n, k + 1)
    full_pairs = Counter(tuple(sorted(edge_ends(e))) for e in full_edges)
    cert_pairs = Counter(tuple(sorted(edge_ends(e))) for e in cert_edges)
    if cert_pairs - full_pairs:
        return False
    low = sides_at_most(full_levels, k)
    return not any((f ^ c) & low for f, c in zip_longest(full_levels, cert_levels, fillvalue=0))
