"""Shared generators and independent brute-force oracles for the test suite.

Everything here is deliberately written from scratch, without reusing the
solver internals under test, so the two routes can disagree when one of
them is wrong.  The numpy side tables at the end are the exception: they are
copies of the library's cut table, side membership matrix and reverse-phase
SNDP loop as they stood before the library kept every side set as one
Python int, and the differential tests hold the int code to them.
"""

from __future__ import annotations

import heapq
import itertools
import random
from bisect import bisect_right
from math import inf

from dataclasses import dataclass

import networkx as nx
import numpy as np

from streamaug.graph_core import _bit_positions, _mask_members, cut_size_table, sides_at_most


# ---------------------------------------------------------------------------
# instance generators


def random_multigraph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """m edges drawn uniformly with repetition; parallel edges allowed."""
    edges = []
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return edges


def random_connected_graph(
    rng: random.Random, n: int, extra: int
) -> list[tuple[int, int]]:
    """Random spanning tree plus extra random non-loop edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for i in range(1, n):
        edges.append((order[i], order[rng.randrange(i)]))
    edges.extend(random_multigraph(rng, n, extra))
    rng.shuffle(edges)
    return edges


def random_two_connected_graph(
    rng: random.Random, n: int, extra: int
) -> list[tuple[int, int]]:
    """A random cycle through all vertices plus extra chords."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    edges.extend(random_multigraph(rng, n, extra))
    rng.shuffle(edges)
    return edges


def random_cactus_edges(
    rng: random.Random, max_nodes: int
) -> tuple[int, list[tuple[int, int]]]:
    """Grow a cactus by attaching doubled edges and rings to random anchors."""
    size = 1
    edges: list[tuple[int, int]] = []
    while size < max_nodes:
        anchor = rng.randrange(size)
        room = max_nodes - size
        if rng.random() < 0.5 or room == 1:
            edges += [(anchor, size), (anchor, size)]
            size += 1
        else:
            q = rng.randint(2, min(room, 4))
            prev = anchor
            for x in range(size, size + q):
                edges.append((prev, x))
                prev = x
            edges.append((prev, anchor))
            size += q
        if size >= 3 and rng.random() < 0.3:
            break
    return size, edges


def greedy_high_girth_pairs(rng: random.Random, n: int, hops: int) -> list[tuple[int, int]]:
    """Vertex pairs in random order, each skipped when the pairs kept so far
    already join it by a path of at most hops edges, so the kept graph has
    girth above hops + 1."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    kept = []
    for u, v in pairs:
        reached = {u}
        frontier = {u}
        for _ in range(hops):
            frontier = {y for x in frontier for y in adj[x]} - reached
            reached |= frontier
        if v not in reached:
            kept.append((u, v))
            adj[u].add(v)
            adj[v].add(u)
    return kept


# ---------------------------------------------------------------------------
# spanner invariants read through the store's public accessors


def class_girth_violated(state, t: int) -> bool:
    """Whether a stored band closes a cycle of at most 2t edges, or a
    self-loop, on the supernodes of its bucket's parity prefix."""
    limit = 2 * t
    for j in state.band_indices():
        k = state.bucket_of_band(j)
        prefix = state.parity_prefix_labels(k % 2, k)
        adj: dict[int, list[tuple[int, int]]] = {}
        for idx, e in enumerate(state.band_edges(j)):
            a, b = prefix[e.u], prefix[e.v]
            if a == b:
                return True
            adj.setdefault(a, []).append((b, idx))
            adj.setdefault(b, []).append((a, idx))
        for start in adj:
            # BFS that tracks the edge used to enter each node; a repeat
            # visit within limit/2 steps on both sides means a short cycle
            seen = {start: (0, -1)}
            queue = [start]
            while queue:
                nxt = []
                for node in queue:
                    d, via = seen[node]
                    if d >= limit:
                        continue
                    for nb, idx in adj[node]:
                        if idx == via:
                            continue
                        if nb in seen:
                            if seen[nb][0] + d + 1 <= limit:
                                return True
                            continue
                        seen[nb] = (d + 1, idx)
                        nxt.append(nb)
                queue = nxt
    return False


# ---------------------------------------------------------------------------
# connectivity oracles via networkx


def nx_multigraph(edges, n: int) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(range(n))
    for e in edges:
        u, v = (e.u, e.v) if hasattr(e, "u") else (e[0], e[1])
        g.add_edge(u, v)
    return g


def nx_edge_connectivity(edges, n: int) -> int:
    g = nx_multigraph(edges, n)
    if n <= 1:
        return 0
    if not nx.is_connected(g):
        return 0
    return _multi_edge_connectivity(g)


def _with_capacity(g: nx.MultiGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    for u, v in g.edges():
        if h.has_edge(u, v):
            h[u][v]["capacity"] += 1
        else:
            h.add_edge(u, v, capacity=1)
    return h


def _multi_edge_connectivity(g: nx.MultiGraph) -> int:
    h = _with_capacity(g)
    nodes = sorted(g.nodes)
    s = nodes[0]
    best = None
    for t in nodes[1:]:
        f = nx.maximum_flow_value(h, s, t)
        if best is None or f < best:
            best = f
    # global min cut separates s from some other vertex
    return int(best) if best is not None else 0


def nx_pair_flow(edges, n: int, s: int, t: int) -> int:
    h = _with_capacity(nx_multigraph(edges, n))
    if s not in h or t not in h:
        return 0
    return int(nx.maximum_flow_value(h, s, t))


# ---------------------------------------------------------------------------
# flow-route copies: k-edge-connectivity by capped flows from vertex 0 to
# every other vertex, and 3-edge-components by one capped flow per vertex
# pair, as the library answered both before one capped flow tree did


def _flow_capacities(edges, n: int) -> dict[int, dict[int, int]]:
    cap: dict[int, dict[int, int]] = {v: {} for v in range(n)}
    for e in edges:
        u, v = _ends(e)
        if u != v:
            cap[u][v] = cap[u].get(v, 0) + 1
            cap[v][u] = cap[v].get(u, 0) + 1
    return cap


def _capped_flow(cap: dict[int, dict[int, int]], s: int, t: int, limit: int) -> int:
    """Max s-t flow by shortest augmenting paths, stopping once limit is hit."""
    residual = {u: dict(nbrs) for u, nbrs in cap.items()}
    flow = 0
    while flow < limit:
        prev = {s: None}
        queue = [s]
        for x in queue:
            for y, c in residual[x].items():
                if c > 0 and y not in prev:
                    prev[y] = x
                    queue.append(y)
        if t not in prev:
            break
        path = []
        y = t
        while prev[y] is not None:
            path.append((prev[y], y))
            y = prev[y]
        push = min([limit - flow] + [residual[x][y] for x, y in path])
        for x, y in path:
            residual[x][y] -= push
            residual[y][x] = residual[y].get(x, 0) + push
        flow += push
    return flow


def reference_edge_connectivity_at_least(edges, n: int, k: int) -> bool:
    """Whether every flow from vertex 0, capped at k, reaches k."""
    if k <= 0 or n <= 1:
        return True
    cap = _flow_capacities(edges, n)
    return all(_capped_flow(cap, 0, t, k) >= k for t in range(1, n))


def component_labels(n: int, pairs) -> list[int]:
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


def refines(fine: list[int], coarse: list[int]) -> bool:
    """Whether each class of the label list ``fine`` lies inside one class of ``coarse``."""
    return all(coarse[f] == coarse[v] for v, f in enumerate(fine))


def reference_three_edge_components(edges, n: int) -> list[int]:
    """Per vertex, the smallest vertex that 3 edge-disjoint paths join it to."""
    cap = _flow_capacities(edges, n)
    label = list(range(n))
    for u in range(n):
        if label[u] != u:
            continue
        for v in range(u + 1, n):
            if label[v] == v and _capped_flow(cap, u, v, 3) >= 3:
                label[v] = u
    return label


# ---------------------------------------------------------------------------
# shortest paths (independent of the spanner's internal distances)


def dijkstra(n: int, edges, src: int) -> list[float]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in edges:
        adj[e.u].append((e.v, e.w))
        adj[e.v].append((e.u, e.w))
    dist = [float("inf")] * n
    dist[src] = 0
    heap = [(0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w, cost in adj[v]:
            nd = d + cost
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def all_dists(n: int, edges) -> list[list[float]]:
    return [dijkstra(n, edges, s) for s in range(n)]


# ---------------------------------------------------------------------------
# exact set cover / multicover by branch and bound (element-driven search,
# structurally unlike the index-driven search in the package)


def exact_cover(masks: list[int], weights: list[int], universe: int):
    """Minimum-weight subset of masks whose union is the universe.

    Returns (weight, chosen index tuple) or None.  Branches on the
    uncovered element with the fewest candidate sets.
    """
    if universe == 0:
        return 0, ()
    covers_elem: dict[int, list[int]] = {}
    bit = 1
    elem = 0
    while bit <= universe:
        if universe & bit:
            cand = [i for i, m in enumerate(masks) if m & bit]
            if not cand:
                return None
            covers_elem[elem] = cand
        bit <<= 1
        elem += 1
    best: list = [None]

    def walk(covered: int, weight: int, chosen: tuple) -> None:
        if best[0] is not None and weight >= best[0][0]:
            return
        if covered & universe == universe:
            best[0] = (weight, chosen)
            return
        pick = None
        for e, cand in covers_elem.items():
            if covered & (1 << e):
                continue
            if pick is None or len(cand) < len(pick):
                pick = cand
        for i in pick:
            if i in chosen:
                continue
            walk(covered | masks[i], weight + weights[i], chosen + (i,))

    walk(0, 0, ())
    return best[0]


# ---------------------------------------------------------------------------
# cycle augmentation oracles


def interval_cuts(n: int) -> list[tuple[int, int]]:
    return [(l, r) for l in range(1, n) for r in range(l, n)]


def chord_splits(u: int, v: int, l: int, r: int) -> bool:
    return (l <= u <= r) != (l <= v <= r)


def undirected_cycle_opt(n: int, chords: list[tuple[int, int, int]]):
    """Minimum-weight chord subset splitting every interval cut of the
    rooted n-cycle; None when infeasible."""
    ivs = interval_cuts(n)
    masks = []
    for u, v, _w in chords:
        m = 0
        for idx, (l, r) in enumerate(ivs):
            if chord_splits(u, v, l, r):
                m |= 1 << idx
        masks.append(m)
    got = exact_cover(masks, [w for _u, _v, w in chords], (1 << len(ivs)) - 1)
    if got is None:
        return None
    return got[0], got[1]


def brute_directed_cover(n: int, arcs: list[tuple[int, int, int]]):
    """Subset enumeration for the directed interval-cover problem with the
    (weight, cardinality, index tuple) tie rule.  |arcs| <= 14 or so."""
    ivs = interval_cuts(n)
    full = (1 << len(ivs)) - 1
    masks = []
    for x, y, _w in arcs:
        m = 0
        for idx, (l, r) in enumerate(ivs):
            if l <= y <= r and not (l <= x <= r):
                m |= 1 << idx
        masks.append(m)
    best = None
    for combo_bits in range(1 << len(arcs)):
        covered = 0
        weight = 0
        bits = combo_bits
        while bits:
            low = (bits & -bits).bit_length() - 1
            covered |= masks[low]
            weight += arcs[low][2]
            bits &= bits - 1
        if covered == full:
            idxs = tuple(i for i in range(len(arcs)) if combo_bits >> i & 1)
            cand = (weight, len(idxs), idxs)
            if best is None or cand < best:
                best = cand
    return best


# ---------------------------------------------------------------------------
# canonical forms for comparing outputs across runs


def link_key(e) -> tuple[int, int, int]:
    return (min(e.u, e.v), max(e.u, e.v), e.w)


def link_multiset(edges) -> list[tuple[int, int, int]]:
    return sorted(link_key(e) for e in edges)


# ---------------------------------------------------------------------------
# numpy side tables: side ``mask`` is the set of vertices i >= 1 with bit
# (i-1) set, so vertex 0 lies in no side and mask 0 is the empty side


def _ends(e) -> tuple[int, int]:
    return (e.u, e.v) if hasattr(e, "u") else (e[0], e[1])


def reference_cut_size_table(edges, n: int) -> np.ndarray:
    """Entry ``mask`` is the number of edges crossing side ``mask``."""
    masks = np.arange(1 << (n - 1), dtype=np.uint32)
    sizes = np.zeros(len(masks), dtype=np.uint32)
    for e in edges:
        u, v = _ends(e)
        if u == v:
            continue
        in_u = (masks >> (u - 1)) & 1 if u > 0 else np.uint32(0)
        in_v = (masks >> (v - 1)) & 1 if v > 0 else np.uint32(0)
        sizes += in_u ^ in_v
    return sizes


def reference_side_membership(n: int) -> np.ndarray:
    """Boolean (n, 2^(n-1)) matrix: entry [v, mask] is whether side ``mask`` holds v."""
    masks = np.arange(1 << (n - 1), dtype=np.uint32)
    member = np.zeros((n, len(masks)), dtype=bool)
    member[1:] = (masks >> np.arange(n - 1, dtype=np.uint32)[:, None]) & 1
    return member


def reference_pack(flags: np.ndarray) -> int:
    """A boolean vector over side masks as an int with bit ``mask`` set where True."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def reference_side_bits(n: int) -> list[int]:
    return [reference_pack(row) for row in reference_side_membership(n)]


def reference_cuts_of_size_at_most(edges, n: int, c: int) -> list[tuple[frozenset, int]]:
    """(members, crossing count) of every proper side with at most c crossings, by mask."""
    sizes = reference_cut_size_table(edges, n)
    out = []
    for mask in np.nonzero(sizes <= c)[0]:
        if mask:
            members = frozenset(v for v in range(1, n) if (int(mask) >> (v - 1)) & 1)
            out.append((members, int(sizes[mask])))
    return out


def reference_validate_certificate(full_edges, cert_edges, n: int, k: int) -> bool:
    counts: dict[tuple[int, int], int] = {}
    for e in full_edges:
        key = tuple(sorted(_ends(e)))
        counts[key] = counts.get(key, 0) + 1
    for e in cert_edges:
        key = tuple(sorted(_ends(e)))
        if counts.get(key, 0) == 0:
            return False
        counts[key] -= 1
    full_sizes = reference_cut_size_table(full_edges, n)[1:]
    cert_sizes = reference_cut_size_table(cert_edges, n)[1:]
    low = full_sizes <= k
    return bool(np.array_equal(full_sizes[low], cert_sizes[low]))


def reference_deficient_sides(base, n: int, k: int) -> int:
    """The proper sides crossed by at most k - 1 base edges, as a side bitset."""
    return reference_pack(reference_cut_size_table(base, n) <= k - 1) & ~1


def reference_min_cut_family(edges, n: int) -> tuple[set[frozenset], int]:
    """The sides of a connected multigraph crossed by the fewest edges, and that count."""
    sizes = reference_cut_size_table(edges, n)[1:]
    lam = int(sizes.min())
    family = {
        frozenset(v for v in range(1, n) if (int(i + 1) >> (v - 1)) & 1)
        for i in np.flatnonzero(sizes == lam)
    }
    return family, lam


def reference_demand_levels(n: int, pairs) -> list[int]:
    """need[j - 1] holds the sides separating a pair (s, t, r) with r >= j."""
    member = reference_side_membership(n)
    need = np.zeros(member.shape[1], dtype=np.int64)
    for s, t, r in pairs:
        np.maximum(need, np.where(member[s] ^ member[t], r, 0), out=need)
    return [reference_pack(need >= j) for j in range(1, int(need.max(initial=0)) + 1)]


def reference_solve_sndp(layers, requirements, cover):
    """The reverse-phase loop over numpy demand and crossing vectors.

    Returns (chosen edges, weight, phases) as ``solve_sndp`` builds them;
    ``cover`` is the set-cover search each phase calls.
    """
    n = requirements.n
    k = len(layers)
    member = reference_side_membership(n)
    bits = reference_side_bits(n)
    need = np.zeros(member.shape[1], dtype=np.int64)
    for (s, t), r in requirements.items():
        np.maximum(need, np.where(member[s] ^ member[t], r, 0), out=need)
    crossings = np.zeros_like(need)
    chosen, phases, pool = [], [], []
    for phase in range(1, k + 1):
        pool.extend(layers[phase - 1])
        deficit = np.maximum(need - (k - phase), 0) - crossings
        if (deficit > 1).any():
            raise RuntimeError("phase deficit exceeded 1; augmentation invariant broken")
        targets = reference_pack(deficit == 1)
        if not targets:
            phases.append(())
            continue
        taken = {e.arrival for e in chosen}
        avail = [e for e in pool if e.arrival not in taken]
        masks = [(bits[e.u] ^ bits[e.v]) & targets for e in avail]
        hit = cover(masks, [e.w for e in avail], targets)
        if hit is None:
            return None
        grabbed = tuple(avail[i] for i in hit[1])
        phases.append(grabbed)
        for e in grabbed:
            chosen.append(e)
            crossings += member[e.u] ^ member[e.v]
    return tuple(chosen), sum(e.w for e in chosen), tuple(phases)


# ---------------------------------------------------------------------------
# cut sides one by one, over the library's cut table


@dataclass(frozen=True)
class CutSide:
    """One side of a cut, with the number of edges crossing it."""

    members: frozenset[int]
    boundary_size: int


def cuts_of_size_at_most(edges, n: int, c: int) -> list[CutSide]:
    """All proper cut sides avoiding vertex 0 with at most c crossing edges.

    Returned in increasing order of the side's bitmask.
    """
    levels = cut_size_table(edges, n, c + 1)
    found = []
    for size in range(min(c, len(levels) - 1) + 1):
        exact = levels[size] & sides_at_most(levels, size) & ~1
        found += [(mask, size) for mask in _bit_positions(exact)]
    return [CutSide(_mask_members(mask), size) for mask, size in sorted(found)]


# ---------------------------------------------------------------------------
# the branch-and-bound searches before affordable-edge pruning


def reference_cover_branch_and_bound(masks: list[int], weights: list[int], full: int):
    """Min-weight cover of the bits in ``full``; ties to the lex-least index set.

    Depth-first, include-first over indices in order.  A branch stops as soon
    as it covers everything: any strict superset of a covering prefix weighs
    at least as much and its index tuple is lexicographically larger, so
    nothing better lies below.
    """
    m = len(masks)
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    best: list = [None]

    def walk(i: int, covered: int, weight: int, chosen: list[int]) -> None:
        if covered == full:
            cand = (weight, tuple(chosen))
            if best[0] is None or cand < best[0]:
                best[0] = cand
            return
        if i == m:
            return
        if covered | suffix[i] != full:
            return
        if best[0] is not None and weight > best[0][0]:
            return
        chosen.append(i)
        walk(i + 1, covered | masks[i], weight + weights[i], chosen)
        chosen.pop()
        walk(i + 1, covered, weight, chosen)

    walk(0, 0, 0, [])
    return best[0]


def reference_multicover_branch_and_bound(cross: list[int], weights: list[int], need: list[int]):
    """Min-weight multicover over side bitsets; ties to the lex-least index set.

    ``cross[i]`` holds the sides edge i crosses and ``need[j-1]`` the sides
    to be crossed at least j times.  ``cov[j]`` holds the sides that at least
    j chosen edges cross and ``suf[i][j]`` the sides that at least j of edges
    i..m-1 cross; level 0 of both stands for every side with a demand.  A
    branch is dead when some side needing j lies outside the OR over a of
    ``cov[a] & suf[i][j-a]``, or when it already outweighs the incumbent.
    """
    m, top = len(cross), len(need)
    levels = range(1, top + 1)
    suf = [[need[0]] + [0] * top]
    for c in reversed(cross):
        below = suf[-1]
        suf.append([need[0]] + [below[j] | (below[j - 1] & c) for j in levels])
    suf.reverse()
    # a side reaches j crossings when a chosen and j - a undecided edges can
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
        if i == m or (best[0] is not None and weight > best[0][0]):
            return
        rest = suf[i]
        for want, terms in reach_terms:
            reach = 0
            for a, b in terms:
                reach |= cov[a] & rest[b]
            if want & ~reach:
                return
        c = cross[i]
        chosen.append(i)
        grown = [cov[0]] + [cov[j] | (cov[j - 1] & c) for j in levels]
        walk(i + 1, weight + weights[i], chosen, grown)
        chosen.pop()
        walk(i + 1, weight, chosen, cov)

    walk(0, 0, [], [need[0]] + [0] * top)
    return best[0]


# ---------------------------------------------------------------------------
# the branch-and-bound searches as they pruned to the affordable edges, before
# zero-weight edges lost their exclude branch and the cover dropped dominated
# links


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


def affordable_cover_branch_and_bound(masks: list[int], weights: list[int], full: int):
    """Min-weight cover of the bits in ``full``; ties to the lex-least index set.

    A branch stops as soon as it covers everything: any strict superset of a
    covering prefix weighs at least as much and its index tuple is
    lexicographically larger, so nothing better lies below.  Otherwise it
    goes on only while the affordable edges (``streamaug.oracles`` docstring)
    can cover what is left; their state is the OR of their masks.
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


def affordable_multicover_branch_and_bound(cross: list[int], weights: list[int], need: list[int]):
    """Min-weight multicover over side bitsets; ties to the lex-least index set.

    ``cross[i]`` holds the sides edge i crosses and ``need[j-1]`` the sides
    to be crossed at least j times.  The affordable edges' state
    (``streamaug.oracles`` docstring) is their bit-sliced levels, laid out as
    ``cov``; level 0 of both stands for every side with a demand.
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
