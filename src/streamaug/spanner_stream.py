"""One-pass weighted spanner with banded storage and cut-aware eviction.

Edges are banded by weight (band j holds integer weights in
[(1+eps)^j, (1+eps)^(j+1))) and bands are grouped into buckets of B
consecutive bands, where B is the smallest integer with
(1+eps)^B >= 2*n^2/eps.  Weight-zero edges live in a separate spanning
forest.  An arriving edge must first beat a hop-count test against its own
band; stored buckets are then re-certified against the contraction of all
lighter same-parity buckets, which keeps the store near-linear while the
even/odd split keeps adjacent buckets from erasing each other's detail.

Between inserts every stored bucket is a fixed point of the greedy
keep/delete pass against its parity-prefix contraction: re-running the
pass deletes nothing.  An accepted edge e therefore re-checks only what it
can change in its own bucket: e itself, the one stored edge on e's
supernode pair, and the later edges of e's band that lie within 2t-2 hops
of e's ends.  The contractions are kept per bucket and only grow, since a
deleted edge is always parallel to kept material.  Each parity's buckets
form a chain of contractions with the zero forest at its foot, and e walks
its chain upward from the level it joins: the next bucket up gets the full
pass while e's ends were newly joined below it, and the walk stops at the
first level that had them joined already, since no level above it changes.

Four indexes keep that re-check local, each updated when an edge is
stored and when one is dropped:

- per band, the ``(key, edge)`` entries of the stored edges in survivor
  order (``_cert_key``), kept by bisection;
- per band, the raw vertex adjacency, for the distance test of insert();
- per band, the supernode adjacency under its bucket's parity-prefix
  contraction, each entry the other supernode with the edge and its key;
- per bucket, the stored edge on each supernode pair.

Supernodes are roots of the bucket's prefix UnionFind, so the last two
indexes stay valid while those roots stay the same.  Path compression
never changes a root; only a union does.  Every union that changes a
bucket's prefix is followed by the full pass over that bucket, which
rebuilds both indexes from what it keeps, and a new bucket's contraction
starts as a copy, with the same roots, of the one below it.  Hop tests
are breadth-first searches over the supernode adjacency that use only
edges sorting before the edge under test, so no insert sorts or scans its
band or bucket.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from fractions import Fraction

from .graph_core import Partition, UnionFind, WeightedEdge
from .weightbands import GeometricBands, ceil_power_index, check_epsilon

# An adjacency maps node -> {other node: (key, edge)}; stored pairs are
# distinct within a band, so each pair holds at most one entry.  The
# distance test refuses an edge whose ends a stored band edge already
# joins, so keys are distinct within a band too, and sorting entries
# never compares their edges.
_Key = tuple[int, int, int, int]
_Entry = tuple[_Key, WeightedEdge]
_Adj = dict[int, dict[int, _Entry]]

# Sorts after every key, so a hop test below it uses every edge.
_ANY_KEY = (math.inf,)


def _cert_key(e: WeightedEdge) -> _Key:
    # Survivor order for re-certification: lighter first, then earlier,
    # then smaller endpoint pair.
    return (e.w, e.arrival, min(e.u, e.v), max(e.u, e.v))


def _link(adj: _Adj, a: int, b: int, entry: _Entry) -> None:
    adj.setdefault(a, {})[b] = entry
    adj.setdefault(b, {})[a] = entry


def _unlink(adj: _Adj, a: int, b: int, e: WeightedEdge) -> None:
    """Remove the a-b entry of adj if it is e's."""
    entry = adj.get(a, {}).get(b)
    if entry is None or entry[1] is not e:
        return
    for x, y in ((a, b), (b, a)):
        del adj[x][y]
        if not adj[x]:
            del adj[x]


def _hop_dists(adj: _Adj, s: int, depth: int, below, goal=None) -> dict[int, int]:
    """Hop distance from s to every node within depth hops.

    Only entries whose key sorts before ``below`` are walked.  The search
    stops as soon as it reaches ``goal``, so ``goal in result`` is the hop
    test.
    """
    dist = {s: 0}
    # Every node but s is reached through an entry, so only s can be absent.
    frontier = [s] if s in adj else []
    for d in range(1, depth + 1):
        nxt = []
        for x in frontier:
            for y, (key, _) in adj[x].items():
                if y not in dist and key < below:
                    dist[y] = d
                    if y == goal:
                        return dist
                    nxt.append(y)
        if not nxt:
            break
        frontier = nxt
    return dist


def layer_epsilon(epsilon, t: int) -> Fraction:
    """eps/(2t-1), the spanner slack that keeps a (2t-1) + eps weight factor; eps lies in (0, 1]."""
    return check_epsilon(epsilon) / (2 * t - 1)


class SpannerState:
    """Streaming store whose kept edges approximate all pairwise distances.

    insert() returns (accepted, evictions): accepted means the edge is in
    the store when the call returns, and evictions lists every edge the
    call removed, including the new edge itself when it was refused or
    displaced.
    """

    def __init__(self, n: int, t: int, epsilon):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if not isinstance(t, int) or t < 1:
            raise ValueError(f"stretch parameter must be an integer >= 1, got {t!r}")
        eps = check_epsilon(epsilon)
        self.n = n
        self.t = t
        self.epsilon = epsilon
        self._hop_limit = 2 * t - 1
        self._bands = GeometricBands(1 + eps)
        self.bucket_width = ceil_power_index(1 + eps, Fraction(2 * n * n) / eps)
        self._zero_uf = UnionFind(n)
        self._zero: list[WeightedEdge] = []
        # The four indexes of the module docstring.
        self._bands_kept: dict[int, list[_Entry]] = {}
        self._raw_adj: dict[int, _Adj] = {}
        self._sup_adj: dict[int, _Adj] = {}
        self._pairs: dict[int, dict[tuple[int, int], WeightedEdge]] = {}
        # _closure[k] joins the zero edges and every edge ever accepted into
        # a bucket of k's parity up to k.  Deleted edges are parallel to kept
        # material, so this is the contraction of the stored edges, and it
        # only ever grows.
        self._closure: dict[int, UnionFind] = {}
        self._stored = 0
        self._peak = 0

    # -- banding helpers -------------------------------------------------

    def band_of_weight(self, w: int) -> int:
        return self._bands.index(w)

    def bucket_of_band(self, j: int) -> int:
        return j // self.bucket_width

    def band_indices(self) -> list[int]:
        return sorted(j for j, kept in self._bands_kept.items() if kept)

    def band_edges(self, j: int) -> list[WeightedEdge]:
        return [e for _, e in self._bands_kept.get(j, ())]

    def zero_edges(self) -> list[WeightedEdge]:
        return list(self._zero)

    def edges(self) -> list[WeightedEdge]:
        out = list(self._zero)
        for kept in self._bands_kept.values():
            out.extend(e for _, e in kept)
        out.sort(key=lambda e: e.arrival)
        return out

    def total_weight(self) -> int:
        return sum(e.w for e in self.edges())

    @property
    def stored_count(self) -> int:
        return self._stored

    @property
    def peak_stored(self) -> int:
        return self._peak

    def _bucket_edges(self, k: int) -> list[tuple[int, _Entry]]:
        """(band, entry) of every stored edge of bucket k, in key order."""
        lo = k * self.bucket_width
        out = []
        for j in range(lo, lo + self.bucket_width):
            out.extend((j, entry) for entry in self._bands_kept.get(j, ()))
        return out

    def _prefix_uf(self, parity: int, k: int) -> UnionFind:
        """Zero edges and same-parity buckets below k; read it, never join."""
        below = [kk for kk in self._closure if kk % 2 == parity and kk < k]
        return self._closure[max(below)] if below else self._zero_uf

    def parity_prefix_partition(self, parity: int, k: int) -> Partition:
        """Contraction the bucket-k re-certification works against."""
        return Partition.from_union_find(self._prefix_uf(parity, k))

    # -- insertion -------------------------------------------------------

    def insert(self, e: WeightedEdge) -> tuple[bool, list[WeightedEdge]]:
        if not (0 <= e.u < self.n and 0 <= e.v < self.n):
            raise ValueError(f"edge endpoint out of range: {e}")
        if e.w < 0:
            raise ValueError(f"negative weight: {e}")
        if e.u == e.v:
            return False, [e]
        if e.w == 0:
            if not self._zero_uf.union(e.u, e.v):
                return False, [e]
            self._zero.append(e)
            self._bump()
            # The zero forest is the foot of both parities' chains.
            zero = self._zero_uf
            return True, self._climb(0, -1, zero, e) + self._climb(1, -1, zero, e)
        j = self._bands.index(e.w)
        raw = self._raw_adj.get(j)
        if raw and e.v in _hop_dists(raw, e.u, self._hop_limit, _ANY_KEY, goal=e.v):
            return False, [e]
        entry = (_cert_key(e), e)
        insort(self._bands_kept.setdefault(j, []), entry)
        _link(self._raw_adj.setdefault(j, {}), e.u, e.v, entry)
        self._bump()
        # The decision reports the distance-test outcome; the edge may still
        # appear in the eviction list when re-certification deletes it.
        return True, self._recert_from(j // self.bucket_width, entry)

    def _bump(self) -> None:
        self._stored += 1
        if self._stored > self._peak:
            self._peak = self._stored

    # -- re-certification ------------------------------------------------

    def _survives(self, adj: _Adj, pairs: dict, a: int, b: int, key: _Key) -> bool:
        """Whether the greedy pass keeps an edge with key on supernodes a, b.

        It is deleted when a and b coincide, when an edge that sorts before
        it is stored on the same supernode pair, or when band edges of adj
        that sort before it give a path of at most 2t-1 supernode hops.
        """
        if a == b:
            return False
        twin = pairs.get((a, b) if a < b else (b, a))
        if twin is not None and _cert_key(twin) < key:
            return False
        return b not in _hop_dists(adj, a, self._hop_limit, key, goal=b)

    def _recert_bucket(self, k: int, prefix: UnionFind) -> list[WeightedEdge]:
        """Greedy keep/delete pass over one bucket, supernodes from prefix.

        Edges are walked in survivor order, so every edge already on a
        pair sorts before the one tested.  Deleted edges are always
        parallel to kept material, so contractions above this bucket never
        change.  The kept edges become the bucket's supernode-pair index
        and its bands' supernode adjacency under prefix.
        """
        pairs: dict[tuple[int, int], WeightedEdge] = {}
        adjs: dict[int, _Adj] = {}
        deleted: list[WeightedEdge] = []
        for j, entry in self._bucket_edges(k):
            adj = adjs.get(j)
            if adj is None:
                adj = adjs[j] = {}
            key, e = entry
            a, b = prefix.find(e.u), prefix.find(e.v)
            if self._survives(adj, pairs, a, b, key):
                pairs[(a, b) if a < b else (b, a)] = e
                _link(adj, a, b, entry)
            else:
                deleted.append(e)
        self._pairs[k] = pairs
        self._sup_adj.update(adjs)
        return self._drop(deleted, k, prefix)

    def _recert_inserted(self, k0: int, entry: _Entry, prefix: UnionFind) -> list[WeightedEdge]:
        """_recert_bucket(k0, prefix) right after e joined bucket k0.

        Bucket k0 was a greedy fixed point before e arrived, so the pass
        keeps every edge that sorts before e and can only change through
        e.  Either e falls to one of the three tests, alone, or e stays
        and displaces the one later bucket edge on its supernode pair, if
        any, and later edges of its own band whose short path runs through
        e.  Such a path runs x..a, e, b..y for a later band edge (x, y),
        so only edges with hops(a, x) + hops(b, y) <= 2t-2 in the band,
        read either way round, are hop-tested, in key order.  Each test
        walks only band edges that sort before the tested edge and were
        not deleted in this call.
        """
        key, e = entry
        a, b = prefix.find(e.u), prefix.find(e.v)
        pairs = self._pairs.setdefault(k0, {})
        adj = self._sup_adj.setdefault(self._bands.index(e.w), {})
        if not self._survives(adj, pairs, a, b, key):
            return self._drop([e], k0, prefix)
        pair = (a, b) if a < b else (b, a)
        # Stored pairs are distinct, so there is at most one twin.
        twin = pairs.get(pair)
        pairs[pair] = e
        _link(adj, a, b, entry)
        deleted = [] if twin is None else [twin]
        limit = self._hop_limit
        if limit > 1:
            # e's entry replaced the twin's if they share a band, so the
            # twin is in no walk from here on.
            from_a = _hop_dists(adj, a, limit - 1, _ANY_KEY)
            from_b = _hop_dists(adj, b, limit - 1, _ANY_KEY)
            # Each candidate is met from both ends, under its one key.
            later = {}
            for x, dx in from_a.items():
                for y, (xkey, edge) in adj[x].items():
                    if xkey > key and dx + from_b.get(y, limit) < limit:
                        later[xkey] = (x, y, edge)
            for xkey in sorted(later):
                x, y, edge = later[xkey]
                if y in _hop_dists(adj, x, limit, xkey, goal=y):
                    deleted.append(edge)
                    # Later hop tests must not walk a deleted edge.
                    _unlink(adj, x, y, edge)
        deleted.sort(key=_cert_key)
        return self._drop(deleted, k0, prefix)

    def _drop(self, deleted: list[WeightedEdge], k: int, prefix: UnionFind) -> list[WeightedEdge]:
        """Remove bucket k's re-certification deletions from every index.

        An edge the supernode indexes do not hold under prefix, because a
        rebuild left it out or it was never entered, is skipped there.
        Returns deleted.
        """
        pairs = self._pairs.get(k, {})
        for x in deleted:
            j = self._bands.index(x.w)
            kept = self._bands_kept[j]
            del kept[bisect_left(kept, (_cert_key(x),))]
            _unlink(self._raw_adj[j], x.u, x.v, x)
            a, b = prefix.find(x.u), prefix.find(x.v)
            _unlink(self._sup_adj.get(j, {}), a, b, x)
            pair = (a, b) if a < b else (b, a)
            if pairs.get(pair) is x:
                del pairs[pair]
        self._stored -= len(deleted)
        return deleted

    def _recert_from(self, k0: int, entry: _Entry) -> list[WeightedEdge]:
        e = entry[1]
        prefix = self._prefix_uf(k0 % 2, k0)
        evicted = self._recert_inserted(k0, entry, prefix)
        if k0 not in self._closure:
            self._closure[k0] = prefix.copy()
        if not self._closure[k0].union(e.u, e.v):
            # Always the case when e itself was evicted.
            return evicted
        return evicted + self._climb(k0 % 2, k0, self._closure[k0], e)

    def _climb(
        self, parity: int, above: int, prefix: UnionFind, e: WeightedEdge
    ) -> list[WeightedEdge]:
        """Walk parity's chain up from prefix, which just joined e's ends.

        Each bucket above ``above`` gets the full pass against the level
        below it, then e's ends are joined in its closure.  The walk stops
        at the first closure that had them joined already: it did not
        change, so every bucket above it keeps its certificate.
        """
        evicted = []
        for k in sorted(kk for kk in self._closure if kk % 2 == parity and kk > above):
            evicted.extend(self._recert_bucket(k, prefix))
            prefix = self._closure[k]
            if not prefix.union(e.u, e.v):
                break
        return evicted
