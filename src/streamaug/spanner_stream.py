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
deleted edge is always parallel to kept material.  Higher buckets whose
contraction e changes, and the whole store after a zero-weight edge, still
get the full pass.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .graph_core import Partition, UnionFind, WeightedEdge
from .weightbands import GeometricBands, as_fraction, ceil_power_index


def _cert_key(e: WeightedEdge) -> tuple[int, int, int, int]:
    # Survivor order for re-certification: lighter first, then earlier,
    # then smaller endpoint pair.
    return (e.w, e.arrival, min(e.u, e.v), max(e.u, e.v))


def _hops_at_most(adj: dict, s: int, g: int, limit: int) -> bool:
    """BFS with a depth cap; adj maps node -> iterable of neighbours."""
    if s == g:
        return True
    if s not in adj:
        return False
    dist = {s: 0}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        d = dist[x] + 1
        if d > limit:
            break
        for y in adj.get(x, ()):
            if y not in dist:
                if y == g:
                    return True
                dist[y] = d
                queue.append(y)
    return False


def _hop_dists(adj: dict, s: int, limit: int) -> dict[int, int]:
    """Hop distance from s to every node within limit hops."""
    dist = {s: 0}
    frontier = [s]
    for d in range(1, limit + 1):
        nxt = []
        for x in frontier:
            for y in adj.get(x, ()):
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


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
        eps = as_fraction(epsilon)
        if not 0 < eps <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
        self.n = n
        self.t = t
        self.epsilon = epsilon
        self._hop_limit = 2 * t - 1
        self._bands = GeometricBands(1 + eps)
        self.bucket_width = ceil_power_index(1 + eps, Fraction(2 * n * n) / eps)
        self._zero_uf = UnionFind(n)
        self._zero: list[WeightedEdge] = []
        self._bands_kept: dict[int, list[WeightedEdge]] = {}
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
        return list(self._bands_kept.get(j, ()))

    def zero_edges(self) -> list[WeightedEdge]:
        return list(self._zero)

    def edges(self) -> list[WeightedEdge]:
        out = list(self._zero)
        for kept in self._bands_kept.values():
            out.extend(kept)
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

    def _nonempty_buckets(self, parity: int) -> list[int]:
        ks = {j // self.bucket_width for j, kept in self._bands_kept.items() if kept}
        return sorted(k for k in ks if k % 2 == parity)

    def _bucket_edges(self, k: int) -> list[WeightedEdge]:
        lo = k * self.bucket_width
        out = []
        for j in range(lo, lo + self.bucket_width):
            out.extend(self._bands_kept.get(j, ()))
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
            if self._zero_uf.same(e.u, e.v):
                return False, [e]
            self._zero_uf.union(e.u, e.v)
            for uf in self._closure.values():
                uf.union(e.u, e.v)
            self._zero.append(e)
            self._bump()
            # A zero edge merges supernodes under every bucket of both
            # parities, so the whole store is re-certified.
            return True, self._recert_all()
        j = self._bands.index(e.w)
        band_adj: dict[int, list[int]] = {}
        for kept in self._bands_kept.get(j, ()):
            band_adj.setdefault(kept.u, []).append(kept.v)
            band_adj.setdefault(kept.v, []).append(kept.u)
        if _hops_at_most(band_adj, e.u, e.v, self._hop_limit):
            return False, [e]
        self._bands_kept.setdefault(j, []).append(e)
        self._bump()
        # The decision reports the distance-test outcome; the edge may still
        # appear in the eviction list when re-certification deletes it.
        return True, self._recert_from(j // self.bucket_width, e)

    def _bump(self) -> None:
        self._stored += 1
        if self._stored > self._peak:
            self._peak = self._stored

    # -- re-certification ------------------------------------------------

    def _recert_bucket(self, k: int, prefix: UnionFind) -> list[WeightedEdge]:
        """Greedy keep/delete pass over one bucket, supernodes from prefix.

        Walking edges in survivor order, an edge is deleted when its
        supernode endpoints coincide, when a kept bucket edge already joins
        the same supernode pair, or when kept edges of its own band already
        give a path of at most 2t-1 supernode hops.  Deleted edges are
        always parallel to kept material, so contractions above this bucket
        never change.
        """
        bucket = self._bucket_edges(k)
        if not bucket:
            return []
        kept_pairs: set[tuple[int, int]] = set()
        band_adj: dict[int, dict[int, list[int]]] = {}
        deleted: list[WeightedEdge] = []
        for e in sorted(bucket, key=_cert_key):
            a, b = prefix.find(e.u), prefix.find(e.v)
            if a == b:
                deleted.append(e)
                continue
            pair = (a, b) if a < b else (b, a)
            if pair in kept_pairs:
                deleted.append(e)
                continue
            j = self._bands.index(e.w)
            adj = band_adj.setdefault(j, {})
            if _hops_at_most(adj, a, b, self._hop_limit):
                deleted.append(e)
                continue
            kept_pairs.add(pair)
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        return self._drop(deleted)

    def _recert_inserted(
        self, k0: int, e: WeightedEdge, prefix: UnionFind
    ) -> list[WeightedEdge]:
        """_recert_bucket(k0, prefix) right after e joined bucket k0.

        Bucket k0 was a greedy fixed point before e arrived, so the pass
        keeps every edge that sorts before e and can only change through
        e.  Either e falls to one of the three tests, alone, or e stays
        and displaces the one later bucket edge on its supernode pair, if
        any, and later edges of its own band whose short path runs through
        e.  Those are hop-tested only when their supernodes lie close
        enough to e's ends in the whole band; the filter never skips an
        edge the full pass would delete.
        """
        label = prefix.labels()
        a, b = label[e.u], label[e.v]
        if a == b:
            return self._drop([e])
        pair = (a, b) if a < b else (b, a)
        twin = None
        for x in self._bucket_edges(k0):
            if x is not e:
                xa, xb = label[x.u], label[x.v]
                if ((xa, xb) if xa < xb else (xb, xa)) == pair:
                    # Stored pairs are distinct, so there is at most one.
                    twin = x
                    break
        if twin is not None and _cert_key(twin) < _cert_key(e):
            return self._drop([e])
        band = sorted(self._bands_kept[self._bands.index(e.w)], key=_cert_key)
        ends = [(label[x.u], label[x.v]) for x in band]
        at = next(i for i, x in enumerate(band) if x is e)
        adj: dict[int, list[int]] = {}
        for xa, xb in ends[:at]:
            adj.setdefault(xa, []).append(xb)
            adj.setdefault(xb, []).append(xa)
        limit = self._hop_limit
        if _hops_at_most(adj, a, b, limit):
            return self._drop([e])
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
        deleted = [] if twin is None else [twin]
        if limit > 1 and at + 1 < len(band):
            # A path through e of at most 2t-1 hops runs ax..a, e, b..bx or
            # ax..b, e, a..bx, so each side is within 2t-2 hops in the band.
            whole: dict[int, list[int]] = {}
            for xa, xb in ends:
                whole.setdefault(xa, []).append(xb)
                whole.setdefault(xb, []).append(xa)
            from_a = _hop_dists(whole, a, limit - 1)
            from_b = _hop_dists(whole, b, limit - 1)
            for x, (xa, xb) in zip(band[at + 1 :], ends[at + 1 :]):
                if x is twin:
                    continue
                via = min(
                    from_a.get(xa, limit) + from_b.get(xb, limit),
                    from_b.get(xa, limit) + from_a.get(xb, limit),
                )
                if via < limit and _hops_at_most(adj, xa, xb, limit):
                    deleted.append(x)
                    continue
                adj.setdefault(xa, []).append(xb)
                adj.setdefault(xb, []).append(xa)
        deleted.sort(key=_cert_key)
        return self._drop(deleted)

    def _drop(self, deleted: list[WeightedEdge]) -> list[WeightedEdge]:
        """Remove re-certification deletions from the store; returns them."""
        if deleted:
            gone = {id(d) for d in deleted}
            for j in {self._bands.index(d.w) for d in deleted}:
                self._bands_kept[j] = [
                    x for x in self._bands_kept[j] if id(x) not in gone
                ]
            self._stored -= len(deleted)
        return deleted

    def _recert_from(self, k0: int, e: WeightedEdge) -> list[WeightedEdge]:
        parity = k0 % 2
        prefix = self._prefix_uf(parity, k0)
        evicted = self._recert_inserted(k0, e, prefix)
        if k0 not in self._closure:
            self._closure[k0] = prefix.copy()
        levels = sorted(kk for kk in self._closure if kk % 2 == parity and kk >= k0)
        for below, kk in zip(levels, levels[1:] + [None]):
            if not self._closure[below].union(e.u, e.v):
                # e's ends were joined already, here and at every level
                # above, so higher buckets keep their certificates.  This
                # is always the case when e itself was evicted.
                break
            if kk is not None:
                evicted.extend(self._recert_bucket(kk, self._closure[below]))
        return evicted

    def _recert_all(self) -> list[WeightedEdge]:
        evicted = []
        for parity in (0, 1):
            for kk in self._nonempty_buckets(parity):
                evicted.extend(self._recert_bucket(kk, self._prefix_uf(parity, kk)))
        return evicted
