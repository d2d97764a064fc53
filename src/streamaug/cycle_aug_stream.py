"""Streaming augmentation of a rooted cycle against its interval cuts.

The ground graph is the cycle 0-1-...-(n-1)-0 rooted at 0.  Its 2-cuts are
exactly the intervals [l, r] with 1 <= l <= r <= n-1, and a link (u, v)
helps interval [l, r] exactly when one endpoint is inside and the other
outside; directing the link into the interval turns feasibility questions
into arc-cover questions.

Two stores stream links against these cuts.  The unweighted one keeps, for
every head, the most extreme tail on each side, which dominates every
discarded arc.  The weighted one bands links into coarse weight classes,
keeps per-class spanning-forest-like link sets screened by 3-edge-connected
components, and remembers a best arc per (component, fine band, side) so
that a final exact solve stays within a (2 + O(eps)) factor.

Every graph the weighted store screens is the cycle plus some links, so its
cuts of size at most 2 are exactly the intervals that no held link crosses,
and two vertices are 3-edge-connected exactly when no such interval holds
one and not the other.  The store therefore keeps intervals as bits of a
Python int: ``contain[x]`` has the bit of every interval holding x, a link
(u, v) crosses the intervals ``contain[u] ^ contain[v]``, and the uncovered
set starts as every interval and loses the bits of each held link.
"""

from __future__ import annotations

from fractions import Fraction

from .graph_core import Arc, Partition, WeightedEdge
from .graph_core import three_edge_components  # noqa: F401  (benchmark/spans.py wraps it here)
from .oracles import exact_directed_cycle_cover
from .weightbands import GeometricBands, as_fraction


def _interval_masks(n: int) -> list[int]:
    """contain[x] for the rooted n-cycle: one bit per interval [l, r] holding x.

    Intervals are numbered by l, then r, so those starting at l fill a block
    of n - l bits from offset(l); x lies in [l, r] for l <= x <= r.
    """
    contain = [0] * n
    offset = 0
    for l in range(1, n):
        for x in range(l, n):
            contain[x] |= ((1 << (n - x)) - 1) << (offset + x - l)
        offset += n - l
    return contain


def _dedup_links(arcs: list[Arc]) -> list[WeightedEdge]:
    seen = set()
    links = []
    for a in arcs:
        link = a.origin
        if link is None or link.arrival in seen:
            continue
        seen.add(link.arrival)
        links.append(link)
    links.sort(key=lambda e: e.arrival)
    return links


class UnweightedArcStore:
    """Keeps at most two arcs per cycle position: extreme tails win.

    For head v, an arriving arc from a smaller tail survives only if its
    tail is strictly smaller than the stored one (ties keep the earlier
    arrival); symmetrically for larger tails.  Any interval the discarded
    arc covers is covered by the survivor, so finalize loses at most a
    factor 2 in link count against the unweighted optimum.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"cycle store needs n >= 2, got {n}")
        self.n = n
        self._low: list[Arc | None] = [None] * n
        self._high: list[Arc | None] = [None] * n

    def insert(self, link: WeightedEdge) -> None:
        if not (0 <= link.u < self.n and 0 <= link.v < self.n):
            raise ValueError(f"link endpoint out of range: {link}")
        if link.u == link.v:
            raise ValueError(f"self-loop link: {link}")
        for x, y in ((link.u, link.v), (link.v, link.u)):
            if y == 0:
                continue
            arc = Arc(x, y, 1, link)
            if x < y:
                cur = self._low[y]
                if cur is None or x < cur.x:
                    self._low[y] = arc
            else:
                cur = self._high[y]
                if cur is None or x > cur.x:
                    self._high[y] = arc

    def arcs(self) -> list[Arc]:
        out = []
        for y in range(1, self.n):
            for slot in (self._low[y], self._high[y]):
                if slot is not None:
                    out.append(slot)
        return out

    def __len__(self) -> int:
        return len(self.arcs())

    def finalize(self) -> tuple[list[WeightedEdge], int]:
        """Smallest stored arc set covering every interval, as links."""
        chosen, _ = exact_directed_cycle_cover(self.n, self.arcs())
        links = _dedup_links(chosen)
        return links, len(links)


class WeightedAugState:
    """Weight-aware streaming store for rooted cycle augmentation.

    Positive weights are banded twice: coarse bands with base n/eps split
    links into classes whose weights differ so much that cheaper classes
    are almost free, and fine bands with base 1+eps distinguish weights
    within a coarse class.  Weight-zero links and each coarse class keep a
    link set screened against 3-edge-connected components (a link whose
    endpoints the kept cheaper material already 3-connects is redundant).
    Screening works on interval bitsets: a link is redundant exactly when it
    crosses no interval left uncovered by the cycle's held links, keeping it
    clears its crossing bits, and the components are the vertices grouped
    by ``contain[v] & uncovered``, so the store has no vertex guard.  All
    surviving arcs additionally feed a per-(component, fine band, side)
    best-arc table two coarse classes down, which is what finalize solves
    over.  When eps < 1/n the banding collapses and the store simply keeps
    the cheapest link per endpoint pair.
    """

    def __init__(self, n: int, epsilon):
        if n < 2:
            raise ValueError(f"weighted cycle store needs n >= 2, got {n}")
        eps = as_fraction(epsilon)
        if not 0 < eps <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
        self.n = n
        self.epsilon = epsilon
        self._trivial = eps < Fraction(1, n)
        self._peak = 0
        if self._trivial:
            self._best: dict[tuple[int, int], WeightedEdge] = {}
            return
        self._contain = _interval_masks(n)
        self._all_intervals = (1 << (n * (n - 1) // 2)) - 1
        self._fine = GeometricBands(1 + eps)
        self._coarse = GeometricBands(Fraction(n) / eps)
        self._forest: dict[int, list[WeightedEdge]] = {}
        self._arcs: dict[int, dict[tuple[int, int, str], Arc]] = {}
        self._parts: dict[int, Partition] = {}
        self._forest_count = 0
        self._arc_count = 0

    @property
    def is_trivial(self) -> bool:
        return self._trivial

    @property
    def peak_stored(self) -> int:
        return self._peak

    @property
    def stored_count(self) -> int:
        if self._trivial:
            return len(self._best)
        return self._forest_count + self._arc_count

    def forest_classes(self) -> list[int]:
        if self._trivial:
            return []
        return sorted(k for k, kept in self._forest.items() if kept)

    def forest_edges(self, k: int) -> list[WeightedEdge]:
        if self._trivial:
            return []
        return list(self._forest.get(k, ()))

    def forest_count(self) -> int:
        return 0 if self._trivial else self._forest_count

    def arc_count(self) -> int:
        return 0 if self._trivial else self._arc_count

    def coarse_class_of(self, w: int) -> int:
        return -1 if w == 0 else self._coarse.index(w)

    def partition(self, k: int) -> Partition:
        """3-edge-components of cycle + zero links + kept classes k, k-2, ...

        The zero class joins both parity chains, so it always participates.
        """
        if k not in self._parts:
            unc = self._uncovered([-1, *range(k, -1, -2)])
            self._parts[k] = Partition([c & unc for c in self._contain])
        return self._parts[k]

    def _crossing(self, e: WeightedEdge) -> int:
        return self._contain[e.u] ^ self._contain[e.v]

    def _uncovered(self, ks) -> int:
        """Intervals that no kept link of the classes ks crosses."""
        unc = self._all_intervals
        for k in ks:
            for e in self._forest.get(k, ()):
                unc &= ~self._crossing(e)
        return unc

    # -- insertion -------------------------------------------------------

    def insert(self, link: WeightedEdge) -> None:
        if not (0 <= link.u < self.n and 0 <= link.v < self.n):
            raise ValueError(f"link endpoint out of range: {link}")
        if link.u == link.v:
            raise ValueError(f"self-loop link: {link}")
        if link.w < 0:
            raise ValueError(f"negative weight: {link}")
        if self._trivial:
            pair = link.pair
            cur = self._best.get(pair)
            if cur is None or (link.w, link.arrival) < (cur.w, cur.arrival):
                self._best[pair] = link
            self._peak = max(self._peak, len(self._best))
            return
        kp = self.coarse_class_of(link.w)
        self._forest.setdefault(kp, []).append(link)
        self._forest_count += 1
        self._peak = max(self._peak, self.stored_count)
        self._cleanup_from(kp)
        self._refresh(kp)
        if link.w >= 1:
            self._offer_arcs(link, kp - 2)
        self._peak = max(self._peak, self.stored_count)

    def _cleanup_from(self, kp: int) -> None:
        if kp == -1:
            self._clean_classes([-1], self._all_intervals)
            zero = self._uncovered([-1])
            for parity in (0, 1):
                ks = sorted(k for k in self._forest if k >= 0 and k % 2 == parity)
                self._clean_classes(ks, zero)
        else:
            parity = kp % 2
            below = [k for k in self._forest if 0 <= k < kp and k % 2 == parity]
            ks = sorted(k for k in self._forest if k >= kp and k % 2 == parity)
            self._clean_classes(ks, self._uncovered([-1, *below]))

    def _clean_classes(self, ks: list[int], unc: int) -> None:
        """Re-screen classes ks in order against the uncovered intervals unc.

        A link whose ends no uncovered interval separates is redundant; a
        kept one covers the intervals it crosses for every later link.
        """
        for k in ks:
            kept = []
            for e in self._forest.get(k, ()):
                cross = self._crossing(e)
                if not unc & cross:
                    self._forest_count -= 1
                    continue
                kept.append(e)
                unc &= ~cross
            self._forest[k] = kept

    def _refresh(self, kp: int) -> None:
        if kp == -1:
            dirty = set(self._parts) | set(self._arcs)
        else:
            dirty = {
                k
                for k in set(self._parts) | set(self._arcs)
                if k >= kp and (k - kp) % 2 == 0
            }
        for k in dirty:
            self._parts.pop(k, None)
        for k in sorted(dirty):
            if k in self._arcs:
                self._regroup(k)

    def _regroup(self, k: int) -> None:
        part = self.partition(k)
        merged: dict[tuple[int, int, str], Arc] = {}
        for (root, fi, side), arc in self._arcs[k].items():
            key = (part.rep_of(root), fi, side)
            cur = merged.get(key)
            if cur is None:
                merged[key] = arc
            else:
                merged[key] = self._better(cur, arc, side)
                self._arc_count -= 1
        self._arcs[k] = merged

    @staticmethod
    def _better(a: Arc, b: Arc, side: str) -> Arc:
        ka = (a.x if side == "lo" else -a.x, a.w, a.origin.arrival)
        kb = (b.x if side == "lo" else -b.x, b.w, b.origin.arrival)
        return a if ka <= kb else b

    def _offer_arcs(self, link: WeightedEdge, k: int) -> None:
        part = self.partition(k)
        fi = self._fine.index(link.w)
        store = self._arcs.setdefault(k, {})
        for x, y in ((link.u, link.v), (link.v, link.u)):
            if part.same(x, y):
                continue
            key = (part.rep_of(y), fi, "lo" if x < y else "hi")
            arc = Arc(x, y, link.w, link)
            cur = store.get(key)
            if cur is None:
                store[key] = arc
                self._arc_count += 1
            else:
                store[key] = self._better(cur, arc, key[2])

    # -- finalize --------------------------------------------------------

    def all_arcs(self) -> list[Arc]:
        """Deterministic arc pool finalize solves over."""
        arcs: list[Arc] = []
        if self._trivial:
            for link in sorted(self._best.values(), key=lambda e: e.arrival):
                arcs.append(Arc(link.u, link.v, link.w, link))
                arcs.append(Arc(link.v, link.u, link.w, link))
            return arcs
        for k in sorted(self._forest):
            for e in self._forest[k]:
                arcs.append(Arc(e.u, e.v, e.w, e))
                arcs.append(Arc(e.v, e.u, e.w, e))
        for k in sorted(self._arcs):
            for key in sorted(self._arcs[k]):
                arcs.append(self._arcs[k][key])
        return arcs

    def finalize(self) -> tuple[list[WeightedEdge], int]:
        chosen, _ = exact_directed_cycle_cover(self.n, self.all_arcs())
        links = _dedup_links(chosen)
        return links, sum(e.w for e in links)
