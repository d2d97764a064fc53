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

Every graph the weighted store screens is the cycle plus some links, whose
cuts of at most two edges are the pairs of cycle edges no held link
separates.  Each class labels cycle edge e_i = (i, i+1 mod n) so that two
edges share a label exactly when they form such an uncovered 2-cut, and
keeping a link splits every label into its edges on the link's path and the
rest.  Labels never interleave round the cycle, so one walk names the
3-edge-connected component of each vertex x by its smallest vertex
``comp[x]``, which keys the best-arc tables.  Between inserts every class is
a fixed point of its screen, so an arriving link is tested once, by
``comp[u] != comp[v]``.  A kept one only merges components above it, as a
re-screen drops only links whose ends are already joined, so an old table
key s becomes ``comp[s]``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

from .graph_core import Arc, Partition, WeightedEdge
from .graph_core import three_edge_components  # noqa: F401  (benchmark/spans.py wraps it here)
from .oracles import exact_directed_cycle_cover
from .weightbands import GeometricBands, check_epsilon


def _split(lab: list[int], u: int, v: int) -> list[int] | None:
    """Labels once link (u, v) joins ``lab``, or None if it splits no label.

    A label with edges on and off the u..v path gives its path edges a fresh label.
    """
    u, v = sorted((u, v))
    path = lab[u:v]
    split = set(path).intersection(lab[:u] + lab[v:])
    if not split:
        return None
    fresh = dict(zip(split, count(max(lab) + 1)))
    return lab[:u] + list(map(fresh.get, path, path)) + lab[v:]


def _state(lab: list[int]) -> tuple[list[int], list[int]]:
    """The class state ``(lab, comp)``, each label renamed to its first edge.

    If the label l of e_{x-1} has a later edge, x starts a gap of l and ``comp[x]``
    is x; else x lies in the gap that holds all of l, as vertex l does.
    """
    n = len(lab)
    first = dict(zip(reversed(lab), range(n - 1, -1, -1)))
    lab = list(map(first.__getitem__, lab))
    last = dict(zip(lab, range(n)))
    comp = [0]
    for x in range(1, n):
        l = lab[x - 1]
        comp.append(x if last[l] >= x else comp[l])
    return lab, comp


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
    link set screened against 3-edge-connected components: a link is
    redundant exactly when the cycle and the kept cheaper material already
    3-edge-connect its ends.  ``_state[k]`` is the (labels, components) pair
    of length-n int lists reached after screening class k: the cycle plus
    the kept links of the zero class and of k's parity chain up to k.
    Between inserts every class is a fixed point of its screen: re-screened
    from ``_state_at(k - 2)`` it keeps every link and reaches ``_state[k]``.
    The arcs of every positive link also feed a best-arc table two coarse
    classes down, keyed by (head's component, fine band, side), which
    finalize solves over.  When eps < 1/n the banding collapses and the
    store simply keeps the cheapest link per endpoint pair.
    """

    def __init__(self, n: int, epsilon):
        if n < 2:
            raise ValueError(f"weighted cycle store needs n >= 2, got {n}")
        eps = check_epsilon(epsilon)
        self.n = n
        self.epsilon = epsilon
        self.is_trivial = eps < Fraction(1, n)
        self._peak = 0
        self._best: dict[tuple[int, int], WeightedEdge] = {}
        self._forest: dict[int, list[WeightedEdge]] = {}
        self._arcs: dict[int, dict[tuple[int, int, str], Arc]] = {}
        self._state = {-1: _state([0] * n)}
        self._forest_count = 0
        self._arc_count = 0
        if not self.is_trivial:
            self._fine = GeometricBands(1 + eps)
            self._coarse = GeometricBands(Fraction(n) / eps)

    @property
    def peak_stored(self) -> int:
        return self._peak

    @property
    def stored_count(self) -> int:
        return len(self._best) + self._forest_count + self._arc_count

    def forest_classes(self) -> list[int]:
        return sorted(k for k, kept in self._forest.items() if kept)

    def forest_edges(self, k: int) -> list[WeightedEdge]:
        return list(self._forest.get(k, ()))

    def forest_count(self) -> int:
        return self._forest_count

    def arc_count(self) -> int:
        return self._arc_count

    def coarse_class_of(self, w: int) -> int:
        return -1 if w == 0 else self._coarse.index(w)

    def partition(self, k: int) -> Partition:
        """3-edge-components of cycle + zero links + kept classes k, k-2, ...

        The zero class joins both parity chains, so it always participates.
        """
        return Partition(self._state_at(k)[1])

    def _state_at(self, k: int) -> tuple[list[int], list[int]]:
        """State of the largest screened class <= k of k's parity, else the zero class."""
        below = [j for j in self._state if 0 <= j <= k and (k - j) % 2 == 0]
        return self._state[max(below) if below else -1]

    # -- insertion -------------------------------------------------------

    def insert(self, link: WeightedEdge) -> None:
        if not (0 <= link.u < self.n and 0 <= link.v < self.n):
            raise ValueError(f"link endpoint out of range: {link}")
        if link.u == link.v:
            raise ValueError(f"self-loop link: {link}")
        if link.w < 0:
            raise ValueError(f"negative weight: {link}")
        if self.is_trivial:
            pair = link.pair
            cur = self._best.get(pair)
            if cur is None or (link.w, link.arrival) < (cur.w, cur.arrival):
                self._best[pair] = link
            self._peak = max(self._peak, len(self._best))
            return
        kp = self.coarse_class_of(link.w)
        self._peak = max(self._peak, self.stored_count + 1)
        lab, comp = self._state_at(kp)
        if comp[link.u] != comp[link.v]:
            self._forest.setdefault(kp, []).append(link)
            self._forest_count += 1
            self._state[kp] = _state(_split(lab, link.u, link.v))
            for k in sorted(self._forest):
                if k > kp and (kp == -1 or (k - kp) % 2 == 0):
                    self._screen(k)
            for k in self._arcs:
                if kp == -1 or (k >= kp and (k - kp) % 2 == 0):
                    self._regroup(k)
        if link.w >= 1:
            self._offer_arcs(link, kp - 2)
        self._peak = max(self._peak, self.stored_count)

    def _screen(self, k: int) -> None:
        """Re-screen class k from the state below it: a link stays if it splits a label."""
        lab = self._state_at(k - 2)[0]
        kept = []
        for e in self._forest[k]:
            split = _split(lab, e.u, e.v)
            if split is not None:
                kept.append(e)
                lab = split
        self._forest_count -= len(self._forest[k]) - len(kept)
        self._forest[k] = kept
        self._state[k] = _state(lab)

    def _regroup(self, k: int) -> None:
        # components only merge, so comp[s] keys the head's new component,
        # and heads of merged components collide on one key
        comp = self._state_at(k)[1]
        old, self._arcs[k] = self._arcs[k], {}
        self._arc_count -= len(old)
        for (s, fi, side), arc in old.items():
            self._file(self._arcs[k], (comp[s], fi, side), arc)

    def _offer_arcs(self, link: WeightedEdge, k: int) -> None:
        comp = self._state_at(k)[1]
        fi = self._fine.index(link.w)
        table = self._arcs.setdefault(k, {})
        for x, y in ((link.u, link.v), (link.v, link.u)):
            if comp[x] != comp[y]:
                key = (comp[y], fi, "lo" if x < y else "hi")
                self._file(table, key, Arc(x, y, link.w, link))

    def _file(self, table: dict[tuple[int, int, str], Arc], key, arc: Arc) -> None:
        """Keep the better arc under key: extreme tail, then lighter, then earlier."""
        cur = table.get(key)
        if cur is None:
            self._arc_count += 1
        else:
            s = 1 if key[2] == "lo" else -1
            if (s * cur.x, cur.w, cur.origin.arrival) <= (s * arc.x, arc.w, arc.origin.arrival):
                return
        table[key] = arc

    # -- finalize --------------------------------------------------------

    def all_arcs(self) -> list[Arc]:
        """Deterministic arc pool finalize solves over.

        Kept links come first, both ways; each arc table follows in key order,
        which is (smallest vertex of the head's component, fine band, side).
        """
        links = sorted(self._best.values(), key=lambda e: e.arrival)
        for k in sorted(self._forest):
            links.extend(self._forest[k])
        arcs = [a for e in links for a in (Arc(e.u, e.v, e.w, e), Arc(e.v, e.u, e.w, e))]
        for k in sorted(self._arcs):
            arcs.extend(self._arcs[k][key] for key in sorted(self._arcs[k]))
        return arcs

    def finalize(self) -> tuple[list[WeightedEdge], int]:
        chosen, _ = exact_directed_cycle_cover(self.n, self.all_arcs())
        links = _dedup_links(chosen)
        return links, sum(e.w for e in links)
