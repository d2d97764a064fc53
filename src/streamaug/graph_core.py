"""Multigraph primitives: edges, partitions, cuts, connectivity tests.

Vertices are integers 0..n-1 throughout.  Graphs are undirected multigraphs
given as edge lists; parallel edges are meaningful and kept distinct by
arrival number.

Capped max-flow decides k-edge-connectivity and 3-edge-components at every
n; cut_size_table serves the exhaustive min-cut cactus and the oracles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError

# Exhaustive cut enumeration walks all 2^(n-1) vertex sides.
CUT_ENUM_MAX_N = 24
# Above this the pairwise max-flow of 3-edge-components refuses to run.
THREE_ECC_MAX_N = 64


@dataclass(frozen=True)
class WeightedEdge:
    """Undirected edge with integer weight and a stream arrival number."""

    u: int
    v: int
    w: int
    arrival: int

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)

    def other(self, x: int) -> int:
        return self.v if x == self.u else self.u


@dataclass(frozen=True)
class Arc:
    """Directed arc x -> y remembering the undirected link it came from."""

    x: int
    y: int
    w: int
    origin: WeightedEdge | None = None


@dataclass(frozen=True)
class CutSide:
    """One side of a cut, with the number of edges crossing it."""

    members: frozenset[int]
    boundary_size: int


def edge_ends(e) -> tuple[int, int]:
    """Endpoints of an edge given as WeightedEdge or (u, v, ...) tuple."""
    if isinstance(e, WeightedEdge):
        return e.u, e.v
    return e[0], e[1]


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    def __init__(self, n: int):
        self._parent = list(range(n))
        self._size = [1] * n
        self.n = n

    def find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def same(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def copy(self) -> "UnionFind":
        dup = UnionFind.__new__(UnionFind)
        dup._parent = self._parent[:]
        dup._size = self._size[:]
        dup.n = self.n
        return dup

    def labels(self) -> list[int]:
        return [self.find(v) for v in range(self.n)]


class Partition:
    """Vertex partition with canonical class ids.

    Class ids are assigned by first appearance when scanning vertices in
    increasing order, so equal partitions compare equal regardless of how
    the raw labels were produced.
    """

    def __init__(self, labels):
        remap: dict[int, int] = {}
        canon = []
        for lab in labels:
            if lab not in remap:
                remap[lab] = len(remap)
            canon.append(remap[lab])
        self._labels = tuple(canon)
        members: list[list[int]] = [[] for _ in range(len(remap))]
        for v, lab in enumerate(self._labels):
            members[lab].append(v)
        self._classes = tuple(frozenset(g) for g in members)
        # vertices were appended in increasing order
        self._reps = tuple(g[0] for g in members)

    @classmethod
    def from_union_find(cls, uf: UnionFind) -> "Partition":
        return cls(uf.labels())

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def class_count(self) -> int:
        return len(self._classes)

    def label(self, v: int) -> int:
        return self._labels[v]

    def same(self, u: int, v: int) -> bool:
        return self._labels[u] == self._labels[v]

    def classes(self) -> tuple[frozenset[int], ...]:
        return self._classes

    def rep_of(self, v: int) -> int:
        """Smallest vertex id in v's class."""
        return self._reps[self._labels[v]]

    def refines(self, other: "Partition") -> bool:
        seen: dict[int, int] = {}
        for v in range(self.n):
            mine = self._labels[v]
            if mine in seen:
                if seen[mine] != other.label(v):
                    return False
            else:
                seen[mine] = other.label(v)
        return True

    def __eq__(self, other):
        return isinstance(other, Partition) and self._labels == other._labels

    def __hash__(self):
        return hash(self._labels)

    def __repr__(self):
        return f"Partition({list(self._labels)})"


def check_endpoints(edges, n: int) -> None:
    """Raise ValueError unless every edge has both ends in 0..n-1."""
    for e in edges:
        u, v = edge_ends(e)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range for n={n}: ({u}, {v})")


def connected_components(edges, n: int) -> Partition:
    edges = list(edges)
    check_endpoints(edges, n)
    uf = UnionFind(n)
    for e in edges:
        uf.union(*edge_ends(e))
    return Partition.from_union_find(uf)


def is_connected(edges, n: int) -> bool:
    return connected_components(edges, n).class_count == 1


def cut_size_table(edges, n: int) -> np.ndarray:
    """Boundary sizes for every vertex side not containing vertex 0.

    Entry at index ``mask`` is the number of edges crossing the side whose
    members are the vertices i >= 1 with bit (i-1) set.  Index 0 (the empty
    side) is not a proper cut; callers skip it.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > CUT_ENUM_MAX_N:
        raise SizeGuardError(f"cut enumeration needs n <= {CUT_ENUM_MAX_N}, got {n}")
    edges = list(edges)
    check_endpoints(edges, n)
    masks = np.arange(1 << (n - 1), dtype=np.uint32)
    sizes = np.zeros(len(masks), dtype=np.uint32)
    for e in edges:
        u, v = edge_ends(e)
        if u == v:
            continue
        in_u = (masks >> (u - 1)) & 1 if u > 0 else np.uint32(0)
        in_v = (masks >> (v - 1)) & 1 if v > 0 else np.uint32(0)
        sizes += in_u ^ in_v
    return sizes


def side_membership(n: int) -> np.ndarray:
    """Boolean (n, 2^(n-1)) matrix: entry [v, mask] is whether side ``mask`` holds v.

    Side ``mask`` is the set of vertices i >= 1 with bit (i-1) set, as in
    cut_size_table, so row 0 (vertex 0) and column 0 (the empty side) are
    all False.  An edge uv crosses exactly the sides where rows u and v differ.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > CUT_ENUM_MAX_N:
        raise SizeGuardError(f"cut enumeration needs n <= {CUT_ENUM_MAX_N}, got {n}")
    return _membership(np.arange(1 << (n - 1), dtype=np.uint32), n)


def _membership(masks: np.ndarray, n: int) -> np.ndarray:
    member = np.zeros((n, len(masks)), dtype=bool)
    member[1:] = (masks >> np.arange(n - 1, dtype=np.uint32)[:, None]) & 1
    return member


def side_classes(masks, n: int) -> list[int]:
    """Per vertex v, the smallest vertex lying in exactly the same sides of ``masks`` as v.

    Sides are laid out as in side_membership.  Two vertices get the same
    label exactly when no side in the list separates them.
    """
    rows = _membership(np.asarray(masks, dtype=np.uint32), n)
    first: dict[bytes, int] = {}
    return [first.setdefault(row.tobytes(), v) for v, row in enumerate(rows)]


def pack_sides(flags: np.ndarray) -> int:
    """A boolean vector over side masks as an int with bit ``mask`` set where True."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def side_bits(n: int) -> list[int]:
    """Per vertex v, the int whose bit ``mask`` is set for every side holding v.

    ``side_bits(n)[u] ^ side_bits(n)[v]`` is the set of sides edge uv crosses,
    and the OR of that over the terminal pairs demanding at least j is the set
    of sides demanding at least j crossings.
    """
    return [pack_sides(row) for row in side_membership(n)]


def _mask_members(mask: int) -> frozenset[int]:
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return frozenset(out)


def cuts_of_size_at_most(edges, n: int, c: int) -> list[CutSide]:
    """All proper cut sides avoiding vertex 0 with at most c crossing edges.

    Returned in increasing order of the side's bitmask.
    """
    sizes = cut_size_table(edges, n)
    hits = np.nonzero(sizes <= c)[0]
    return [
        CutSide(_mask_members(int(m)), int(sizes[m]))
        for m in hits
        if m != 0
    ]


def _capacity_map(edges, n: int) -> dict[int, dict[int, int]]:
    cap: dict[int, dict[int, int]] = {v: {} for v in range(n)}
    for e in edges:
        u, v = edge_ends(e)
        if u == v:
            continue
        cap[u][v] = cap[u].get(v, 0) + 1
        cap[v][u] = cap[v].get(u, 0) + 1
    return cap


def _flow_value_capped(cap: dict[int, dict[int, int]], s: int, t: int, limit: int) -> int:
    """Max s-t flow in the symmetric capacity map, stopping once limit is hit."""
    residual = {u: dict(nbrs) for u, nbrs in cap.items()}
    flow = 0
    while flow < limit:
        # BFS for a shortest augmenting path.
        prev = {s: None}
        queue = deque([s])
        while queue and t not in prev:
            x = queue.popleft()
            for y, c in residual[x].items():
                if c > 0 and y not in prev:
                    prev[y] = x
                    queue.append(y)
        if t not in prev:
            break
        bottleneck = limit - flow
        y = t
        while prev[y] is not None:
            x = prev[y]
            bottleneck = min(bottleneck, residual[x][y])
            y = x
        y = t
        while prev[y] is not None:
            x = prev[y]
            residual[x][y] -= bottleneck
            residual[y][x] = residual[y].get(x, 0) + bottleneck
            y = x
        flow += bottleneck
    return flow


def edge_connectivity_at_least(edges, n: int, k: int) -> bool:
    """Whether the multigraph is k-edge-connected, by flows capped at k from vertex 0."""
    edges = list(edges)
    check_endpoints(edges, n)
    if k <= 0 or n <= 1:
        return True
    cap = _capacity_map(edges, n)
    if any(sum(nbrs.values()) < k for nbrs in cap.values()):
        return False
    return all(_flow_value_capped(cap, 0, t, k) >= k for t in range(1, n))


def three_edge_components(edges, n: int) -> Partition:
    """Partition vertices into classes pairwise connected by 3 edge-disjoint paths.

    Pairwise max-flow capped at 3, skipping pairs already merged and pairs
    in different connected components.
    """
    edges = list(edges)
    check_endpoints(edges, n)
    if n > THREE_ECC_MAX_N:
        raise SizeGuardError(f"3-edge-components needs n <= {THREE_ECC_MAX_N}, got {n}")
    cap = _capacity_map(edges, n)
    uf = UnionFind(n)
    comp = connected_components(edges, n)
    for u in range(n):
        for v in range(u + 1, n):
            if uf.same(u, v) or not comp.same(u, v):
                continue
            if _flow_value_capped(cap, u, v, 3) >= 3:
                uf.union(u, v)
    return Partition.from_union_find(uf)
