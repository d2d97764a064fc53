"""Multigraph primitives: edges, partitions, cut sides, connectivity tests.

Vertices are integers 0..n-1 throughout.  Graphs are undirected multigraphs
given as edge lists; parallel edges are meaningful and kept distinct by
arrival number.

A set of cut sides is one Python int whose bit ``mask`` stands for side
``mask`` (side_bits), and crossing counts are levels of such ints.  These
enumerate all 2^(n-1) sides for the exhaustive min-cut cactus and the
oracles; one tree of n-1 capped max-flows answers every connectivity question.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import SizeGuardError

# Exhaustive cut enumeration walks all 2^(n-1) vertex sides.
CUT_ENUM_MAX_N = 24


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


def side_bits(n: int) -> list[int]:
    """Per vertex v, the int whose bit ``mask`` is set for every side holding v.

    Side ``mask`` is the set of vertices i >= 1 with bit (i-1) set, so vertex 0
    lies in no side and bit 0 is the empty side.  Edge uv crosses the sides
    ``bits[u] ^ bits[v]``.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > CUT_ENUM_MAX_N:
        raise SizeGuardError(f"cut enumeration needs n <= {CUT_ENUM_MAX_N}, got {n}")
    rows = [0]
    for v in range(1, n):
        half = 1 << (v - 1)
        row, width = ((1 << half) - 1) << half, 2 * half
        while width < 1 << (n - 1):
            row |= row << width
            width *= 2
        rows.append(row)
    return rows


def add_crossing(levels: list[int], sides: int) -> None:
    """Count one more crossing on each side in ``sides``, in levels as cut_size_table's."""
    for j in range(1, len(levels)):
        if not sides:
            return
        levels[j], sides = levels[j] | sides, levels[j] & sides


def cut_size_table(edges, n: int, top: int) -> list[int]:
    """Levels 0..top: level j holds the sides at least j edges cross, level 0 every side.

    No side is crossed more than len(edges) times, so top is clamped to
    0..len(edges).
    """
    bits = side_bits(n)
    edges = list(edges)
    check_endpoints(edges, n)
    levels = [(1 << (1 << (n - 1))) - 1] + [0] * max(0, min(top, len(edges)))
    for e in edges:
        u, v = edge_ends(e)
        add_crossing(levels, bits[u] ^ bits[v])
    return levels


def sides_at_most(levels: list[int], c: int) -> int:
    """The sides that at most c edges cross, read off cut_size_table levels."""
    if c < 0:
        return 0
    return levels[0] & ~levels[c + 1] if c + 1 < len(levels) else levels[0]


def side_classes(sides: int, n: int) -> list[int]:
    """Per vertex v, the smallest vertex that no side in the bitset ``sides`` separates from v."""
    first: dict[int, int] = {}
    return [first.setdefault(row & sides, v) for v, row in enumerate(side_bits(n))]


def _bit_positions(x: int) -> list[int]:
    """Positions of the set bits of x, in increasing order."""
    return [i for i, ch in enumerate(reversed(bin(x))) if ch == "1"]


def _mask_members(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in _bit_positions(mask))


def _capacity_map(edges, n: int) -> dict[int, dict[int, int]]:
    cap: dict[int, dict[int, int]] = {v: {} for v in range(n)}
    for e in edges:
        u, v = edge_ends(e)
        if u == v:
            continue
        cap[u][v] = cap[u].get(v, 0) + 1
        cap[v][u] = cap[v].get(u, 0) + 1
    return cap


def _flow_value_capped(cap: dict[int, dict[int, int]], s: int, t: int, limit: int):
    """Max s-t flow up to limit, and the last BFS's reach: below limit, a min cut's s side."""
    residual = {u: dict(nbrs) for u, nbrs in cap.items()}
    flow, prev = 0, {s: None}
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
        path, y = [], t
        while prev[y] is not None:
            path.append((prev[y], y))
            y = prev[y]
        push = min([limit - flow] + [residual[x][y] for x, y in path])
        for x, y in path:
            residual[x][y] -= push
            residual[y][x] += push
        flow += push
    return flow, prev.keys()


def _cut_tree(edges, n: int, limit: int) -> tuple[list[int], list[int]]:
    """Gusfield's flow-equivalent tree (SIAM J. Comput. 1990), each flow capped at limit.

    Vertex s >= 1 hangs from parent[s] < s with value[s] = min(lambda(s, parent[s]), limit),
    and min(lambda(u, v), limit) is the least value on the u-v tree path.  A flow below limit
    re-hangs the later vertices on its cut's s side; one reaching limit re-hangs nothing, as
    then min(lambda(i, s), limit) = min(lambda(i, t), limit) for every i.
    """
    cap = _capacity_map(edges, n)
    parent, value = [0] * n, [limit] * n
    for s in range(1, n):
        t = parent[s]
        value[s], reached = _flow_value_capped(cap, s, t, limit)
        if value[s] < limit:
            for i in range(s + 1, n):
                if parent[i] == t and i in reached:
                    parent[i] = s
    return parent, value


def min_cut_capped(edges, n: int, limit: int) -> int:
    """min(edge connectivity, limit); limit when n <= 1, which has no cut."""
    return min(_cut_tree(edges, n, limit)[1], default=limit)


def edge_connectivity_at_least(edges, n: int, k: int) -> bool:
    """Whether the multigraph is k-edge-connected, read off the tree capped at k."""
    edges = list(edges)
    check_endpoints(edges, n)
    return k <= 0 or min_cut_capped(edges, n, k) >= k


def three_edge_components(edges, n: int) -> Partition:
    """Vertices grouped by 3 edge-disjoint paths: the cap-3 tree's edges of value 3 join them."""
    edges = list(edges)
    check_endpoints(edges, n)
    parent, value = _cut_tree(edges, n, 3)
    label = list(range(n))
    for s in range(1, n):
        label[s] = label[parent[s]] if value[s] >= 3 else s
    return Partition(label)
