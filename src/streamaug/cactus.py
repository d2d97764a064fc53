"""Cactus representation of all minimum cuts of a small multigraph.

A cactus is a connected multigraph in which every edge lies on exactly one
simple cycle (a doubled edge counts as a 2-cycle).  For a connected graph G
with edge connectivity c, there is a cactus H and a vertex map phi such
that the minimum cuts of G are exactly the preimages of the minimum cuts
of H, and every min cut of H removes two edges of one cycle.

Validation is one linear pass: if no spanning-tree edge lies on two
fundamental cycles, they are edge-disjoint, so every simple cycle (a sum of
fundamental cycles) is one of them.

The constructor here is deliberately exhaustive: it enumerates every min
cut side, groups vertices into atoms no min cut separates, and rebuilds
the unique nesting/crossing structure recursively.  That caps it at small
n, which is all the desk-scale pipelines need.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeGuardError, StreamFormatError, int_fields, records
from .graph_core import (
    WeightedEdge,
    _bit_positions,
    _capacity_map,
    _mask_members,
    cut_size_table,
    edge_connectivity_at_least,  # noqa: F401  (benchmark/spans.py wraps it here)
    is_connected,
    side_classes,
    sides_at_most,
)

CACTUS_MAX_N = 16


@dataclass(frozen=True)
class CactusGraph:
    """Cactus multigraph plus the map from original vertices to its nodes."""

    size: int
    edges: tuple[tuple[int, int], ...]
    phi: tuple[int, ...]

    @property
    def n_original(self) -> int:
        return len(self.phi)


@dataclass(frozen=True)
class UnfoldedCycle:
    """A cactus flattened onto one cycle by an Euler tour.

    positions[x] lists the tour positions of cactus node x in increasing
    order; links are the weight-zero links that chain the repeated
    positions of each node together, numbered 0..len(links)-1 by arrival.
    """

    length: int
    positions: tuple[tuple[int, ...], ...]
    links: tuple[WeightedEdge, ...]

    def position_of(self, x: int) -> int:
        """Canonical (smallest) tour position of cactus node x."""
        return self.positions[x][0]


def cactus_validate(c: CactusGraph) -> bool:
    """True iff c is 2-edge-connected and every edge lies on one simple cycle."""
    try:
        cactus_check(c)
    except ValueError:
        return False
    return True


def cactus_check(c: CactusGraph) -> None:
    """Raise ValueError unless c is a well-formed cactus with a sane phi.

    Each non-tree edge of a BFS spanning tree adds one to the tree edges on its
    tree path.  c is a cactus exactly when the tree spans c and every tree edge
    counts one (the module docstring says why); a count of zero is a bridge.
    """
    if c.size < 1:
        raise ValueError(f"cactus needs at least one node, got size {c.size}")
    adj: list[list[tuple[int, int]]] = [[] for _ in range(c.size)]
    for idx, (u, v) in enumerate(c.edges):
        if not (0 <= u < c.size and 0 <= v < c.size):
            raise ValueError(f"cactus edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"cactus has a self-loop at {u}")
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    for x, cx in enumerate(c.phi):
        if not (0 <= cx < c.size):
            raise ValueError(f"phi[{x}] = {cx} out of range")
    # count[x] is the fundamental cycles through the tree edge x - parent[x]
    parent = [-1] * c.size
    depth = [0] + [-1] * (c.size - 1)
    tree: set[int] = set()
    order = [0]
    for x in order:
        for y, idx in adj[x]:
            if depth[y] < 0:
                parent[y], depth[y] = x, depth[x] + 1
                tree.add(idx)
                order.append(y)
    if len(order) < c.size:
        raise ValueError("cactus is not connected")
    count = [0] * c.size
    for idx, (u, v) in enumerate(c.edges):
        if idx in tree:
            continue
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            count[u] += 1
            if count[u] > 1:
                raise ValueError(f"edge ({u}, {parent[u]}) lies on more than one cycle")
            u = parent[u]
    for x in order[1:]:
        if count[x] == 0:
            raise ValueError(f"edge ({x}, {parent[x]}) lies on no cycle")


def cactus_build(edges, n: int) -> CactusGraph:
    """Build the min-cut cactus of a connected multigraph on n <= 16 vertices.

    Recursively: the maximal min-cut sides hanging below a node are pairwise
    disjoint.  A side M whose family contains no complementary split is a
    tree child, attached by a doubled edge.  Otherwise M is a cycle: its
    circular parts are peeled off one end, smallest first, each prefix union
    staying a min-cut side.  The resulting structure is verified against the
    full side family and the cactus axioms before being returned.
    """
    edges = list(edges)
    if n < 2:
        raise SizeGuardError(f"cactus construction needs n >= 2, got {n}")
    if n > CACTUS_MAX_N:
        raise SizeGuardError(f"cactus construction needs n <= {CACTUS_MAX_N}, got {n}")
    if not is_connected(edges, n):
        raise ValueError("cactus construction needs a connected graph")
    # every single vertex is a side, so lam is at most the smallest degree
    degree = min(sum(nbrs.values()) for nbrs in _capacity_map(edges, n).values())
    levels = cut_size_table(edges, n, degree + 1)
    # bit 0 is the empty side, which is no cut
    lam = next(c for c in range(len(levels)) if sides_at_most(levels, c) & ~1)
    min_sides = sides_at_most(levels, lam) & ~1
    atom_of = side_classes(min_sides, n)
    fam = {frozenset(atom_of[v] for v in _mask_members(m)) for m in _bit_positions(min_sides)}

    node_atoms: list[set[int]] = []
    cedges: list[tuple[int, int]] = []

    def peel(whole: frozenset, inside: list[frozenset]) -> list[frozenset]:
        usable = sorted(inside, key=lambda s: (len(s), sorted(s)))
        first_parts = [p for p in usable if (whole - p) in fam]
        parts = [first_parts[0]]
        done = set(parts[0])
        while True:
            rest = whole - frozenset(done)
            nxt = None
            for p in usable:
                if p <= rest and p != rest and frozenset(done | set(p)) in fam:
                    nxt = p
                    break
            if nxt is None:
                if rest not in fam:
                    raise ValueError("min-cut family does not close into a cycle")
                parts.append(rest)
                return parts
            parts.append(nxt)
            done |= set(nxt)

    def check_cycle(whole: frozenset, parts: list[frozenset], inside: list[frozenset]) -> None:
        runs = set()
        q = len(parts)
        for i in range(q):
            acc: set[int] = set()
            for j in range(i, q):
                acc |= set(parts[j])
                runs.add(frozenset(acc))
        for run in runs:
            if run != whole and run not in fam:
                raise ValueError("a circular run of parts is not a min-cut side")
        for s in inside:
            if s in runs:
                continue
            if not any(s < p for p in parts):
                raise ValueError("a min-cut side straddles cycle parts without being a run")

    def build(universe: frozenset, sides: list[frozenset]) -> int:
        nid = len(node_atoms)
        node_atoms.append(set())
        maximal = [s for s in sides if not any(s < t for t in sides)]
        covered: set[int] = set()
        for m in maximal:
            if covered & set(m):
                raise ValueError("maximal min-cut sides are not disjoint")
            covered |= set(m)
        node_atoms[nid] = set(universe) - covered
        for m in sorted(maximal, key=lambda s: sorted(s)):
            inside = [s for s in sides if s < m]
            has_split = any((m - p) in fam for p in inside)
            if not has_split:
                child = build(m, inside)
                cedges.append((nid, child))
                cedges.append((nid, child))
            else:
                parts = peel(m, inside)
                check_cycle(m, parts, inside)
                ring = [
                    build(p, [s for s in inside if s < p])
                    for p in parts
                ]
                prev = nid
                for node in ring:
                    cedges.append((prev, node))
                    prev = node
                cedges.append((prev, nid))
        return nid

    universe = frozenset(atom_of)
    build(universe, sorted(fam, key=lambda s: sorted(s)))

    placed: dict[int, int] = {}
    for nid, atoms in enumerate(node_atoms):
        for a in atoms:
            placed[a] = nid
    if set(placed) != set(universe):
        raise ValueError("atom placement did not cover every atom")
    phi = tuple(placed[atom_of[v]] for v in range(n))
    cac = CactusGraph(size=len(node_atoms), edges=tuple(cedges), phi=phi)
    if cac.size > 2 * n - 1:
        raise ValueError(f"cactus grew to {cac.size} nodes for n = {n}")
    cactus_check(cac)
    return cac


def cactus_unfold(c: CactusGraph) -> UnfoldedCycle:
    """Flatten a cactus onto a cycle of positions via a deterministic Euler tour.

    Every cactus node has even degree, so an Euler circuit exists; it starts
    at node 0 and always leaves along the unused edge with the smallest
    (neighbour, edge id).  Tour step i contributes position i.  Weight-zero
    links then chain the consecutive positions of each node so that any
    position of a node can stand in for the node itself.
    """
    if c.size == 1:
        return UnfoldedCycle(length=1, positions=((0,),), links=())
    cactus_check(c)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(c.size)]
    for idx, (u, v) in enumerate(c.edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    for lst in adj:
        lst.sort()
    cursor = [0] * c.size
    used = [False] * len(c.edges)
    stack = [0]
    circuit: list[int] = []
    while stack:
        x = stack[-1]
        while cursor[x] < len(adj[x]) and used[adj[x][cursor[x]][1]]:
            cursor[x] += 1
        if cursor[x] == len(adj[x]):
            circuit.append(stack.pop())
        else:
            y, idx = adj[x][cursor[x]]
            used[idx] = True
            stack.append(y)
    circuit.reverse()
    tour = circuit[:-1]
    if len(tour) != len(c.edges) or circuit[0] != circuit[-1]:
        raise ValueError("cactus has no closed Euler tour; validation should have caught this")
    where: list[list[int]] = [[] for _ in range(c.size)]
    for pos, node in enumerate(tour):
        where[node].append(pos)
    links = []
    for node in range(c.size):
        pts = where[node]
        for a, b in zip(pts, pts[1:]):
            links.append(WeightedEdge(a, b, 0, len(links)))
    return UnfoldedCycle(
        length=len(tour),
        positions=tuple(tuple(p) for p in where),
        links=tuple(links),
    )


def format_cactus(c: CactusGraph) -> str:
    lines = [f"cactus m={c.size} n={c.n_original}"]
    for u, v in c.edges:
        lines.append(f"C {u} {v}")
    for orig, node in enumerate(c.phi):
        lines.append(f"P {orig} {node}")
    return "\n".join(lines) + "\n"


def parse_cactus(text: str) -> CactusGraph:
    size = None
    orig = None
    edges: list[tuple[int, int]] = []
    phi_map: dict[int, int] = {}
    for line_no, raw, fields in records(text):
        if size is None:
            if fields[0] != "cactus":
                raise StreamFormatError(line_no, f"expected cactus header, got {fields[0]!r}")
            try:
                opts = dict(f.split("=", 1) for f in fields[1:])
                size = int(opts["m"])
                orig = int(opts["n"])
            except (ValueError, KeyError) as exc:
                raise StreamFormatError(line_no, f"bad cactus header: {raw!r}") from exc
            if size < 1 or orig < 1:
                raise StreamFormatError(line_no, "cactus sizes must be positive")
            continue
        if fields[0] == "C":
            if len(fields) != 3:
                raise StreamFormatError(line_no, "cactus edge needs two endpoints")
            u, v = int_fields(line_no, raw, fields[1:], "bad cactus edge")
            edges.append((u, v))
        elif fields[0] == "P":
            if len(fields) != 3:
                raise StreamFormatError(line_no, "phi entry needs two values")
            o, node = int_fields(line_no, raw, fields[1:], "bad phi entry")
            if o in phi_map:
                raise StreamFormatError(line_no, f"duplicate phi entry for vertex {o}")
            phi_map[o] = node
        else:
            raise StreamFormatError(line_no, f"unknown record tag {fields[0]!r}")
    if size is None:
        raise StreamFormatError(1, "missing cactus header")
    if sorted(phi_map) != list(range(orig)):
        raise StreamFormatError(1, f"phi entries must cover vertices 0..{orig - 1} exactly once")
    c = CactusGraph(size=size, edges=tuple(edges), phi=tuple(phi_map[v] for v in range(orig)))
    cactus_check(c)
    return c
