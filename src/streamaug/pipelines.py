"""End-to-end flows: stream in, solve, report.

Each pipeline consumes a stream (single-pass or replayable), keeps only
its sketch state, finalizes with an exact desk-scale solve, and returns a
PipelineReport.  An infeasible instance is an answer, not a crash: the
report comes back with feasible = False and whatever partial output
exists.  Violated preconditions (wrong base connectivity, malformed
input) raise instead.

``kcap_link_arrival`` and each later ``kecss`` pass share one step,
augment_over_cactus: unfold the min-cut cactus onto a cycle, map the links
onto it through phi, and run the weighted cycle store.  ``oracle_weight``
is always an exact optimum or null.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cactus import CactusGraph, UnfoldedCycle, cactus_build, cactus_unfold
from .certificate_stream import ForestStack
from .cycle_aug_stream import WeightedAugState, _dedup_links
from .errors import Infeasible
from .graph_core import (
    Arc,
    UnionFind,
    WeightedEdge,
    check_endpoints,
    cut_size_table,  # noqa: F401  (benchmark/spans.py wraps it here)
    edge_connectivity_at_least,
    is_connected,
)
from .oracles import (
    KCAP_MAX_LINKS,
    SNDP_MAX_EDGES,
    AugmentationInstance,
    exact_kcap,
    exact_sndp,
)
from .sndp_coreset import Requirements
from .spanner_stream import SpannerState
from .weightbands import as_fraction

_EVENT_KINDS = ("E", "L")


@dataclass(frozen=True)
class StreamEvent:
    """One stream record: a base edge (E) or a candidate link (L)."""

    kind: str
    edge: WeightedEdge

    def __post_init__(self):
        if self.kind not in _EVENT_KINDS:
            raise ValueError(f"unknown stream record kind {self.kind!r}")


class ReplayableStream:
    """Wraps a recorded stream and counts how often it is replayed."""

    def __init__(self, items):
        self._items = list(items)
        self.passes = 0

    def replay(self):
        self.passes += 1
        return iter(list(self._items))

    def items(self):
        return list(self._items)

    def __len__(self):
        return len(self._items)


@dataclass
class PipelineReport:
    output: list[WeightedEdge]
    total_weight: int
    peak_stored: dict[str, int]
    feasible: bool
    oracle_weight: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float | None:
        return ratio_of(self.total_weight, self.oracle_weight)


def ratio_of(total: int, oracle: int | None) -> float | None:
    if oracle is None:
        return None
    if oracle == 0:
        return 1.0 if total == 0 else None
    return total / oracle


def _kcap_optimum(n: int, k: int, base, links) -> int | None:
    """exact_kcap's weight, or None past KCAP_MAX_LINKS or when no link set will do."""
    if len(links) > KCAP_MAX_LINKS:
        return None
    try:
        return exact_kcap(AugmentationInstance(n=n, k=k, base=base, links=links))[1]
    except Infeasible:
        return None


class CactusAugmentation:
    """One run of the weighted cycle store over an unfolded cactus.

    ``picked`` holds the stream links the store chose, or is None when some
    folded cut has no covering link; ``reason`` then says which.
    ``cycle_links`` are the links that reached the store, at their cycle
    positions; the others lay inside one cactus node.
    """

    def __init__(self, unfolded: UnfoldedCycle, cycle_links, peak_stored: int):
        self.unfolded = unfolded
        self.cycle_links = cycle_links
        self.peak_stored = peak_stored
        self.picked: list[WeightedEdge] | None = None
        self.reason: str | None = None

    def cycle_cover_weight(self) -> int | None:
        """Weight of a minimum directed cover of the cycle by every link, or None.

        Each junction and cycle link is offered in both directions, and a
        link picked both ways counts once.  That is a feasible augmentation,
        not an optimum.
        """
        # resolved through streamaug.oracles at call time, where the tracer wraps it
        from .oracles import exact_directed_cycle_cover

        arcs = []
        for cl in self.unfolded.links + tuple(self.cycle_links):
            arcs.append(Arc(cl.u, cl.v, cl.w, cl))
            arcs.append(Arc(cl.v, cl.u, cl.w, cl))
        try:
            chosen, _ = exact_directed_cycle_cover(self.unfolded.length, arcs)
        except Infeasible:
            return None
        return sum(e.w for e in _dedup_links(chosen))


def augment_over_cactus(cactus: CactusGraph, links, epsilon) -> CactusAugmentation:
    """Cover the min cuts a cactus folds with links, through the weighted cycle store.

    The cactus is unfolded onto a cycle.  Its junction links go in first,
    numbered 0..J-1, then each link whose ends phi maps to two different
    cactus nodes, between the canonical positions of those nodes and
    numbered on from J.  A link inside one cactus node crosses no folded
    cut and is dropped.  The picked cycle links map back to the stream links
    they came from.
    """
    unf = cactus_unfold(cactus)
    state = WeightedAugState(unf.length, epsilon)
    for zl in unf.links:
        state.insert(zl)
    back: dict[int, WeightedEdge] = {}
    cycle_links: list[WeightedEdge] = []
    for link in links:
        cu, cv = cactus.phi[link.u], cactus.phi[link.v]
        if cu == cv:
            continue
        mapped = WeightedEdge(
            unf.position_of(cu), unf.position_of(cv), link.w, len(unf.links) + len(cycle_links)
        )
        back[mapped.arrival] = link
        cycle_links.append(mapped)
        state.insert(mapped)
    aug = CactusAugmentation(unf, cycle_links, state.peak_stored)
    try:
        chosen, _ = state.finalize()
    except Infeasible as exc:
        aug.reason = str(exc)
        return aug
    aug.picked = [back[cl.arrival] for cl in chosen if cl.arrival in back]
    return aug


def kcap_link_arrival(
    links,
    *,
    k: int | None = None,
    base_edges=None,
    n: int | None = None,
    cactus: CactusGraph | None = None,
    epsilon,
    with_oracle: bool = False,
) -> PipelineReport:
    """Augment a (k-1)-edge-connected base to k using streamed links.

    Either a base graph (with n and k; its min cut must be exactly k-1) or
    a prebuilt cactus of the relevant cuts is accepted.  ``oracle_weight``
    comes from exact_kcap in graph mode up to KCAP_MAX_LINKS links; past
    that, and in cactus mode, it is null and with_oracle reports the
    cycle-cover weight as ``details["cycle_cover_weight"]``.
    """
    links = list(links)
    if cactus is None:
        if base_edges is None or n is None or k is None:
            raise ValueError("graph mode needs base_edges, n and k")
        base_edges = list(base_edges)
        if not is_connected(base_edges, n):
            raise ValueError("base graph must be connected")
        exact = edge_connectivity_at_least(base_edges, n, k - 1) and not (
            edge_connectivity_at_least(base_edges, n, k)
        )
        if not exact:
            raise ValueError(f"augmentation to {k} needs a base min cut of exactly {k - 1}")
        cactus = cactus_build(base_edges, n)
    check_endpoints(links, cactus.n_original)
    aug = augment_over_cactus(cactus, links, epsilon)
    peaks = {"aug_store": aug.peak_stored}
    details = {
        "cycle_length": aug.unfolded.length,
        "dropped_links": len(links) - len(aug.cycle_links),
        "junction_links": len(aug.unfolded.links),
    }
    if aug.picked is None:
        details["reason"] = aug.reason
        return PipelineReport([], 0, peaks, False, details=details)
    total = sum(e.w for e in aug.picked)
    details["cycle_weight"] = total
    oracle_weight = None
    if with_oracle:
        if base_edges is not None and len(links) <= KCAP_MAX_LINKS:
            oracle_weight = _kcap_optimum(n, k, base_edges, links)
        else:
            details["cycle_cover_weight"] = aug.cycle_cover_weight()
    return PipelineReport(
        output=aug.picked,
        total_weight=total,
        peak_stored=peaks,
        feasible=True,
        oracle_weight=oracle_weight,
        details=details,
    )


def kcap_fully_streaming(
    events,
    n: int,
    k: int,
    *,
    t: int,
    epsilon,
    with_oracle: bool = False,
) -> PipelineReport:
    """One pass over mixed base edges and links, then an exact finalize.

    Base edges feed a k-forest certificate, links feed a spanner whose
    stretch parameter is tightened to eps/(2t-1); the finalizer solves the
    augmentation exactly on certificate + stored links.  A base that is not
    (k-1)-edge-connected raises ValueError.
    """
    cert = ForestStack(n, k)
    spanner = SpannerState(n, t, as_fraction(epsilon) / (2 * t - 1))
    base_all: list[WeightedEdge] = []
    links_all: list[WeightedEdge] = []
    for ev in events:
        if ev.kind == "E":
            base_all.append(ev.edge)
            cert.insert(ev.edge)
        else:
            links_all.append(ev.edge)
            spanner.insert(ev.edge)
    peaks = {"certificate": len(cert), "spanner": spanner.peak_stored}
    details = {"kept_links": spanner.stored_count}
    try:
        instance = AugmentationInstance(
            n=n, k=k, base=cert.edges(), links=spanner.edges()
        )
        chosen, weight = exact_kcap(instance)
    except Infeasible as exc:
        details["reason"] = str(exc)
        return PipelineReport([], 0, peaks, False, details=details)
    oracle_weight = _kcap_optimum(n, k, base_all, links_all) if with_oracle else None
    return PipelineReport(
        output=chosen,
        total_weight=weight,
        peak_stored=peaks,
        feasible=True,
        oracle_weight=oracle_weight,
        details=details,
    )


def stap_fully_streaming(
    events,
    n: int,
    terminals,
    *,
    t: int,
    epsilon,
    with_oracle: bool = False,
) -> PipelineReport:
    """Augment a base tree so every terminal pair gets two disjoint paths.

    Base edges must arrive acyclically (they form a tree or forest); links
    are sketched by a spanner.  Finalize solves a two-connectivity design
    over free copies of the base plus stored links.
    """
    terminals = sorted(set(terminals))
    if len(terminals) < 2:
        raise ValueError("need at least two terminals")
    for r in terminals:
        if not (0 <= r < n):
            raise ValueError(f"terminal {r} out of range")
    base_uf = UnionFind(n)
    base_edges: list[WeightedEdge] = []
    links_all: list[WeightedEdge] = []
    spanner = SpannerState(n, t, as_fraction(epsilon) / (2 * t - 1))
    for ev in events:
        if ev.kind == "E":
            if not base_uf.union(ev.edge.u, ev.edge.v):
                raise ValueError(f"base edge closes a cycle: {ev.edge}")
            base_edges.append(ev.edge)
        else:
            links_all.append(ev.edge)
            spanner.insert(ev.edge)
    root = terminals[0]
    if any(not base_uf.same(root, r) for r in terminals[1:]):
        raise ValueError("base edges do not span the terminals")
    reqs = Requirements(
        {(a, b): 2 for i, a in enumerate(terminals) for b in terminals[i + 1 :]},
        n,
    )
    peaks = {"spanner": spanner.peak_stored}

    def design(link_pool):
        # free base copies take arrivals 0..B-1 and the links B.., in order
        b = len(base_edges)
        combined = [WeightedEdge(e.u, e.v, 0, i) for i, e in enumerate(base_edges)]
        combined += [WeightedEdge(e.u, e.v, e.w, b + j) for j, e in enumerate(link_pool)]
        chosen, weight = exact_sndp(n, combined, reqs)
        return [link_pool[c.arrival - b] for c in chosen if c.arrival >= b], weight

    details = {"kept_links": spanner.stored_count, "terminals": terminals}
    try:
        picked, weight = design(spanner.edges())
    except Infeasible as exc:
        details["reason"] = str(exc)
        return PipelineReport([], 0, peaks, False, details=details)
    oracle_weight = None
    if with_oracle and len(base_edges) + len(links_all) <= SNDP_MAX_EDGES:
        try:
            _, oracle_weight = design(links_all)
        except Infeasible:
            oracle_weight = None
    return PipelineReport(
        output=picked,
        total_weight=weight,
        peak_stored=peaks,
        feasible=True,
        oracle_weight=oracle_weight,
        details=details,
    )


def _forest_path(forest: list[WeightedEdge], n: int, s: int, g: int):
    """Edges of the s-g path in the forest, or None."""
    adj: dict[int, list[tuple[int, WeightedEdge]]] = {}
    for e in forest:
        adj.setdefault(e.u, []).append((e.v, e))
        adj.setdefault(e.v, []).append((e.u, e))
    via: dict[int, tuple[int, WeightedEdge] | None] = {s: None}
    queue = [s]
    while queue:
        x = queue.pop()
        if x == g:
            break
        for y, e in adj.get(x, ()):
            if y not in via:
                via[y] = (x, e)
                queue.append(y)
    if g not in via:
        return None
    path = []
    x = g
    while via[x] is not None:
        prev, e = via[x]
        path.append(e)
        x = prev
    return path


def kecss(
    stream,
    n: int,
    k: int,
    *,
    epsilon,
    with_oracle: bool = False,
) -> PipelineReport:
    """k-pass cheap k-edge-connected subgraph via repeated augmentation.

    Pass 1 streams a minimum spanning forest by the cycle rule.  Pass l
    rebuilds the cactus of the current (l-1)-connected subgraph, unfolds
    it, and runs the weighted cycle store over all not-yet-chosen edges.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not isinstance(stream, ReplayableStream):
        stream = ReplayableStream(stream)
    forest: list[WeightedEdge] = []
    for e in stream.replay():
        path = _forest_path(forest, n, e.u, e.v)
        if path is None:
            forest.append(e)
            continue
        worst = max(path, key=lambda x: (x.w, x.arrival))
        if worst.w > e.w:
            forest.remove(worst)
            forest.append(e)
    chosen: list[WeightedEdge] = list(forest)
    chosen_arrivals = {e.arrival for e in chosen}
    peaks = {"pass_1": len(forest)}
    details: dict = {"pass_oracles": {}, "pass_weights": {}}
    details["pass_weights"]["pass_1"] = sum(e.w for e in forest)
    if with_oracle:
        details["pass_oracles"]["pass_1"] = _msf_weight(stream.items(), n)
    if not is_connected(forest, n):
        details["reason"] = "stream does not connect the graph"
        return PipelineReport(chosen, sum(e.w for e in chosen), peaks, False, details=details)
    for level in range(2, k + 1):
        if edge_connectivity_at_least(chosen, n, level):
            peaks[f"pass_{level}"] = 0
            details["pass_weights"][f"pass_{level}"] = 0
            stream.replay()
            continue
        base = list(chosen)
        cac = cactus_build(base, n)
        remaining = [e for e in stream.replay() if e.arrival not in chosen_arrivals]
        aug = augment_over_cactus(cac, remaining, epsilon)
        peaks[f"pass_{level}"] = aug.peak_stored
        if aug.picked is None:
            details["reason"] = f"pass {level}: {aug.reason}"
            return PipelineReport(
                chosen, sum(e.w for e in chosen), peaks, False, details=details
            )
        details["pass_weights"][f"pass_{level}"] = sum(e.w for e in aug.picked)
        ow = _kcap_optimum(n, level, base, remaining) if with_oracle else None
        if ow is not None:
            details["pass_oracles"][f"pass_{level}"] = ow
        chosen.extend(aug.picked)
        chosen_arrivals.update(e.arrival for e in aug.picked)
    feasible = edge_connectivity_at_least(chosen, n, k)
    return PipelineReport(
        output=chosen,
        total_weight=sum(e.w for e in chosen),
        peak_stored=peaks,
        feasible=feasible,
        details=details,
    )


def _msf_weight(edges, n: int) -> int:
    uf = UnionFind(n)
    total = 0
    for e in sorted(edges, key=lambda x: (x.w, x.arrival)):
        if uf.union(e.u, e.v):
            total += e.w
    return total
