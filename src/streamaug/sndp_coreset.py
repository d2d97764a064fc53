"""Eviction cascade coreset and reverse-phase solver for network design.

A cascade of k independent spanner stores turns one pass over an edge
stream into k nested layers: every arriving edge enters layer 1, and
whatever a layer evicts (including edges it refuses outright) is fed to
the next layer in arrival order.  Layer i therefore holds a spanner of
"what the first i-1 layers threw away", and the union of the first i
layers approximates distances among all edges rejected earlier, which is
exactly what phase i of the reverse augmentation scheme shops from.

The reverse-phase solver keeps side demands and the chosen edges' crossings
as levels of side bitsets (``graph_core``).  Each phase's set cover gets the
side bitsets ``cross(e) & targets``, ``targets`` being the sides one
crossing short; the cover search only ORs these and compares them with
``targets``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Infeasible, SizeGuardError, StreamFormatError, int_fields, records
from .graph_core import WeightedEdge, add_crossing, check_endpoints, side_bits
from .oracles import SNDP_MAX_N, _cover_branch_and_bound, _demand_levels, _requirement_pairs
from .spanner_stream import SpannerState, layer_epsilon


class Requirements:
    """Symmetric pairwise connectivity demands between terminals."""

    def __init__(self, pairs, n: int):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self.n = n
        canon: dict[tuple[int, int], int] = {}
        for (s, t), r in dict(pairs).items():
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"requirement endpoint out of range: ({s}, {t})")
            if s == t:
                raise ValueError(f"requirement on a single vertex: ({s}, {t})")
            if not isinstance(r, int) or r < 0:
                raise ValueError(f"requirement must be a non-negative integer, got {r!r}")
            key = (min(s, t), max(s, t))
            if key in canon and canon[key] != r:
                raise ValueError(f"conflicting requirements for pair {key}")
            canon[key] = r
        self._pairs = canon

    @classmethod
    def parse(cls, text: str, n: int) -> "Requirements":
        """Read 'R s t r' lines; blank lines and # comments are skipped."""
        pairs: dict[tuple[int, int], int] = {}
        for line_no, raw, fields in records(text):
            if fields[0] != "R" or len(fields) != 4:
                raise StreamFormatError(line_no, f"expected 'R s t r', got {raw!r}")
            s, t, r = int_fields(line_no, raw, fields[1:], "bad requirement values")
            key = (min(s, t), max(s, t))
            if key in pairs:
                raise StreamFormatError(line_no, f"duplicate requirement for pair {key}")
            pairs[key] = r
        return cls(pairs, n)

    @property
    def max_requirement(self) -> int:
        return max(self._pairs.values(), default=0)

    def value(self, s: int, t: int) -> int:
        return self._pairs.get((min(s, t), max(s, t)), 0)

    def items(self):
        return sorted(self._pairs.items())

    def cut_demand(self, members) -> int:
        """Largest requirement separated by the side ``members``."""
        inside = set(members)
        demand = 0
        for (s, t), r in self._pairs.items():
            if ((s in inside) != (t in inside)) and r > demand:
                demand = r
        return demand

    def __len__(self):
        return len(self._pairs)


class Cascade:
    """k chained spanner stores; evictions from one feed the next.

    Each layer's stretch parameter is tightened by ``layer_epsilon``.
    """

    def __init__(self, n: int, k: int, t: int, epsilon):
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        inner = layer_epsilon(epsilon, t)
        self.n = n
        self.k = k
        self.t = t
        self.epsilon = epsilon
        self._layers = [SpannerState(n, t, inner) for _ in range(k)]

    def insert(self, e: WeightedEdge) -> None:
        batch = [e]
        for layer in self._layers:
            if not batch:
                return
            passed_down: list[WeightedEdge] = []
            for edge in sorted(batch, key=lambda x: x.arrival):
                _, evicted = layer.insert(edge)
                passed_down.extend(evicted)
            batch = passed_down
        # whatever the last layer rejects is gone for good

    def layer_edges(self, i: int) -> list[WeightedEdge]:
        """Stored edges of layer i (1-based), in arrival order."""
        return self._layers[i - 1].edges()

    def layer_state(self, i: int) -> SpannerState:
        return self._layers[i - 1]

    def layers(self) -> list[list[WeightedEdge]]:
        return [st.edges() for st in self._layers]

    @property
    def stored_count(self) -> int:
        return sum(st.stored_count for st in self._layers)

    @property
    def peak_stored(self) -> int:
        return sum(st.peak_stored for st in self._layers)


@dataclass(frozen=True)
class SndpSolution:
    edges: tuple[WeightedEdge, ...]
    weight: int
    phases: tuple[tuple[WeightedEdge, ...], ...]


def solve_sndp(coreset, requirements: Requirements) -> SndpSolution:
    """Reverse augmentation over cascade layers.

    Phase i must raise every cut U to max(0, f(U) - (k - i)) crossings.
    Since the previous phase already reached one less, each phase faces
    deficits of at most one and reduces to a plain set cover, solved over
    the layers unlocked so far minus everything already chosen.  An edge
    with an end outside 0..n-1 or a negative weight is a ValueError.
    """
    layers = coreset.layers() if hasattr(coreset, "layers") else [list(l) for l in coreset]
    n = requirements.n
    if n > SNDP_MAX_N:
        raise SizeGuardError(f"reverse augmentation handles at most n = {SNDP_MAX_N}, got {n}")
    k = len(layers)
    if requirements.max_requirement > k:
        raise ValueError(
            f"largest requirement {requirements.max_requirement} exceeds the "
            f"{k}-layer coreset"
        )
    for layer in layers:
        check_endpoints(layer, n)
        for e in layer:
            if e.w < 0:
                raise ValueError(f"negative edge weight: {e}")
    bits = side_bits(n)
    need = _demand_levels(bits, _requirement_pairs(requirements), k)
    # cross[j]: the sides the chosen edges cross at least j times
    cross = [-1] + [0] * k
    chosen: list[WeightedEdge] = []
    chosen_arrivals: set[int] = set()
    phases: list[tuple[WeightedEdge, ...]] = []
    pool: list[WeightedEdge] = []
    for phase in range(1, k + 1):
        pool.extend(layers[phase - 1])
        # sides needing shift + j crossings with fewer than j are short of the
        # phase demand; with fewer than j - 1 they are short by two or more
        shift = k - phase
        if any(need[shift + j - 1] & ~cross[j - 1] for j in range(2, phase + 1)):
            raise RuntimeError("phase deficit exceeded 1; augmentation invariant broken")
        targets = 0
        for j in range(1, phase + 1):
            targets |= need[shift + j - 1] & ~cross[j]
        if not targets:
            phases.append(())
            continue
        avail = [e for e in pool if e.arrival not in chosen_arrivals]
        masks = [(bits[e.u] ^ bits[e.v]) & targets for e in avail]
        hit = _cover_branch_and_bound(masks, [e.w for e in avail], targets)
        if hit is None:
            raise Infeasible(f"phase {phase} cannot cover all deficient cuts")
        _, picked = hit
        grabbed = tuple(avail[i] for i in picked)
        phases.append(grabbed)
        for e in grabbed:
            chosen.append(e)
            chosen_arrivals.add(e.arrival)
            add_crossing(cross, bits[e.u] ^ bits[e.v])
    return SndpSolution(
        edges=tuple(chosen),
        weight=sum(e.w for e in chosen),
        phases=tuple(phases),
    )
