"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each layer's public entry points with a wrapper
under the name the caller looks them up by (module globals for imported
functions, the class for methods), so no file under ``src/`` changes.  A
span is opened around every wrapped call and carries its job id and its
parent span.  A span's self time is its duration minus the time its child
spans cover, so the self times of all spans add up to the root spans:
``cli.main``, one per job.

``GeometricBands.index`` gets no span: it is memoised and called inside
every insert, so a wrapper would cost more than the call.  Its time is part
of the self time of the spanner and cycle-store inserts.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass

# (layer, span name, module path, attribute path).  One module may hold
# several names for the same function; each caller's lookup is wrapped once.
SPAN_POINTS = [
    ("cli", "main", "streamaug.cli", "main"),
    ("cli", "parse", "streamaug.cli", "parse_stream"),
    ("pipelines", "kcap_link", "streamaug.cli", "kcap_link_arrival"),
    ("pipelines", "kcap_full", "streamaug.cli", "kcap_fully_streaming"),
    ("pipelines", "stap", "streamaug.cli", "stap_fully_streaming"),
    ("pipelines", "kecss", "streamaug.cli", "kecss"),
    ("spanner_stream", "insert", "streamaug.spanner_stream", "SpannerState.insert"),
    ("certificate_stream", "insert", "streamaug.certificate_stream", "ForestStack.insert"),
    ("cycle_aug_stream", "insert", "streamaug.cycle_aug_stream", "WeightedAugState.insert"),
    ("cycle_aug_stream", "finalize", "streamaug.cycle_aug_stream", "WeightedAugState.finalize"),
    ("graph_core", "three_ecc", "streamaug.cycle_aug_stream", "three_edge_components"),
    ("graph_core", "cut_table", "streamaug.graph_core", "cut_size_table"),
    ("graph_core", "cut_table", "streamaug.cactus", "cut_size_table"),
    ("graph_core", "cut_table", "streamaug.oracles", "cut_size_table"),
    ("graph_core", "cut_table", "streamaug.pipelines", "cut_size_table"),
    ("graph_core", "edge_conn", "streamaug.cactus", "edge_connectivity_at_least"),
    ("graph_core", "edge_conn", "streamaug.oracles", "edge_connectivity_at_least"),
    ("graph_core", "edge_conn", "streamaug.pipelines", "edge_connectivity_at_least"),
    ("cactus", "build", "streamaug.pipelines", "cactus_build"),
    ("cactus", "unfold", "streamaug.pipelines", "cactus_unfold"),
    ("sndp_coreset", "cascade_insert", "streamaug.sndp_coreset", "Cascade.insert"),
    ("sndp_coreset", "solve", "streamaug.cli", "solve_sndp"),
    ("oracles", "sndp", "streamaug.cli", "exact_sndp"),
    ("oracles", "sndp", "streamaug.pipelines", "exact_sndp"),
    ("oracles", "kcap", "streamaug.cli", "exact_kcap"),
    ("oracles", "kcap", "streamaug.pipelines", "exact_kcap"),
    ("oracles", "cycle_cover", "streamaug.cycle_aug_stream", "exact_directed_cycle_cover"),
    # pipelines imports this one inside a function, from the module itself.
    ("oracles", "cycle_cover", "streamaug.oracles", "exact_directed_cycle_cover"),
]

LAYERS = [
    "cli",
    "pipelines",
    "spanner_stream",
    "certificate_stream",
    "cycle_aug_stream",
    "graph_core",
    "cactus",
    "sndp_coreset",
    "oracles",
]

# graph_core.three_edge_components switches from the cut-table route to the
# pairwise-flow route above this vertex count.
THREE_ECC_TABLE_MAX_N = 18


@dataclass
class Span:
    job: str
    layer: str
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    n: int | None = None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans around every point of SPAN_POINTS while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # Per-job instances of stores whose end state feeds the metrics.
        self.spanners: dict[str, list] = defaultdict(list)
        self.cycle_stores: dict[str, list] = defaultdict(list)
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def install(self, modules: dict) -> None:
        for layer, name, module, attr in SPAN_POINTS:
            owner = modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(layer, name, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.spanners.clear()
        self.cycle_stores.clear()
        self.counts.clear()

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        key = f"{layer}.{name}"

        def traced(*args, **kwargs):
            span = Span(tracer.job, layer, name, tracer._stack[-1] if tracer._stack else None, 0.0)
            if key == "graph_core.three_ecc":
                span.n = args[1]
            idx = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if span.parent is not None:
                    tracer.spans[span.parent].child_s += span.duration
            tracer._observe(key, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, key: str, args, result) -> None:
        counts = self.counts[self.job]
        if key == "cli.parse":
            counts["records"] += len(result.events)
        elif key == "spanner_stream.insert":
            state = args[0]
            if not any(s is state for s in self.spanners[self.job]):
                self.spanners[self.job].append(state)
            accepted, evictions = result
            if accepted:
                counts["spanner_accepted"] += 1
                counts["spanner_evicted"] += len(evictions)
        elif key == "certificate_stream.insert":
            counts["certificate_kept"] += bool(result)
        elif key == "cycle_aug_stream.insert":
            state = args[0]
            if not any(s is state for s in self.cycle_stores[self.job]):
                self.cycle_stores[self.job].append(state)
        elif key == "cactus.unfold":
            counts["cycle_length"] = max(counts["cycle_length"], result.length)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "job": s.job, "span": f"{s.layer}.{s.name}", "parent": s.parent,
                    "start": s.start, "end": s.end, "self_s": s.self_s, "error": s.error,
                }) + "\n")

    def metrics(self, jobs: list[str] | None = None) -> dict[str, float]:
        """Per-layer metrics over the given jobs (all jobs when None)."""
        pick = None if jobs is None else set(jobs)
        spans = [s for s in self.spans if pick is None or s.job in pick]
        job_ids = sorted({s.job for s in spans} if pick is None else pick)

        def total(layer, name=None, attr="duration", where=lambda s: True):
            return sum(
                getattr(s, attr)
                for s in spans
                if s.layer == layer and (name is None or s.name == name) and where(s)
            )

        def calls(layer, name, where=lambda s: True):
            return sum(1 for s in spans if s.layer == layer and s.name == name and where(s))

        def count(key):
            return sum(self.counts[j][key] for j in job_ids)

        def per(a, b):
            return a / b if b else 0.0

        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = total(layer, attr="self_s")
        m["cli.parse_s"] = total("cli", "parse")
        m["cli.records"] = count("records")
        m["pipelines.calls"] = sum(calls("pipelines", n) for n in ("kcap_link", "kcap_full", "stap", "kecss"))

        spanners = [s for j in job_ids for s in self.spanners[j]]
        m["spanner_stream.insert_s"] = total("spanner_stream", "insert")
        m["spanner_stream.inserts"] = calls("spanner_stream", "insert")
        m["spanner_stream.inserts_per_s"] = per(m["spanner_stream.inserts"], m["spanner_stream.insert_s"])
        m["spanner_stream.accepted"] = count("spanner_accepted")
        m["spanner_stream.evicted"] = count("spanner_evicted")
        m["spanner_stream.keep_ratio"] = per(
            sum(s.stored_count for s in spanners), m["spanner_stream.accepted"]
        )
        m["spanner_stream.peak_stored"] = sum(s.peak_stored for s in spanners)

        m["certificate_stream.insert_s"] = total("certificate_stream", "insert")
        m["certificate_stream.inserts"] = calls("certificate_stream", "insert")
        m["certificate_stream.kept"] = count("certificate_kept")

        stores = [s for j in job_ids for s in self.cycle_stores[j]]
        m["cycle_aug_stream.insert_s"] = total("cycle_aug_stream", "insert", attr="self_s")
        m["cycle_aug_stream.inserts"] = calls("cycle_aug_stream", "insert")
        m["cycle_aug_stream.inserts_per_s"] = per(
            m["cycle_aug_stream.inserts"], total("cycle_aug_stream", "insert")
        )
        m["cycle_aug_stream.finalize_s"] = total("cycle_aug_stream", "finalize", attr="self_s")
        m["cycle_aug_stream.peak_stored"] = sum(s.peak_stored for s in stores)

        def small(s):
            return s.n <= THREE_ECC_TABLE_MAX_N

        def large(s):
            return s.n > THREE_ECC_TABLE_MAX_N

        m["graph_core.three_ecc_s"] = total("graph_core", "three_ecc")
        m["graph_core.three_ecc_calls"] = calls("graph_core", "three_ecc")
        m["graph_core.three_ecc_small_s"] = total("graph_core", "three_ecc", where=small)
        m["graph_core.three_ecc_small_calls"] = calls("graph_core", "three_ecc", small)
        m["graph_core.three_ecc_large_s"] = total("graph_core", "three_ecc", where=large)
        m["graph_core.three_ecc_large_calls"] = calls("graph_core", "three_ecc", large)
        m["graph_core.three_ecc_per_insert"] = per(
            m["graph_core.three_ecc_calls"], m["cycle_aug_stream.inserts"]
        )
        m["graph_core.cut_table_s"] = total("graph_core", "cut_table")
        m["graph_core.cut_table_calls"] = calls("graph_core", "cut_table")
        m["graph_core.edge_conn_s"] = total("graph_core", "edge_conn")
        m["graph_core.edge_conn_calls"] = calls("graph_core", "edge_conn")

        m["cactus.build_s"] = total("cactus", "build")
        m["cactus.build_calls"] = calls("cactus", "build")
        m["cactus.unfold_s"] = total("cactus", "unfold")
        m["cactus.cycle_length"] = max((self.counts[j]["cycle_length"] for j in job_ids), default=0)

        m["sndp_coreset.cascade_insert_s"] = total("sndp_coreset", "cascade_insert", attr="self_s")
        m["sndp_coreset.cascade_inserts"] = calls("sndp_coreset", "cascade_insert")
        m["sndp_coreset.solve_s"] = total("sndp_coreset", "solve")
        m["sndp_coreset.solve_calls"] = calls("sndp_coreset", "solve")

        for name in ("sndp", "kcap", "cycle_cover"):
            m[f"oracles.{name}_s"] = total("oracles", name)
            m[f"oracles.{name}_calls"] = calls("oracles", name)
        oracle_spans = [s for s in spans if s.layer == "oracles"]
        m["oracles.guard_refusals"] = sum(s.error == "SizeGuardError" for s in oracle_spans)
        m["oracles.infeasible"] = sum(s.error == "Infeasible" for s in oracle_spans)
        return m
