"""Output checks that never call ``streamaug``.

Connectivity is decided with networkx max-flow on a capacity graph, stretch
with this module's own integer Dijkstra, and every weight comparison uses
exact integers or ``Fraction``.  ``check_job`` returns the list of problems
found (empty when the output is correct) and the job's approximation ratios:
the stretch d_kept / d_input of every input edge of a spanner job, output
weight over an exact optimum for the other jobs, where the report carries one.

Known traps in the program's outputs, handled here:

* kcap-link's ``oracle_weight`` is an optimum only up to 22 links.  Above
  that it comes from a de-duplicated minimum directed cycle cover, which is
  a feasible answer, not an optimum: the stream's answer can be below it.
  Such a value is never used as a ratio reference.
* ``--output`` writes ``L u v w`` without arrival numbers, so outputs are
  matched against inputs as multisets of ``(min(u, v), max(u, v), w)``.
* ``wall_time_s`` differs between runs, so it is stripped before reports
  are hashed (see ``job_digest``).
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections import Counter
from fractions import Fraction

import networkx as nx

from workloads import (
    DESIGN_MAX_EDGES,
    DESIGN_MAX_N,
    KCAP_MAX_LINKS,
    STRETCH_DEN,
    STRETCH_NUM,
    Job,
)

def _key(u: int, v: int, w: int) -> tuple[int, int, int]:
    return (min(u, v), max(u, v), w)


def multiset(edges) -> Counter:
    return Counter(_key(u, v, w) for u, v, w in edges)


def parse_output(text: str) -> list[tuple[int, int, int]]:
    """Edges of an ``--output`` file: a header line, then ``L u v w`` lines."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0][0] != "header":
        raise ValueError("output file lacks its header line")
    edges = []
    for fields in lines[1:]:
        if len(fields) != 4 or fields[0] != "L":
            raise ValueError(f"bad output record {' '.join(fields)!r}")
        edges.append((int(fields[1]), int(fields[2]), int(fields[3])))
    return edges


def job_digest(report_text: str, output_text: str) -> str:
    """Hash of one job's report, without ``wall_time_s``, and its output file."""
    report = json.loads(report_text)
    report.pop("wall_time_s", None)
    h = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    h.update(b"\0" + output_text.encode())
    return h.hexdigest()


# -- independent graph oracles -------------------------------------------------


def _capacity_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u, v, *_ in edges:
        if u == v:
            continue
        if g.has_edge(u, v):
            g[u][v]["capacity"] += 1
        else:
            g.add_edge(u, v, capacity=1)
    return g


def pair_connectivity(g: nx.Graph, s: int, t: int) -> int:
    """Number of edge-disjoint s-t paths in the multigraph behind g."""
    return int(nx.maximum_flow_value(g, s, t))


def is_k_edge_connected(n: int, edges, k: int) -> bool:
    if n <= 1 or k <= 0:
        return True
    g = _capacity_graph(n, edges)
    return all(pair_connectivity(g, 0, t) >= k for t in range(1, n))


def meets_requirements(n: int, edges, requirements) -> bool:
    g = _capacity_graph(n, edges)
    return all(pair_connectivity(g, s, t) >= r for s, t, r in requirements)


def stap_requirements(terminals) -> list[tuple[int, int, int]]:
    return [(a, b, 2) for i, a in enumerate(terminals) for b in terminals[i + 1 :]]


def dijkstra(n: int, edges, src: int) -> list[int | None]:
    """Exact integer shortest-path distances; None where unreachable."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist: list[int | None] = [None] * n
    dist[src] = 0
    heap = [(0, src)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        for y, w in adj[x]:
            nd = d + w
            if dist[y] is None or nd < dist[y]:
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return dist


def spanner_stretch(n: int, inputs, kept) -> tuple[list[str], list[Fraction]]:
    """Violations of ``2 * d_kept <= 9 * w``, and the stretch of every input edge.

    The stretch of edge (u, v) is d_kept(u, v) / d_input(u, v): kept distance
    over the exact distance in the whole input.
    """
    by_source: dict[int, list[tuple[int, int]]] = {}
    for u, v, w in inputs:
        by_source.setdefault(u, []).append((v, w))
    problems = []
    ratios = []
    for s, targets in by_source.items():
        dist = dijkstra(n, kept, s)
        exact = dijkstra(n, inputs, s)
        for v, w in targets:
            d = dist[v]
            if d is None or STRETCH_DEN * d > STRETCH_NUM * w:
                problems.append(f"edge ({s}, {v}, {w}) stretched to {d}")
            elif exact[v] > 0:
                ratios.append(Fraction(d, exact[v]))
    return problems[:5], ratios


# -- per-job checks -------------------------------------------------------------


def full_input_feasible(job: Job) -> bool:
    """Whether the whole input can meet the job's demand."""
    if job.kind == "spanner":
        return True
    if job.kind in ("kcap", "kecss"):
        return is_k_edge_connected(job.n, job.all_edges(), job.k_target)
    if job.kind == "stap":
        return meets_requirements(job.n, job.all_edges(), stap_requirements(job.terminals))
    return meets_requirements(job.n, job.all_edges(), job.requirements)


def _allowed_outputs(job: Job) -> list[tuple[int, int, int]]:
    if job.kind in ("kcap", "stap"):
        return job.links()
    return job.all_edges()


def _exact_reference(job: Job, report: dict) -> list[tuple[int, int]]:
    """(output weight, exact optimum) pairs the report supports."""
    if job.command == "kecss":
        weights = report["details"].get("pass_weights", {})
        oracles = report["details"].get("pass_oracles", {})
        return [(weights[p], o) for p, o in sorted(oracles.items()) if o is not None]
    if "--with-oracle" not in job.options or report["oracle_weight"] is None:
        return []
    if job.command == "kcap-link" and len(job.links()) > KCAP_MAX_LINKS:
        # Trap: above the exact cover's guard this is a cycle-cover weight, not an optimum.
        return []
    return [(report["output_weight"], report["oracle_weight"])]


def check_job(job: Job, rc, report_text: str | None, output_text: str | None):
    """Problems with one job's exit code and outputs, and its exact ratios."""
    if not isinstance(rc, int):
        return [f"raised instead of exiting: {rc}"], []
    if rc == 2:
        if full_input_feasible(job):
            return ["exit 2 (infeasible) on a feasible instance"], []
        return [], []
    if rc != 0:
        return [f"exit {rc}; generated inputs respect every guard and precondition"], []
    if report_text is None or output_text is None:
        return ["report or output file missing"], []
    report = json.loads(report_text)
    try:
        out = parse_output(output_text)
    except ValueError as exc:
        return [str(exc)], []
    problems = []
    if report["command"] != job.command or report["n"] != job.n:
        problems.append("report names another command or vertex count")
    if report["feasible"] is not True:
        problems.append("exit 0 with feasible != true")
    if report["output_size"] != len(out):
        problems.append(f"output_size {report['output_size']} but {len(out)} output edges")
    if report["output_weight"] != sum(w for _, _, w in out):
        problems.append("output_weight differs from the weight of the output edges")
    if multiset(out) - multiset(_allowed_outputs(job)):
        problems.append("output holds edges that are not in the input pool")
    if problems:
        return problems, []

    ratios: list[Fraction] = []
    if job.kind == "spanner":
        bad, ratios = spanner_stretch(job.n, job.all_edges(), out)
        problems += bad
    elif job.kind == "kcap":
        if not is_k_edge_connected(job.n, job.base() + out, job.k_target):
            problems.append(f"base plus chosen links is not {job.k_target}-edge-connected")
    elif job.kind == "kecss":
        if not is_k_edge_connected(job.n, out, job.k_target):
            problems.append(f"chosen edges are not {job.k_target}-edge-connected")
    elif job.kind == "stap":
        if not meets_requirements(job.n, job.base() + out, stap_requirements(job.terminals)):
            problems.append("some terminal pair lacks two edge-disjoint paths")
    elif not meets_requirements(job.n, out, job.requirements):
        problems.append("some demanded pair lacks its edge-disjoint paths")
    if job.command == "oracle" and report["output_weight"] != report["oracle_weight"]:
        problems.append("oracle output_weight differs from oracle_weight")
    for weight, optimum in _exact_reference(job, report):
        if optimum == 0:
            if weight != 0:
                problems.append(f"weight {weight} against an exact optimum of 0")
            continue
        ratio = Fraction(weight, optimum)
        if ratio < 1:
            problems.append(f"weight {weight} beats the exact optimum {optimum}")
        ratios.append(ratio)
    return problems, ratios


def verify_preconditions(job: Job) -> list[str]:
    """Generator guarantees, checked without trusting the generator."""
    problems = []
    if job.kind == "kcap":
        k = job.k_target
        base = job.base()
        if not is_k_edge_connected(job.n, base, k - 1) or is_k_edge_connected(job.n, base, k):
            problems.append(f"base min cut is not exactly {k - 1}")
        exact = job.command != "kcap-link" or "--with-oracle" in job.options
        if exact and len(job.links()) > KCAP_MAX_LINKS:
            problems.append(f"more than {KCAP_MAX_LINKS} links")
    if job.kind == "stap":
        parent = list(range(job.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, _ in job.base():
            ru, rv = find(u), find(v)
            if ru == rv:
                problems.append("base edges close a cycle")
                break
            parent[ru] = rv
        if len({find(r) for r in job.terminals}) != 1:
            problems.append("base edges do not span the terminals")
    if job.kind in ("stap", "design"):
        if job.n > DESIGN_MAX_N or len(job.all_edges()) > DESIGN_MAX_EDGES:
            problems.append(f"design instance beyond n <= {DESIGN_MAX_N}, {DESIGN_MAX_EDGES} edges")
    if not full_input_feasible(job):
        problems.append("the full input cannot meet the demand")
    return problems
