"""Seeded job generators for the three benchmark workloads.

Every generator draws from its own ``random.Random`` so the same seed always
writes the same files.  Inputs respect every guard and precondition of the
command they feed by construction; ``checks.verify_preconditions`` confirms
that independently after the timed passes.

This module uses the standard library only, so it adds nothing to the
set-up time beyond the random draws and file writes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Stretch test of the spanner jobs: (2t-1)(1+eps) = 9/2 for t=2, eps=1/2.
SPANNER_T = 2
SPANNER_EPS = "0.5"
STRETCH_NUM, STRETCH_DEN = 9, 2

# Exact-solver guards the generated instances stay inside.
KCAP_MAX_LINKS = 22
DESIGN_MAX_N = 12
DESIGN_MAX_EDGES = 20


@dataclass
class Job:
    """One CLI invocation: its input files, arguments and what it must satisfy."""

    name: str
    command: str
    n: int
    records: list[tuple[str, int, int, int]]
    options: list[str]
    requirements: list[tuple[int, int, int]] = field(default_factory=list)
    terminals: list[int] = field(default_factory=list)

    @property
    def kind(self) -> str:
        """The problem the job solves: spanner, kcap, kecss, stap or design."""
        if self.command in ("kcap-link", "kcap-full"):
            return "kcap"
        if self.command == "oracle":
            return "design" if self.requirements else "kcap"
        if self.command == "sndp":
            return "design"
        return self.command

    @property
    def k_target(self) -> int:
        """The connectivity target given by --k."""
        return int(self.options[self.options.index("--k") + 1])

    def stream_text(self) -> str:
        return "\n".join([f"header n={self.n}"] + [f"{t} {u} {v} {w}" for t, u, v, w in self.records]) + "\n"

    def requirements_text(self) -> str:
        return "".join(f"R {s} {t} {r}\n" for s, t, r in self.requirements)

    def base(self) -> list[tuple[int, int, int]]:
        return [(u, v, w) for t, u, v, w in self.records if t == "E"]

    def links(self) -> list[tuple[int, int, int]]:
        return [(u, v, w) for t, u, v, w in self.records if t == "L"]

    def all_edges(self) -> list[tuple[int, int, int]]:
        return [(u, v, w) for _, u, v, w in self.records]

    def paths(self, workdir: Path) -> dict[str, Path]:
        return {
            ext: workdir / f"{self.name}.{ext}"
            for ext in ("stream", "req", "report", "out")
        }

    def write(self, workdir: Path) -> None:
        p = self.paths(workdir)
        p["stream"].write_text(self.stream_text())
        if self.requirements:
            p["req"].write_text(self.requirements_text())

    def argv(self, workdir: Path) -> list[str]:
        p = self.paths(workdir)
        argv = [self.command, str(p["stream"]), *self.options]
        if self.requirements:
            argv += ["--requirements", str(p["req"])]
        return argv + ["--report", str(p["report"]), "--output", str(p["out"])]


# -- building blocks -----------------------------------------------------------


def _pair(rng: random.Random, n: int) -> tuple[int, int]:
    u = rng.randrange(n)
    v = rng.randrange(n - 1)
    return u, v + (v >= u)


def _ring(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A Hamiltonian cycle through all n vertices in random order."""
    order = list(range(n))
    rng.shuffle(order)
    return [(order[i], order[(i + 1) % n]) for i in range(n)]


def _ring_with_chords(rng: random.Random, n: int, chords: int) -> list[tuple[int, int]]:
    """Ring plus chords whose min cut is exactly 2.

    The ring makes the graph 2-edge-connected; one ring vertex is kept off
    every chord, so its degree of 2 caps the min cut at 2.
    """
    ring = _ring(rng, n)
    lone = ring[0][0]
    others = [v for v in range(n) if v != lone]
    out = list(ring)
    for _ in range(chords):
        u, v = rng.sample(others, 2)
        out.append((u, v))
    return out


def _tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    order = list(range(n))
    rng.shuffle(order)
    return [(order[i], order[rng.randrange(i)]) for i in range(1, n)]


def _weighted(rng: random.Random, pairs, lo: int, hi: int, tag: str):
    return [(tag, u, v, rng.randint(lo, hi)) for u, v in pairs]


def _kcap_records(rng: random.Random, n: int, chords: int, links: int, interleave: bool):
    """Base ring-with-chords (min cut 2) plus links for augmentation to 3.

    The first n links form a second Hamiltonian cycle, so base plus all links
    is 3-edge-connected and the instance is feasible by construction.
    """
    base = _weighted(rng, _ring_with_chords(rng, n, chords), 1, 1000, "E")
    backbone = _ring(rng, n)
    extra = [_pair(rng, n) for _ in range(links - n)]
    link_recs = _weighted(rng, backbone + extra, 1, 1000, "L")
    rng.shuffle(link_recs)
    if interleave:
        records = base + link_recs
        rng.shuffle(records)
        return records
    return base + link_recs


# -- workloads -----------------------------------------------------------------

_SPANNER_OPTS = ["--t", str(SPANNER_T), "--epsilon", SPANNER_EPS]


def spanner_stream(rng: random.Random) -> list[Job]:
    """Two link-only streams through the one-pass spanner.

    narrow: n=100, every weight in [1, 50000], which is one bucket (bucket
    width 27 bands of 1.5, up to 1.5^27 > 56000), so every accepted insert
    re-certifies one large bucket.  wide: n=150, weights log-uniform over
    1..10^18, so inserts reach many buckets and the parity-prefix unions.
    """
    narrow_n, narrow_m = 100, 1500
    wide_n, wide_m = 150, 3000
    narrow = [("L", *_pair(rng, narrow_n), rng.randint(1, 50_000)) for _ in range(narrow_m)]
    wide = [
        ("L", *_pair(rng, wide_n), max(1, int(10 ** rng.uniform(0, 18))))
        for _ in range(wide_m)
    ]
    return [
        Job("narrow", "spanner", narrow_n, narrow, _SPANNER_OPTS),
        Job("wide", "spanner", wide_n, wide, _SPANNER_OPTS),
    ]


def cycle_augment(rng: random.Random) -> list[Job]:
    """Weighted cycle store under both 3-edge-connectivity routes.

    The large kcap-link bases are plain rings on 14 vertices, so the cactus
    is the ring itself and the unfolded cycle always has 14 positions: the
    cut-table route, at a cost that does not swing with chord placement.
    kecss pass 2 augments a spanning tree of 12 vertices, whose unfolded
    cycle has 2(n-1) = 22 positions: the pairwise-flow route.  The small
    kcap-link jobs carry at most 22 links and an exact oracle.
    """
    jobs = []
    for i in range(3):
        records = _kcap_records(rng, 14, chords=0, links=200, interleave=False)
        jobs.append(Job(f"link{i}", "kcap-link", 14, records, ["--k", "3", "--epsilon", "0.5"]))
    for i in range(3):
        n = 12
        pairs = _ring(rng, n) + _ring(rng, n) + [_pair(rng, n) for _ in range(n - 2)]
        rng.shuffle(pairs)
        records = _weighted(rng, pairs, 1, 1000, "L")
        opts = ["--k", "3", "--epsilon", "0.5", "--with-oracle"]
        jobs.append(Job(f"kecss{i}", "kecss", n, records, opts))
    for i in range(64):
        n = rng.randint(8, 10)
        records = _kcap_records(rng, n, chords=3, links=KCAP_MAX_LINKS, interleave=False)
        opts = ["--k", "3", "--epsilon", "0.5", "--with-oracle"]
        jobs.append(Job(f"small{i}", "kcap-link", n, records, opts))
    return jobs


def desk_audit(rng: random.Random) -> list[Job]:
    """Many small exact-guarded instances through every exact solver.

    kcap-full and oracle carry at most 22 links.  stap, sndp and oracle
    --requirements stay at n <= 12 and at most 20 edges (stap's base tree
    edges count, since the design solve sees them as free copies).  Design
    instances use n = 12, so enumerating the 2^11 cut sides is a large,
    steady share of each solve next to the branch-and-bound.
    """
    jobs = []
    opts = [*_SPANNER_OPTS, "--with-oracle"]
    for i in range(8):
        n = rng.randint(8, 10)
        links = rng.randint(16, KCAP_MAX_LINKS)
        records = _kcap_records(rng, n, chords=3, links=links, interleave=True)
        jobs.append(Job(f"full{i}", "kcap-full", n, records, ["--k", "3", *opts]))
    for i in range(20):
        n = 8
        tree = _weighted(rng, _tree(rng, n), 1, 1000, "E")
        links = _weighted(rng, _ring(rng, n) + [_pair(rng, n)], 1, 1000, "L")
        records = tree + links
        rng.shuffle(records)
        terminals = sorted(rng.sample(range(n), rng.randint(3, 4)))
        term_opt = ["--terminals", ",".join(map(str, terminals))]
        jobs.append(Job(f"stap{i}", "stap", n, records, [*term_opt, *opts], terminals=terminals))
    for i in range(24):
        jobs.append(_design_job(rng, f"sndp{i}", "sndp", 13, ["--k", "2", *opts]))
    for i in range(8):
        n = rng.randint(8, 10)
        records = _kcap_records(rng, n, chords=3, links=rng.randint(14, 18), interleave=False)
        jobs.append(Job(f"okcap{i}", "oracle", n, records, ["--k", "3"]))
    for i in range(16):
        jobs.append(_design_job(rng, f"osndp{i}", "oracle", 14, []))
    return jobs


def _design_job(rng: random.Random, name: str, command: str, edges: int, options: list[str]) -> Job:
    """Demands of 1 or 2 on four pairs, over a Hamiltonian cycle plus extra edges.

    The cycle alone gives every pair two edge-disjoint paths, so every
    demand is met by construction.
    """
    n = 12
    pairs = _ring(rng, n) + [_pair(rng, n) for _ in range(edges - n)]
    rng.shuffle(pairs)
    records = _weighted(rng, pairs, 1, 1000, "L")
    reqs = []
    for s, t in rng.sample([(a, b) for a in range(n) for b in range(a + 1, n)], 4):
        reqs.append((s, t, rng.randint(1, 2)))
    return Job(name, command, n, records, options, requirements=reqs)


WORKLOADS = {
    "spanner-stream": spanner_stream,
    "cycle-augment": cycle_augment,
    "desk-audit": desk_audit,
}


def generate(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
