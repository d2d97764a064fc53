"""Self-tests of the output checks: each check must reject a corrupted output.

    python3 benchmark/selftest.py

The instances are tiny and written by hand, so the expected verdicts are
known without running the program.  Exits 0 when every case behaves as
expected, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import checks
from run import job_digest
from workloads import Job

RING4 = [("E", 0, 1, 1), ("E", 1, 2, 1), ("E", 2, 3, 1), ("E", 3, 0, 1)]
KCAP_OPTS = ["--k", "3", "--epsilon", "0.5"]


def report(job: Job, out, **extra) -> str:
    body = {
        "command": job.command,
        "details": {},
        "feasible": True,
        "n": job.n,
        "oracle_weight": None,
        "output_size": len(out),
        "output_weight": sum(w for _, _, w in out),
        "parameters": {},
        "peak_stored": {"store": len(out)},
        "ratio": None,
        "wall_time_s": 0.01,
    }
    body.update(extra)
    return json.dumps(body)


def output(out) -> str:
    return "header n=9\n" + "".join(f"L {u} {v} {w}\n" for u, v, w in out)


def verdict(job: Job, out, rc=0, **extra) -> list[str]:
    problems, _ = checks.check_job(job, rc, report(job, out, **extra), output(out))
    return problems


CASES = []


def case(fn):
    CASES.append(fn)
    return fn


@case
def spanner():
    job = Job("s", "spanner", 3, [("L", 0, 1, 1), ("L", 1, 2, 1), ("L", 0, 2, 100)], [])
    good = [(0, 1, 1), (1, 2, 1)]
    yield "correct spanner accepted", not verdict(job, good)
    yield "dropped spanner edge rejected", bool(verdict(job, good[1:]))
    yield "edge outside the input rejected", bool(verdict(job, good + [(0, 2, 1)]))
    yield "wrong output_weight rejected", bool(verdict(job, good, output_weight=3))
    yield "wrong output_size rejected", bool(verdict(job, good, output_size=3))
    tight = Job("t", "spanner", 3, [("L", 0, 1, 4), ("L", 1, 2, 5), ("L", 0, 2, 2)], [])
    # d_kept(0, 2) = 9 against w = 2: 2 * 9 > 9 * 2 is false, so the bound holds exactly.
    yield "stretch exactly 9/2 accepted", not verdict(tight, [(0, 1, 4), (1, 2, 5)])
    looser = Job("u", "spanner", 3, [("L", 0, 1, 4), ("L", 1, 2, 6), ("L", 0, 2, 2)], [])
    yield "stretch above 9/2 rejected", bool(verdict(looser, [(0, 1, 4), (1, 2, 6)]))


@case
def kcap_link():
    links = [("L", 0, 2, 5), ("L", 1, 3, 7), ("L", 0, 1, 9)]
    job = Job("k", "kcap-link", 4, RING4 + links, KCAP_OPTS)
    good = [(0, 2, 5), (1, 3, 7)]
    yield "correct kcap-link accepted", not verdict(job, good)
    yield "chosen link removed rejected", bool(verdict(job, good[:1]))
    yield "base edge passed off as a link rejected", bool(verdict(job, good + [(0, 1, 1)]))
    yield "exit 2 on a feasible instance rejected", bool(checks.check_job(job, 2, None, None)[0])
    short = Job("k2", "kcap-link", 4, RING4 + links[:1], KCAP_OPTS)
    yield "exit 2 on an infeasible instance accepted", not checks.check_job(short, 2, None, None)[0]
    yield "exit 3 rejected", bool(checks.check_job(job, 3, None, None)[0])
    yield "exit 4 rejected", bool(checks.check_job(job, 4, None, None)[0])
    yield "a raised exception rejected", bool(checks.check_job(job, "RuntimeError: x", None, None)[0])
    yield "exit 0 with feasible false rejected", bool(verdict(job, good, feasible=False))


@case
def exact_ratios():
    links = [("L", 0, 2, 5), ("L", 1, 3, 7)]
    oracle_opts = [*KCAP_OPTS, "--with-oracle"]
    job = Job("r", "kcap-link", 4, RING4 + links, oracle_opts)
    good = [(0, 2, 5), (1, 3, 7)]
    problems, ratios = checks.check_job(job, 0, report(job, good, oracle_weight=12), output(good))
    yield "exact oracle gives ratio 1", not problems and ratios == [1]
    yield "weight below an exact optimum rejected", bool(verdict(job, good, oracle_weight=13))
    many = [("L", i % 4, (i + 2) % 4, 50 + i) for i in range(2, 23)]
    trap = Job("big", "kcap-link", 4, RING4 + links + many, oracle_opts)
    problems, ratios = checks.check_job(trap, 0, report(trap, good, oracle_weight=15), output(good))
    yield "cycle-cover oracle above 22 links is not a ratio reference", not problems and not ratios
    kecss = Job("e", "kecss", 2, [("L", 0, 1, 1)], ["--k", "1"])
    details = {"pass_weights": {"pass_1": 1}, "pass_oracles": {"pass_1": 2}}
    yield "kecss pass at its exact oracle accepted", not verdict(
        kecss, [(0, 1, 1)], details={"pass_weights": {"pass_1": 1}, "pass_oracles": {"pass_1": 1}}
    )
    yield "kecss pass below its exact oracle rejected", bool(
        verdict(kecss, [(0, 1, 1)], details=details)
    )


@case
def kecss():
    k4 = [(u, v, 1) for u in range(4) for v in range(u + 1, 4)]
    job = Job("e", "kecss", 4, [("L", u, v, w) for u, v, w in k4], ["--k", "3", "--epsilon", "0.5"])
    yield "K4 as a 3-edge-connected answer accepted", not verdict(job, k4)
    yield "kecss edge removed rejected", bool(verdict(job, k4[1:]))


@case
def stap():
    tree = [("E", 0, 1, 3), ("E", 1, 2, 3)]
    links = [("L", 0, 2, 4), ("L", 0, 1, 1)]
    job = Job("p", "stap", 3, tree + links, [], terminals=[0, 2])
    yield "stap answer accepted", not verdict(job, [(0, 2, 4)])
    yield "stap link removed rejected", bool(verdict(job, []))


@case
def design():
    cycle = [("L", 0, 1, 1), ("L", 1, 2, 1), ("L", 2, 3, 1), ("L", 3, 0, 1)]
    reqs = [(0, 2, 2)]
    good = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
    for command in ("sndp", "oracle"):
        job = Job("d", command, 4, cycle, [], requirements=reqs)
        extra = {"oracle_weight": 4} if command == "oracle" else {}
        yield f"{command} design answer accepted", not verdict(job, good, **extra)
        yield f"{command} design edge removed rejected", bool(verdict(job, good[1:], **extra))
    job = Job("o", "oracle", 4, cycle, [], requirements=reqs)
    yield "oracle weight mismatch rejected", bool(verdict(job, good, oracle_weight=3))


@case
def preconditions():
    links = [("L", 0, 2, 5), ("L", 1, 3, 7)]
    good = Job("k", "kcap-link", 4, RING4 + links, KCAP_OPTS)
    yield "ring base with min cut 2 passes", not checks.verify_preconditions(good)
    k4 = [("E", u, v, 1) for u in range(4) for v in range(u + 1, 4)]
    yield "base with min cut 3 flagged", bool(
        checks.verify_preconditions(Job("k", "kcap-link", 4, k4 + links, KCAP_OPTS))
    )
    many = [("L", 0, 2, w) for w in range(1, 24)]
    yield "kcap-full with 23 links flagged", bool(
        checks.verify_preconditions(Job("f", "kcap-full", 4, RING4 + many, KCAP_OPTS))
    )
    cyclic = Job("p", "stap", 3, [("E", 0, 1, 1), ("E", 1, 2, 1), ("E", 2, 0, 1)], [], terminals=[0, 2])
    yield "stap base closing a cycle flagged", bool(checks.verify_preconditions(cyclic))
    big = Job("d", "sndp", 13, [("L", i, i + 1, 1) for i in range(12)], [], requirements=[(0, 12, 1)])
    yield "design instance beyond n = 12 flagged", bool(checks.verify_preconditions(big))


@case
def digest():
    job = Job("s", "spanner", 3, [("L", 0, 1, 1)], [])
    base = job_digest(report(job, [(0, 1, 1)]), output([(0, 1, 1)]))
    timed = job_digest(report(job, [(0, 1, 1)], wall_time_s=9.9), output([(0, 1, 1)]))
    yield "digest ignores wall_time_s", base == timed
    other = job_digest(report(job, [(0, 1, 1)], output_weight=2), output([(0, 1, 1)]))
    yield "digest sees a changed report", base != other
    yield "digest sees a changed output", base != job_digest(report(job, [(0, 1, 1)]), output([]))


def main() -> int:
    failures = 0
    total = 0
    for fn in CASES:
        for label, ok in fn():
            total += 1
            if not ok:
                failures += 1
                print(f"FAIL {fn.__name__}: {label}")
    print(f"{total - failures}/{total} self-test cases behave as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
