"""Acceptance suite: one test per shipped guarantee.

Each test prints exactly one ``ACCEPTANCE C<i> PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -s`` to see them live) and then asserts,
so a red line always fails the suite.  Tolerances are spelled out as exact
fractions next to each check.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from streamaug.cactus import cactus_build, cactus_unfold
from streamaug.certificate_stream import ForestStack
from streamaug.cli import main as cli_main
from streamaug.cli import parse_stream, write_stream
from streamaug.cycle_aug_stream import UnweightedArcStore, WeightedAugState
from streamaug.errors import Infeasible
from streamaug.graph_core import Arc, WeightedEdge
from streamaug.oracles import (
    AugmentationInstance,
    exact_directed_cycle_cover,
    exact_kcap,
    exact_sndp,
    validate_certificate,
)
from streamaug.pipelines import StreamEvent, kcap_fully_streaming, kecss
from streamaug.sndp_coreset import Cascade, Requirements, solve_sndp
from streamaug.spanner_stream import SpannerState

import support

FIXTURES = Path(__file__).parent / "fixtures"
STREAM_FIXTURES = [
    "ring4_chords.txt",
    "bowtie5.txt",
    "path4_tap.txt",
    "clique4.txt",
    "spanner6.txt",
]

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
TENTH = Fraction(1, 10)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE C{num} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"C{num}: {detail}"


def _wide_weight(rng: random.Random, orders: int) -> int:
    return rng.randint(1, 9) * 10 ** rng.randint(0, orders)


def _ring(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def test_c01_spanner_stretch_on_random_weighted_streams():
    # every input edge must stay within (2t-1)(1+eps) of its weight in the
    # stored subgraph; 200 streams, n up to 100, weights up to 10^18,
    # finished in under two minutes
    rng = random.Random(9001)
    started = time.perf_counter()
    combos = [(2, TENTH), (2, HALF), (3, TENTH), (3, HALF)]
    streams = 0
    edges_checked = 0
    violations = 0
    for trial in range(200):
        t, eps = combos[trial % 4]
        n = rng.randint(20, 100)
        m = rng.randint(n, 2 * n + 20)
        state = SpannerState(n, t, eps)
        inputs = []
        for i in range(m):
            u, v = rng.sample(range(n), 2)
            e = WeightedEdge(u, v, rng.randint(1, 10 ** rng.randint(0, 18)), i)
            inputs.append(e)
            state.insert(e)
        kept = state.edges()
        bound = (2 * t - 1) * (1 + eps)
        dists = {}
        for e in inputs:
            if e.u not in dists:
                dists[e.u] = support.dijkstra(n, kept, e.u)
            if dists[e.u][e.v] > bound * e.w:
                violations += 1
        edges_checked += m
        streams += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and streams == 200 and elapsed < 120
    _verdict(
        1,
        ok,
        f"{streams} streams, {edges_checked} edges within (2t-1)(1+eps), "
        f"{violations} violations, {elapsed:.1f}s",
    )


def test_c02_spanner_space_ignores_weight_scale():
    # scaling all weights by 10^12 may not move the peak stored count by
    # more than a factor 2 in either direction; 50 topology pairs
    rng = random.Random(9002)
    pairs_checked = 0
    worst = Fraction(1)
    for _ in range(50):
        n = rng.randint(12, 30)
        m = rng.randint(2 * n, 4 * n)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(m)]
        weights = [rng.randint(1, 10**4) for _ in range(m)]
        t = rng.choice([2, 3])
        peaks = []
        for scale in (1, 10**12):
            state = SpannerState(n, t, HALF)
            for i, ((u, v), w) in enumerate(zip(pairs, weights)):
                state.insert(WeightedEdge(u, v, w * scale, i))
            peaks.append(state.peak_stored)
        ratio = Fraction(max(peaks), min(peaks))
        worst = max(worst, ratio)
        pairs_checked += 1
    ok = pairs_checked == 50 and worst <= 2
    _verdict(2, ok, f"{pairs_checked} scaled pairs, worst peak ratio {float(worst):.3f} <= 2")


def test_c03_stored_classes_never_close_short_cycles():
    # after every insert, no stored class may contain a cycle of <= 2t
    # edges over the supernodes of its parity prefix
    rng = random.Random(9003)
    streams = 0
    checks = 0
    dirty = 0
    for n in (4, 6, 9, 12, 15, 18, 21, 24, 27, 30):
        for t in (2, 3):
            state = SpannerState(n, t, HALF)
            for i in range(3 * n):
                u, v = rng.sample(range(n), 2)
                state.insert(WeightedEdge(u, v, _wide_weight(rng, 9), i))
                if support.class_girth_violated(state, t):
                    dirty += 1
                checks += 1
            streams += 1
    ok = dirty == 0 and streams == 20
    _verdict(3, ok, f"{streams} streams, {checks} per-insert girth checks, {dirty} dirty")


def test_c04_unweighted_store_halves_the_link_count_at_most():
    # feeding every possible link keeps at most 2n arcs and finalizes to
    # no more than twice the unweighted optimum
    rng = random.Random(9004)
    instances = 0
    worst_ratio = 0.0
    for n in range(3, 11):
        for _ in range(5):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            store = UnweightedArcStore(n)
            for i, (u, v) in enumerate(pairs):
                store.insert(WeightedEdge(u, v, 1, i))
                assert len(store) <= 2 * n
            opt = support.undirected_cycle_opt(n, [(u, v, 1) for u, v in pairs])
            assert opt is not None
            _chosen, count = store.finalize()
            assert count <= 2 * opt[0]
            worst_ratio = max(worst_ratio, count / opt[0])
            instances += 1
    ok = instances == 40
    _verdict(4, ok, f"{instances} all-link instances, worst count ratio {worst_ratio:.2f} <= 2")


def test_c05_weighted_store_tracks_the_exact_augmenter():
    # 500 streamed instances, weights spanning 12 orders of magnitude;
    # the store must agree with the exact solver on feasibility, stay
    # within 2 + 6*eps on weight, and keep its forests below 2(n-1)
    rng = random.Random(9005)
    instances = 0
    feasible_count = 0
    worst = Fraction(0)
    while instances < 500:
        n = rng.randint(4, 10)
        eps = HALF if instances % 2 else QUARTER
        links: list[tuple[int, int, int]] = []
        if rng.random() < 0.85:
            links += [(0, j, _wide_weight(rng, 12)) for j in range(1, n)]
        while len(links) < 14 and rng.random() < 0.6:
            u, v = rng.sample(range(n), 2)
            links.append((u, v, _wide_weight(rng, 12)))
        rng.shuffle(links)
        wedges = [WeightedEdge(u, v, w, i) for i, (u, v, w) in enumerate(links)]
        state = WeightedAugState(n, eps)
        for e in wedges:
            state.insert(e)
            assert state.forest_count() <= 2 * (n - 1)
        try:
            _chosen, got = state.finalize()
        except Infeasible:
            got = None
        try:
            _sol, opt = exact_kcap(
                AugmentationInstance(n=n, k=3, base=_ring(n), links=wedges)
            )
        except Infeasible:
            opt = None
        assert (got is None) == (opt is None)
        if got is not None:
            assert got <= (2 + 6 * eps) * opt
            if opt > 0:
                worst = max(worst, Fraction(got, opt))
            feasible_count += 1
        instances += 1
    ok = instances == 500
    _verdict(
        5,
        ok,
        f"{instances} instances ({feasible_count} feasible), worst weight ratio "
        f"{float(worst):.3f} <= 2+6*eps",
    )


def test_c06_interval_cover_solver_equals_enumeration():
    # the production solver and a full subset enumeration must agree on
    # feasibility, weight and chosen cardinality; 1000 instances
    rng = random.Random(9006)
    agreements = 0
    for trial in range(1000):
        n = rng.randint(2, 8)
        arcs = []
        for _ in range(rng.randint(1, 12)):
            x, y = rng.sample(range(n), 2)
            arcs.append((x, y, rng.randint(0, 12)))
        want = support.brute_directed_cover(n, arcs)
        try:
            sol, weight = exact_directed_cycle_cover(
                n, [Arc(x, y, w, None) for x, y, w in arcs]
            )
        except Infeasible:
            assert want is None, (trial, n, arcs)
            agreements += 1
            continue
        assert want is not None and (weight, len(sol)) == (want[0], want[1]), (
            trial,
            n,
            arcs,
        )
        agreements += 1
    ok = agreements == 1000
    _verdict(6, ok, f"{agreements} instances matched the subset enumeration")


def test_c07_certificates_stay_small_and_valid():
    # 300 random multigraph streams: the kept forests always validate and
    # never exceed k(n-1) edges
    rng = random.Random(9007)
    streams = 0
    for _ in range(300):
        n = rng.randint(2, 12)
        k = rng.randint(1, 4)
        edges = [
            WeightedEdge(u, v, 1, i)
            for i, (u, v) in enumerate(
                support.random_multigraph(rng, n, rng.randint(0, 3 * n))
            )
        ]
        stack = ForestStack(n, k)
        for e in edges:
            stack.insert(e)
        assert len(stack) <= k * (n - 1)
        assert validate_certificate(edges, stack.edges(), n, k)
        streams += 1
    ok = streams == 300
    _verdict(7, ok, f"{streams} streams validated within k(n-1) edges")


def test_c08_one_pass_augmentation_is_order_blind_and_tight():
    # 200 mixed streams at t=2: base-first and link-first orders must give
    # identical answers, feasible outputs must reach connectivity k, and
    # the weight stays within (2t-1)+eps of the omniscient exact solve
    rng = random.Random(9008)
    eps = HALF
    bound = Fraction(3) + eps
    instances = 0
    ratio_checks = 0
    worst = Fraction(0)
    while instances < 200:
        n = rng.randint(4, 8)
        k = rng.randint(2, 3)
        topo = (
            support.random_connected_graph(rng, n, rng.randint(0, 3))
            if k == 2
            else support.random_two_connected_graph(rng, n, rng.randint(0, 3))
        )
        base = [WeightedEdge(u, v, 1, i) for i, (u, v) in enumerate(topo)]
        links = [
            WeightedEdge(*rng.sample(range(n), 2), rng.randint(1, 10**4), 100 + j)
            for j in range(rng.randint(1, 8))
        ]
        base_first = [StreamEvent("E", e) for e in base] + [
            StreamEvent("L", e) for e in links
        ]
        link_first = [StreamEvent("L", e) for e in links] + [
            StreamEvent("E", e) for e in base
        ]
        first = kcap_fully_streaming(
            base_first, n, k, t=2, epsilon=eps, with_oracle=True
        )
        second = kcap_fully_streaming(link_first, n, k, t=2, epsilon=eps)
        assert first.output == second.output
        assert first.feasible == second.feasible
        if first.feasible:
            combined = [(e.u, e.v) for e in base] + [
                (e.u, e.v) for e in first.output
            ]
            assert support.nx_edge_connectivity(combined, n) >= k
            if first.oracle_weight is not None:
                assert first.total_weight <= bound * first.oracle_weight
                if first.oracle_weight > 0:
                    worst = max(
                        worst, Fraction(first.total_weight, first.oracle_weight)
                    )
                ratio_checks += 1
        instances += 1
    ok = instances == 200 and ratio_checks >= 100
    _verdict(
        8,
        ok,
        f"{instances} instances order-blind, {ratio_checks} ratio checks, "
        f"worst {float(worst):.3f} <= (2t-1)+eps",
    )


def test_c09_cut_structure_survives_folding_and_unfolding():
    # the compact cut structure must carry exactly the min-cut family of
    # its graph, and solving on the unfolded cycle must return the same
    # optimum as solving on the structure itself
    rng = random.Random(9009)

    def min_cut_family(edges, n):
        sides = support.cuts_of_size_at_most(edges, n, 10**9)
        best = min(s.boundary_size for s in sides)
        return {frozenset(s.members) for s in sides if s.boundary_size == best}, best

    families = 0
    for _ in range(120):
        n = rng.randint(3, 12)
        edges = support.random_connected_graph(rng, n, rng.randint(0, 5))
        c = cactus_build(edges, n)
        want, _want_size = min_cut_family(edges, n)
        got, got_size = min_cut_family(c.edges, c.size)
        assert got_size == 2
        mapped = set()
        for side in got:
            pre = {v for v in range(n) if c.phi[v] in side}
            if not pre or len(pre) == n:
                continue
            if 0 in pre:
                pre = set(range(n)) - pre
            mapped.add(frozenset(pre))
        assert mapped == want, (edges, n)
        families += 1

    preserved = 0
    while preserved < 100:
        size, edges = support.random_cactus_edges(rng, 12)
        if size < 3:
            continue
        links = []
        for j in range(rng.randint(1, 10)):
            u, v = rng.sample(range(size), 2)
            links.append((u, v, _wide_weight(rng, 6)))
        c = cactus_build(edges, size)
        unf = cactus_unfold(c)
        if any(c.phi[u] == c.phi[v] for u, v, _w in links):
            continue
        mapped = list(unf.links)
        arrival = len(mapped)
        for u, v, w in links:
            mapped.append(
                WeightedEdge(
                    unf.position_of(c.phi[u]), unf.position_of(c.phi[v]), w, arrival
                )
            )
            arrival += 1
        if len(mapped) > 22:
            continue
        direct = [WeightedEdge(u, v, w, i) for i, (u, v, w) in enumerate(links)]
        try:
            _s, opt_direct = exact_kcap(
                AugmentationInstance(n=size, k=3, base=edges, links=direct)
            )
        except Infeasible:
            opt_direct = None
        try:
            _s, opt_cycle = exact_kcap(
                AugmentationInstance(
                    n=unf.length, k=3, base=_ring(unf.length), links=mapped
                )
            )
        except Infeasible:
            opt_cycle = None
        assert opt_direct == opt_cycle, (size, edges, links)
        preserved += 1
    ok = families == 120 and preserved == 100
    _verdict(
        9,
        ok,
        f"{families} min-cut families equal, {preserved} unfolded optima preserved",
    )


def test_c10_layer_coresets_are_disjoint_and_spanning():
    # on an n-by-k grid up to n=40, k=4: layers never share an edge, and
    # each layer spans every edge it handed further down within
    # (2t-1) + eps
    rng = random.Random(9010)
    t = 2
    eps = HALF
    inner = eps / (2 * t - 1)
    bound = (2 * t - 1) * (1 + inner)
    streams = 0
    spanned = 0
    cases = [(n, k, 3 * n, n) for n in (10, 20, 30, 40) for k in (1, 2, 3, 4)]
    # narrow vertex pools force repeated evictions through every layer
    cases += [(12, 3, 90, 5), (8, 4, 80, 4), (40, 4, 200, 8)]
    for n, k, m, pool in cases:
        stream = [
            WeightedEdge(*rng.sample(range(pool), 2), _wide_weight(rng, 6), i)
            for i in range(m)
        ]
        cas = Cascade(n, k, t, eps)
        for e in stream:
            cas.insert(e)
        seen: set[int] = set()
        layer_of = {}
        for i in range(1, k + 1):
            arrivals = {e.arrival for e in cas.layer_edges(i)}
            assert not (arrivals & seen)
            seen |= arrivals
            for a in arrivals:
                layer_of[a] = i
        dists = [support.all_dists(n, cas.layer_edges(i)) for i in range(1, k + 1)]
        for e in stream:
            depth = layer_of.get(e.arrival, k + 1)
            for i in range(1, min(depth, k + 1)):
                assert dists[i - 1][e.u][e.v] <= bound * e.w
                spanned += 1
        streams += 1
    ok = streams == len(cases) and spanned >= 500
    _verdict(
        10,
        ok,
        f"{streams} streams to n=40 k=4, layers disjoint, {spanned} hand-downs spanned",
    )


def test_c11_phased_design_prices_each_phase_fairly():
    # every phase must stay within (2t-1)+eps of an exact cover that may
    # shop from the whole ingested stream; the end-to-end gap against the
    # omniscient design is reported, not bounded
    rng = random.Random(9011)
    t = 2
    eps = HALF
    phase_bound = Fraction(3) + eps
    solved = 0
    phase_checks = 0
    end_ratios = []
    attempts = 0
    while solved < 30 and attempts < 300:
        attempts += 1
        n = rng.randint(4, 10)
        k = rng.randint(1, 3)
        stream = [
            WeightedEdge(*rng.sample(range(n), 2), rng.randint(1, 50), i)
            for i in range(20)
        ]
        pairs = {}
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(range(n), 2)
            pairs.setdefault((min(a, b), max(a, b)), rng.randint(1, k))
        reqs = Requirements(pairs, n)
        cas = Cascade(n, k, t, eps)
        for e in stream:
            cas.insert(e)
        try:
            sol = solve_sndp(cas, reqs)
        except Infeasible:
            continue
        for (s, u), r in reqs.items():
            assert (
                support.nx_pair_flow([(e.u, e.v) for e in sol.edges], n, s, u) >= r
            )
        sides = []
        need = []
        for mask in range(1, 1 << (n - 1)):
            members = [v for v in range(1, n) if (mask >> (v - 1)) & 1]
            demand = reqs.cut_demand(members)
            if demand > 0:
                sides.append(mask)
                need.append(demand)

        def crosses(e, mask):
            iu = e.u > 0 and (mask >> (e.u - 1)) & 1
            iv = e.v > 0 and (mask >> (e.v - 1)) & 1
            return bool(iu) != bool(iv)

        crossings = [0] * len(sides)
        taken: set[int] = set()
        for phase_no, grabbed in enumerate(sol.phases, start=1):
            targets = [
                i
                for i in range(len(sides))
                if max(0, need[i] - (k - phase_no)) - crossings[i] == 1
            ]
            if targets:
                avail = [e for e in stream if e.arrival not in taken]
                masks = []
                for e in avail:
                    m = 0
                    for pos, i in enumerate(targets):
                        if crosses(e, sides[i]):
                            m |= 1 << pos
                    masks.append(m)
                best = support.exact_cover(
                    masks, [e.w for e in avail], (1 << len(targets)) - 1
                )
                assert best is not None
                if best[0] > 0:
                    assert sum(e.w for e in grabbed) <= phase_bound * best[0]
                    phase_checks += 1
            for e in grabbed:
                taken.add(e.arrival)
                for i in range(len(sides)):
                    if crosses(e, sides[i]):
                        crossings[i] += 1
        try:
            _sol, opt = exact_sndp(n, stream, reqs)
            if opt > 0:
                end_ratios.append(sol.weight / opt)
        except Infeasible:
            pass
        solved += 1
    ok = solved == 30 and phase_checks >= 20
    top = max(end_ratios) if end_ratios else float("nan")
    mean = sum(end_ratios) / len(end_ratios) if end_ratios else float("nan")
    _verdict(
        11,
        ok,
        f"{solved} designs, {phase_checks} phases within (2t-1)+eps; end-to-end "
        f"ratio max {top:.3f} mean {mean:.3f} (reported only)",
    )


def test_c12_repeated_augmentation_builds_cheap_subgraphs():
    # the four-vertex clique anchors the exact numbers; 100 random runs
    # must stay feasible with every level priced within 2 + 6*eps
    rng = random.Random(9012)
    eps = QUARTER
    bound = 2 + 6 * eps
    clique4 = [
        WeightedEdge(u, v, 1, i)
        for i, (u, v) in enumerate(
            (u, v) for u in range(4) for v in range(u + 1, 4)
        )
    ]
    report = kecss(clique4, 4, 2, epsilon=eps, with_oracle=True)
    _sol, opt4 = exact_sndp(
        4, clique4, Requirements({(u, v): 2 for u in range(4) for v in range(u + 1, 4)}, 4)
    )
    anchor_ok = (
        report.feasible
        and opt4 == 4
        and support.nx_edge_connectivity([(e.u, e.v) for e in report.output], 4) >= 2
        and all(
            report.details["pass_weights"][name] <= bound * oracle
            for name, oracle in report.details["pass_oracles"].items()
        )
    )
    runs = 0
    level_checks = 0
    while runs < 100:
        n = rng.randint(4, 8)
        k = rng.randint(1, 3)
        edges = [
            WeightedEdge(u, v, rng.randint(1, 100), i)
            for i, (u, v) in enumerate(
                (u, v) for u in range(n) for v in range(u + 1, n)
            )
        ]
        rng.shuffle(edges)
        edges = [
            WeightedEdge(e.u, e.v, e.w, i) for i, e in enumerate(edges)
        ]
        result = kecss(edges, n, k, epsilon=eps, with_oracle=True)
        assert result.feasible
        assert (
            support.nx_edge_connectivity([(e.u, e.v) for e in result.output], n) >= k
        )
        for name, oracle in result.details["pass_oracles"].items():
            got = result.details["pass_weights"][name]
            if oracle > 0:
                assert got <= bound * oracle, (n, k, name)
                level_checks += 1
        runs += 1
    ok = anchor_ok and runs == 100 and level_checks >= 100
    _verdict(
        12,
        ok,
        f"clique anchor optimum {opt4}, {runs} runs feasible, "
        f"{level_checks} levels within 2+6*eps",
    )


def test_c13_text_formats_and_reports_are_stable(tmp_path):
    # the fixture corpus re-serializes byte for byte, and repeated runs
    # produce identical reports once timing is stripped
    round_trips = 0
    for name in STREAM_FIXTURES:
        text = (FIXTURES / name).read_text()
        assert write_stream(parse_stream(text)) == text, name
        round_trips += 1
    commands = [
        [
            "kcap-full",
            str(FIXTURES / "ring4_chords.txt"),
            "--t",
            "2",
            "--epsilon",
            "0.5",
            "--with-oracle",
        ],
        ["kcap-link", str(FIXTURES / "bowtie5.txt"), "--epsilon", "0.5"],
        ["kecss", str(FIXTURES / "clique4.txt"), "--epsilon", "0.5"],
        [
            "stap",
            str(FIXTURES / "path4_tap.txt"),
            "--terminals",
            "0,1,2,3",
            "--t",
            "2",
            "--epsilon",
            "0.5",
        ],
    ]
    deterministic = 0
    for idx, argv in enumerate(commands):
        reports = []
        for rep in range(2):
            out = tmp_path / f"report_{idx}_{rep}.json"
            code = cli_main(argv + ["--report", str(out)])
            assert code == 0, argv
            data = json.loads(out.read_text())
            data.pop("wall_time_s")
            reports.append(data)
        assert reports[0] == reports[1], argv
        deterministic += 1
    ok = round_trips == len(STREAM_FIXTURES) and deterministic == len(commands)
    _verdict(
        13,
        ok,
        f"{round_trips} fixtures byte-stable, {deterministic} commands deterministic",
    )
