"""augment_over_cactus against the two blocks it replaced.

``_reference_kcap_link_arrival`` and ``_reference_kecss`` below are the
cactus-to-cycle pipelines as they stood with the block pasted into each,
including the cycle-cover oracle that reported its weight as
``oracle_weight``.  The pipelines now share one helper; reports must match
field for field, except that the cycle-cover weight moved from
``oracle_weight`` to ``details["cycle_cover_weight"]`` and counts every
chosen stream link once (the reference de-duplicated by arrival number,
which junction links share with stream links).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import support
from streamaug.cactus import cactus_build, cactus_unfold
from streamaug.cycle_aug_stream import WeightedAugState
from streamaug.errors import Infeasible
from streamaug.graph_core import (
    Arc,
    WeightedEdge,
    cut_size_table,
    edge_connectivity_at_least,
    is_connected,
)
from streamaug.oracles import (
    KCAP_MAX_LINKS,
    AugmentationInstance,
    exact_directed_cycle_cover,
    exact_kcap,
)
from streamaug.pipelines import (
    PipelineReport,
    ReplayableStream,
    _forest_path,
    _msf_weight,
    kcap_link_arrival,
    kecss,
)

EPS = Fraction(1, 2)
RING4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
BOWTIE = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]


# -- reference copies ---------------------------------------------------------


def _reference_kcap_link_arrival(
    links, *, k=None, base_edges=None, n=None, cactus=None, epsilon, with_oracle=False
):
    links = list(links)
    if cactus is None:
        base_edges = list(base_edges)
        if not is_connected(base_edges, n):
            raise ValueError("base graph must be connected")
        mc = int(cut_size_table(base_edges, n)[1:].min())
        if mc != k - 1:
            raise ValueError(
                f"base min cut is {mc}, augmentation to {k} needs exactly {k - 1}"
            )
        cactus = cactus_build(base_edges, n)
    unf = cactus_unfold(cactus)
    state = WeightedAugState(unf.length, epsilon)
    for zl in unf.links:
        state.insert(zl)
    next_arrival = len(unf.links)
    back = {}
    dropped = 0
    for link in links:
        cu, cv = cactus.phi[link.u], cactus.phi[link.v]
        if cu == cv:
            dropped += 1
            continue
        mapped = WeightedEdge(
            unf.position_of(cu), unf.position_of(cv), link.w, next_arrival
        )
        back[next_arrival] = link
        next_arrival += 1
        state.insert(mapped)
    details = {
        "cycle_length": unf.length,
        "dropped_links": dropped,
        "junction_links": len(unf.links),
    }
    try:
        cycle_links, cycle_weight = state.finalize()
    except Infeasible as exc:
        details["reason"] = str(exc)
        return PipelineReport(
            output=[],
            total_weight=0,
            peak_stored={"aug_store": state.peak_stored},
            feasible=False,
            details=details,
        )
    chosen = [back[cl.arrival] for cl in cycle_links if cl.arrival in back]
    details["cycle_weight"] = cycle_weight
    oracle_weight = None
    if with_oracle:
        if base_edges is not None and len(links) <= KCAP_MAX_LINKS:
            try:
                _, oracle_weight = exact_kcap(
                    AugmentationInstance(n=n, k=k, base=base_edges, links=links)
                )
            except Infeasible:
                oracle_weight = None
        else:
            oracle_weight = _reference_cycle_oracle(unf, cactus, links)
    return PipelineReport(
        output=chosen,
        total_weight=sum(e.w for e in chosen),
        peak_stored={"aug_store": state.peak_stored},
        feasible=True,
        oracle_weight=oracle_weight,
        details=details,
    )


def _reference_cycle_oracle(unf, cactus, links):
    arcs = []
    for zl in unf.links:
        arcs.append(Arc(zl.u, zl.v, 0, zl))
        arcs.append(Arc(zl.v, zl.u, 0, zl))
    for link in links:
        cu, cv = cactus.phi[link.u], cactus.phi[link.v]
        if cu == cv:
            continue
        pu, pv = unf.position_of(cu), unf.position_of(cv)
        arcs.append(Arc(pu, pv, link.w, link))
        arcs.append(Arc(pv, pu, link.w, link))
    try:
        chosen, _ = exact_directed_cycle_cover(unf.length, arcs)
    except Infeasible:
        return None
    seen = set()
    total = 0
    for a in chosen:
        if a.origin is not None and a.origin.arrival not in seen:
            seen.add(a.origin.arrival)
            total += a.origin.w
    return total


def _reference_kecss(stream, n, k, *, epsilon, with_oracle=False):
    if not isinstance(stream, ReplayableStream):
        stream = ReplayableStream(stream)
    forest = []
    for e in stream.replay():
        path = _forest_path(forest, n, e.u, e.v)
        if path is None:
            forest.append(e)
            continue
        worst = max(path, key=lambda x: (x.w, x.arrival))
        if worst.w > e.w:
            forest.remove(worst)
            forest.append(e)
    chosen = list(forest)
    chosen_arrivals = {e.arrival for e in chosen}
    peaks = {"pass_1": len(forest)}
    details = {"pass_oracles": {}, "pass_weights": {}}
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
        unf = cactus_unfold(cac)
        state = WeightedAugState(unf.length, epsilon)
        for zl in unf.links:
            state.insert(zl)
        next_arrival = len(unf.links)
        back = {}
        remaining = []
        for e in stream.replay():
            if e.arrival in chosen_arrivals:
                continue
            remaining.append(e)
            cu, cv = cac.phi[e.u], cac.phi[e.v]
            if cu == cv:
                continue
            mapped = WeightedEdge(
                unf.position_of(cu), unf.position_of(cv), e.w, next_arrival
            )
            back[next_arrival] = e
            next_arrival += 1
            state.insert(mapped)
        peaks[f"pass_{level}"] = state.peak_stored
        try:
            cycle_links, _ = state.finalize()
        except Infeasible as exc:
            details["reason"] = f"pass {level}: {exc}"
            return PipelineReport(
                chosen, sum(e.w for e in chosen), peaks, False, details=details
            )
        picked = [back[cl.arrival] for cl in cycle_links if cl.arrival in back]
        details["pass_weights"][f"pass_{level}"] = sum(e.w for e in picked)
        if with_oracle and len(remaining) <= KCAP_MAX_LINKS:
            try:
                _, ow = exact_kcap(
                    AugmentationInstance(n=n, k=level, base=base, links=remaining)
                )
                details["pass_oracles"][f"pass_{level}"] = ow
            except Infeasible:
                pass
        chosen.extend(picked)
        chosen_arrivals.update(e.arrival for e in picked)
    feasible = edge_connectivity_at_least(chosen, n, k)
    return PipelineReport(
        output=chosen,
        total_weight=sum(e.w for e in chosen),
        peak_stored=peaks,
        feasible=feasible,
        details=details,
    )


# -- instances ----------------------------------------------------------------


def _random_links(rng, n, count, first_arrival):
    links = []
    for j in range(count):
        u, v = rng.sample(range(n), 2)
        links.append(WeightedEdge(u, v, rng.choice([0, rng.randint(1, 50)]), first_arrival + j))
    return links


def _bases(rng):
    """(base, n, k): rings, bowties and random (k-1)-edge-connected graphs."""
    for n in range(3, 10):
        yield [(i, (i + 1) % n) for i in range(n)], n, 3
    yield BOWTIE, 5, 3
    yield BOWTIE + [(1, 2)], 5, 3
    grow = [support.random_connected_graph, support.random_two_connected_graph]
    while True:
        n = rng.randint(3, 10)
        base = rng.choice(grow)(rng, n, rng.randint(0, 2 * n))
        lam = int(cut_size_table(base, n)[1:].min())
        yield base, n, lam + 1


def _link_arrival_cases():
    rng = random.Random(2606)
    cases = []
    for (base, n, k), _ in zip(_bases(rng), range(64)):
        count = rng.choice([0, 1, 2, rng.randint(3, 12), rng.randint(23, 30)])
        first = rng.choice([0, 1000])
        cases.append((base, n, k, _random_links(rng, n, count, first), rng.random() < 0.75))
    return cases


def _check_cover_route(old, new, first_arrival):
    """Move the reference's cycle-cover weight to its new field and compare."""
    cover = new.details.pop("cycle_cover_weight")
    assert new.oracle_weight is None
    if first_arrival >= new.details["junction_links"]:
        assert cover == old.oracle_weight
    elif cover is not None and old.oracle_weight is not None:
        assert cover >= old.oracle_weight
    old.oracle_weight = None


def _outcome(pipeline, *args, **kwargs):
    """The report, or the type and message of what the pipeline raised."""
    try:
        return pipeline(*args, epsilon=EPS, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


# -- differential tests -------------------------------------------------------


@pytest.mark.parametrize("mode", ["graph", "cactus"])
def test_link_arrival_matches_the_pasted_block(mode):
    seen = {"cover": 0, "infeasible": 0, "dropped": 0, "collided": 0}
    for base, n, k, links, with_oracle in _link_arrival_cases():
        if mode == "graph":
            kwargs = {"base_edges": base, "n": n, "k": k}
        else:
            kwargs = {"cactus": cactus_build(base, n)}
        old = _outcome(_reference_kcap_link_arrival, links, with_oracle=with_oracle, **kwargs)
        new = _outcome(kcap_link_arrival, links, with_oracle=with_oracle, **kwargs)
        assert not isinstance(new, tuple), new
        if "cycle_cover_weight" in new.details:
            assert with_oracle and new.feasible
            assert mode == "cactus" or len(links) > KCAP_MAX_LINKS
            first = min(e.arrival for e in links)
            seen["collided"] += first < new.details["junction_links"]
            _check_cover_route(old, new, first)
            seen["cover"] += 1
        assert new == old
        seen["infeasible"] += not new.feasible
        seen["dropped"] += new.details["dropped_links"] > 0
    assert all(seen.values()), seen


def test_kecss_matches_the_pasted_block():
    rng = random.Random(2607)
    seen = {"feasible": 0, "infeasible": 0}
    for _ in range(30):
        n = rng.randint(3, 8)
        k = rng.choice([2, 3])
        pairs = support.random_connected_graph(rng, n, rng.randint(0, 3 * n))
        stream = [WeightedEdge(u, v, rng.randint(0, 30), i) for i, (u, v) in enumerate(pairs)]
        with_oracle = rng.random() < 0.5
        old_stream, new_stream = ReplayableStream(stream), ReplayableStream(stream)
        old = _outcome(_reference_kecss, old_stream, n, k, with_oracle=with_oracle)
        new = _outcome(kecss, new_stream, n, k, with_oracle=with_oracle)
        assert new == old
        assert new_stream.passes == old_stream.passes
        if not isinstance(new, tuple):
            seen["feasible" if new.feasible else "infeasible"] += 1
    assert all(seen.values()), seen


# -- the cycle-cover weight ---------------------------------------------------


def test_cycle_cover_counts_every_chosen_stream_link():
    # Both lobes of the bowtie need their own chord.  The junction link is
    # number 0 on the cycle, and so is the first stream link, so counting
    # by arrival number would drop that chord from the weight.
    links = [WeightedEdge(1, 3, 4, 0), WeightedEdge(2, 4, 4, 1)]
    report = kcap_link_arrival(
        links, cactus=cactus_build(BOWTIE, 5), epsilon=EPS, with_oracle=True
    )
    assert report.feasible
    assert support.link_multiset(report.output) == [(1, 3, 4), (2, 4, 4)]
    assert report.details["junction_links"] == 1
    assert report.details["cycle_cover_weight"] == 8
    assert report.oracle_weight is None
    assert report.ratio is None


def test_oracle_weight_is_null_past_the_exact_solver():
    links = [WeightedEdge(0, 2, 1, 0), WeightedEdge(1, 3, 1, 1)]
    links += [WeightedEdge(0, 2, 5, 2 + j) for j in range(KCAP_MAX_LINKS)]
    report = kcap_link_arrival(
        links, k=3, base_edges=RING4, n=4, epsilon=EPS, with_oracle=True
    )
    assert report.total_weight == 2
    assert report.oracle_weight is None
    assert report.details["cycle_cover_weight"] == 2
    exact = kcap_link_arrival(
        links[:KCAP_MAX_LINKS], k=3, base_edges=RING4, n=4, epsilon=EPS, with_oracle=True
    )
    assert exact.oracle_weight == 2
    assert "cycle_cover_weight" not in exact.details
