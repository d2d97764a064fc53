"""Tests for the stream grammar and the command line front end."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamaug.cactus import cactus_build, format_cactus
from streamaug.cli import MAX_WEIGHT, ParsedStream, build_parser, main, parse_stream, write_stream
from streamaug.errors import StreamFormatError
from streamaug.graph_core import WeightedEdge
from streamaug.pipelines import StreamEvent

FIXTURES = Path(__file__).parent / "fixtures"
STREAM_FIXTURES = [
    "ring4_chords.txt",
    "bowtie5.txt",
    "path4_tap.txt",
    "clique4.txt",
    "spanner6.txt",
]


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _report(argv, capsys):
    code, out, _err = _run(argv, capsys)
    return code, json.loads(out)


# -- stream grammar ---------------------------------------------------------


def test_parse_stream_minimal_example():
    parsed = parse_stream("header n=4 k=3\nE 0 1 1\nL 0 2 5\n")
    assert parsed.n == 4
    assert parsed.k == 3
    assert parsed.base_edges() == [WeightedEdge(0, 1, 1, 0)]
    assert parsed.links() == [WeightedEdge(0, 2, 5, 1)]


def test_parse_stream_skips_comments_and_blanks():
    noisy = "# instance\n\nheader n=4 k=3\n# ring\nE 0 1 1\n\nL 0 2 5\n"
    assert parse_stream(noisy) == parse_stream("header n=4 k=3\nE 0 1 1\nL 0 2 5\n")


def test_parse_stream_header_is_optional_about_k():
    parsed = parse_stream("header n=3\nE 0 1 7\n")
    assert parsed.k is None


@pytest.mark.parametrize(
    "text,line",
    [
        ("E 0 1 1\n", 1),
        ("", 1),
        ("header k=3\n", 1),
        ("header n=four\n", 1),
        ("header n=0\n", 1),
        ("header n=4 k=0\n", 1),
        ("header n=4 q=2\n", 1),
        ("header n=4 kq\n", 1),
        ("header n=4\nX 0 1 1\n", 2),
        ("header n=4\nE 0 1\n", 2),
        ("header n=4\nE a b c\n", 2),
        ("header n=4\nE 0 9 1\n", 2),
        ("header n=4\nL 0 0 1\n", 2),
        ("header n=4\nE 0 1 -1\n", 2),
        (f"header n=4\nE 0 1 {MAX_WEIGHT + 1}\n", 2),
    ],
)
def test_parse_stream_rejects_malformed_text(text, line):
    with pytest.raises(StreamFormatError) as err:
        parse_stream(text)
    assert err.value.line_no == line


def test_self_loop_message_names_the_record_kind():
    with pytest.raises(StreamFormatError, match="self-loop link"):
        parse_stream("header n=4\nL 2 2 1\n")
    with pytest.raises(StreamFormatError, match="self-loop edge"):
        parse_stream("header n=4\nE 2 2 1\n")


def test_write_stream_round_trips_parsed_values():
    text = "header n=4 k=3\nE 0 1 1\nL 0 2 5\n"
    parsed = parse_stream(text)
    assert write_stream(parsed) == text
    assert parse_stream(write_stream(parsed)) == parsed


_records = st.lists(
    st.tuples(
        st.sampled_from("EL"),
        st.integers(0, 7),
        st.integers(0, 7),
        st.integers(0, MAX_WEIGHT),
    ).filter(lambda r: r[1] != r[2]),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(8, 40), k=st.one_of(st.none(), st.integers(1, 9)), records=_records)
def test_write_stream_round_trips_generated_streams(n, k, records):
    events = [
        StreamEvent(tag, WeightedEdge(u, v, w, i)) for i, (tag, u, v, w) in enumerate(records)
    ]
    parsed = ParsedStream(n=n, k=k, events=events)
    assert parse_stream(write_stream(parsed)) == parsed


def test_fixture_corpus_reserializes_byte_identically():
    for name in STREAM_FIXTURES:
        text = (FIXTURES / name).read_text()
        assert write_stream(parse_stream(text)) == text, name


def test_noisy_variant_normalizes_to_the_fixture():
    canonical = (FIXTURES / "ring4_chords.txt").read_text()
    noisy = "# ring with both chords\n" + canonical.replace(
        "E 2 3 1\n", "\nE  2  3  1\n# links follow\n"
    )
    assert write_stream(parse_stream(noisy)) == canonical


# -- command line -----------------------------------------------------------


def test_cli_spanner_reports_store_contents(capsys):
    code, report = _report(
        ["spanner", str(FIXTURES / "spanner6.txt"), "--t", "2", "--epsilon", "0.5"],
        capsys,
    )
    assert code == 0
    assert report["command"] == "spanner"
    assert report["n"] == 6
    assert report["feasible"] is True
    assert 5 <= report["output_size"] <= 8
    assert report["peak_stored"]["spanner"] >= report["output_size"]
    assert report["parameters"]["t"] == 2
    assert set(report) == {
        "command",
        "details",
        "feasible",
        "n",
        "oracle_weight",
        "output_size",
        "output_weight",
        "parameters",
        "peak_stored",
        "ratio",
        "wall_time_s",
    }


def test_cli_link_arrival_augments_the_ring(capsys):
    code, report = _report(
        [
            "kcap-link",
            str(FIXTURES / "ring4_chords.txt"),
            "--epsilon",
            "0.5",
            "--with-oracle",
        ],
        capsys,
    )
    assert code == 0
    assert report["output_weight"] == 2
    assert report["oracle_weight"] == 2
    assert report["ratio"] == 1.0
    assert report["parameters"]["k"] == 3


def test_cli_link_arrival_cactus_mode(tmp_path, capsys):
    cac = cactus_build([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    cactus_file = tmp_path / "ring4.cactus"
    cactus_file.write_text(format_cactus(cac))
    stream = tmp_path / "links.txt"
    stream.write_text("header n=4\nL 0 2 1\nL 1 3 1\n")
    code, report = _report(
        [
            "kcap-link",
            str(stream),
            "--cactus",
            str(cactus_file),
            "--epsilon",
            "0.5",
            "--with-oracle",
        ],
        capsys,
    )
    assert code == 0
    assert report["output_weight"] == 2
    assert report["oracle_weight"] is None
    assert report["ratio"] is None
    assert report["details"]["cycle_cover_weight"] == 2


def test_cli_one_node_cactus_has_no_cut_to_cover(tmp_path, capsys):
    # a one-node cactus folds no cut: its unfolded cycle has length 1, every
    # link lies inside the one node, and the empty link set is the answer
    cactus_file = tmp_path / "one.cactus"
    cactus_file.write_text("cactus m=1 n=3\nP 0 0\nP 1 0\nP 2 0\n")
    stream = tmp_path / "links.txt"
    stream.write_text("header n=3\nL 0 1 5\nL 1 2 3\n")
    argv = ["kcap-link", str(stream), "--cactus", str(cactus_file), "--epsilon", "0.5"]
    for extra in ([], ["--with-oracle"]):
        code, report = _report(argv + extra, capsys)
        assert code == 0
        assert report["feasible"] is True
        assert (report["output_size"], report["output_weight"]) == (0, 0)
        assert report["details"]["cycle_length"] == 1
        assert report["details"]["dropped_links"] == 2


def test_cli_cactus_mode_refuses_base_edges(tmp_path, capsys):
    cac = cactus_build([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    cactus_file = tmp_path / "ring4.cactus"
    cactus_file.write_text(format_cactus(cac))
    code, _out, err = _run(
        [
            "kcap-link",
            str(FIXTURES / "ring4_chords.txt"),
            "--cactus",
            str(cactus_file),
            "--epsilon",
            "0.5",
        ],
        capsys,
    )
    assert code == 4
    assert "parse error" in err


def test_cli_cactus_mode_refuses_link_ends_outside_the_vertex_map(tmp_path, capsys):
    # the 4-node ring's cactus maps vertices 0..3; vertex 7 has no node
    cac = cactus_build([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    cactus_file = tmp_path / "ring4.cactus"
    cactus_file.write_text(format_cactus(cac))
    stream = tmp_path / "links.txt"
    stream.write_text("header n=10\nL 0 7 1\n")
    code, _out, err = _run(
        ["kcap-link", str(stream), "--cactus", str(cactus_file), "--epsilon", "0.5"], capsys
    )
    assert code == 4
    assert "out of range" in err


def test_cli_fully_streaming_bowtie(capsys):
    code, report = _report(
        [
            "kcap-full",
            str(FIXTURES / "bowtie5.txt"),
            "--t",
            "2",
            "--epsilon",
            "0.5",
            "--with-oracle",
        ],
        capsys,
    )
    assert code == 0
    assert report["output_weight"] == 8
    assert report["oracle_weight"] == 8
    assert report["peak_stored"]["certificate"] > 0
    assert report["peak_stored"]["spanner"] > 0


def test_cli_stap_path_fixture(capsys):
    code, report = _report(
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
        capsys,
    )
    assert code == 0
    assert report["output_weight"] == 2
    assert report["parameters"]["terminals"] == [0, 1, 2, 3]


def test_cli_sndp_clique_fixture(capsys):
    code, report = _report(
        [
            "sndp",
            str(FIXTURES / "clique4.txt"),
            "--t",
            "2",
            "--epsilon",
            "0.5",
            "--requirements",
            str(FIXTURES / "reqs_all2.txt"),
            "--with-oracle",
        ],
        capsys,
    )
    assert code == 0
    assert set(report["peak_stored"]) == {"layer_1", "layer_2"}
    assert len(report["details"]["phase_weights"]) == 2
    assert report["oracle_weight"] == 4
    assert report["output_weight"] >= 4
    assert report["ratio"] == report["output_weight"] / 4


def test_cli_kecss_clique_fixture(capsys):
    code, report = _report(
        ["kecss", str(FIXTURES / "clique4.txt"), "--epsilon", "0.5"],
        capsys,
    )
    assert code == 0
    assert report["feasible"] is True
    assert report["details"]["passes"] == 2
    assert report["output_weight"] == 5


def test_cli_oracle_command(capsys):
    code, report = _report(
        ["oracle", str(FIXTURES / "ring4_chords.txt")],
        capsys,
    )
    assert code == 0
    assert report["output_weight"] == 2
    assert report["oracle_weight"] == 2


def test_cli_oracle_with_requirements(capsys):
    code, report = _report(
        [
            "oracle",
            str(FIXTURES / "clique4.txt"),
            "--requirements",
            str(FIXTURES / "reqs_all2.txt"),
        ],
        capsys,
    )
    assert code == 0
    assert report["output_weight"] == 4


def test_cli_infeasible_instance_exits_two(tmp_path, capsys):
    stream = tmp_path / "ring_only.txt"
    stream.write_text("header n=4 k=3\nE 0 1 1\nE 1 2 1\nE 2 3 1\nE 3 0 1\n")
    code, report = _report(
        ["kcap-full", str(stream), "--t", "2", "--epsilon", "0.5"],
        capsys,
    )
    assert code == 2
    assert report["feasible"] is False


def test_cli_size_guard_exits_three(tmp_path, capsys):
    lines = ["header n=4 k=3"]
    lines += [f"E {u} {v} 1" for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]]
    lines += ["L 0 2 1"] * 23
    stream = tmp_path / "big.txt"
    stream.write_text("\n".join(lines) + "\n")
    code, _out, err = _run(["oracle", str(stream)], capsys)
    assert code == 3
    assert "size guard" in err


def test_cli_usage_and_parse_failures_exit_four(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("header n=4\nL 0 0 1\n")
    cases = [
        ["kcap-link", str(bad), "--epsilon", "0.5", "--k", "3"],
        ["frobnicate", str(bad)],
        ["spanner", str(bad), "--t", "2"],
        ["spanner", str(tmp_path / "missing.txt"), "--t", "2", "--epsilon", "0.5"],
        ["stap", str(FIXTURES / "path4_tap.txt"), "--terminals", "0,x", "--t", "2", "--epsilon", "0.5"],
        ["kcap-full", str(FIXTURES / "path4_tap.txt"), "--t", "2", "--epsilon", "0.5"],
        ["spanner", str(FIXTURES / "spanner6.txt"), "--t", "2", "--epsilon", "inf"],
        ["kecss", str(FIXTURES / "ring4_chords.txt"), "--k", "3", "--epsilon", "inf"],
        ["spanner", str(tmp_path), "--t", "2", "--epsilon", "0.5"],
        ["sndp", str(FIXTURES / "clique4.txt"), "--k", "2", "--t", "2", "--epsilon", "0.5",
         "--requirements", str(tmp_path)],
        ["spanner", str(FIXTURES / "spanner6.txt"), "--t", "2", "--epsilon", "0.5",
         "--report", str(tmp_path / "missing" / "report.json")],
        ["spanner", str(FIXTURES / "spanner6.txt"), "--t", "2", "--epsilon", "0.5",
         "--output", str(tmp_path / "missing" / "links.txt")],
    ]
    for argv in cases:
        code, _out, _err = _run(argv, capsys)
        assert code == 4, argv


def test_cli_epsilon_above_one_exits_four_at_every_stretch(capsys):
    # at t >= 2 the spanner's tightened eps/(2t-1) is in (0, 1] even for
    # eps = 2, so the commands must check eps itself
    for argv in (
        ["kcap-full", str(FIXTURES / "ring4_chords.txt"), "--k", "3"],
        ["stap", str(FIXTURES / "path4_tap.txt"), "--terminals", "0,3"],
    ):
        for t in ("1", "2", "3"):
            code, out, err = _run(argv + ["--t", t, "--epsilon", "2"], capsys)
            assert code == 4, (argv, t)
            assert out == ""
            assert "epsilon must lie in (0, 1]" in err


def test_cli_invalid_instance_exits_four(capsys):
    # the ring is already two-connected, augmenting it "to" 2 is refused
    code, _out, err = _run(
        [
            "kcap-link",
            str(FIXTURES / "ring4_chords.txt"),
            "--k",
            "2",
            "--epsilon",
            "0.5",
        ],
        capsys,
    )
    assert code == 4
    assert "invalid instance" in err


@pytest.mark.parametrize(
    "text,argv,weight",
    [
        ("header n=2 k=2\nE 0 1 1\nL 0 1 5\nL 0 1 3\n", ["kcap-link"], 3),
        ("header n=2 k=2\nL 0 1 4\nL 0 1 3\nL 0 1 9\n", ["kecss"], 7),
    ],
    ids=["kcap-link", "kecss"],
)
def test_cli_one_minimum_cut_augments_over_a_two_cycle(tmp_path, capsys, text, argv, weight):
    # a base with exactly one minimum cut has a two-node cactus, whose
    # unfolded cycle has length 2 and the single interval [1, 1]
    stream = tmp_path / "pair.txt"
    stream.write_text(text)
    code, report = _report(argv + [str(stream), "--epsilon", "0.5"], capsys)
    assert code == 0
    assert report["output_weight"] == weight


def test_cli_underconnected_base_exits_four_in_both_kcap_commands(tmp_path, capsys):
    # a path is only one-edge-connected, so it is no base for k=3; at 26
    # vertices it is also past the 24-vertex guard of the cut table
    for n in (4, 26):
        stream = tmp_path / f"path{n}_base.txt"
        base = "".join(f"E {i} {i + 1} 1\n" for i in range(n - 1))
        stream.write_text(f"header n={n} k=3\n{base}L 0 {n - 1} 1\nL 0 2 1\n")
        for argv in (
            ["kcap-link", str(stream), "--epsilon", "0.5"],
            ["kcap-full", str(stream), "--t", "2", "--epsilon", "0.5"],
        ):
            code, out, err = _run(argv, capsys)
            assert code == 4, (n, argv)
            assert out == ""
            assert "invalid instance" in err


def _same_report_with_and_without_oracle(argv, capsys):
    reports = []
    for extra in ([], ["--with-oracle"]):
        code, out, err = _run(argv + extra, capsys)
        assert code == 0, err
        reports.append(json.loads(out))
    plain, with_oracle = reports
    assert with_oracle["oracle_weight"] is None and with_oracle["ratio"] is None
    plain.pop("wall_time_s")
    with_oracle.pop("wall_time_s")
    assert with_oracle == plain


def test_cli_kcap_full_skips_the_oracle_past_its_link_guard(tmp_path, capsys):
    # 30 links on an 8-ring: the spanner keeps few enough for the exact
    # finalize, but the oracle over every link is past KCAP_MAX_LINKS
    n = 8
    chords = [(u, v) for u in range(n) for v in range(u + 2, n) if (u, v) != (0, n - 1)]
    links = [(u, v, 1 + 3 * i % 7) for i, (u, v) in enumerate(chords)]
    links += [(u, v, 2 + 5 * i % 9) for i, (u, v) in enumerate(chords[:10])]
    lines = [f"header n={n} k=3"] + [f"E {i} {(i + 1) % n} 1" for i in range(n)]
    lines += [f"L {u} {v} {w}" for u, v, w in links]
    stream = tmp_path / "ring8.txt"
    stream.write_text("\n".join(lines) + "\n")
    assert len(links) == 30
    _same_report_with_and_without_oracle(
        ["kcap-full", str(stream), "--t", "2", "--epsilon", "0.5"], capsys
    )


def test_cli_stap_skips_the_oracle_past_its_edge_guard(tmp_path, capsys):
    # 5 path edges plus 20 links exceed the exact design's 20-edge guard
    n = 6
    pairs = [(u, v) for u in range(n) for v in range(u + 2, n)]
    links = [(u, v, 1 + 2 * i % 5) for i, (u, v) in enumerate(pairs)]
    links += [(u, v, 3 + i % 4) for i, (u, v) in enumerate(pairs[:10])]
    lines = [f"header n={n}"] + [f"E {i} {i + 1} 1" for i in range(n - 1)]
    lines += [f"L {u} {v} {w}" for u, v, w in links]
    stream = tmp_path / "path6.txt"
    stream.write_text("\n".join(lines) + "\n")
    assert len(links) == 20
    _same_report_with_and_without_oracle(
        ["stap", str(stream), "--terminals", "0,1,2,3,4,5", "--t", "2", "--epsilon", "0.5"],
        capsys,
    )


def test_cli_sndp_skips_the_oracle_past_its_edge_guard(tmp_path, capsys):
    # 24 edges exceed the exact design's 20-edge guard; the coreset solve
    # itself is fine, so the report is the one without the oracle
    n = 6
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [(u, v, 1 + 3 * i % 7) for i, (u, v) in enumerate(pairs)]
    edges += [(u, v, 2 + i % 5) for i, (u, v) in enumerate(pairs[:9])]
    lines = [f"header n={n}"] + [f"E {u} {v} {w}" for u, v, w in edges]
    stream = tmp_path / "k6.txt"
    stream.write_text("\n".join(lines) + "\n")
    reqs = tmp_path / "reqs.txt"
    reqs.write_text("R 0 3 2\nR 1 4 1\n")
    assert len(edges) == 24
    _same_report_with_and_without_oracle(
        ["sndp", str(stream), "--k", "2", "--t", "2", "--epsilon", "0.5",
         "--requirements", str(reqs)],
        capsys,
    )


def test_cli_back_to_back_runs_match_separate_runs(capsys):
    # the parser is built once per process and must carry nothing between calls
    runs = [
        ["spanner", str(FIXTURES / "spanner6.txt"), "--t", "2", "--epsilon", "0.5"],
        ["spanner", str(FIXTURES / "spanner6.txt"), "--t", "2"],
        ["oracle", str(FIXTURES / "clique4.txt"), "--requirements",
         str(FIXTURES / "reqs_all2.txt")],
        ["frobnicate", str(FIXTURES / "clique4.txt")],
        ["oracle", str(FIXTURES / "ring4_chords.txt")],
    ]

    def outcome(argv):
        code, out, err = _run(argv, capsys)
        report = json.loads(out) if out else None
        if report:
            report.pop("wall_time_s")
        return code, report, err

    together = [outcome(argv) for argv in runs]
    separate = []
    for argv in runs:
        build_parser.cache_clear()
        separate.append(outcome(argv))
    assert together == separate
    assert [code for code, _, _ in together] == [0, 4, 0, 4, 0]
    assert together[2][1]["output_weight"] == 4
    assert together[4][1]["output_weight"] == 2


def test_cli_reports_are_deterministic(capsys):
    argv = [
        "kcap-full",
        str(FIXTURES / "ring4_chords.txt"),
        "--t",
        "2",
        "--epsilon",
        "0.5",
        "--with-oracle",
    ]
    _code, first = _report(argv, capsys)
    _code, second = _report(argv, capsys)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


def test_cli_report_and_output_files(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    output_file = tmp_path / "chosen.txt"
    code, out, _err = _run(
        [
            "kcap-link",
            str(FIXTURES / "ring4_chords.txt"),
            "--epsilon",
            "0.5",
            "--report",
            str(report_file),
            "--output",
            str(output_file),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    report = json.loads(report_file.read_text())
    assert report["output_weight"] == 2
    assert output_file.read_text() == "header n=4\nL 0 2 1\nL 1 3 1\n"
    # the emitted links parse back as a valid stream
    parsed = parse_stream(output_file.read_text())
    assert [e.pair for e in parsed.links()] == [(0, 2), (1, 3)]


_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import streamaug
from streamaug.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code != 0:
        sys.exit(f"exit code {code} for {argv}")
"""


def test_cli_runs_without_numpy(tmp_path):
    reqs = str(FIXTURES / "reqs_all2.txt")
    clique = str(FIXTURES / "clique4.txt")
    cases = [
        ["kcap-link", str(FIXTURES / "ring4_chords.txt"), "--epsilon", "0.5", "--with-oracle"],
        ["sndp", clique, "--t", "2", "--epsilon", "0.5", "--requirements", reqs, "--with-oracle"],
        ["oracle", clique, "--requirements", reqs],
    ]
    cases = [argv + ["--report", str(tmp_path / f"{i}.json")] for i, argv in enumerate(cases)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(cases)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    weights = [json.loads((tmp_path / f"{i}.json").read_text())["oracle_weight"] for i in range(3)]
    assert weights == [2, 4, 4]
