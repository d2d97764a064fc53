"""Golden reports: every CLI command and route against a committed corpus.

Each case runs ``streamaug.cli.main`` with ``--report`` and ``--output`` in a
temporary directory.  ``fixtures/report_corpus.json`` holds, per case, the
exit code, the report without ``wall_time_s`` and the ``--output`` text, each
null where the run stops before writing it.  An argument ``@name`` names a
file of ``tests/fixtures`` or, failing that, one of the inline files below.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from streamaug.cactus import cactus_build, format_cactus
from streamaug.cli import main, parse_stream

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "report_corpus.json"

_RING4 = "header n=4 k=3\nE 0 1 1\nE 1 2 1\nE 2 3 1\nE 3 0 1\n"

INLINE = {
    "ring4_links.txt": "header n=4\nL 0 2 1\nL 1 3 1\nL 0 3 4\n",
    "ring4.cactus": format_cactus(cactus_build(parse_stream(_RING4).base_edges(), 4)),
    # the chord 0-2 leaves the cuts {1} and {3} uncovered
    "ring4_one_chord.txt": _RING4 + "L 0 2 1\n",
    "path4_bare.txt": "header n=4 k=2\nE 0 1 1\nE 1 2 1\nE 2 3 1\n",
    "ring4_many_chords.txt": _RING4 + "L 0 2 1\n" * 23,
    # one minimum cut: the cactus has two nodes and unfolds to a 2-cycle
    "pair_base.txt": "header n=2 k=2\nE 0 1 1\nL 0 1 5\nL 0 1 3\n",
    "pair_links.txt": "header n=2 k=2\nL 0 1 4\nL 0 1 3\nL 0 1 9\n",
}

EPS = ["--epsilon", "0.5"]
T2 = ["--t", "2"]

CASES = {
    "spanner": ["spanner", "@spanner6.txt", *T2, *EPS],
    "kcap-link-graph": ["kcap-link", "@ring4_chords.txt", *EPS],
    "kcap-link-graph-oracle": ["kcap-link", "@ring4_chords.txt", *EPS, "--with-oracle"],
    "kcap-link-bowtie-oracle": ["kcap-link", "@bowtie5.txt", *EPS, "--with-oracle"],
    "kcap-link-cactus": ["kcap-link", "@ring4_links.txt", "--cactus", "@ring4.cactus", *EPS],
    "kcap-link-cactus-oracle": [
        "kcap-link", "@ring4_links.txt", "--cactus", "@ring4.cactus", "--k", "3", *EPS,
        "--with-oracle",
    ],
    "kcap-link-infeasible": ["kcap-link", "@ring4_one_chord.txt", *EPS, "--with-oracle"],
    "kcap-link-two-nodes": ["kcap-link", "@pair_base.txt", *EPS, "--with-oracle"],
    "kcap-full-oracle": ["kcap-full", "@ring4_chords.txt", *T2, *EPS, "--with-oracle"],
    "kcap-full-infeasible": ["kcap-full", "@ring4_one_chord.txt", *T2, *EPS, "--with-oracle"],
    "stap-oracle": [
        "stap", "@path4_tap.txt", "--terminals", "3,0,2", *T2, *EPS, "--with-oracle",
    ],
    "sndp-oracle": [
        "sndp", "@clique4.txt", "--requirements", "@reqs_all2.txt", *T2, *EPS, "--with-oracle",
    ],
    "sndp-infeasible": [
        "sndp", "@path4_bare.txt", "--requirements", "@reqs_all2.txt", *T2, *EPS,
        "--with-oracle",
    ],
    "kecss-oracle": ["kecss", "@clique4.txt", *EPS, "--with-oracle"],
    "kecss-bowtie-k2": ["kecss", "@bowtie5.txt", "--k", "2", *EPS, "--with-oracle"],
    "kecss-two-nodes": ["kecss", "@pair_links.txt", *EPS, "--with-oracle"],
    "oracle-augmentation": ["oracle", "@ring4_chords.txt"],
    "oracle-augmentation-infeasible": ["oracle", "@ring4_one_chord.txt"],
    "oracle-design": ["oracle", "@clique4.txt", "--requirements", "@reqs_all2.txt"],
    "oracle-design-infeasible": ["oracle", "@path4_bare.txt", "--requirements", "@reqs_all2.txt"],
    "oracle-size-guard": ["oracle", "@ring4_many_chords.txt"],
    "sndp-needs-k": ["sndp", "@path4_tap.txt", "--requirements", "@reqs_all2.txt", *T2, *EPS],
    "missing-stream": ["spanner", "@absent.txt", *T2, *EPS],
}


def _resolve(token: str, tmp: Path) -> str:
    if not token.startswith("@"):
        return token
    name = token[1:]
    if (FIXTURES / name).exists():
        return str(FIXTURES / name)
    path = tmp / name
    if name in INLINE:
        path.write_text(INLINE[name])
    return str(path)


def run_case(argv: list[str], tmp: Path) -> dict:
    """Exit code, report without wall_time_s, and --output text of one run."""
    report_path, output_path = tmp / "report.json", tmp / "output.txt"
    code = main(
        [_resolve(tok, tmp) for tok in argv]
        + ["--report", str(report_path), "--output", str(output_path)]
    )
    report = None
    if report_path.exists():
        report = json.loads(report_path.read_text())
        report.pop("wall_time_s")
    output = output_path.read_text() if output_path.exists() else None
    return {"exit": code, "report": report, "output": output}


def _corpus() -> dict:
    return json.loads(CORPUS.read_text())


def test_corpus_covers_exactly_the_cases():
    assert sorted(_corpus()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_corpus(name, tmp_path):
    assert run_case(CASES[name], tmp_path) == _corpus()[name]
