"""Command line front end.

Streams are plain text: a header line ``header n=<uint> [k=<uint>]``
followed by records ``E u v w`` (base edge) and ``L u v w`` (candidate
link), with ``#`` comments and blank lines ignored.  Arrival numbers are
assigned by record order.  Every command writes a JSON report (stdout or
--report) and exits 0 on success, 2 when the instance is infeasible, 3
when a size guard refuses the exact solve, and 4 on malformed input or
usage.

Every command is one function of this module that returns a
PipelineReport, and one builder turns that into the JSON report, so
``ratio`` is ``output_weight / oracle_weight`` in every report.  The
``spanner``, ``sndp`` and ``oracle`` functions stay here rather than in
pipelines: they call ``solve_sndp``, ``exact_sndp`` and ``exact_kcap``
through this module's names, which is where benchmark/spans.py wraps them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass

from .cactus import parse_cactus
from .errors import Infeasible, SizeGuardError, StreamFormatError, records
from .graph_core import WeightedEdge
from .oracles import SNDP_MAX_EDGES, AugmentationInstance, exact_kcap, exact_sndp
from .pipelines import (
    PipelineReport,
    ReplayableStream,
    StreamEvent,
    kcap_fully_streaming,
    kcap_link_arrival,
    kecss,
    stap_fully_streaming,
)
from .sndp_coreset import Cascade, Requirements, solve_sndp
from .spanner_stream import SpannerState

MAX_WEIGHT = 2**63 - 1


@dataclass
class ParsedStream:
    n: int
    k: int | None
    events: list[StreamEvent]

    def edges(self) -> list[WeightedEdge]:
        return [ev.edge for ev in self.events]

    def base_edges(self) -> list[WeightedEdge]:
        return [ev.edge for ev in self.events if ev.kind == "E"]

    def links(self) -> list[WeightedEdge]:
        return [ev.edge for ev in self.events if ev.kind == "L"]


def parse_stream(text: str) -> ParsedStream:
    n = None
    k = None
    events: list[StreamEvent] = []
    arrival = 0
    for line_no, raw, fields in records(text):
        if n is None:
            if fields[0] != "header":
                raise StreamFormatError(line_no, f"expected header line, got {fields[0]!r}")
            opts = {}
            for f in fields[1:]:
                if "=" not in f:
                    raise StreamFormatError(line_no, f"bad header field {f!r}")
                key, _, val = f.partition("=")
                opts[key] = val
            if "n" not in opts:
                raise StreamFormatError(line_no, "header must set n")
            try:
                n = int(opts["n"])
                k = int(opts["k"]) if "k" in opts else None
            except ValueError as exc:
                raise StreamFormatError(line_no, f"bad header value: {raw!r}") from exc
            if n < 1:
                raise StreamFormatError(line_no, f"n must be positive, got {n}")
            if k is not None and k < 1:
                raise StreamFormatError(line_no, f"k must be positive, got {k}")
            unknown = set(opts) - {"n", "k"}
            if unknown:
                raise StreamFormatError(line_no, f"unknown header fields {sorted(unknown)}")
            continue
        if fields[0] not in ("E", "L"):
            raise StreamFormatError(line_no, f"unknown record tag {fields[0]!r}")
        if len(fields) != 4:
            raise StreamFormatError(line_no, f"record needs 'u v w', got {raw!r}")
        try:
            u, v, w = int(fields[1]), int(fields[2]), int(fields[3])
        except ValueError as exc:
            raise StreamFormatError(line_no, f"bad record values: {raw!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise StreamFormatError(line_no, f"endpoint out of range 0..{n - 1}: {raw!r}")
        if u == v:
            kind = "self-loop link" if fields[0] == "L" else "self-loop edge"
            raise StreamFormatError(line_no, kind)
        if not 0 <= w <= MAX_WEIGHT:
            raise StreamFormatError(line_no, f"weight out of range: {w}")
        events.append(StreamEvent(fields[0], WeightedEdge(u, v, w, arrival)))
        arrival += 1
    if n is None:
        raise StreamFormatError(1, "missing header line")
    return ParsedStream(n=n, k=k, events=events)


def write_stream(parsed: ParsedStream) -> str:
    head = f"header n={parsed.n}"
    if parsed.k is not None:
        head += f" k={parsed.k}"
    lines = [head]
    for ev in parsed.events:
        lines.append(f"{ev.kind} {ev.edge.u} {ev.edge.v} {ev.edge.w}")
    return "\n".join(lines) + "\n"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = _Parser(prog="streamaug", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("stream", help="stream file path")
        p.add_argument("--report", help="write the JSON report here instead of stdout")
        p.add_argument("--output", help="write chosen links here in stream format")
        return p

    p = add("spanner", "run the spanner store over all records")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = add("kcap-link", "link-arrival augmentation of a base graph or cactus")
    p.add_argument("--k", type=int)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--cactus", help="cactus file; the stream then carries only links")
    p.add_argument("--with-oracle", action="store_true")

    p = add("kcap-full", "fully streaming augmentation (base edges and links mixed)")
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--with-oracle", action="store_true")

    p = add("stap", "fully streaming tree augmentation for terminal two-connectivity")
    p.add_argument("--terminals", required=True, help="comma-separated vertex ids")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--with-oracle", action="store_true")

    p = add("sndp", "cascade coreset plus reverse augmentation")
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--requirements", required=True)
    p.add_argument("--with-oracle", action="store_true")

    p = add("kecss", "k-pass cheap k-edge-connected subgraph")
    p.add_argument("--k", type=int)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--with-oracle", action="store_true")

    p = add("oracle", "exact solve only (augmentation, or design with --requirements)")
    p.add_argument("--k", type=int)
    p.add_argument("--requirements")

    return parser


def _need_k(args, parsed: ParsedStream, params: dict) -> int:
    k = args.k if args.k is not None else parsed.k
    if k is None:
        raise _UsageError(f"{args.command} needs k (flag --k or header)")
    params["k"] = k
    return k


def _requirements(args, parsed: ParsedStream) -> Requirements:
    with open(args.requirements) as fh:
        return Requirements.parse(fh.read(), parsed.n)


def _spanner(args, parsed: ParsedStream, params: dict) -> PipelineReport:
    st = SpannerState(parsed.n, args.t, args.epsilon)
    for e in parsed.edges():
        st.insert(e)
    return PipelineReport(st.edges(), st.total_weight(), {"spanner": st.peak_stored}, True)


def _kcap_link(args, parsed: ParsedStream, params: dict) -> PipelineReport:
    if args.cactus:
        with open(args.cactus) as fh:
            cac = parse_cactus(fh.read())
        if parsed.base_edges():
            raise StreamFormatError(1, "cactus mode stream cannot carry base edges")
        params["k"] = args.k
        mode = {"cactus": cac}
    else:
        k = _need_k(args, parsed, params)
        mode = {"base_edges": parsed.base_edges(), "n": parsed.n, "k": k}
    return kcap_link_arrival(
        parsed.links(), epsilon=args.epsilon, with_oracle=args.with_oracle, **mode
    )


def _kcap_full(args, parsed: ParsedStream, params: dict) -> PipelineReport:
    k = _need_k(args, parsed, params)
    return kcap_fully_streaming(
        parsed.events, parsed.n, k, t=args.t, epsilon=args.epsilon, with_oracle=args.with_oracle
    )


def _stap(args, parsed: ParsedStream, params: dict) -> PipelineReport:
    try:
        terminals = [int(x) for x in args.terminals.split(",") if x != ""]
    except ValueError:
        raise _UsageError(f"bad terminal list {args.terminals!r}")
    params["terminals"] = terminals
    return stap_fully_streaming(
        parsed.events,
        parsed.n,
        terminals,
        t=args.t,
        epsilon=args.epsilon,
        with_oracle=args.with_oracle,
    )


def _sndp(args, parsed: ParsedStream, params: dict) -> PipelineReport:
    k = _need_k(args, parsed, params)
    reqs = _requirements(args, parsed)
    cascade = Cascade(parsed.n, k, args.t, args.epsilon)
    for e in parsed.edges():
        cascade.insert(e)
    peaks = {f"layer_{i}": cascade.layer_state(i).peak_stored for i in range(1, k + 1)}
    try:
        sol = solve_sndp(cascade, reqs)
    except Infeasible:
        return PipelineReport([], 0, peaks, False)
    oracle_weight = None
    if args.with_oracle and len(parsed.events) <= SNDP_MAX_EDGES:
        try:
            _, oracle_weight = exact_sndp(parsed.n, parsed.edges(), reqs)
        except Infeasible:
            pass
    details = {"phase_weights": [sum(e.w for e in ph) for ph in sol.phases]}
    return PipelineReport(
        list(sol.edges), sol.weight, peaks, True, oracle_weight=oracle_weight, details=details
    )


def _kecss(args, parsed: ParsedStream, params: dict) -> PipelineReport:
    k = _need_k(args, parsed, params)
    stream = ReplayableStream(parsed.edges())
    result = kecss(stream, parsed.n, k, epsilon=args.epsilon, with_oracle=args.with_oracle)
    result.details["passes"] = stream.passes
    return result


def _oracle(args, parsed: ParsedStream, params: dict) -> PipelineReport:
    try:
        if args.requirements:
            chosen, weight = exact_sndp(parsed.n, parsed.edges(), _requirements(args, parsed))
        else:
            k = _need_k(args, parsed, params)
            instance = AugmentationInstance(
                n=parsed.n, k=k, base=parsed.base_edges(), links=parsed.links()
            )
            chosen, weight = exact_kcap(instance)
    except Infeasible:
        return PipelineReport([], 0, {}, False)
    return PipelineReport(chosen, weight, {}, True, oracle_weight=weight)


# Values are this module's own functions: they look the tracer-wrapped names
# (kcap_link_arrival, solve_sndp, exact_kcap, ...) up when called.
_COMMANDS = {
    "spanner": _spanner,
    "kcap-link": _kcap_link,
    "kcap-full": _kcap_full,
    "stap": _stap,
    "sndp": _sndp,
    "kecss": _kecss,
    "oracle": _oracle,
}


def _dispatch(args) -> tuple[dict, list[WeightedEdge]]:
    with open(args.stream) as fh:
        parsed = parse_stream(fh.read())
    params = {
        "epsilon": getattr(args, "epsilon", None),
        "k": None,
        "t": getattr(args, "t", None),
        "terminals": None,
    }
    result = _COMMANDS[args.command](args, parsed, params)
    report = {
        "command": args.command,
        "feasible": result.feasible,
        "n": parsed.n,
        "oracle_weight": result.oracle_weight,
        "output_size": len(result.output),
        "output_weight": result.total_weight,
        "parameters": params,
        "peak_stored": dict(result.peak_stored),
        "ratio": result.ratio,
        "details": result.details,
    }
    return report, result.output


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        report, output = _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 4
    except (StreamFormatError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 4
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 3
    report["wall_time_s"] = round(time.perf_counter() - started, 6)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    try:
        if args.report:
            with open(args.report, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if args.output:
            chosen = [StreamEvent("L", e) for e in output]
            with open(args.output, "w") as fh:
                fh.write(write_stream(ParsedStream(report["n"], None, chosen)))
    except OSError as exc:
        print(f"write error: {exc}", file=sys.stderr)
        return 4
    return 0 if report["feasible"] else 2


if __name__ == "__main__":
    sys.exit(main())
