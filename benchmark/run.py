"""Run one benchmark workload against the streamaug CLI in this checkout.

    python3 benchmark/run.py --workload cycle-augment --seed 1 --seconds 20 --trace 0

Each run is one process with no threads.  It imports ``streamaug`` from this
checkout's ``src/``, writes the workload's seeded input files, then calls
``streamaug.cli.main(argv)`` in-process for every job, pass after pass, for
as many passes as fit in ``--seconds`` (at least three).  Every output is checked
by ``checks.py``, which does not call ``streamaug``.  The last line of
standard output is one JSON object with the metrics that ``BENCHMARK.json``
lists: the end-to-end ones with ``--trace 0``, the per-layer ones from a
traced run with ``--trace 1``.  See README.md in this directory.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUPS = 15
MIN_PASSES = 3
# A run stops starting passes once another one could push it past this.
MAX_MEASURE_S = 120.0


def import_program():
    """A fresh import of streamaug from this checkout, returning its cli module."""
    for name in [m for m in sys.modules if m == "streamaug" or m.startswith("streamaug.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("streamaug.cli")
    where = Path(cli.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"streamaug was imported from {where}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, workdir: Path):
    cli = import_program()
    jobs = workloads.generate(workload, seed)
    for job in jobs:
        job.write(workdir)
    return cli, jobs


def job_digest(report_text, output_text) -> str:
    """Hash of one job's report without ``wall_time_s``, and its output file."""
    if report_text is None or output_text is None:
        return "missing"
    report = json.loads(report_text)
    report.pop("wall_time_s", None)
    h = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    h.update(b"\0" + output_text.encode())
    return h.hexdigest()


def run_pass(cli, jobs, argvs, tracer=None):
    """One timed pass over every job; returns (seconds, exit codes)."""
    codes = []
    t0 = time.perf_counter()
    for job, argv in zip(jobs, argvs):
        if tracer is not None:
            tracer.job = job.name
        try:
            codes.append(cli.main(argv))
        except Exception as exc:  # a crashing job is a failed job, not a failed benchmark
            codes.append(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, codes


def collect(jobs, workdir: Path):
    """Read and remove each job's report and output, so no pass sees stale files."""
    texts = []
    for job in jobs:
        p = job.paths(workdir)
        texts.append(tuple(
            p[k].read_text() if p[k].exists() else None for k in ("report", "out")
        ))
        p["report"].unlink(missing_ok=True)
        p["out"].unlink(missing_ok=True)
    return texts


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(name: str, values, unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{name}: median {q2:.4f} {unit} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})"


def check_outputs(jobs, codes, digests, first_texts):
    """Check the first pass in full and every later pass against its digests.

    Returns (failed job runs, problems by job, exact ratios, output totals).
    """
    import checks

    bad_jobs: dict[str, list[str]] = {}
    ratios = []
    totals = {"peak_stored": 0, "output_weight": 0}
    for job, rc, (report_text, output_text) in zip(jobs, codes[0], first_texts):
        problems = checks.verify_preconditions(job)
        found, job_ratios = checks.check_job(job, rc, report_text, output_text)
        problems += found
        ratios += job_ratios
        if problems:
            bad_jobs[job.name] = problems
        if rc == 0 and report_text is not None:
            report = json.loads(report_text)
            totals["peak_stored"] += sum(report["peak_stored"].values())
            totals["output_weight"] += report["output_weight"]
    failed = 0
    for pass_codes, pass_digests in zip(codes, digests):
        for j, job in enumerate(jobs):
            if job.name in bad_jobs or pass_codes[j] != codes[0][j] or pass_digests[j] != digests[0][j]:
                failed += 1
    return failed, bad_jobs, ratios, totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "streamaug").is_dir():
        print(f"no streamaug sources under {SRC}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}"

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_samples = []
    start = STARTED
    for _ in range(SETUPS):
        cli, jobs = set_up(args.workload, args.seed, workdir)
        now = time.perf_counter()
        setup_samples.append(now - start)
        start = now
    argvs = [job.argv(workdir) for job in jobs]
    records = sum(len(job.records) for job in jobs)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    times, traced_times, layer_samples = [], [], []
    codes, digests = [], []
    first_texts = None
    measure_start = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced passes, starting untraced.
        traced = tracer is not None and len(traced_times) < len(times)
        if traced:
            tracer.reset()
            tracer.install(sys.modules)
            try:
                elapsed, pass_codes = run_pass(cli, jobs, argvs, tracer)
            finally:
                tracer.uninstall()
            traced_times.append(elapsed)
            layer_samples.append(tracer.metrics())
        else:
            elapsed, pass_codes = run_pass(cli, jobs, argvs)
            times.append(elapsed)
        texts = collect(jobs, workdir)
        if first_texts is None:
            first_texts = texts
        codes.append(pass_codes)
        digests.append([job_digest(r, o) for r, o in texts])
        # Stop before a pass as long as the last one would overrun --seconds.
        spent = time.perf_counter() - measure_start
        enough = len(times) + len(traced_times) >= MIN_PASSES and (tracer is None or traced_times)
        if (enough and spent + elapsed > args.seconds) or spent + elapsed > MAX_MEASURE_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Checks run after the timed passes; checks.py imports networkx, which
    # would otherwise count toward peak_rss_mb.
    failed, bad_jobs, ratios, totals = check_outputs(jobs, codes, digests, first_texts)
    attempted = len(jobs) * len(codes)
    workload_digest = hashlib.sha256("".join(digests[0]).encode()).hexdigest()

    wall_s = statistics.median(times)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, "
          f"{records} stream records, {len(codes)} passes")
    print(describe("setup_s", setup_samples, "s")
          + f"; the first, counted from the start of run.py: {setup_samples[0]:.4f} s")
    print(describe("wall_s", times, "s"))
    print(f"fail_rate: {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"output_weight: {totals['output_weight']}; peak_stored: {totals['peak_stored']}")
    if ratios:
        print(f"ratio over {len(ratios)} exact references: max {float(max(ratios)):.4f}, "
              f"mean {float(sum(ratios) / len(ratios)):.4f}")
    print(f"digest: {workload_digest}")
    for name, problems in bad_jobs.items():
        print(f"FAILED {name}: {'; '.join(problems)}")

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "records_per_s": records / wall_s,
            "peak_stored": totals["peak_stored"],
            "ratio_mean": float(sum(ratios) / len(ratios)) if ratios else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    else:
        metrics = {
            key: statistics.median(sample[key] for sample in layer_samples)
            for key in layer_samples[0]
        }
        traced_wall = statistics.median(traced_times)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - wall_s
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
        metrics["trace.unattributed_s"] = traced_wall - self_sum
        print(describe("traced wall_s", traced_times, "s"))
        print(f"self time of all layers {self_sum:.4f} s of traced wall {traced_wall:.4f} s")
        for layer in spans.LAYERS:
            share = metrics[f"{layer}.self_s"] / traced_wall
            print(f"  {layer:20s} self {metrics[f'{layer}.self_s']:9.4f} s  {share:6.1%}")
        per_job = {job.name: tracer.metrics([job.name]) for job in jobs}
        report_path = workdir / "trace.json"
        report_path.write_text(json.dumps({"workload": metrics, "jobs": per_job}, indent=1, sort_keys=True))
        tracer.dump(workdir / "spans.jsonl")
        print(f"per-job layer metrics: {report_path.relative_to(ROOT)}")
        for name, m in per_job.items():
            top = sorted(spans.LAYERS, key=lambda layer: -m[f"{layer}.self_s"])[:3]
            print(f"  {name:8s} " + "  ".join(f"{layer} {m[f'{layer}.self_s']:.3f}s" for layer in top))
        wanted = spec["per_layer"]

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
