"""End-to-end and per-layer benchmark of the causaldp command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json and built by `inputs.py`.  Every job
is one in-process call of `causaldp.cli.main(argv)` with stdout captured,
run one at a time by a single client (a closed loop, no threads).

With `--trace 0` the run times whole passes over the job list: at least
three, at least 100 timed jobs (so ten lie beyond the 90th percentile) and
about `--seconds` of work.  With `--trace 1` it runs one untraced and one
traced pass and reports per-layer self times and work counts.  The first
pass's outputs are checked by `gate.py` outside the timed region, and every
later pass must repeat them byte for byte.  End-to-end times are corrected
for the host's speed, measured by `calibrate()` around every job and set-up
(README.md, "Host speed").  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from io import StringIO
from pathlib import Path

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Seconds `calibrate()` takes on the 2-vCPU Xeon host the benchmark was built
# on, at that host's full speed.  Measured times are divided by the host's
# slowdown against it; see "Host speed" in README.md.
REFERENCE_S = 2.2e-3

P90 = 0.9

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sem.lift.calls": "count",
    "sem.lift.self_s": "s",
    "sem.lift.cells": "count",
    "sem.validate.calls": "count",
    "sem.validate.self_s": "s",
    "mechanisms.engine.calls": "count",
    "mechanisms.engine.self_s": "s",
    "mechanisms.engine.cross_checks": "count",
    "mechanisms.as_sem.calls": "count",
    "mechanisms.as_sem.self_s": "s",
    "mechanisms.classic_epsilon.self_s": "s",
    "dist.condition.calls": "count",
    "dist.condition.self_s": "s",
    "dist.condition.scanned": "count",
    "dist.condition.kept_frac": "ratio",
    "dist.marginal.calls": "count",
    "dist.marginal.self_s": "s",
    "dist.marginal.scanned": "count",
    "reports.offer.calls": "count",
    "reports.offer.vacuous": "count",
    "checkers.sweep.self_s": "s",
    "checkers.falsify.calls": "count",
    "checkers.falsify.candidates": "count",
    "checkers.falsify.self_s": "s",
    "modelfile.parse.calls": "count",
    "modelfile.parse.self_s": "s",
    "modelfile.parse.bytes_in": "bytes",
    "modelfile.digest.self_s": "s",
    "modelfile.serialize.self_s": "s",
    "modelfile.serialize.bytes_out": "bytes",
    "scenarios.run.self_s": "s",
    "brp.self_s": "s",
    "adversary.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share q
    of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_needed(q: float, beyond: int = 10) -> int:
    """Samples for `beyond` of them to lie above the q-th percentile."""
    return math.ceil(round(beyond / (1 - q), 9))


def passes_needed(jobs_per_pass: int, pass_s: float, seconds: float) -> int:
    """Whole passes covering about `seconds`: at least three, so each job has
    a median, and enough samples for the 90th percentile."""
    return max(3, math.ceil(samples_needed(P90) / jobs_per_pass), round(seconds / pass_s))


# --- running jobs -----------------------------------------------------------------


def calibrate() -> float:
    """Seconds the host takes for a fixed piece of exact-rational Python work,
    the kind of work every job does."""
    start = time.perf_counter()
    total = Fraction(0)
    sums: dict[tuple, Fraction] = {}
    for i in range(1, 400):
        w = Fraction(i % 13 + 1, i % 17 + 2)
        key = (i % 7, i % 11)
        sums[key] = sums.get(key, Fraction(0)) + w
        total += w * w
    return time.perf_counter() - start


@dataclass(frozen=True)
class Result:
    """What one CLI call returned; `code` is None when it raised."""

    code: int | None
    stdout: str
    stderr: str
    files: dict[str, bytes | None] = field(default_factory=dict)


def run_job(cli_main, job, call=None):
    """One CLI call with stdout and stderr captured; returns (Result, seconds).
    `call` lets the traced pass put a root span around the call."""
    for path in job.files:
        Path(path).unlink(missing_ok=True)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = call(job.name, cli_main, job.argv) if call else cli_main(job.argv)
        except Exception:  # a crash is a failed job, not a crashed benchmark
            code = None
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - start
    files = {}
    for path in job.files:
        p = Path(path)
        files[path] = p.read_bytes() if p.is_file() else None
    return Result(code, out.getvalue(), err.getvalue(), files), elapsed


def run_pass(cli_main, jobs, call=None):
    """Every job once: (Result, seconds, host slowdown around the job)."""
    out = []
    before = calibrate()
    for job in jobs:
        result, elapsed = run_job(cli_main, job, call)
        after = calibrate()
        out.append((result, elapsed, (before + after) / 2 / REFERENCE_S))
        before = after
    return out


def time_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """(seconds, host slowdown) of one set-up in a fresh interpreter."""
    before = calibrate()
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
        check=True, cwd=ROOT, timeout=120,
    )
    elapsed = time.perf_counter() - start
    return elapsed, (before + calibrate()) / 2 / REFERENCE_S


# --- one run ----------------------------------------------------------------------


def benchmark(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    import causaldp.cli as cli
    import gate

    if Path(cli.__file__).resolve().parent != SRC / "causaldp":
        raise RuntimeError(f"imported causaldp from {cli.__file__}, not from {SRC}")
    setups = [time_setup(workload, seed, workdir)]
    jobs = inputs.build(workload, seed, workdir).jobs

    start = time.perf_counter()
    passes = [run_pass(cli.main, jobs)]
    first_s = time.perf_counter() - start
    tracer = None
    if trace:
        tracer = spans.Tracer()
        with tracer.installed():
            passes.append(run_pass(cli.main, jobs, tracer.root))
        for where in tracer.missing:
            print(f"trace target no longer exists: {where}", file=sys.stderr)
    else:
        # set-ups are spread between the passes, so that their median, like
        # the jobs' medians, spans the whole run
        for _ in range(passes_needed(len(jobs), first_s, seconds) - 1):
            setups.append(time_setup(workload, seed, workdir))
            passes.append(run_pass(cli.main, jobs))
        setups.append(time_setup(workload, seed, workdir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # every pass must repeat the first one byte for byte
    reference = [result for result, _, _ in passes[0]]
    problems = {job.name: gate.verify(job, ref) for job, ref in zip(jobs, reference)}
    attempted = failed = 0
    for results in passes:
        for job, ref, (result, _, _) in zip(jobs, reference, results):
            attempted += 1
            if result != ref and not problems[job.name]:
                problems[job.name] = ["output differs between passes"]
            failed += bool(problems[job.name])

    report = {
        "workload": workload,
        "seed": seed,
        "jobs_per_pass": len(jobs),
        "passes": len(passes),
        "samples": len(jobs) * len(passes),
        "fail_frac": failed / attempted,
        "host_slowdown": statistics.median(f for results in passes for _, _, f in results),
        "problems": {k: v for k, v in problems.items() if v},
    }
    if trace:
        untraced, traced = (sum(e / f for _, e, f in results) for results in passes)
        metrics = layer_metrics(tracer, traced / untraced - 1)
        report["missing_trace_targets"] = tracer.missing
        report["spans"] = len(tracer.spans)
    else:
        ok_share = 1 - failed / attempted
        metrics = timing_metrics(passes, setups, ok_share, corrected=True)
        metrics["peak_rss_mb"] = peak_rss_mb
        report["uncorrected"] = timing_metrics(passes, setups, ok_share, corrected=False)
    return report, metrics, attempted, failed


def timing_metrics(passes, setups, ok_share: float, corrected: bool) -> dict[str, float]:
    """End-to-end timings, in seconds at the reference host speed when
    `corrected`, else as the clock read them."""

    def seconds(elapsed, slowdown):
        return elapsed / slowdown if corrected else elapsed

    latencies = [seconds(e, f) for results in passes for _, e, f in results]
    # each job at its median latency over the passes: a slow or fast spell
    # of the machine during one pass does not move it
    pass_s = sum(
        statistics.median(seconds(*results[j][1:]) for results in passes)
        for j in range(len(passes[0]))
    )
    return {
        "setup_s": statistics.median(seconds(e, f) for e, f in setups),
        "jobs_per_s": len(passes[0]) * ok_share / pass_s,
        "job_s_p50": percentile(latencies, 0.5),
        "job_s_p90": percentile(latencies, P90),
    }


def layer_metrics(tracer: spans.Tracer, overhead: float) -> dict[str, float]:
    recorded = tracer.spans
    self_s = spans.layer_self_times(recorded)
    counts = tracer.counts
    out: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "self_s":
            out[name] = self_s[layer]
        else:
            out[name] = counts[name]
    scanned = counts["dist.condition.scanned"]
    out["dist.condition.kept_frac"] = counts["dist.condition.kept"] / scanned if scanned else 0.0
    out["mechanisms.engine.cross_checks"] = spans.cross_checks(recorded)
    out["trace.overhead_frac"] = overhead
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in inputs.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {inputs.WORKLOADS}",
              file=sys.stderr)
        return 2
    if not (SRC / "causaldp" / "cli.py").is_file():
        print(f"no causaldp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report, metrics, attempted, failed = benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    units = PER_LAYER if args.trace else END_TO_END
    for key, value in report.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, value in metrics.items():
        print(f"{args.workload:<18} {name:<36} {value:>16.6g} {units[name]}")
    print(f"{args.workload:<18} {'fail_frac':<36} {report['fail_frac']:>16.6g} ratio")
    print(json.dumps({
        "correct": failed == 0 and not report["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
