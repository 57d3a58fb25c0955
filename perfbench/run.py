"""Run one sublat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop with one client: each job starts when the previous one
returns. The job list is made from the seed as rounds of one fixed mix; the
run starts jobs until S seconds have passed. Every answer is checked; wrong
answers and exceptions count as failed jobs and are listed by id.

With --trace 0 every set-up step and every job is also run, right next to
it, by the reference process (refproc.py) on the frozen copy of sublat in
perfbench/ref, and the gated metrics are the program's figures scaled by
the reference's figures for the same steps: the machine's speed drifts by
up to a factor of two, and the ratio of two adjacent timings does not. The
last line of stdout is a JSON object with the gated end-to-end metrics; the
table before it also shows the raw timings, the median and tail job
latencies and the failed ratio. With --trace 1 the first round runs once
untraced and once under the span recorder (tracer.py), and the JSON holds
the per-layer metrics of the traced round; the spans are written to
.bench_build/perfbench/.

Exits 1 without a result when the sublat sources or the qubit data file
are not in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import refproc

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
QUBIT_FILE = ROOT / "tests" / "data" / "qubit.sublat"

# Seconds one round of each workload took on the machine the benchmark was
# tuned on (2 cores, Python 3.11). They size the job list (twice the rounds
# the run length holds at this pace) and fix each workload's tail percentile.
NOMINAL_ROUND_S = {
    "qubit-cli": 3.5,
    "closure-scale": 5.9,
    "algebra-irreducibility": 9.1,
    "valuation-search": 0.075,
}
# The reference copy's jobs per second and set-up seconds on that machine:
# the gated jobs_per_s and setup_s are these figures times the program's
# speed relative to the reference, measured step by step in the run.
REF_JOBS_PER_S = {
    "qubit-cli": 3.7,
    "closure-scale": 2.2,
    "algebra-irreducibility": 1.7,
    "valuation-search": 60.0,
}
REF_SETUP_S = {
    "qubit-cli": 0.05,
    "closure-scale": 0.14,
    "algebra-irreducibility": 0.17,
    "valuation-search": 1.7,
}
# How many times set-up (import, then build the job list) repeats: about a
# second of set-up in all, at least three times.
SETUP_REPEATS = {
    "qubit-cli": 15,
    "closure-scale": 9,
    "algebra-irreducibility": 9,
    "valuation-search": 3,
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


@dataclass
class Pass:
    """Latencies and failures of one pass over a job list."""

    latencies: list[float] = field(default_factory=list)
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    wall_s: float = 0.0
    reference_latencies: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def jobs_per_s(self) -> float:
        return (self.attempted - len(self.failures)) / self.wall_s


def run_pass(rounds, recorder=None, stop_after_s: float = math.inf,
             reference: refproc.Reference | None = None) -> Pass:
    """Run the jobs in order; start no new job after stop_after_s. With a
    reference process, job k also runs there, before the program's run of it
    when k is odd and after it when k is even."""
    result = Pass()
    start = time.perf_counter()
    for k, job in enumerate(job for jobs in rounds for job in jobs):
        if k and time.perf_counter() - start > stop_after_s:
            break
        if reference is not None and k % 2:
            result.reference_latencies.append(reference.ask(f"job {k}"))
        if recorder is not None:
            recorder.job = job.id
        began = time.perf_counter()
        try:
            answer = job.run()
        except Exception as exc:  # a failed job is recorded, the run goes on
            result.latencies.append(time.perf_counter() - began)
            result.failures.append((job.id, type(exc).__name__, str(exc)))
            traceback.print_exc(file=sys.stderr)
        else:
            result.latencies.append(time.perf_counter() - began)
            reason = job.check(answer)
            if reason is not None:
                result.failures.append((job.id, "WrongAnswer", reason))
        if reference is not None and not k % 2:
            result.reference_latencies.append(reference.ask(f"job {k}"))
    result.wall_s = time.perf_counter() - start
    return result


def percentile(latencies: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(jobs: int) -> float:
    """The highest listed percentile with at least TAIL_BEYOND jobs beyond it
    (p50 when none has)."""
    return next((p for p in TAIL_PERCENTILES if round(jobs * (100 - p) / 100, 6) >= TAIL_BEYOND),
                50.0)


def _builders(workloads):
    return {
        "qubit-cli": lambda rng, rounds, workdir: workloads.qubit_cli(
            rng, rounds, workdir, QUBIT_FILE),
        "closure-scale": workloads.closure_scale,
        "algebra-irreducibility": workloads.algebra_irreducibility,
        "valuation-search": workloads.valuation_search,
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _report_failures(failures) -> None:
    if not failures:
        print("failed jobs: none")
    for job_id, kind, detail in failures:
        line = f"failed job {job_id}: {kind}: {detail}"
        print(line)
        print(line, file=sys.stderr)


def import_sublat() -> float:
    """Import sublat afresh; the time in seconds."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "sublat"]:
        del sys.modules[name]
    began = time.perf_counter()
    importlib.import_module("sublat.cli")  # the package imports every other module
    return time.perf_counter() - began


def _paired(i: int, step, reference: refproc.Reference | None, message: str):
    """Time step() in this process and `message` in the reference process,
    in turn, the reference first when i is odd; (program s, reference s)."""
    if reference is None:
        return step(), math.nan
    if i % 2:
        ref = reference.ask(message)
        return step(), ref
    return step(), reference.ask(message)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "sublat" / "__init__.py").is_file():
        print(f"perfbench: the sublat sources are not in {ROOT / 'src'}", file=sys.stderr)
        return 1
    if not QUBIT_FILE.is_file():
        print(f"perfbench: missing {QUBIT_FILE}", file=sys.stderr)
        return 1
    rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    BUILD.mkdir(parents=True, exist_ok=True)
    workdir = BUILD / f"run-{os.getpid()}"

    def build(into: Path):
        workloads = importlib.import_module("workloads")
        into.mkdir(exist_ok=True)
        return _builders(workloads)[args.workload](random.Random(args.seed), 2 * rounds, into)

    if not args.trace and hasattr(os, "sched_setaffinity"):
        # The program and the reference process take turns on one CPU, so
        # both see the same CPU's speed.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Forked before this process imports sublat, so the reference process
    # imports only the frozen copy.
    reference = None if args.trace else refproc.Reference(
        import_sublat, lambda into: [job for jobs in build(into).rounds for job in jobs],
        BUILD / f"ref-{os.getpid()}")
    try:
        sys.path.insert(0, str(ROOT / "src"))
        plan = None

        def build_plan() -> float:
            nonlocal plan
            plan = None
            began = time.perf_counter()
            plan = build(workdir)
            return time.perf_counter() - began

        # All imports come first, so that the benchmark's modules bind to the
        # sublat of the last import; repeat i of the import and of the build
        # make up set-up i.
        repeats = SETUP_REPEATS[args.workload]
        imports = []
        for i in range(repeats):
            try:
                imports.append(_paired(i, import_sublat, reference, "import"))
            except ImportError as exc:
                print(f"perfbench: cannot import sublat from {ROOT / 'src'}: {exc}",
                      file=sys.stderr)
                return 1
        imported_from = Path(sys.modules["sublat"].__file__).resolve()
        if not imported_from.is_relative_to(ROOT / "src"):
            print(f"perfbench: sublat was imported from {imported_from}, not from "
                  f"{ROOT / 'src'}", file=sys.stderr)
            return 1
        builds = [_paired(i, build_plan, reference, "build") for i in range(repeats)]
        setups = [(pi + pb, ri + rb) for (pi, ri), (pb, rb) in zip(imports, builds)]
        import tracer

        setup_s = statistics.median(p for p, _ in setups)
        ref_setup_s = statistics.median(r for _, r in setups)
        setup_ratio = statistics.median(p / r for p, r in setups)
        t = time.perf_counter()
        plan.prepare_checks()
        check_prep_s = time.perf_counter() - t
        # the reference process takes half of a run with --trace 0
        nominal_jobs = sum(len(r) for r in plan.rounds[:rounds]) // (1 if args.trace else 2)
        print(f"workload={args.workload} seed={args.seed} nominal_jobs={nominal_jobs} "
              f"setup_repeats={len(setups)} check_preparation_s={check_prep_s:.4f}")
        if args.trace:
            result, metrics = _traced(plan, tracer, args)
        else:
            result = run_pass(plan.rounds, stop_after_s=args.seconds, reference=reference)
            metrics = _end_to_end(result, args.workload, (setup_s, ref_setup_s, setup_ratio),
                                  tail_percentile(nominal_jobs))
    finally:
        if reference is not None:
            reference.close()
        shutil.rmtree(workdir, ignore_errors=True)
    _report_failures(result.failures)
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _end_to_end(result: Pass, workload: str, setup: tuple[float, float, float],
                p: float) -> dict[str, tuple[float, str]]:
    """The gated metrics, as name -> (value, unit), scaled by the reference:
    jobs_per_s is REF_JOBS_PER_S times the reference's time over the
    program's for the same jobs; setup_s is REF_SETUP_S times the median
    over the set-up repeats of the program's time over the reference's.
    The table also shows the raw figures, the median and tail latencies and
    the failed ratio, printed but not gated."""
    setup_s, ref_setup_s, setup_ratio = setup
    n = result.attempted
    ok = n - len(result.failures)
    program_s, ref_s = sum(result.latencies), sum(result.reference_latencies)
    metrics = {
        "jobs_per_s": (REF_JOBS_PER_S[workload] * ref_s / program_s * ok / n, "1/s"),
        "setup_s": (REF_SETUP_S[workload] * setup_ratio, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{'metric':<20}{'value':>14}  unit")
    for name, (value, unit) in metrics.items():
        print(f"{name:<20}{value:>14.4f}  {unit}")
    print(f"{'raw jobs_per_s':<20}{ok / program_s:>14.4f}  1/s    "
          f"program; the reference: {n / ref_s:.4f}, not gated")
    print(f"{'raw setup_s':<20}{setup_s:>14.4f}  s      "
          f"program; the reference: {ref_setup_s:.4f}, not gated")
    print(f"{'job_ms_p50':<20}{percentile(result.latencies, 50) * 1e3:>14.4f}  ms     "
          f"p50 of {n} jobs, not gated")
    print(f"{'job_ms_tail':<20}{percentile(result.latencies, p) * 1e3:>14.4f}  ms     "
          f"p{p:g} of {n} jobs, not gated")
    print(f"{'failed_ratio':<20}{len(result.failures) / n:>14.4f}  ratio  "
          f"{len(result.failures)} of {n} jobs")
    return metrics


def _traced(plan, tracer, args):
    first = plan.rounds[:1]
    plain = run_pass(first)
    recorder = tracer.Recorder()
    recorder.install()
    try:
        traced = run_pass(first, recorder)
    finally:
        recorder.uninstall()
    metrics, shares = tracer.layer_metrics(recorder.spans, recorder.allocs,
                                           sum(traced.latencies))
    metrics["trace.overhead_ratio"] = (plain.jobs_per_s / traced.jobs_per_s, "ratio")
    path = BUILD / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write_spans(recorder.spans, path)
    print(f"traced round: {traced.attempted} jobs, {len(recorder.spans)} spans written to "
          f"{path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48}{value:>16.4f}  {unit}")
    print("share of job time: " + " ".join(f"{k}={v:.1f}%" for k, v in shares.items()))
    both = Pass(plain.latencies + traced.latencies, plain.failures + traced.failures)
    return both, metrics


if __name__ == "__main__":
    sys.exit(main())
