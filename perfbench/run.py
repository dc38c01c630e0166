"""Job benchmark for galforms.

    python3 perfbench/run.py --workload {lie,cohomology,arith} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; galforms is imported from
./src.  One process, one client, closed loop: each job is a galforms CLI
invocation `galforms.cli.run(argv)` (job documents are written to files
and passed with --job), and the next job starts when the previous one
returns.  Every answer is checked against a reference computed in
perfbench/oracles.py, outside the timed region.

--trace 0 prints the end-to-end metrics.  Jobs run in whole rounds (see
workloads.py) until at least S seconds of scaled job time and at least
MIN_JOBS jobs have been measured.  Every time below is scaled to a host
of fixed speed (hostspeed.py): a reference kernel is timed right before
and after each job and, by a timer signal, every 50 ms during it; the
kernel's time is taken out of the job's wall time, and the rest is
multiplied by REF_KERNEL_S over the median of these kernel times.  The
unscaled values are printed on stderr.
  jobs_per_s     jobs answered correctly / summed time of the jobs
  job_ms_p50/90  time of run(argv): parse, compute, JSON emit; median and
                 90th percentile by the Harrell-Davis estimator
  correct_share  jobs answered correctly / jobs attempted
                 (= 1 - failed_share, which is 0 on arith; bounds are
                 shares of a median, so no end-to-end metric may read 0)
  setup_s        first line of this script to the first timed job
                 (import of galforms.cli, job generation, warm-up);
                 median of this process and SETUP_REPEATS fresh ones,
                 each scaled by kernel samples taken around it
  peak_rss_mb    peak resident memory of this process

--trace 1 prints per-layer metrics from a fixed job list (the first
round): the list runs untraced, then with spans around the public
functions of every galforms module (tracer.py), then untraced again;
trace.overhead_ratio is the traced time over the mean untraced time.
Spans are written to .perfbench/spans-<workload>-<seed>.tsv.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  `failed` counts every failed job, the known defects included;
`correct` is false only if a job outside the known defects failed.
"""

from time import perf_counter

START = perf_counter()

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from hostspeed import HostSpeed
from workloads import WORKLOADS, JobFiles, Workload

ROOT = Path(__file__).resolve().parent.parent
# At least ten jobs beyond the 90th percentile.  lie's job costs spread
# evenly, with no cluster at its median or 90th percentile, so it runs
# three rounds (252 jobs) for the steadiness two rounds give the others.
MIN_JOBS = {"lie": 250, "cohomology": 100, "arith": 100}
SETUP_REPEATS = 4
CHILD_TIMEOUT_S = 60
SETUP_KERNEL_S = 0.05   # kernel time before and after each set-up

END_TO_END = [
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("correct_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class Outcome:
    __slots__ = ("job", "seconds", "scaled", "reason")

    def __init__(self, job, seconds, scaled, reason):
        self.job, self.seconds, self.scaled, self.reason = job, seconds, scaled, reason


def run_job(cli, job, speed=None):
    """Run one job through cli.run, timed around that call only, less the
    time the kernel timer took from it, then check the answer.  With
    `speed`, the kernel is timed around the job and the time scaled.
    Returns the outcome and the parsed answer."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    if speed:
        first = len(speed.durations)
        speed.burst()
        stolen = speed.stolen_s
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.run(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            crash = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        t1 = perf_counter()
    seconds = scaled = t1 - t0
    if speed:
        seconds -= speed.stolen_s - stolen
        speed.burst()
        scaled = seconds * speed.factor(first)
    doc = None
    if crash is not None:
        return Outcome(job, seconds, scaled, f"uncaught exception: {crash}"), None
    try:
        doc = json.loads(out.getvalue())
    except ValueError:
        pass
    try:
        reason = job.check(code, doc)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        reason = f"malformed answer: {exc!r}"
    return Outcome(job, seconds, scaled, reason), doc


def run_jobs(cli, jobs, on_job=None, speed=None):
    """Run a round: each job, and right after it any job built from its
    answer."""
    outcomes = []
    for job in jobs:
        while job is not None:
            if on_job:
                on_job(len(outcomes), job)
            outcome, doc = run_job(cli, job, speed)
            outcomes.append(outcome)
            job = job.then(doc) if job.then else None
    return outcomes


def unexpected(outcomes):
    return [o for o in outcomes if o.reason and not o.job.defect]


def setup(args, workdir):
    """Import galforms.cli, generate the first round, warm up."""
    sys.path.insert(0, str(ROOT / "src"))
    import galforms.cli as cli

    workload = Workload(args.workload, args.seed, JobFiles(workdir))
    first = workload.round(0)
    warm = run_jobs(cli, workload.warmup())
    return cli, workload, first, warm, perf_counter() - START


def child_setup_times(args, speed):
    """Set-up time of fresh processes running the same set-up, raw and
    scaled."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        first = len(speed.durations)
        speed.sample(SETUP_KERNEL_S)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        speed.sample(SETUP_KERNEL_S)
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * speed.factor(first))
    return raw, scaled


def measure(cli, workload, first, args, speed):
    speed.start()
    try:
        return run_rounds(cli, workload, first, args, speed)
    finally:
        speed.stop()


def run_rounds(cli, workload, jobs, args, speed):
    outcomes, index = [], 0
    while True:
        if args.max_jobs:
            outcomes += run_jobs(cli, jobs[: args.max_jobs - len(outcomes)], speed=speed)
            if len(outcomes) >= args.max_jobs:
                break
        else:
            outcomes += run_jobs(cli, jobs, speed=speed)
            busy = sum(o.scaled for o in outcomes)
            if busy >= args.seconds and len(outcomes) >= MIN_JOBS[args.workload]:
                break
        index += 1
        jobs = workload.round(index)
    return outcomes


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density over
    [(i-1)/n, i/n].  One or two order statistics, as in
    statistics.quantiles, move with the noise of the few jobs there; this
    averages the jobs around the quantile."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    # Simpson's rule on each interval; the weights are then normalised.
    weights = [density((i - 1) / n) + 4 * density((i - 0.5) / n) + density(i / n)
               for i in range(1, n + 1)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(times, ok, attempted, setup_times):
    return {
        "jobs_per_s": ok / sum(times),
        "job_ms_p50": quantile(times, 0.5) * 1000,
        "job_ms_p90": quantile(times, 0.9) * 1000,
        "correct_share": ok / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(cli, first, args):
    import tracer as T

    if args.max_jobs:
        first = first[: args.max_jobs]
    before = run_jobs(cli, first)
    tr = T.Tracer()
    tr.install()
    try:
        def on_job(i, _job):
            tr.job = i
        spanned = run_jobs(cli, first, on_job)
    finally:
        tr.uninstall()
    after = run_jobs(cli, first)
    plain_s = (sum(o.seconds for o in before) + sum(o.seconds for o in after)) / 2
    ratio = sum(o.seconds for o in spanned) / plain_s
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tr.write(out_dir / f"spans-{args.workload}-{args.seed}.tsv")
    with open(out_dir / f"jobs-{args.workload}-{args.seed}.tsv", "w") as fh:
        fh.write("job\tlabel\tseconds\n")
        for i, o in enumerate(spanned):
            fh.write(f"{i}\t{o.job.label}\t{o.seconds:.6f}\n")
    values = T.per_layer_values(tr, ratio)
    units = {name: unit for name, unit, _ in T.PER_LAYER}
    return before + spanned + after, spanned, values, units


def report(outcomes, all_outcomes, warm, values, units, counts):
    bad = unexpected(all_outcomes) + unexpected(warm)
    failed = [o for o in outcomes if o.reason]
    for o in sorted(failed, key=lambda o: bool(o.job.defect))[:20]:
        tag = f"known defect {o.job.defect}" if o.job.defect else "UNEXPECTED"
        print(f"failed [{tag}] {o.job.label}: {o.reason}", file=sys.stderr)
    for o in unexpected(warm):
        print(f"warm-up failed: {o.job.label}: {o.reason}", file=sys.stderr)
    print(f"failed_share = {len(failed) / len(outcomes):.4f} ({len(failed)} of {len(outcomes)} jobs)",
          file=sys.stderr)
    for name, value in values.items():
        note = f"  (n={counts[name]})" if name in counts else ""
        print(f"{name} = {value:.6g} {units[name]}{note}", file=sys.stderr)
    print(json.dumps({
        "correct": not bad,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description="galforms job benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--max-jobs", type=int, default=0, help="stop after this many jobs (self-test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "galforms" / "cli.py").is_file():
        print(f"galforms sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 1
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli, workload, first, warm, setup_s = setup(args, workdir)
        if args.setup_only:
            print(setup_s)
            return 0
        if args.trace:
            all_outcomes, outcomes, values, units = traced(cli, first, args)
            counts = {}
        else:
            setup_end = perf_counter()
            speed = HostSpeed()
            speed.sample(SETUP_KERNEL_S)
            setup_factor = speed.factor(0)
            outcomes = measure(cli, workload, first, args, speed)
            all_outcomes = outcomes
            loop_end = perf_counter()
            raw_setup, scaled_setup = child_setup_times(args, speed)
            raw_setup.insert(0, setup_s)
            scaled_setup.insert(0, setup_s * setup_factor)
            ok = sum(1 for o in outcomes if not o.reason)
            raw = end_to_end([o.seconds for o in outcomes], ok, len(outcomes), raw_setup)
            values = end_to_end([o.scaled for o in outcomes], ok, len(outcomes), scaled_setup)
            units = dict(END_TO_END)
            print(f"reference kernel: median {speed.median_s() * 1000:.4g} ms over "
                  f"{len(speed.durations)} samples", file=sys.stderr)
            print(f"wall time: set-up {setup_end - START:.1f} s, timed loop {loop_end - setup_end:.1f} s "
                  f"({sum(o.seconds for o in outcomes):.1f} s in jobs), fresh set-ups "
                  f"{perf_counter() - loop_end:.1f} s", file=sys.stderr)
            for name in ("jobs_per_s", "job_ms_p50", "job_ms_p90", "setup_s"):
                print(f"unscaled {name} = {raw[name]:.6g} {units[name]}", file=sys.stderr)
            counts = {n: len(outcomes) for n in ("job_ms_p50", "job_ms_p90", "jobs_per_s")}
            counts["setup_s"] = len(scaled_setup)
        report(outcomes, all_outcomes, warm, values, units, counts)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
