"""Closed-loop benchmark of cantorext: one client, one workload, one process.

    python3 bench/run.py --workload hn-regular --seed 1 --seconds 20 --trace 0

The client submits its next job only when the previous one has returned.
Jobs come in passes over a fixed deck (see workloads.py); the run keeps
starting passes until --seconds of measured pass time have elapsed, so it
always ends on a whole pass.  Every answer is checked.

Timings are scaled to a nominal host speed: a fixed pure-Python reference
loop is timed before every job and set-up, and each pass's (or set-up's)
times are multiplied by REF_NOMINAL_S over the median reference time taken
with it.  The shared host this was written on changes speed by up to 1.7x for
minutes at a time, and the scaling removes most of that from the figures.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates an untraced
and a traced run of the same pass, prints the per-layer metrics (per traced
pass) and the tracing overhead, and writes the spans to .bench_out/.  End-to-
end figures come only from untraced runs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPS = 15
SETUP_REFS = 9
REF_ITERS = 5000
REF_NOMINAL_S = 0.0004  # typical time of reference_loop() on the 2-vCPU host it was written on
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

class ProgramMissing(Exception):
    """The checkout holds no cantorext sources to benchmark."""


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def load_program():
    """Import cantorext afresh from this checkout's src/; return its modules by short name."""
    if not os.path.isfile(os.path.join(SRC, "cantorext", "__init__.py")):
        raise ProgramMissing(f"no cantorext package under {os.path.relpath(SRC)}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "cantorext" or m.startswith("cantorext.")]:
        del sys.modules[name]
    mods = {short: importlib.import_module(f"cantorext.{short}") for short in spans.MODULES}
    if not os.path.abspath(sys.modules["cantorext"].__file__).startswith(SRC + os.sep):
        raise ProgramMissing("cantorext was imported from outside this checkout")
    return mods


def reference_loop():
    """Seconds taken by a fixed piece of pure-Python work that uses no cantorext code."""
    t0 = perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i % 7
    return perf_counter() - t0


def host_speed(refs):
    """Nominal over measured reference time: below 1 while the host runs slow."""
    return REF_NOMINAL_S / statistics.median(refs)


def setup(workload, seed, tiny):
    """Imports, builtin groups and the first pass; returns (seconds, context, jobs)."""
    t0 = perf_counter()
    ctx = workloads.Context.build(load_program())
    jobs = workloads.make_pass(workload, ctx, seed, 0, tiny)
    return perf_counter() - t0, ctx, jobs


class PassResult:
    def __init__(self):
        self.wall = 0.0
        self.latencies = []
        self.refs = []
        self.failed = 0
        self.errors = []
        self.cli_bytes = 0
        self.cli_nonzero = 0

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def run_pass(jobs, tracer=None, calibrate=False):
    """Run `jobs` one after another; the latency of a job excludes its check.

    With `calibrate`, time reference_loop() before every job; the wall time
    of the pass excludes those reference times.
    """
    res = PassResult()
    start = perf_counter()
    for job in jobs:
        if calibrate:
            res.refs.append(reference_loop())
        if tracer is not None:
            tracer.begin_job()
        try:
            t0 = perf_counter()
            try:
                out = job.run()
            except Exception as e:  # a raising or refused job counts as failed
                res.latencies.append(perf_counter() - t0)
                res.fail(f"{job.label}: {type(e).__name__}: {e}")
                continue
            res.latencies.append(perf_counter() - t0)
            if isinstance(out, workloads.CliResult):
                res.cli_bytes += len(out.out.encode()) + len(out.err.encode())
                res.cli_nonzero += out.rc != 0
            try:
                if not job.check(out):
                    res.fail(f"{job.label}: wrong answer {out!r:.200}")
            except (ValueError, KeyError, TypeError, IndexError) as e:  # unparsable output
                res.fail(f"{job.label}: output check raised {type(e).__name__}: {e}")
        finally:
            if tracer is not None:
                tracer.end_job()
    res.wall = perf_counter() - start - sum(res.refs)
    return res


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(jobs_per_pass):
    """Highest percentile with at least 10 jobs of one pass beyond it.

    Taken per pass, not per run, so the percentile reported does not change
    with the number of passes a run happens to fit in.
    """
    ok = [p for p in PERCENTILES if jobs_per_pass * (100 - p) / 100 >= 10]
    return max(ok, default=50)


def measure(workload, seed, seconds, tiny):
    times = []
    for _ in range(SETUP_REPS):
        speed = host_speed([reference_loop() for _ in range(SETUP_REFS)])
        dt, ctx, jobs = setup(workload, seed, tiny)
        times.append(dt * speed)
    gc.collect()
    results = []
    index = 0
    while not results or sum(r.wall for r in results) < seconds:
        if index:
            jobs = workloads.make_pass(workload, ctx, seed, index, tiny)
            gc.collect()
        results.append(run_pass(jobs, calibrate=True))
        index += 1
    speeds = [host_speed(r.refs) for r in results]
    lat = [x * f for r, f in zip(results, speeds) for x in r.latencies]
    wall = sum(r.wall * f for r, f in zip(results, speeds))
    p_tail = tail_percentile(len(jobs))
    metrics = {
        "setup_s": statistics.median(times),
        "jobs_per_s": len(lat) / wall,
        "job_p50_s": percentile(lat, 50),
        "job_tail_s": percentile(lat, p_tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    failed = sum(r.failed for r in results)
    notes = [
        f"workload {workload} seed {seed}: {len(results)} passes of {len(jobs)} jobs, "
        f"{len(lat)} jobs in {sum(r.wall for r in results):.3f} s of wall time "
        f"(closed loop, 1 client, untraced)",
        f"host speed per pass (nominal 1): {', '.join(f'{f:.3f}' for f in speeds)}; "
        f"every timing below is wall time times the speed of its pass or set-up",
        f"setup_s is the median of {SETUP_REPS} set-ups: {', '.join(f'{t:.4f}' for t in times)}",
        f"job_tail_s is p{p_tail:g} over all {len(lat)} jobs of the run, "
        f"{len(lat) - int(len(lat) * p_tail / 100)} of them beyond it "
        f"({len(jobs) - int(len(jobs) * p_tail / 100)} of each pass of {len(jobs)})",
        f"failed_frac {failed / len(lat):.6g} ({failed} of {len(lat)} failed)",
    ]
    return metrics, metric_units("end_to_end"), len(lat), failed, notes, results


def measure_traced(workload, seed, seconds, tiny):
    _, ctx, jobs = setup(workload, seed, tiny)
    gc.collect()
    tracer = spans.Tracer()
    plain, traced = [], []
    index = 0
    while not plain or sum(r.wall for r in plain + traced) < seconds:
        if index:
            jobs = workloads.make_pass(workload, ctx, seed, index, tiny)
        # alternate which run of the pair goes first, so warm-up favours neither
        for traced_turn in ((False, True) if index % 2 == 0 else (True, False)):
            gc.collect()
            if not traced_turn:
                plain.append(run_pass(jobs))
                continue
            tracer.install(ctx.mods)
            try:
                traced.append(run_pass(jobs, tracer))
            finally:
                tracer.uninstall()
        index += 1
    n = len(traced)
    m = spans.layer_metrics(tracer.spans)
    roots = sum(rec[spans.END] - rec[spans.START] for rec in tracer.spans
                if rec[spans.PARENT] < 0)
    traced_wall = sum(r.wall for r in traced)
    m["bench.loop_s"] = traced_wall - roots
    m["cli.output_bytes"] = sum(r.cli_bytes for r in traced)
    m["cli.nonzero_exits"] = sum(r.cli_nonzero for r in traced)
    m["trace.jobs"] = sum(len(r.latencies) for r in traced)
    metrics = {k: v / n for k, v in m.items()}
    searches = m["toeplitz.enumeration_searches"]
    cands = m["toeplitz.enumeration_candidates"]
    metrics["toeplitz.enumeration_hit_ratio"] = searches / cands if cands else 0.0
    metrics["trace.overhead_frac"] = traced_wall / sum(r.wall for r in plain) - 1
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    tracer.dump(path, {"workload": workload, "seed": seed, "traced_passes": n,
                       "fields": ["name", "start", "end", "parent", "job", "info"]})
    attempted = sum(len(r.latencies) for r in plain + traced)
    failed = sum(r.failed for r in plain + traced)
    notes = [
        f"workload {workload} seed {seed}: traced run, {n} untraced+traced pass pairs "
        f"of {len(jobs)} jobs; per-layer metrics are per traced pass",
        "end-to-end metrics come only from untraced runs (--trace 0)",
        f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}",
        f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} failed)",
    ]
    return metrics, metric_units("per_layer"), attempted, failed, notes, plain + traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every deck to its cheapest jobs (self-tests)")
    args = ap.parse_args(argv)
    measure_fn = measure_traced if args.trace else measure
    try:
        metrics, units, attempted, failed, notes, results = measure_fn(
            args.workload, args.seed, args.seconds, args.tiny)
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:.6g} {unit}")
    errors = [e for r in results for e in r.errors]
    for err in errors[:10]:
        print(f"failed job: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
