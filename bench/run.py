#!/usr/bin/env python3
"""Benchmark of the isozono library: one command, three closed-loop workloads.

    python3 bench/run.py --workload shape --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/``; the
command fails, without printing a result, when those sources are missing.

A run makes the workload's job list from ``--seed`` (see ``jobs.py``) and
runs the whole list in passes until another pass would overrun ``--seconds``
(at least one pass).  Each pass is a fresh child process that sets up, runs
every job once, in order, each job starting when the previous one has ended,
and exits; so no process gives the library the same input twice, and a cache
inside the library can only help where a job list repeats inputs itself.
The first pass's answers are checked by independent routes in this process,
after the pass; every later pass must give identical answers.  A job that
raises, gives a wrong answer or changes its answer fails the run
(``correct`` is false); failures are listed with job and reason.

``--trace 0`` prints the end-to-end metrics.  Times are normalized seconds,
rescaled to a nominal machine speed (``speed.py``); raw wall times are
printed beside them.

* ``setup_s`` - child process start to first job ready (import, builtin
  specs, inputs), the median over SETUP_PROBES children;
* ``total_s`` - time of the whole job list: the sum of each job's median
  time over the passes (jobs under SHORT_JOB_S are timed in SHORT_PASSES
  more fresh processes that run only them);
* ``job_p50_ms``, ``job_p90_ms`` - per-job latency percentiles (the mean of
  the nearest-rank percentiles within 5 points of 50 and 90; a failed job
  counts as infinitely slow);
* ``peak_rss_mb`` - maximum resident set size of a pass process, median
  over the passes.

``--trace 1`` alternates untraced passes with traced ones, which record a
span at every call into a library layer (``tracer.py``), and prints the
per-layer metrics; the spans of the first traced pass are written to
``bench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (distinct jobs) and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from math import ceil, inf

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7
# Jobs shorter than SHORT_JOB_S in the first pass are timed SHORT_PASSES more
# times, each time in a fresh process that runs only those jobs: one run of a
# job of a few milliseconds varies by about a fifth here, and such jobs set
# job_p50_ms.
SHORT_JOB_S = 0.1
SHORT_PASSES = 4
CHILD_TIMEOUT_S = 170
PERCENTILE_BAND = 0.05
LAYER_METRICS = (
    "zonotope.self_s", "zonotope.calls", "zonotope.distinct_inputs",
    "zonotope.vertices_out", "zonotope.faces_out",
    "boundary.self_s", "boundary.sweep_calls", "boundary.certificates",
    "intmat.self_s", "intmat.calls",
    "geometry.self_s", "geometry.hull_calls", "geometry.hull_points_in",
    "geometry.hull_vertex_yield", "geometry.hrep_ineqs_in",
    "search.self_s", "search.subsets", "search.subsets_per_s", "search.grid_points",
    "search.local_moves",
    "plgraph.self_s", "plgraph.points_in",
    "lattice.self_s", "lattice.points_counted",
    "catalog.self_s",
    "bench.self_s", "trace.total_s", "trace.overhead_frac",
)


def import_library():
    init = os.path.join(SRC, "isozono", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: isozono sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import isozono
    if os.path.abspath(isozono.__file__) != init:
        raise SystemExit(f"error: imported isozono from {isozono.__file__}, not {init}")
    return isozono


# -- one pass, in a child process -------------------------------------------------


def run_pass(jobs, ctx, job_list, tracer=None, keep=None):
    """Run every job once, in order.

    Returns one [seconds, normalized seconds, error, digest] per job.  `keep`,
    if given, receives each answer (None for a job that raised) outside the
    timed interval.
    """
    perf = time.perf_counter
    rows = []
    with speed.Clock() as clock:
        for job in job_list:
            ctx.step = None
            gc.collect()   # every job starts from the same collector state
            if tracer is not None:
                root = tracer.open_root("bench.job")
                tracer.recording = True
            t0 = perf()
            try:
                answer, error = jobs.run_job(ctx, job), None
            except Exception as exc:  # a failing job is reported, never fatal here
                answer, error = None, f"{type(exc).__name__} in {ctx.step}: {exc}"
            t1 = perf()
            if tracer is not None:
                tracer.recording = False
                tracer.close_root(root)
            clock.mark(t0, t1)
            rows.append([None, None, error, None if error else jobs.digest(answer)])
            if keep is not None:
                keep(answer)
    for row, (seconds, normalized) in zip(rows, clock.settle()):
        row[:2] = seconds, normalized
    return rows


def child(args):
    """Child mode: set up, note when the first job is ready, time the
    reference computation, then (unless only probing set-up) run one pass.
    Prints one JSON object."""
    iz = import_library()
    import jobs
    tracer = None
    if args.child == "traced":
        import tracer as tr
        before = tr.namespace_snapshot(iz)
        layer_metrics = tr.LayerMetrics(iz)
        tracer = tr.Tracer(iz, layer_metrics)
        tracer.install()
        root = tracer.open_root("bench.setup")
        tracer.recording = True
    ctx = jobs.Context()
    job_list = jobs.generate(ctx, args.workload, args.seed)
    ready = time.monotonic_ns()
    if tracer is not None:
        tracer.recording = False
        tracer.close_root(root)
    for _ in range(5):   # let the interpreter specialize the reference code
        speed.reference_seconds()
    out = {"ready_ns": ready, "job_hash": jobs.job_hash(job_list),
           "ref_s": statistics.median(speed.reference_seconds() for _ in range(5))}
    if args.only:
        job_list = [job_list[int(i)] for i in args.only.split(",")]
    if args.child == "setup":
        print(json.dumps(out))
        return
    if args.answers:
        with open(args.answers, "wb") as fh:
            out["jobs"] = run_pass(jobs, ctx, job_list, tracer,
                                   lambda answer: pickle.dump(answer, fh))
    else:
        out["jobs"] = run_pass(jobs, ctx, job_list, tracer)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.restore()
        out["restored"] = tr.namespace_snapshot(iz) == before
        out["self_s"] = tracer.self_times()
        out["root_s"] = tracer.root_time()
        out["counts"] = dict(layer_metrics.counts)
        out["distinct_inputs"] = len(layer_metrics.zonotope_inputs)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))


def spawn(args, mode, want_hash, answers=None, spans=None, only=None):
    """Run one child process to its end; return its report with the set-up
    time added, raw and normalized.  `only` restricts the pass to the jobs
    with those indices."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed)]
    if answers:
        cmd += ["--answers", answers]
    if spans:
        cmd += ["--spans", spans]
    if only:
        cmd += ["--only", ",".join(map(str, only))]
    t0 = time.monotonic_ns()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if report["job_hash"] != want_hash:
        raise RuntimeError(f"{mode} child generated a different job list")
    report["setup_raw_s"] = (report["ready_ns"] - t0) / 1e9
    report["setup_s"] = report["setup_raw_s"] * speed.REF_NOMINAL_S / report["ref_s"]
    return report


# -- collecting the passes ----------------------------------------------------------


class Record:
    """What the run learned about one job across passes."""

    def __init__(self):
        self.times = {}      # pass kind -> wall seconds per pass
        self.norm = {}       # pass kind -> normalized seconds per pass
        self.error = None
        self.digest = None


def fold(records, rows, mode="plain"):
    """Add one pass's rows to the records."""
    for rec, (seconds, normalized, error, digest) in zip(records, rows):
        rec.times.setdefault(mode, []).append(seconds)
        rec.norm.setdefault(mode, []).append(normalized)
        if error:
            rec.error = rec.error or error
        elif rec.digest is None:
            rec.digest = digest
        elif digest != rec.digest:
            rec.error = rec.error or "answer changed between passes"


def short_passes(args, want_hash, records):
    """Time the jobs that took less than SHORT_JOB_S again, in SHORT_PASSES
    fresh processes; return those processes' reports."""
    short = [i for i, r in enumerate(records)
             if not r.error and statistics.median(r.times["plain"]) < SHORT_JOB_S]
    reports = []
    for _ in range(SHORT_PASSES if short else 0):
        report = spawn(args, "plain", want_hash, only=short)
        fold([records[i] for i in short], report["jobs"])
        reports.append(report)
    return reports


def verify_answers(jobs, ctx, job_list, answers, records):
    """Check the first pass's answers by independent routes."""
    for job, answer, rec in zip(job_list, answers, records):
        if answer is None:
            continue
        if jobs.digest(answer) != rec.digest:
            rec.error = rec.error or "answer changed on its way to the checks"
            continue
        try:
            problems = jobs.verify_job(ctx, job, answer)
        except Exception as exc:  # a check that cannot run counts against the answer
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            rec.error = rec.error or "wrong answer: " + "; ".join(problems[:3])


def load_answers(path):
    """Answers pickled by a child of this run, in job order."""
    answers = []
    with open(path, "rb") as fh:
        while True:
            try:
                answers.append(pickle.load(fh))
            except EOFError:
                return answers


def percentile(values, q, band=PERCENTILE_BAND):
    """Mean of the nearest-rank percentiles from q - band to q + band.

    One order statistic of a list of unlike jobs jumps with whichever job a
    seed puts at that rank; the mean over a narrow band of ranks does not.
    Each order statistic only grows with each value, so neither does this.
    """
    ordered = sorted(values)
    lo = max(0, ceil((q - band) * len(ordered)) - 1)
    hi = max(lo, ceil((q + band) * len(ordered)) - 1)
    return sum(ordered[lo:hi + 1]) / (hi + 1 - lo)


def job_latencies(records, mode="plain"):
    """Per-job median normalized latency; infinite for a failed job."""
    return [inf if r.error else statistics.median(r.norm[mode]) for r in records]


def list_time(records, mode="plain", attr="norm"):
    """Time of the whole job list: the sum of each job's median over passes."""
    return sum(statistics.median(getattr(r, attr)[mode]) for r in records)


def end_to_end_metrics(records, setup_s, rss_mb):
    latencies = job_latencies(records)
    p50, p90 = percentile(latencies, 0.50), percentile(latencies, 0.90)
    if p90 == inf:
        raise SystemExit("error: too many jobs failed to report a finite p90")
    return {
        "total_s": (list_time(records), "s"),
        "job_p50_ms": (p50 * 1e3, "ms"),
        "job_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def layer_metrics(records, traced):
    """Per-layer metrics from the traced passes' reports."""
    import tracer as tr
    if not all(r["restored"] for r in traced):
        raise RuntimeError("tracing left the library namespaces changed")
    # The time spent in exhaustive searches is measured, not counted.
    exhaustive_s = statistics.fmean(r["counts"].pop("search.exhaustive_s", 0.0)
                                    for r in traced)
    first = traced[0]
    if any((r["counts"], r["distinct_inputs"]) != (first["counts"], first["distinct_inputs"])
           for r in traced[1:]):
        raise RuntimeError("layer counters differ between identical passes")
    counts = first["counts"]
    names = tr.LAYERS + ("bench",)
    self_s = {layer: statistics.fmean(r["self_s"].get(layer, 0.0) for r in traced)
              for layer in names}
    hulls_in = counts.get("geometry.hull_points_in", 0)
    values = {f"{layer}.self_s": self_s[layer] for layer in names}
    values.update({name: counts.get(name, 0) for name in LAYER_METRICS
                   if not name.endswith(".self_s") and name.partition(".")[0] in tr.LAYERS})
    values.update({
        "zonotope.distinct_inputs": first["distinct_inputs"],
        "geometry.hull_vertex_yield":
            counts.get("geometry.hull_vertices_out", 0) / hulls_in if hulls_in else 0.0,
        "search.subsets_per_s":
            counts.get("search.subsets", 0) / exhaustive_s if exhaustive_s else 0.0,
        # The spans tile each root span, so the self times of all layers
        # plus bench.self_s add up to this by construction.
        "trace.total_s": statistics.fmean(r["root_s"] for r in traced),
        "trace.overhead_frac": list_time(records, "traced") / list_time(records) - 1,
    })
    units = {"self_s": "s", "total_s": "s", "overhead_frac": "ratio",
             "hull_vertex_yield": "ratio", "subsets_per_s": "1/s"}
    return {name: (values[name], units.get(name.partition(".")[2], "count"))
            for name in LAYER_METRICS}


# -- run metadata -----------------------------------------------------------------


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metadata():
    import numpy
    pkg = os.path.join(SRC, "isozono")
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "src_isozono_lines": lines}


# -- the run ------------------------------------------------------------------------


def run(args, jobs, ctx, job_list):
    """Run passes in child processes until the time is up; return the records,
    the reports per pass kind and the number of passes."""
    want = jobs.job_hash(job_list)
    kinds = ("plain", "traced") if args.trace else ("plain",)
    reports = {kind: [] for kind in kinds}
    records = [Record() for _ in job_list]
    os.makedirs(OUT, exist_ok=True)
    answers = os.path.join(OUT, f"answers-{args.workload}-{args.seed}-{os.getpid()}.pkl")
    spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv.gz")
    start = time.perf_counter()
    walls = {}
    passes = 0
    while True:
        kind = kinds[passes % len(kinds)]
        t = time.perf_counter()
        first = passes == 0
        try:
            report = spawn(args, kind, want, answers=answers if first else None,
                           spans=spans if kind == "traced" and not reports[kind] else None)
            walls[kind] = time.perf_counter() - t
            fold(records, report["jobs"], kind)
            if first:
                verify_answers(jobs, ctx, job_list, load_answers(answers), records)
        finally:
            if first and os.path.exists(answers):
                os.remove(answers)
        reports[kind].append(report)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= len(kinds) and elapsed + walls[kinds[passes % len(kinds)]] > args.seconds:
            return records, reports, passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("shape", "certify", "discrete"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "plain", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--answers", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("--only", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args)
        return 0

    import_library()
    import jobs
    ctx = jobs.Context()
    job_list = jobs.generate(ctx, args.workload, args.seed)
    records, reports, passes = run(args, jobs, ctx, job_list)
    plain = reports["plain"]

    if args.trace:
        metrics = layer_metrics(records, reports["traced"])
    else:
        probes = plain + short_passes(args, jobs.job_hash(job_list), records)
        probes += [spawn(args, "setup", jobs.job_hash(job_list))
                   for _ in range(SETUP_PROBES - len(probes))]
        setup_s = statistics.median(p["setup_s"] for p in probes)
        metrics = end_to_end_metrics(records, setup_s,
                                     statistics.median(r["rss_mb"] for r in plain))
        print(f"wall time: setup {statistics.median(p['setup_raw_s'] for p in probes):.4f} s, "
              f"job list {list_time(records, attr='times'):.3f} s")

    failures = [(i, job, r) for i, (job, r) in enumerate(zip(job_list, records)) if r.error]
    print("meta", json.dumps(metadata(), sort_keys=True))
    print("inputs", json.dumps({"workload": args.workload, "seed": args.seed,
                                "job_hash": jobs.job_hash(job_list), "passes": passes,
                                **jobs.summarize(ctx, job_list)},
                               sort_keys=True))
    if args.workload == "shape":
        for line in jobs.large_coordinate_check(args.seed):
            print(line)
    for i, (kind, params), r in failures:
        tag = params.get("tag") or params.get("graph")
        print(f"failed job {i} ({kind} {tag}): {r.error}")
    print(f"fail_frac {len(failures) / len(job_list):.4f} ({len(failures)}/{len(job_list)})")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(job_list),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
