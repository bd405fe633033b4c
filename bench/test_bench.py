"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

They use a few cheap jobs of each workload, so they run in about a minute.
"""

import dataclasses
import json
import os
import statistics
from argparse import Namespace

import pytest

import run

iz = run.import_library()
import jobs  # noqa: E402  (needs the library on the path)
import tracer as tr  # noqa: E402


@pytest.fixture(scope="module")
def ctx():
    return jobs.Context()


def cheap_jobs(ctx, workload, seed=5):
    """A handful of fast jobs of every kind the workload has."""
    def fast(job):
        kind, p = job
        if kind == "zonotope":
            return p["tag"] == "image:l1:4" or (p["tag"] == "random" and len(p["generators"]) <= 5)
        if kind == "certificate":
            return ctx.graphs[p["graph"]].dim == 2 or len(p["points"]) <= 8
        if kind == "exhaustive":
            return p["m"] <= 4
        if kind == "convergence":
            return p["graph"] == "l1:2"
        return kind == "identity"
    picked = [job for job in jobs.generate(ctx, workload, seed) if fast(job)]
    return picked[:12]


def checked_pass(ctx, job_list):
    """One pass plus the checks the run makes on its answers, in this process."""
    answers = []
    records = [run.Record() for _ in job_list]
    run.fold(records, run.run_pass(jobs, ctx, job_list, keep=answers.append))
    run.verify_answers(jobs, ctx, job_list, answers, records)
    return records


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_one_seed_gives_one_job_hash(ctx, workload):
    first = jobs.job_hash(jobs.generate(ctx, workload, 7))
    again = jobs.job_hash(jobs.generate(jobs.Context(), workload, 7))
    other = jobs.job_hash(jobs.generate(ctx, workload, 8))
    assert first == again
    assert first != other


def test_no_job_repeats_an_input_in_shape(ctx):
    job_list = jobs.generate(ctx, "shape", 7)
    assert len({p["generators"] for _, p in job_list}) == len(job_list)


def test_corrupted_answer_is_counted_as_failed(ctx, monkeypatch):
    job_list = [job for job in jobs.generate(ctx, "discrete", 5) if job[0] == "identity"][:4]
    original = iz.boundary_identity_report
    target = job_list[1][1]["points"]

    def corrupted(graph, points):
        report = original(graph, points)
        if points == target:
            report = dataclasses.replace(report, direct_count=report.direct_count + 2)
        return report

    monkeypatch.setattr(iz, "boundary_identity_report", corrupted)
    records = checked_pass(ctx, job_list)
    failed = [r for r in records if r.error]
    assert len(failed) == 1 and failed[0] is records[1]
    assert records[1].error.startswith("wrong answer")


def test_raising_job_is_counted_as_failed(ctx, monkeypatch):
    job_list = cheap_jobs(ctx, "shape")[:2]

    def broken(Z):
        raise OverflowError("int too large")

    monkeypatch.setattr(iz, "f_vector", broken)
    records = checked_pass(ctx, job_list)
    assert all(r.error.startswith("OverflowError in f_vector") for r in records)


def test_changed_answer_between_passes_is_counted_as_failed(ctx):
    job_list = cheap_jobs(ctx, "discrete")[:3]
    records = [run.Record() for _ in job_list]
    rows = run.run_pass(jobs, ctx, job_list)
    run.fold(records, rows)
    rows[2][3] = "another digest"
    run.fold(records, rows)
    assert [bool(r.error) for r in records] == [False, False, True]
    assert records[2].error == "answer changed between passes"


def test_large_coordinate_check_reports_each_set():
    lines = jobs.large_coordinate_check(5)
    assert len(lines) == 2
    assert all(line.startswith(("known defect present", "known defect fixed")) for line in lines)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_pass_matches_untraced_and_restores_namespaces(ctx, workload):
    job_list = cheap_jobs(ctx, workload)
    assert job_list
    before = tr.namespace_snapshot(iz)
    plain = run.run_pass(jobs, ctx, job_list)

    metrics = tr.LayerMetrics(iz)
    tracer = tr.Tracer(iz, metrics)
    tracer.install()
    try:
        assert tr.namespace_snapshot(iz) != before
        traced = run.run_pass(jobs, ctx, job_list, tracer)
    finally:
        tracer.restore()
    assert tr.namespace_snapshot(iz) == before

    assert not any(row[2] for row in plain + traced)
    assert [row[3] for row in plain] == [row[3] for row in traced]
    selftime = tracer.self_times()
    assert sum(selftime.values()) == pytest.approx(tracer.root_time(), rel=1e-9)
    assert selftime["bench"] >= 0 and all(s >= 0 for s in selftime.values())
    layers = {tracer.layer_of_name[i] for i in tracer.span_name}
    assert layers - {"bench"}, "no layer spans were recorded"


def test_cross_module_bindings_are_traced(ctx):
    """`from .intmat import cross_nd` in geometry gets its own wrapper."""
    import isozono.geometry as geometry
    import isozono.intmat as intmat
    original = geometry.cross_nd
    tracer = tr.Tracer(iz)
    tracer.install()
    try:
        assert geometry.cross_nd is not original
        assert geometry.cross_nd is intmat.cross_nd
        root = tracer.open_root("bench.job")
        tracer.recording = True
        iz.convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        tracer.recording = False
        tracer.close_root(root)
    finally:
        tracer.restore()
    assert geometry.cross_nd is original
    names = {tracer.names[i] for i in tracer.span_name}
    assert {"geometry.convex_hull", "intmat.cross_nd"} <= names


def test_setup_probe_child_reports_the_same_job_list(ctx):
    args = Namespace(workload="discrete", seed=5)
    report = run.spawn(args, "setup", jobs.job_hash(jobs.generate(ctx, "discrete", 5)))
    assert 0 < report["setup_raw_s"] < 60 and report["setup_s"] > 0


def test_short_jobs_are_timed_again_in_fresh_processes(ctx):
    args = Namespace(workload="discrete", seed=5)
    job_list = jobs.generate(ctx, "discrete", 5)
    short = [i for i, (kind, _) in enumerate(job_list) if kind == "identity"][:3]
    records = [run.Record() for _ in job_list]
    for i, rec in enumerate(records):
        rec.times["plain"] = [0.001 if i in short else 1.0]
        rec.norm["plain"] = list(rec.times["plain"])
    reports = run.short_passes(args, jobs.job_hash(job_list), records)
    assert len(reports) == run.SHORT_PASSES
    assert all(len(r["jobs"]) == len(short) for r in reports)
    assert [len(rec.norm["plain"]) for rec in records] == [
        1 + run.SHORT_PASSES if i in short else 1 for i in range(len(job_list))]
    assert not any(rec.error for rec in records)


def _list_time(ctx, job_list):
    """Normalized time of one pass over the job list."""
    rows = run.run_pass(jobs, ctx, job_list)
    assert not any(row[2] for row in rows)
    return sum(row[1] for row in rows)


def test_normalization_keeps_a_real_slowdown(ctx, monkeypatch):
    """Doing the library's work twice doubles normalized time, also when the
    slower library holds a large heap, which the reference must not feel."""
    job_list = [job for job in jobs.generate(ctx, "discrete", 5)
                if job[0] == "exhaustive" and job[1]["m"] <= 6]
    original = iz.exhaustive_min_boundary

    def twice(*args):
        original(*args)
        return original(*args)

    def slowdown():
        """Median ratio of doubled to plain passes, run alternately."""
        ratios = []
        for _ in range(5):
            monkeypatch.setattr(iz, "exhaustive_min_boundary", original)
            base = _list_time(ctx, job_list)
            monkeypatch.setattr(iz, "exhaustive_min_boundary", twice)
            ratios.append(_list_time(ctx, job_list) / base)
        return statistics.median(ratios)

    assert 1.6 < slowdown() < 2.5
    heap = [(i, str(i)) for i in range(1_000_000)]
    assert 1.6 < slowdown() < 2.5
    del heap


def test_percentile_counts_failures_as_slowest():
    records = [run.Record() for _ in range(10)]
    for i, r in enumerate(records):
        r.norm = {"plain": [float(i)]}
    records[0].error = "boom"
    lat = run.job_latencies(records)
    assert run.percentile(lat, 0.5, band=0) == 5.0
    assert run.percentile(lat, 0.9, band=0) == 9.0
    assert run.percentile(lat, 1.0, band=0) == float("inf")
    assert run.percentile(lat, 0.5, band=0.1) == 5.0      # mean of ranks 4..6
    assert run.percentile(lat, 0.9, band=0.1) == float("inf")


def declared_metrics(section):
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        pytest.skip("BENCHMARK.json is not beside the benchmark")
    with open(path, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def test_end_to_end_metrics_match_the_declaration():
    records = [run.Record() for _ in range(20)]
    for i, r in enumerate(records):
        r.norm = {"plain": [0.001 * (i + 1)]}
    metrics = run.end_to_end_metrics(records, 0.25, 40.0)
    assert {k: unit for k, (_, unit) in metrics.items()} == declared_metrics("end_to_end")
    assert metrics["total_s"][0] == pytest.approx(0.21)


def test_layer_metrics_match_the_declaration():
    assert list(declared_metrics("per_layer")) == list(run.LAYER_METRICS)
