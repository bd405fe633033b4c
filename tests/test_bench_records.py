"""Committed bench records: every BENCH_*.json at the repository root states
its parent commit, its command and the machine it ran on, and gives for each
workload and metric the parent and change statistics over the same number
of paired runs.  Records are not tied to today's BENCHMARK.json, so a later
workload or metric leaves the earlier records valid."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_has_its_provenance_and_paired_summaries(path):
    record = json.loads(path.read_text())
    for key in ("label", "parent_commit", "command"):
        assert isinstance(record.get(key), str) and record[key], key
    machine = record["machine"]
    for key in ("nproc", "python", "platform"):
        assert machine.get(key), key
    summary = record["summary"]
    assert summary
    for workload, metrics in summary.items():
        paired = {name: m for name, m in metrics.items() if isinstance(m, dict)}
        assert paired, workload
        for name, m in paired.items():
            assert m["pairs"] >= 1, (workload, name)
            assert m["parent"]["n"] == m["change"]["n"] == m["pairs"], (workload, name)
