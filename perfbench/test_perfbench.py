"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json

import pytest

import run
import tracer


def span(name, start, end, parent=None):
    return {"name": name, "job": 0, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_nested_children():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("witness.build_and_verify", 1.0, 9.0, parent=0),
        span("exactalg.Matrix.mul", 2.0, 3.0, parent=1),
        span("exactalg.discriminant.big_integer", 4.0, 8.0, parent=1),
        span("exactalg.Matrix.mul", 4.5, 5.0, parent=3),
    ]
    assert run.self_times(spans) == pytest.approx([2.0, 3.0, 1.0, 3.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    # children never overlap in a single-threaded trace, but a clipped union
    # keeps self time from going negative if they ever do
    spans = [
        span("a", 0.0, 4.0),
        span("b", 1.0, 3.0, parent=0),
        span("c", 2.0, 5.0, parent=0),
    ]
    assert run.self_times(spans)[0] == pytest.approx(1.0)


def test_self_time_of_recorded_spans_matches_wall_time():
    rec = tracer.Recorder(job=7)
    inner = rec.wrap(lambda x: x * 2, "inner", lambda a, r: {"ops": r})
    outer = rec.wrap(lambda x: inner(x) + inner(x), "outer")
    assert outer(3) == 12
    assert [s["name"] for s in rec.spans] == ["outer", "inner", "inner"]
    assert [s["parent"] for s in rec.spans] == [None, 0, 0]
    assert all(s["job"] == 7 for s in rec.spans)
    assert rec.spans[1]["ops"] == 6
    own = run.self_times(rec.spans)
    outer_s = rec.spans[0]["end"] - rec.spans[0]["start"]
    inner_s = sum(s["end"] - s["start"] for s in rec.spans[1:])
    assert own[0] == pytest.approx(outer_s - inner_s)


def test_layer_metrics_derive_rates_and_ratios():
    spans = [
        span("cli.main", 0.0, 5.0),
        span("exactalg.span_insert", 1.0, 2.0, parent=0) | {"inserted": 1},
        span("exactalg.span_insert", 2.0, 3.0, parent=0) | {"inserted": 0},
        span("exactalg.Matrix.mul", 3.0, 3.5, parent=0) | {"ops": 1000},
        span("witness.build_and_verify", 3.5, 4.0, parent=0) | {"escalations": 2},
    ]
    m = run.layer_metrics(run.layer_totals(spans))
    assert m["exactalg.span_insert.calls"] == 2
    assert m["exactalg.span_insert.useful_ratio"] == pytest.approx(0.5)
    assert m["exactalg.Matrix.mul.ops_per_s"] == pytest.approx(2000.0)
    assert m["witness.escalations"] == 2
    assert m["cli.main.self_s"] == pytest.approx(2.0)
    # layers this job never entered are absent, and the run reports them as 0
    assert "graphs.enumerate_partitions.nodes" not in m
    assert set(m) <= set(run.PER_LAYER_UNITS)


def test_median_with_count():
    assert run.median_with_count([3.0, 1.0, 2.0]) == (2.0, 3)
    assert run.median_with_count([4.0, 1.0, 2.0, 3.0]) == (2.5, 4)
    with pytest.raises(ValueError):
        run.median_with_count([])


def _witness_envelope(escalations=0):
    result = {"witness": {"certified": True, "escalations": escalations}}
    return json.dumps({"command": "witness", "result": result}).encode()


def test_digest_check_flags_an_altered_envelope():
    good = _witness_envelope()
    pinned = {"385": hashlib.sha256(good).hexdigest()}
    assert run.check_job("witness", "385", 0, good, pinned)[0] is None
    altered = good.replace(b'"witness"', b'"witness" ', 1)
    reason, digest = run.check_job("witness", "385", 0, altered, pinned)
    assert reason is not None and "digest" in reason
    assert digest == hashlib.sha256(altered).hexdigest()
    # an input without a pin is judged by its claims alone
    assert run.check_job("witness", "386", 0, altered, pinned)[0] is None


def test_claim_and_exit_checks_fail_jobs():
    assert run.check_job("witness", "385", 0, _witness_envelope(1), {})[0] == (
        "claim check failed"
    )
    assert run.check_job("witness", "385", 1, _witness_envelope(), {})[0] == (
        "exit code 1"
    )
    assert "unreadable" in run.check_job("witness", "385", 0, b"{", {})[0]


def test_job_inputs_are_a_pure_function_of_the_seed():
    for name, workload in run.WORKLOADS.items():
        first = [workload.job(name, 5, i) for i in range(4)]
        assert first == [workload.job(name, 5, i) for i in range(4)]
    bases = {run.WORKLOADS["witness-n8"].job("witness-n8", 5, i)[0] for i in range(50)}
    assert bases <= {str(b) for b in range(385, 401)}
    seeds = {run.WORKLOADS["certify-n20"].job("certify-n20", 5, i)[0] for i in range(8)}
    assert len(seeds) == 8


def test_every_pinned_input_has_a_digest():
    table = json.loads(run.DIGESTS_PATH.read_text(encoding="utf-8"))
    for name in run.WORKLOADS:
        assert sorted(table[name]) == sorted(run.pin_keys(name))
