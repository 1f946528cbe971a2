"""Tests of the benchmark itself: span arithmetic, output checks, and a
tiny-size smoke run of every workload whose metric names must match
BENCHMARK.json."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import check, spans
from perfbench.container import Container, write_container
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _span(id, name, start, end, parent=None, thread=0):
    return spans.Span(id, name, start, end, parent, thread)


def test_union_length_merges_overlaps_and_gaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0
    assert spans.union_length([(4, 5), (0, 10)]) == 10.0


def test_self_time_subtracts_union_of_direct_children():
    parent = _span(0, spans.RUN_MERGE, 0.0, 10.0)
    recorded = [
        parent,
        _span(1, spans.READ, 1.0, 4.0, parent=0, thread=1),
        _span(2, spans.RULE, 3.0, 6.0, parent=0, thread=2),  # overlaps span 1 on another thread
        _span(3, "dtypes.decode", 2.0, 3.5, parent=1, thread=1),  # grandchild: not subtracted again
        _span(4, "tensor_io.write", 8.0, 12.0, parent=0),  # clipped at the parent's end
        _span(5, spans.RULE, 0.0, 9.0, parent=None, thread=3),  # not a child
    ]
    assert spans.children_union(parent, recorded) == 7.0  # [1, 6] and [8, 10]
    assert spans.self_time(parent, recorded) == 3.0
    assert spans.self_time(parent, recorded) + spans.children_union(parent, recorded) == parent.duration


def test_busy_counts_a_nested_span_of_the_same_name_once():
    recorded = [_span(0, spans.RULE, 0.0, 4.0), _span(1, spans.RULE, 1.0, 2.0, parent=0), _span(2, spans.RULE, 5.0, 6.0)]
    assert spans.busy(recorded, spans.RULE) == (5.0, 2)


def test_tracer_adopts_worker_spans_into_run_merge():
    from concurrent.futures import ThreadPoolExecutor

    tracer = spans.Tracer()
    rule = tracer.wrap(lambda: None, spans.RULE)

    def orchestrate():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(rule) for _ in range(4)]:
                future.result()

    tracer.wrap(orchestrate, spans.RUN_MERGE)()
    run = next(s for s in tracer.spans if s.name == spans.RUN_MERGE)
    rules = [s for s in tracer.spans if s.name == spans.RULE]
    assert len(rules) == 4 and all(s.parent == run.id for s in rules)
    assert all(run.start <= s.start and s.end <= run.end for s in rules)


def test_trim_reference_keeps_lowest_indices_among_ties():
    delta = np.array([1.0, -3.0, 2.0, -2.0, 2.0, 0.5])
    np.testing.assert_array_equal(check.trim_reference(delta, 0.5), [0.0, -3.0, 2.0, -2.0, 0.0, 0.0])


def test_lerp_check_flags_an_output_off_by_more_than_one_ulp(tmp_path):
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 64)).astype(np.float32)
    for name, values in (("a", a), ("b", b), ("good", (a.astype(float) + b) / 2), ("bad", (a.astype(float) + b) / 2 * 1.001)):
        write_container(tmp_path / name, [("t", "F32", (64,))], lambda _, v=values: v.astype("<f4").tobytes())
    sources = [Container(tmp_path / "a"), Container(tmp_path / "b")]
    assert check.check_lerp(Container(tmp_path / "good"), sources, [1, 1], ["t"]) == []
    assert check.check_lerp(Container(tmp_path / "bad"), sources, [1, 1], ["t"]) != []


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_the_declared_metrics(workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert workload in {w["name"] for w in declared["workloads"]}

    plain = _smoke(workload, 0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 3
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        k: v["unit"] for k, v in plain["metrics"].items()
    }
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = _smoke(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        k: v["unit"] for k, v in traced["metrics"].items()
    }
    if workload.startswith("diagnose"):
        assert layers["diagnostics.spectrum_calls"] > 0 and layers["merge_methods.rule_calls"] == 0
    else:
        assert layers["merge_methods.rule_calls"] > 0
        assert layers["merge_methods.self_s"] + layers["merge_methods.children_s"] == pytest.approx(
            layers["merge_methods.run_merge_s"], rel=1e-9
        )
