"""``tools/bench_pairs.py`` summarizes paired benchmark runs: each side's
median and quartiles, the pairs the change won, whether the claim rule
(nine pairs in ten, and a median gap wider than the parent's quartiles)
holds, and each side's failed and attempted invocations."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _line(
    wall: float, cpu: float = 1.0, failed: int = 0, correct: bool = True, attempted: int = 10
) -> str:
    """A run's stdout: a readable line, then the benchmark's JSON object."""
    metrics = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": 50.0, "setup_s": 0.25}
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
    }
    return f"== diagnose-toy (seed 31)\n{json.dumps(result)}\n"


def _pairs(parent_walls, change_walls):
    return [
        (bench_pairs.parse_result(_line(p)), bench_pairs.parse_result(_line(c)))
        for p, c in zip(parent_walls, change_walls)
    ]


def test_a_clear_gain_is_claimed():
    parent = [0.80, 0.82, 0.84, 0.81, 0.83, 0.85, 0.80, 0.82, 0.86, 0.84]
    change = [0.62, 0.66, 0.64, 0.63, 0.65, 0.70, 0.61, 0.64, 0.66, 0.67]
    s = bench_pairs.summarize(_pairs(parent, change))["wall_s"]
    assert s["pairs"] == 10 and s["wins"] == 10 and s["losses"] == 0
    assert s["parent"] == pytest.approx((0.8125, 0.825, 0.84))
    assert s["change"][1] == pytest.approx(0.645)
    assert s["relative"] == pytest.approx(0.645 / 0.825 - 1)
    assert s["gain"]


def test_ties_count_for_neither_side_and_eight_wins_in_ten_claim_nothing():
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.0, 1.5]
    s = bench_pairs.summarize(_pairs(parent, change))["wall_s"]
    assert (s["wins"], s["losses"]) == (8, 1)
    assert not s["gain"]


def test_a_gap_inside_the_parents_quartiles_claims_nothing():
    parent = [1.0, 2.0] * 5
    change = [0.9, 1.9] * 5
    s = bench_pairs.summarize(_pairs(parent, change))["wall_s"]
    assert s["wins"] == 10 and not s["gain"]


def test_a_failed_run_leaves_its_pair_out():
    pairs = _pairs([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
    pairs[1] = (pairs[1][0], bench_pairs.parse_result(_line(0.5, failed=1, correct=False)))
    pairs[2] = (bench_pairs.parse_result("Traceback (most recent call last):\n"), pairs[2][1])
    s = bench_pairs.summarize(pairs)["wall_s"]
    assert s["pairs"] == 1 and s["wins"] == 1
    assert bench_pairs.summarize(pairs[1:])["cpu_s"] == {"pairs": 0}


def _canned_pairs():
    """Two pairs: parent runs of 0 of 12 and 0 of 9 failed invocations (the
    second's checks failed, which counts one); change runs of 2 of 11 and
    one that printed no result, which counts one of one."""
    parse = bench_pairs.parse_result
    parent = [parse(_line(1.0, attempted=12)), parse(_line(1.0, correct=False, attempted=9))]
    change = [parse(_line(0.9, failed=2, correct=False, attempted=11)), parse("Traceback\n")]
    return list(zip(parent, change))


def test_failed_and_attempted_invocations_are_summed_over_every_pair():
    assert bench_pairs.failures(_canned_pairs()) == {"parent": (1, 21), "change": (3, 12)}


def test_the_summary_prints_each_sides_failed_invocations(monkeypatch, capsys, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    runs = {checkout: iter(side) for checkout, side in zip((parent, change), zip(*_canned_pairs()))}
    monkeypatch.setattr(bench_pairs, "control", lambda: (1.0, 0.5))
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, *args: next(runs[checkout]))
    monkeypatch.setattr(
        "sys.argv",
        ["bench_pairs.py", str(parent), str(change), "--workload", "diagnose-toy", "--pairs", "2"],
    )
    assert bench_pairs.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "  2 pairs had a failed run and are left out",
        "  failed invocations: parent 1 of 21, change 3 of 12",
    ]
