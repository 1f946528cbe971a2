"""``tools/bench_pairs.py`` summarizes paired benchmark runs: each side's
median and quartiles, the pairs the change won, and whether the claim rule
(nine pairs in ten, and a median gap wider than the parent's quartiles)
holds."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _line(wall: float, cpu: float = 1.0, failed: int = 0, correct: bool = True) -> str:
    """A run's stdout: a readable line, then the benchmark's JSON object."""
    metrics = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": 50.0, "setup_s": 0.25}
    result = {
        "correct": correct, "attempted": 10, "failed": failed,
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
