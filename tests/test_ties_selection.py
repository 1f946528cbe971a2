"""TIES by selection against the full-sort oracles, byte for byte.

``trim_topk`` picks its threshold with ``np.partition``; ``elect_signs`` and
``disjoint_merge`` work on one m x n stack.  Every result here must carry
the same bytes as the argsort trim and the m x n combine in ``oracles``.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from geomerge.delta_ops import (
    SparsifySpec,
    dare_drop,
    della_drop,
    disjoint_merge,
    elect_signs,
    sparsify_stream,
    trim_topk,
)
from geomerge.merge_methods import merge_dare, merge_della, merge_ties
from oracles import ties_combine_direct, trim_topk_direct


def _assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    if actual.tobytes() != expected.tobytes():
        diff = np.flatnonzero(actual.view(np.uint64) != expected.view(np.uint64))
        raise AssertionError(
            f"{diff.size} entries differ, first at {diff[0]}: "
            f"{actual[diff[0]]!r} != {expected[diff[0]]!r}"
        )


def _check_trim(delta: np.ndarray, density: float) -> None:
    expected = trim_topk_direct(delta, density)
    _assert_same_bytes(trim_topk(delta, density), expected)
    row = np.full(delta.size, 7.0)
    assert trim_topk(delta, density, out=row) is row
    _assert_same_bytes(row, expected)


def _density_for(k: int, n: int) -> float:
    """A density whose ceil(density * n) is exactly k."""
    density = k / n
    while math.ceil(density * n) > k:
        density = np.nextafter(density, 0.0)
    assert math.ceil(density * n) == k
    return float(density)


class TestTrimBySelection:
    @pytest.mark.parametrize("density", [0.01, 0.2, 0.5, 0.73, 0.999])
    def test_large_delta_with_rounding_ties(self, density):
        rng = np.random.default_rng(400)
        delta = np.round(rng.standard_normal(150_000), 1)  # about 80 distinct magnitudes
        _check_trim(delta, density)

    @pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.6, 0.9])
    def test_dare_dropped_delta_is_half_zeros(self, density):
        rng = np.random.default_rng(401)
        delta = dare_drop(rng.standard_normal(100_000) * 0.01, 0.5, sparsify_stream(3, "w", 0))
        assert 0.45 < np.mean(delta == 0.0) < 0.55
        _check_trim(delta, density)

    def test_all_zero_delta_keeps_lowest_index_zeros(self):
        delta = np.zeros(64)
        delta[::3] = -0.0
        for density in (0.1, 0.5, 0.99):
            _check_trim(delta, density)

    def test_k_is_n_minus_one(self):
        rng = np.random.default_rng(402)
        for n in (2, 3, 10, 1001, 100_000):
            delta = np.round(rng.standard_normal(n), 1)
            _check_trim(delta, _density_for(n - 1, n))

    def test_k_equals_the_nonzero_count(self):
        rng = np.random.default_rng(403)
        for n in (5, 97, 20_000):
            delta = np.round(rng.standard_normal(n), 1)
            delta[rng.random(n) < 0.4] = 0.0
            delta[rng.random(n) < 0.1] = -0.0
            nonzero = int(np.count_nonzero(delta))
            for k in (nonzero - 1, nonzero, nonzero + 1):
                if 1 <= k <= n:
                    _check_trim(delta, _density_for(k, n))

    def test_full_density_and_single_entry(self):
        rng = np.random.default_rng(404)
        delta = rng.standard_normal(33)
        delta[4] = -0.0
        delta[9] = np.nan
        _check_trim(delta, 1.0)
        for value in (2.5, -0.0, 0.0, np.nan, -np.inf):
            for density in (1e-9, 0.5, 1.0):
                _check_trim(np.array([value]), density)

    def test_empty_delta(self):
        _check_trim(np.zeros(0), 0.5)

    def test_negative_zero_entries(self):
        rng = np.random.default_rng(405)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            delta = np.round(rng.standard_normal(n), 0)
            delta[rng.random(n) < 0.3] = -0.0
            _check_trim(delta, float(rng.uniform(0.01, 1.0)))

    def test_nan_entries_rank_below_zero(self):
        rng = np.random.default_rng(406)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            delta = np.round(rng.standard_normal(n), 0)
            r = rng.random(n)
            delta[r < 0.2] = np.nan
            delta[(r >= 0.2) & (r < 0.35)] = -0.0
            delta[(r >= 0.35) & (r < 0.4)] = -np.inf
            _check_trim(delta, float(rng.uniform(0.01, 1.0)))
        # NaN is kept only once every number is
        out = trim_topk(np.array([np.nan, 0.0, np.nan, -0.0, 1.0]), 0.8)
        _assert_same_bytes(out, np.array([np.nan, 0.0, 0.0, -0.0, 1.0]))

    def test_float32_input(self):
        rng = np.random.default_rng(407)
        delta = np.round(rng.standard_normal(5000), 1).astype(np.float32)
        _check_trim(delta, 0.37)


class TestStackedCombine:
    def _cases(self):
        rng = np.random.default_rng(410)
        for trial in range(300):
            n = int(rng.integers(1, 60))
            m = int(rng.integers(1, 6))
            rows = np.round(rng.standard_normal((m, n)), 1) * (rng.random((m, n)) < 0.6)
            rows[rng.random((m, n)) < 0.1] = -0.0
            if trial % 4 == 0:
                rows[rng.random((m, n)) < 0.05] = np.nan
            if trial % 9 == 0:
                rows[rng.random((m, n)) < 0.05] = np.inf
            w = rng.random(m)
            w[rng.random(m) < 0.25] = 0.0
            if not w.any():
                w[0] = 1.0
            yield rows, w / w.sum()

    def test_stack_and_list_match_the_oracle(self):
        for rows, w in self._cases():
            # inf times a zero weight or a disagreeing mask is NaN, on both sides
            with np.errstate(invalid="ignore"):
                expected = ties_combine_direct(list(rows), w)
                for deltas in (rows, list(rows)):
                    out = disjoint_merge(deltas, w, elect_signs(deltas, w))
                    _assert_same_bytes(out, expected)

    def test_large_stack_matches_the_oracle(self):
        rng = np.random.default_rng(411)
        rows = np.vstack(
            [trim_topk_direct(np.round(rng.standard_normal(200_000), 2), 0.4) for _ in range(4)]
        )
        w = np.array([0.1, 0.2, 0.3, 0.4])
        expected = ties_combine_direct(list(rows), w)
        _assert_same_bytes(disjoint_merge(rows, w, elect_signs(rows, w)), expected)

    def test_stack_is_not_copied(self):
        m, n = 16, 100_000
        rows = np.random.default_rng(412).standard_normal((m, n))
        w = np.full(m, 1.0 / m)
        signs = elect_signs(rows, w)
        tracemalloc.start()
        try:
            elect_signs(rows, w)
            disjoint_merge(rows, w, signs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a handful of length-n buffers, well under one m x n float64 copy
        assert peak < rows.nbytes / 3

    def test_weight_count_must_match_the_stack(self):
        rows = np.ones((3, 4))
        with pytest.raises(ValueError, match="expected 3 weights"):
            disjoint_merge(rows, np.ones(2) / 2, np.ones(4))


def _experts(rng, m, n, rounding):
    base = rng.standard_normal(n).astype(np.float32)
    experts = [(base + 0.1 * rng.standard_normal(n)).astype(np.float32) for _ in range(m)]
    if rounding:
        experts = [np.round(e, 2) for e in experts]
    return base, experts


def _oracle_merge(base, deltas, weights, density):
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    trimmed = [trim_topk_direct(d, density) for d in deltas]
    return base.astype(np.float64) + ties_combine_direct(trimmed, w)


def _task_vectors(base, experts):
    return [e.astype(np.float64) - base.astype(np.float64) for e in experts]


class TestMergesAgainstOracle:
    CASES = [(1, 1000, 0.5), (2, 30_000, 0.2), (3, 100_000, 0.5), (4, 65_536, 0.9), (5, 777, 1.0)]

    @pytest.mark.parametrize("m,n,density", CASES)
    def test_merge_ties(self, m, n, density):
        rng = np.random.default_rng(420 + m)
        base, experts = _experts(rng, m, n, rounding=m % 2 == 1)
        weights = list(rng.uniform(0.1, 3.0, m))
        expected = _oracle_merge(base, _task_vectors(base, experts), weights, density)
        _assert_same_bytes(merge_ties(base, experts, weights, density), expected)

    @pytest.mark.parametrize("m,n,density", CASES)
    def test_merge_dare_ties(self, m, n, density):
        rng = np.random.default_rng(430 + m)
        base, experts = _experts(rng, m, n, rounding=m % 2 == 0)
        weights = list(rng.uniform(0.1, 3.0, m))
        dropped = [
            dare_drop(d, 0.6, sparsify_stream(17, "layer.w", i))
            for i, d in enumerate(_task_vectors(base, experts))
        ]
        expected = _oracle_merge(base, dropped, weights, density)
        out = merge_dare(
            base, experts, weights, 0.6, combine="ties", density=density, seed=17,
            tensor_name="layer.w",
        )
        _assert_same_bytes(out, expected)

    @pytest.mark.parametrize("m,n,density", CASES)
    def test_merge_della_ties(self, m, n, density):
        rng = np.random.default_rng(440 + m)
        base, experts = _experts(rng, m, n, rounding=True)
        weights = list(rng.uniform(0.1, 3.0, m))
        spec = SparsifySpec(density=density, drop_rate=0.4, window=0.2, seed=5)
        dropped = [
            della_drop(d, spec, sparsify_stream(5, "blk.0", i))
            for i, d in enumerate(_task_vectors(base, experts))
        ]
        expected = _oracle_merge(base, dropped, weights, density)
        out = merge_della(base, experts, weights, spec, combine="ties", tensor_name="blk.0")
        _assert_same_bytes(out, expected)
