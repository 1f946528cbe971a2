"""Task arithmetic is :func:`merge_della` with nothing dropped and a scaled
combined delta; these tests pin its bytes against a plain-loop reference
(``oracles.task_arithmetic_direct``) on the public path and the ``out=``
path that ``run_merge`` takes, and the scaled TIES combine that a library
caller can now reach through ``merge_della``."""

from __future__ import annotations

import numpy as np
import pytest

from geomerge.delta_ops import SparsifySpec
from geomerge.merge_methods import merge_della, merge_task_arithmetic
from oracles import task_arithmetic_direct, ties_combine_direct, trim_topk_direct

#: longer than one block of ``weighted_sum``'s products, and not a multiple of it
N = (1 << 16) + 37
SCALINGS = (0.0, 1.0, 0.7, -2.5)


def _assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    if actual.tobytes() != expected.tobytes():
        diff = np.flatnonzero(actual.view(np.uint64) != expected.view(np.uint64))
        raise AssertionError(
            f"{diff.size} entries differ, first at {diff[0]}: "
            f"{actual[diff[0]]!r} != {expected[diff[0]]!r}"
        )


def _inputs(m: int, dtype: type, seed: int):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(N).astype(dtype)
    experts = [(base + rng.standard_normal(N) * 0.1).astype(dtype) for _ in range(m)]
    weights = rng.uniform(0.1, 2.0, size=m)
    return base, experts, weights


@pytest.mark.parametrize("scaling", SCALINGS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_task_arithmetic_matches_the_direct_sum(m, dtype, scaling):
    base, experts, weights = _inputs(m, dtype, 600 + m)
    expected = task_arithmetic_direct(base, experts, weights, scaling)
    kept = [e.copy() for e in experts]

    _assert_same_bytes(merge_task_arithmetic(base, experts, weights, scaling), expected)
    assert all(np.array_equal(e, k) for e, k in zip(experts, kept))

    # as run_merge calls it: the experts as one float64 stack the rule may
    # overwrite, and a given result vector
    stack = np.stack(experts).astype(np.float64)
    out = np.full(N, np.nan)
    got = merge_task_arithmetic(base, stack, weights, scaling, out=out)
    assert got is out
    _assert_same_bytes(out, expected)


@pytest.mark.parametrize("scaling", SCALINGS)
@pytest.mark.parametrize("m", [1, 3])
def test_scaled_ties_is_the_base_plus_the_scaled_ties_mean(m, scaling):
    base, experts, weights = _inputs(m, np.float64, 700 + m)
    w = weights / weights.sum()
    trimmed = [trim_topk_direct(e - base, 0.4) for e in experts]
    expected = base + scaling * ties_combine_direct(trimmed, w)
    spec = SparsifySpec(density=0.4, drop_rate=0.0, window=0.0)
    got = merge_della(base, experts, weights, spec, "ties", scaling=scaling)
    _assert_same_bytes(got, expected)
    out = np.empty(N)
    merge_della(base, np.stack(experts), weights, spec, "ties", scaling=scaling, out=out)
    _assert_same_bytes(out, expected)
