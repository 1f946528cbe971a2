"""``covariance_spectrum`` collapses repeated rows of a wide matrix.

A bootstrap resample of n rows holds about 0.63 n distinct ones; for n < d
the spectrum is taken from the k x k Gram of the distinct centered rows,
each weighted by the square root of its count.  Here it is checked against
the d x d covariance of ``oracles.covariance_spectrum_direct`` to 1e-12 of
the top eigenvalue, with every summary to rtol 1e-12 and ``num_rank``
equal; input with no repeated row against ``oracles.covariance_spectrum_gram``
bit for bit; and rows whose keys tie but differ are never taken as one.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomerge.diagnostics import (
    ActivationMatrix,
    SpectralStats,
    _distinct_rows,
    _key_vector,
    _row_keys,
    bootstrap_stats,
    covariance_spectrum,
    effective_rank,
    mean_activation_variance,
    numerical_rank,
    participation_ratio,
    spectral_stats,
    stable_rank,
)
from geomerge.errors import DTypeOverflowError, NonFiniteError
from oracles import (
    bootstrap_stats_per_metric,
    covariance_spectrum_direct,
    covariance_spectrum_gram,
)


def _oracle_stats(x: np.ndarray) -> SpectralStats:
    lam = covariance_spectrum_direct(x)
    return SpectralStats(
        mean_variance=mean_activation_variance(x),
        eff_rank=effective_rank(lam),
        stable_rank=stable_rank(lam),
        participation_ratio=participation_ratio(lam),
        num_rank=numerical_rank(lam),
    )


def _assert_matches_direct(x: np.ndarray) -> None:
    """The spectrum to 1e-12 of its top eigenvalue (the d x d oracle's null
    eigenvalues are rounding, not zeros), each summary to rtol 1e-12, and
    the same numerical rank."""
    got, want = covariance_spectrum(x), covariance_spectrum_direct(x)
    assert got.shape == want.shape == (x.shape[1],)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want[0])
    stats, oracle = spectral_stats(x), _oracle_stats(x)
    assert stats.num_rank == oracle.num_rank
    for metric in ("mean_variance", "eff_rank", "stable_rank", "participation_ratio"):
        np.testing.assert_allclose(
            getattr(stats, metric), getattr(oracle, metric), rtol=1e-12, atol=0.0, err_msg=metric
        )


def _repeat(rows: np.ndarray, counts, rng: np.random.Generator) -> np.ndarray:
    """``rows`` repeated by ``counts``, in shuffled order."""
    x = np.repeat(rows, counts, axis=0)
    return x[rng.permutation(x.shape[0])]


def _groups(x: np.ndarray) -> list[tuple[bytes, int]]:
    """Each set of rows taken as equal, as (its row's bytes, its size), sorted."""
    found = _distinct_rows(x)
    assert found is not None
    first, counts = found
    assert counts.sum() == x.shape[0]
    return sorted((x[i].tobytes(), int(c)) for i, c in zip(first, counts))


# -- repeated rows against the d x d covariance ----------------------------------------


def test_every_row_equal_is_the_all_zero_spectrum():
    # quarter-integer entries, so the mean over the rows is exact
    row = np.random.default_rng(1).integers(-8, 9, 20) / 4.0
    x = np.tile(row, (7, 1))
    np.testing.assert_array_equal(covariance_spectrum(x), np.zeros(20))
    assert spectral_stats(x) == SpectralStats(0.0, 0.0, 0.0, 0.0, 0)
    assert _groups(x) == [(row.tobytes(), 7)]


def test_every_row_equal_at_an_inexact_mean():
    x = np.tile(np.random.default_rng(2).standard_normal(30), (11, 1))
    _assert_matches_direct(x)


def test_two_distinct_rows():
    rng = np.random.default_rng(3)
    x = _repeat(rng.standard_normal((2, 25)), [5, 3], rng)
    assert [c for _, c in _groups(x)] in ([3, 5], [5, 3])
    _assert_matches_direct(x)
    assert spectral_stats(x).num_rank == 1


def test_rank_one():
    rng = np.random.default_rng(4)
    x = _repeat(np.outer(rng.standard_normal(4), rng.standard_normal(40)), [3, 1, 4, 2], rng)
    _assert_matches_direct(x)
    assert spectral_stats(x).num_rank == 1


def test_constant_and_all_zero_columns():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((6, 32))
    rows[:, ::5] = 0.0
    rows[:, 1::7] = 2.5
    x = _repeat(rows, [1, 4, 2, 2, 1, 3], rng)
    _assert_matches_direct(x)
    assert np.all(covariance_spectrum(x)[6:] == 0.0)  # past the 6 distinct rows


@pytest.mark.parametrize("d", [8, 33, 64])
def test_n_is_d_minus_one(d):
    rng = np.random.default_rng(6 + d)
    n = d - 1
    x = rng.standard_normal((n, d))[rng.integers(0, n, size=n)]
    assert _distinct_rows(x) is not None
    _assert_matches_direct(x)


def test_negative_zero_beside_zero():
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((3, 12))
    rows[:, :4] = 0.0
    x = _repeat(rows, [2, 3, 2], rng)
    x[::2, :4] = -0.0  # equal values with other bits
    _assert_matches_direct(x)
    assert [c for _, c in _groups(np.abs(x))] == sorted([2, 3, 2])


def test_bootstrap_resample_of_a_tanh_layer():
    rng = np.random.default_rng(8)
    layer = np.tanh(rng.standard_normal((64, 96)) @ rng.standard_normal((96, 96)) / 10.0)
    x = layer[rng.integers(0, 64, size=64)]
    found = _distinct_rows(x)
    assert found is not None and len(found[1]) == np.unique(x, axis=0).shape[0]
    _assert_matches_direct(x)


@pytest.mark.parametrize("exponent", range(-150, 151, 25))
def test_scales_across_float64s_range(exponent):
    rng = np.random.default_rng(9)
    x = _repeat(rng.standard_normal((5, 24)), [3, 1, 2, 4, 2], rng) * 10.0**exponent
    _assert_matches_direct(x)


@pytest.mark.parametrize(
    "scale,error,message",
    [
        (1e-160, DTypeOverflowError, "covariance below float64's normal range"),
        (1e160, NonFiniteError, "covariance beyond float64 range"),
    ],
)
def test_refusals_keep_their_messages(scale, error, message):
    rng = np.random.default_rng(10)
    x = _repeat(rng.standard_normal((4, 16)), [3, 2, 2, 1], rng) * scale
    with pytest.raises(error, match=message):
        covariance_spectrum(x)


def test_repeated_rows_when_n_is_at_least_d_keep_the_direct_bits():
    rng = np.random.default_rng(11)
    x = _repeat(rng.standard_normal((5, 6)), [4, 2, 3, 1, 2], rng)
    np.testing.assert_array_equal(covariance_spectrum(x), covariance_spectrum_direct(x))


# -- rows whose keys tie ---------------------------------------------------------------------


def _tied_pair(d: int) -> np.ndarray:
    """Two rows that differ but whose keys are both key[0] * key[1]."""
    key = _key_vector(d)
    a, b = np.zeros(d), np.zeros(d)
    a[0], b[1] = key[1], key[0]
    return np.stack([a, b])


def test_rows_whose_keys_tie_are_not_taken_as_one():
    d = 10
    pair = _tied_pair(d)
    keys = _row_keys(pair)
    assert keys[0] == keys[1] and not np.array_equal(pair[0], pair[1])
    x = pair[[0, 1, 0, 1, 1]]
    np.testing.assert_array_equal(_row_keys(x), np.full(5, keys[0]))
    assert sum(c for _, c in _groups(x)) == 5
    assert {row for row, _ in _groups(x)} == {pair[0].tobytes(), pair[1].tobytes()}
    _assert_matches_direct(x)
    assert spectral_stats(x).num_rank == 1


def test_tied_distinct_rows_alone_take_the_gram_route():
    pair = _tied_pair(6)
    x = np.vstack([pair, np.ones((1, 6))])
    assert _distinct_rows(x) is None
    np.testing.assert_array_equal(covariance_spectrum(x), covariance_spectrum_gram(x))


# -- input with no repeated row keeps its bits ------------------------------------------


@pytest.mark.parametrize("n,d", [(2, 3), (9, 40), (64, 300), (255, 256)])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_no_repeated_row_keeps_the_gram_bits(n, d, scale):
    rng = np.random.default_rng(n * d)
    x = np.tanh(rng.standard_normal((n, d))) * scale
    assert _distinct_rows(x) is None
    np.testing.assert_array_equal(covariance_spectrum(x), covariance_spectrum_gram(x))


# -- a property over pools of rows -------------------------------------------------------------


@st.composite
def pooled(draw):
    """A matrix of rows drawn from a small pool, each with its multiplicity."""
    d = draw(st.integers(3, 16))
    pool = draw(st.integers(1, 5))
    counts = draw(st.lists(st.integers(0, 4), min_size=pool, max_size=pool))
    if not 2 <= sum(counts) < d:
        counts = [2] + [0] * (pool - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((pool, d))
    if draw(st.booleans()):
        rows[:, rng.integers(0, d)] = 0.0
    if draw(st.booleans()):
        rows[:, rng.integers(0, d)] = 1.5
    return _repeat(rows, counts, rng)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pooled(), st.sampled_from([1e-100, 1.0, 1e100]))
def test_pooled_rows_match_the_direct_oracle_and_the_bootstrap_keeps_its_bits(x, scale):
    _assert_matches_direct(x * scale)
    # the per-metric oracle takes its mean and std unscaled, so its bits
    # are the package's at unit scale only
    layer = ActivationMatrix("layer_1", x)
    got = bootstrap_stats(layer, 3, seed=5).metrics
    want = bootstrap_stats_per_metric(layer.samples, "layer_1", 3, seed=5)
    assert json.dumps(got) == json.dumps(want)
