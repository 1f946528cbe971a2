"""The bootstrap summary draws into one table, a row per metric named by
the fields of ``SpectralStats``, and reports the bits the per-metric
arrays gave: those of each draw's ``spectral_stats`` for n >= d, and of
the draws from the layer's one centred Gram for n < d, which stay within
rtol 1e-12 of ``spectral_stats`` with the same numerical rank."""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest

from geomerge.diagnostics import (
    METRIC_NAMES,
    ActivationMatrix,
    SpectralStats,
    bootstrap_stats,
    diagnostics_report,
)
from oracles import (
    assert_draws_near_spectral_stats,
    bootstrap_stats_from_gram,
    bootstrap_stats_per_metric,
)


def test_metric_names_are_the_stats_fields():
    assert METRIC_NAMES == tuple(f.name for f in fields(SpectralStats))
    assert METRIC_NAMES == (
        "mean_variance", "eff_rank", "stable_rank", "participation_ratio", "num_rank"
    )


@pytest.mark.parametrize("shape", [(12, 30), (40, 6), (5, 4)])
@pytest.mark.parametrize("draws", [1, 2, 9])
def test_table_matches_per_metric_arrays(shape, draws):
    rng = np.random.default_rng(shape[0] * 100 + draws)
    samples = rng.standard_normal(shape) ** 3
    if shape == (5, 4):
        samples[:, 1:] = 0.0  # rank one: num_rank and the rank measures at 1
    layer = ActivationMatrix("layer_3", samples)
    got = bootstrap_stats(layer, draws, seed=11).metrics
    if shape[0] < shape[1]:
        want = bootstrap_stats_from_gram(layer.samples, "layer_3", draws, seed=11)
        assert_draws_near_spectral_stats(layer.samples, "layer_3", draws, seed=11)
    else:
        want = bootstrap_stats_per_metric(layer.samples, "layer_3", draws, seed=11)
    # json keeps every float's bits and the key order
    assert json.dumps(got) == json.dumps(want)


def test_report_rows_follow_the_metric_order():
    rng = np.random.default_rng(2)
    layers = [ActivationMatrix(f"layer_{k}", rng.standard_normal((8, 5))) for k in range(2)]
    report = diagnostics_report(layers, draws=3, seed=0)
    assert [layer.label for layer in report.layers] == ["layer_0", "layer_1"]
    assert [(row[0], row[1]) for row in report.csv_rows()] == [
        (label, metric) for label in ("layer_0", "layer_1") for metric in METRIC_NAMES
    ]
