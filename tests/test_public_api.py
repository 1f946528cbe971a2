"""The names the package exports.

``geomerge.__all__`` is sorted with no duplicates, and every name in it
resolves.  The two-point sphere maps that no command reached are no longer
part of the package; their reference copies live in ``tests/oracles.py``.
Nor are the whole-model container, its eager load and the norm-shrinkage
report built on them: ``tests/oracles.py`` has a whole-container read and
the shrinkage ratio, and the merge summary gives the ratio's norms.
Options that no command set are gone too: each call site used one value,
which is now a constant (the encoder and writer refuse every overflow, the
writer writes no ``__metadata__``, the solver's antipodal threshold is
``sphere.ANTIPODAL_EPS``, numerical rank uses d * eps, and a drop mask is
keyed by the expert's position).  The toy forward's library call makes one
layer from the one below it; the loop over a whole stack is the test oracle
``toy_forward_stack``.
"""

from __future__ import annotations

import inspect

import pytest

import geomerge
from geomerge import diagnostics, dtypes, merge_methods, sphere, tensor_io

MOVED = ("normalize_to_sphere", "geodesic_distance", "sphere_log", "sphere_exp", "frechet_objective")
REMOVED = ("Checkpoint", "read_checkpoint", "weight_norm_report")
RETIRED_PARAMETERS = [
    (dtypes.encode_array, "clamp"),
    (tensor_io.CheckpointWriter, "clamp_overflow"),
    (tensor_io.CheckpointWriter, "metadata"),
    (tensor_io.write_checkpoint, "clamp_overflow"),
    (tensor_io.write_checkpoint, "metadata"),
    (sphere.KarcherConfig, "antipodal_eps"),
    (diagnostics.numerical_rank, "rel_tol"),
    (merge_methods.merge_della, "model_indices"),
    (merge_methods.merge_dare, "model_indices"),
    (diagnostics.toy_forward_collect, "layer_weights"),
    (diagnostics.toy_forward_collect, "inputs"),
    (diagnostics.toy_forward_collect, "biases"),
]


def test_all_is_sorted_without_duplicates():
    assert geomerge.__all__ == sorted(set(geomerge.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in geomerge.__all__ if not hasattr(geomerge, name)]
    assert missing == []


@pytest.mark.parametrize("name", MOVED)
def test_moved_sphere_maps_are_not_exported(name):
    assert name not in geomerge.__all__
    assert not hasattr(geomerge, name)
    assert not hasattr(sphere, name)


@pytest.mark.parametrize("name", REMOVED)
def test_whole_model_surface_is_gone(name):
    assert name not in geomerge.__all__
    for module in (geomerge, tensor_io, diagnostics):
        assert not hasattr(module, name), module.__name__


@pytest.mark.parametrize(
    "function,parameter", RETIRED_PARAMETERS, ids=lambda v: getattr(v, "__name__", v)
)
def test_retired_parameters_are_gone(function, parameter):
    assert parameter not in inspect.signature(function).parameters
