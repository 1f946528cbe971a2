"""multislerp runs on the Karcher merge, and every rule returns one form.

``merge_multislerp`` keeps its own refusals and its lerp fallback, then
returns ``merge_karcher`` stopped after one unit step.  These tests pin it
byte for byte, or by the exception's type and text, against
``oracles.multislerp_direct``, the body it had with its own solve and
rescale.  They also pin Model Stock, which now merges in the workspace,
against ``oracles.model_stock_direct``, and the registry's return form.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from geomerge.merge_methods import (
    METHODS,
    MergeMethod,
    SolverStats,
    merge_model_stock,
    merge_multislerp,
)
from geomerge.sphere import norm
from oracles import model_stock_direct, multislerp_direct

SIZES = (7, (1 << 16) + 3)


def _sources(m: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 0.8 * rng.standard_normal((m, n))


def _outcome(merge, tensors, weights, **kw):
    """The merged bytes, or the exception's type and text, and the log."""
    logger = logging.getLogger("geomerge.merge_methods")
    records: list[str] = []
    handler = logging.Handler()
    handler.emit = lambda record: records.append(record.getMessage())
    logger.addHandler(handler)
    try:
        result = merge(tensors, weights, **kw).tobytes()
    except Exception as exc:
        result = (type(exc), str(exc))
    finally:
        logger.removeHandler(handler)
    return result, records


def _forms(stack: np.ndarray):
    """The input forms a caller may give: a list of f32 arrays, the f64
    matrix, the matrix with ``out``, and the matrix with ``norms``."""
    yield "list", [row.astype(np.float32).reshape(1, -1) for row in stack], {}
    yield "matrix", stack, {}
    yield "out", stack, {"out": np.full(stack.shape[1], np.nan)}
    yield "norms", stack, {"norms": [norm(row) for row in stack]}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("weighted", [False, True])
def test_multislerp_keeps_the_bits_of_its_own_solve(m, n, weighted):
    stack = _sources(m, n, seed=m * 10 + (n & 7))
    weights = np.arange(1.0, m + 1.0) if weighted else np.ones(m)
    for form, tensors, kw in _forms(stack):
        want = _outcome(multislerp_direct, tensors, weights, **kw)
        # the oracle and the merge are each given fresh buffers
        kw = {k: np.full(n, np.nan) if k == "out" else v for k, v in kw.items()}
        got = _outcome(merge_multislerp, tensors, weights, **kw)
        assert got == want, form
        assert isinstance(want[0], bytes) and not want[1], form


def _edge_cases():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(9)
    circle = np.zeros((4, 9))
    circle[:, :2] = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    with_nan = np.stack([a, a + 1.0])
    with_nan[1, 3] = np.nan
    huge = np.stack([a, a + 1.0])
    huge[0, 2] = 1e200
    return {
        "equal rows": np.stack([a, a, a]),
        "equal zero rows": np.zeros((3, 9)),
        "one zero row": np.stack([a, np.zeros(9), a + 1.0]),
        "circle": circle,
        "antipodal pair": np.stack([a, -a]),
        "nan": with_nan,
        "1e200": huge,
        "one source": a[None, :],
        "empty rows": np.zeros((3, 0)),
    }


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("case", list(_edge_cases()))
def test_multislerp_edge_cases_keep_their_outcome(case, weighted):
    stack = _edge_cases()[case]
    m = stack.shape[0]
    weights = np.arange(1.0, m + 1.0) if weighted else np.ones(m)
    for out in (None, np.empty(stack.shape[1])):
        want = _outcome(multislerp_direct, stack, weights, out=out)
        got = _outcome(merge_multislerp, stack, weights, out=out)
        assert got == want, out is None
    if case == "circle" and not weighted:
        assert want[1] == ["multislerp basepoint degenerate (symmetric sources); using lerp"]


def test_every_rule_returns_a_merge_and_stats_or_none():
    rng = np.random.default_rng(17)
    base = rng.standard_normal(11)
    flats = base + rng.standard_normal((3, 11))
    for kind, spec in METHODS.items():
        method = MergeMethod(kind)
        sources = flats[:2] if kind == "slerp" else flats
        w = np.full(len(sources), 1.0 / len(sources))
        for kw in ({}, {"out": np.empty(11), "norms": [norm(f) for f in sources]}):
            merged, stats = spec.rule(method.param, "x", sources.copy(), base, w, **kw)
            assert isinstance(merged, np.ndarray) and merged.shape == (11,), kind
            assert isinstance(stats, SolverStats) if kind == "karcher" else stats is None, kind


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("m", [2, 3, 5])
def test_model_stock_keeps_its_bits_and_its_arguments(m, n):
    rng = np.random.default_rng(m + n)
    base = rng.standard_normal(n).astype(np.float32)
    experts = [(base + 0.3 * rng.standard_normal(n)).astype(np.float32) for _ in range(m)]
    want = model_stock_direct(base, experts).tobytes()
    kept = [e.copy() for e in experts], base.copy()
    assert merge_model_stock(base, experts).tobytes() == want
    assert all(np.array_equal(a, b) for a, b in zip(experts, kept[0]))
    assert np.array_equal(base, kept[1])
    # with out, the deltas are made in the rows of the given f64 stack
    stack = np.stack(experts, dtype=np.float64)
    out = np.full(n, np.nan)
    assert merge_model_stock(base, stack, out=out) is out
    assert out.tobytes() == want


def test_model_stock_of_zero_deltas_is_the_base():
    base = np.linspace(-1.0, 1.0, 5)
    for out in (None, np.empty(5)):
        merged = merge_model_stock(base, np.stack([base, base, base]), out=out)
        assert merged.tobytes() == model_stock_direct(base, [base, base, base]).tobytes()
