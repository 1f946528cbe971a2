"""The TIES/DARE kernels zero and select without boolean-mask scatters.

``trim_topk``, ``della_drop`` and ``disjoint_merge`` zero their unkept
entries by multiplying the float64 bits by the 0/1 mask, ``trim_topk``
selects its nonzero magnitudes by ``np.compress``, and ``elect_signs``
makes its signs by arithmetic.  Each must give the bytes of the boolean-mask
form it replaced (the ``*_scatter`` oracles) on edge-case data, hold no
more memory, and keep no boolean-mask subscript, which the CPU mispredicts
on a random mask.
"""

from __future__ import annotations

import ast
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from geomerge.delta_ops import (
    SparsifySpec,
    della_drop,
    disjoint_merge,
    elect_signs,
    sparsify_stream,
    trim_topk,
)
from oracles import (
    della_drop_scatter,
    disjoint_merge_scatter,
    elect_signs_scatter,
    ties_combine_blocked,
    ties_combine_direct,
    trim_topk_direct,
    trim_topk_scatter,
)

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SIZES = (0, 1, 7, 16385, 100_003)
STYLES = ("specials", "dropped", "all-nonzero", "all-zero")
DENSITIES = (0.01, 0.2, 0.5, 0.95, 1.0)
# (drop_rate, window): every valid pair of rates 0, 0.5, 0.9 and windows 0, 0.2
DROPS = ((0.0, 0.0), (0.5, 0.0), (0.9, 0.0), (0.2, 0.2), (0.5, 0.2), (0.7, 0.2))

# NaNs of both signs, one with payload bits
_NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000123], np.uint64).view(
    np.float64
)


def _delta(n: int, style: str, seed: int = 0) -> np.ndarray:
    """A float64 delta of length n.

    ``specials`` is rounded to two decimals, so magnitudes tie, with zeros
    of both signs, ±inf and NaNs strewn in; ``dropped`` is that with about
    half its entries zeroed, as after a 0.5 drop.
    """
    rng = np.random.default_rng(600 + 7 * n + STYLES.index(style) + 100 * seed)
    if style == "all-zero":
        return np.where(rng.random(n) < 0.5, 0.0, -0.0)
    if style == "all-nonzero":
        d = rng.standard_normal(n)
        d[d == 0.0] = 1.0
        return d
    d = np.round(rng.standard_normal(n), 2)
    for value, frac in ((-0.0, 0.05), (0.0, 0.05), (np.inf, 0.01), (-np.inf, 0.01)):
        d[rng.random(n) < frac] = value
    picks = rng.random(n) < 0.02
    d[picks] = rng.choice(_NANS, size=int(np.count_nonzero(picks)))
    if style == "dropped":
        d[rng.random(n) < 0.5] = 0.0
    return d


def _same_bytes(actual: np.ndarray, expected: np.ndarray, label) -> None:
    assert actual.dtype == expected.dtype == np.float64, label
    assert actual.shape == expected.shape, label
    if actual.tobytes() != expected.tobytes():
        diff = np.flatnonzero(actual.view(np.uint64) != expected.view(np.uint64))
        raise AssertionError(
            f"{label}: {diff.size} entries differ, first at {diff[0]}: "
            f"{actual[diff[0]]!r} != {expected[diff[0]]!r}"
        )


# -- byte for byte against the boolean-mask forms -----------------------------


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("n", SIZES)
def test_trim_matches_the_scatter_form(n, style):
    d = _delta(n, style)
    before = d.tobytes()
    for density in DENSITIES:
        expected = trim_topk_scatter(d, density)
        _same_bytes(trim_topk(d, density), expected, (n, style, density))
        row = d.copy()
        assert trim_topk(row, density, out=row) is row
        _same_bytes(row, expected, (n, style, density, "in place"))
        out = np.full(n, np.nan)
        trim_topk(d, density, out=out)
        _same_bytes(out, expected, (n, style, density, "out"))
    assert d.tobytes() == before


def test_trim_threshold_inside_a_run_of_equal_magnitudes_with_nan():
    # 4 magnitudes above 2, a run of 40 at 2 with both signs, NaNs among them,
    # then smaller ones: density 0.2 puts k = 20 inside the run
    rng = np.random.default_rng(610)
    d = np.concatenate([[5.0, -4.0, 3.0, -3.0], np.where(rng.random(40) < 0.5, 2.0, -2.0)])
    d = np.concatenate([d, rng.uniform(-1.5, 1.5, 52), [-0.0, 0.0, np.nan, -np.nan]])
    d = d[rng.permutation(d.size)]
    k = int(np.ceil(0.2 * d.size))
    mags = np.abs(d)
    assert np.count_nonzero(mags > 2.0) < k < np.count_nonzero(mags >= 2.0)
    got = trim_topk(d, 0.2)
    _same_bytes(got, trim_topk_scatter(d, 0.2), "scatter")
    _same_bytes(got, trim_topk_direct(d, 0.2), "full sort")
    assert np.count_nonzero(got) == k


@pytest.mark.parametrize("drop_rate,window", DROPS)
@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("n", SIZES)
def test_drop_matches_the_scatter_form(n, style, drop_rate, window):
    spec = SparsifySpec(drop_rate=drop_rate, window=window, seed=11)
    d = _delta(n, style)
    with np.errstate(invalid="ignore"):  # scaling a signaling NaN sets the invalid flag
        expected = della_drop_scatter(d, spec, sparsify_stream(spec.seed, "t", 0))
        got = della_drop(d, spec, sparsify_stream(spec.seed, "t", 0))
        _same_bytes(got, expected, "allocating")
        row, draws = d.copy(), np.empty(n)
        got = della_drop(row, spec, sparsify_stream(spec.seed, "t", 0), out=row, draws=draws)
        assert got is row
        _same_bytes(row, expected, "out is the input")
        if window == 0.0:
            # the delta is read before any draw is made, so draws may reuse it
            scratch, out = d.copy(), np.empty(n)
            della_drop(scratch, spec, sparsify_stream(spec.seed, "t", 0), out=out, draws=scratch)
            _same_bytes(out, expected, "draws is the input")


def _stack(m: int, n: int, style: str) -> np.ndarray:
    rows = np.vstack([_delta(n, style, seed) for seed in range(m)])
    if n and style != "all-zero":
        rows[:, : max(1, n // 10)] = 0.0  # columns no model agrees with
        if m > 1:
            rows[1, n // 5 : n // 4] = -rows[0, n // 5 : n // 4]  # totals of exactly 0
    return rows


@pytest.mark.parametrize("m", [1, 3, 4])
@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("n", SIZES)
def test_signs_and_disjoint_mean_match_the_scatter_forms(n, style, m):
    rows = _stack(m, n, style)
    w = np.arange(1.0, m + 1.0) / (m * (m + 1) / 2)
    with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 are NaN on both sides
        signs = elect_signs(rows, w)
        _same_bytes(signs, elect_signs_scatter(rows, w), "signs")
        expected = disjoint_merge_scatter(rows, w, signs)
        _same_bytes(disjoint_merge(rows, w, signs), expected, "disjoint mean")
        _same_bytes(disjoint_merge(list(rows), w, signs), expected, "disjoint mean, list")


def test_disjoint_mean_divides_without_warnings():
    # columns with no agreeing model are divided by a zero denominator and
    # zeroed after; that must not surface as a warning
    rows = _stack(3, 40_000, "dropped")
    rows[~np.isfinite(rows)] = 1.0
    w = np.full(3, 1.0 / 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = disjoint_merge(rows, w, elect_signs(rows, w))
    _same_bytes(got, disjoint_merge_scatter(rows, w, elect_signs_scatter(rows, w)), "finite")


# -- the deterministic TIES oracle ---------------------------------------------


def test_tie_heavy_column_matches_the_blocked_oracle():
    # with weights 1/3 the total of (-0.1, 0.2, -0.1) rounds to +0.0 or to a
    # negative number depending on the order of the sum, so its sign is the
    # one a threaded ``w @ mat`` may flip
    n = 200_003
    rows = np.tile(np.array([[-0.1], [0.2], [-0.1]]), (1, n))
    w = np.full(3, 1.0 / 3.0)
    expected = ties_combine_blocked(list(rows), w)
    assert set(np.unique(expected)) == {-0.1, 0.2}  # both signs are elected
    _same_bytes(disjoint_merge(rows, w, elect_signs(rows, w)), expected, "blocked oracle")


def test_blocked_oracle_is_the_direct_one_on_untied_sums():
    rng = np.random.default_rng(620)
    rows = np.vstack([trim_topk_direct(rng.standard_normal(30_011), 0.4) for _ in range(3)])
    w = np.array([0.2, 0.3, 0.5])
    _same_bytes(ties_combine_blocked(list(rows), w), ties_combine_direct(list(rows), w), "untied")


# -- memory: no more n-length vectors than the scatter forms -------------------

N = 1 << 20


def _peak_vectors(fn, *args, **kwargs) -> float:
    """Peak bytes traced while ``fn`` runs, in n-length float64 vectors."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return (tracemalloc.get_traced_memory()[1] - before) / (8 * N)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "style,density", [("dropped", 0.2), ("dropped", 0.95), ("all-nonzero", 0.5)]
)
def test_trim_holds_no_more_than_the_scatter_form(style, density):
    d = _delta(N, style)
    old = _peak_vectors(trim_topk_scatter, d.copy(), density, out=d.copy())
    row = d.copy()
    new = _peak_vectors(trim_topk, row, density, out=row)
    assert new <= old + 0.01, (new, old)


@pytest.mark.parametrize("window", [0.0, 0.2])
def test_drop_holds_no_more_than_the_scatter_form(window):
    spec = SparsifySpec(drop_rate=0.5, window=window, seed=3)
    d, draws = _delta(N, "specials"), np.empty(N)
    with np.errstate(invalid="ignore"):
        row = d.copy()
        old = _peak_vectors(
            della_drop_scatter, row, spec, sparsify_stream(3, "t", 0), out=row, draws=draws
        )
        row = d.copy()
        new = _peak_vectors(della_drop, row, spec, sparsify_stream(3, "t", 0), out=row, draws=draws)
    assert new <= old + 0.01, (new, old)


# -- guard: no boolean-mask subscript in the kernels ---------------------------

KERNELS = ("trim_topk", "della_drop", "elect_signs", "disjoint_merge")
_COMPARISONS = {"greater", "greater_equal", "less", "less_equal", "equal", "not_equal", "isnan"}


def _is_mask(node: ast.AST, masks: set[str]) -> bool:
    """Whether ``node`` is a boolean mask: a comparison, a ``~``, a numpy
    comparison call, or a name bound to one of those."""
    if isinstance(node, ast.Compare) or (
        isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert)
    ):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in _COMPARISONS
    return isinstance(node, ast.Name) and node.id in masks


def _mask_subscripts(func: ast.FunctionDef) -> list[int]:
    """Lines in ``func`` that index an array by a boolean mask, read or write."""
    masks: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and _is_mask(node.value, masks):
            masks.update(t.id for t in node.targets if isinstance(t, ast.Name))
        if isinstance(node, ast.Call) and _is_mask(node, masks):
            outs = [k.value for k in node.keywords if k.arg == "out"]
            masks.update(out.id for out in outs if isinstance(out, ast.Name))
    return sorted(
        node.lineno
        for node in ast.walk(func)
        if isinstance(node, ast.Subscript) and _is_mask(node.slice, masks)
    )


def _functions(path: Path) -> dict[str, ast.FunctionDef]:
    tree = ast.parse(path.read_text(), str(path))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_kernels_index_by_no_boolean_mask():
    funcs = _functions(SRC / "geomerge" / "delta_ops.py")
    for name in (*KERNELS, "_select", "_zero_unkept"):
        assert _mask_subscripts(funcs[name]) == [], name


def test_guard_sees_every_scatter_form():
    funcs = _functions(TESTS / "oracles.py")
    for name in KERNELS:
        assert _mask_subscripts(funcs[f"{name}_scatter"]), name


@pytest.mark.parametrize(
    "snippet,flagged",
    [
        ("def f(out, keep):\n    out[~keep] = 0.0\n", True),
        ("def f(out, draws, p):\n    out[draws < p] = 0.0\n", True),
        ("def f(t):\n    negative = t < 0.0\n    t[negative] = -1.0\n", True),
        ("def f(m, keep):\n    np.greater(m, 0.0, out=keep)\n    return m[keep]\n", True),
        ("def f(m):\n    return m[np.isnan(m)]\n", True),
        ("def f(keep, m, k):\n    keep[np.flatnonzero(m == 2.0)[:k]] = True\n", False),
        ("def f(keep, zeros):\n    keep[zeros] = True\n", False),
        ("def f(p, order, a):\n    p[order[0:4]] = a\n", False),
    ],
)
def test_guard_tells_masks_from_indices(snippet, flagged):
    func = ast.parse(snippet).body[0]
    assert bool(_mask_subscripts(func)) is flagged

