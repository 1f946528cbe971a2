"""The Karcher solver's n-space passes run over column blocks.

``sphere.karcher_mean`` sums its Gram matrix block by block and combines the
chord and the residual into one block-sized scratch vector.  These tests pin
it against ``oracles.karcher_mean_unblocked``, the solver as it was with
whole-stack products: bit for bit on one block, and within 1e-13 of the
largest magnitude, with the same exit, on up to 17.  A Karcher or multislerp
merge's second tensor allocates under 0.75 of an n-length vector, and the
spherical rules take each source norm once, from ``run_merge``.
"""

from __future__ import annotations

import contextlib
import tracemalloc

import numpy as np
import pytest

from geomerge import dtypes, merge_methods
from geomerge.errors import AntipodalError
from geomerge.merge_methods import MergeJob, MergeMethod, merge_karcher, merge_multislerp, run_merge
from geomerge.sphere import COLUMN_BLOCK, KarcherConfig, KarcherResult, column_blocks, karcher_mean
from geomerge.tensor_io import CheckpointWriter, open_checkpoint
from oracles import build_container, karcher_mean_unblocked

STALL = KarcherConfig(tol=1e-300, max_iter=200)


def _circle(m: int, n: int, cols: tuple[int, int]) -> np.ndarray:
    """m unit vectors equally spaced on a circle in columns ``cols``: their
    chord is zero for m >= 3, and for even m one is antipodal to another."""
    pts = np.zeros((m, n))
    angles = 2.0 * np.pi * np.arange(m) / m
    pts[:, cols[0]], pts[:, cols[1]] = np.cos(angles), np.sin(angles)
    return pts


def _cases(m: int, n: int, seed: int) -> list[tuple[str, np.ndarray, np.ndarray, KarcherConfig]]:
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(n)
    duplicate = rng.standard_normal((m, n))
    duplicate[-1] = duplicate[0]
    return [
        ("independent", rng.standard_normal((m, n)), rng.uniform(0.5, 2.0, m), KarcherConfig()),
        ("nearly parallel", base + 1e-9 * rng.standard_normal((m, n)), np.ones(m), KarcherConfig()),
        ("duplicate", duplicate, rng.uniform(0.5, 2.0, m), KarcherConfig()),
        ("degenerate chord", _circle(m, n, (0, n - 1)), np.ones(m), KarcherConfig()),
        ("stall", rng.standard_normal((m, n)), np.ones(m), STALL),
    ]


def _solve(solver, pts, w, cfg) -> KarcherResult | str:
    try:
        return solver(pts, w, cfg)
    except AntipodalError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [3, 50, COLUMN_BLOCK])
@pytest.mark.parametrize("m", range(2, 12))
def test_one_block_keeps_every_bit(m, n):
    for label, pts, w, cfg in _cases(m, n, seed=100 * m + n % 97):
        got, want = _solve(karcher_mean, pts, w, cfg), _solve(karcher_mean_unblocked, pts, w, cfg)
        if isinstance(want, str):  # an even circle holds an antipodal pair
            assert got == want, label
            continue
        assert got.mean.tobytes() == want.mean.tobytes(), label
        assert (got.iterations, got.residual, got.converged, got.stalled) == (
            want.iterations, want.residual, want.converged, want.stalled,
        ), label


@pytest.mark.parametrize("m", range(2, 12))
def test_antipodal_points_still_raise(m):
    v = np.random.default_rng(m).standard_normal(40)
    pts = np.array([v if i % 2 == 0 else -v for i in range(m)])
    w = np.where(np.arange(m) % 2 == 0, 2.0, 1.0)
    for solver in (karcher_mean, karcher_mean_unblocked):
        with pytest.raises(AntipodalError, match="antipodal to the iterate at iteration 0"):
            solver(pts, w)


@pytest.mark.parametrize("m,blocks", [(2, 2), (5, 2), (3, 3), (11, 3), (3, 17)])
def test_many_blocks_agree_to_rounding(m, blocks):
    n = (blocks - 1) * COLUMN_BLOCK + 5  # a ragged last block
    assert len(column_blocks(n)) == blocks
    for label, pts, w, cfg in _cases(m, n, seed=blocks * m):
        got, want = _solve(karcher_mean, pts, w, cfg), _solve(karcher_mean_unblocked, pts, w, cfg)
        if isinstance(want, str):
            assert got == want, label
            continue
        scale = np.max(np.abs(want.mean))
        assert np.max(np.abs(got.mean - want.mean)) <= 1e-13 * scale, label
        assert (got.iterations, got.converged, got.stalled) == (
            want.iterations, want.converged, want.stalled,
        ), label


def test_column_blocks_cover_n_with_at_least_one_slice():
    assert column_blocks(0) == [slice(0, COLUMN_BLOCK)]
    assert column_blocks(COLUMN_BLOCK) == [slice(0, COLUMN_BLOCK)]
    assert len(column_blocks(COLUMN_BLOCK + 1)) == 2


# -- each source norm taken once ----------------------------------------------------


def _sources(root, n: int, m: int = 3) -> list:
    rng = np.random.default_rng(41)
    paths = []
    for i in range(m):
        values = rng.standard_normal(n)
        tensors = {"x": values, "y": values[::-1].copy()}
        entries = {k: ("F32", [n], dtypes.encode_array(v, "f32")) for k, v in tensors.items()}
        paths.append(root / f"s{i}.st")
        paths[-1].write_bytes(build_container(entries))
    return paths


@pytest.mark.parametrize("kind", ["karcher", "multislerp"])
def test_run_merge_takes_each_source_norm_once(tmp_path, monkeypatch, kind):
    """``merge_one`` takes ``norm_in`` and the rule reuses it: per tensor, one
    norm per source and one of the result."""
    calls = []
    real = merge_methods.norm

    def count(v):
        calls.append(np.size(v))
        return real(v)

    monkeypatch.setattr(merge_methods, "norm", count)
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open_checkpoint(p)) for p in _sources(tmp_path, 300)]
        job = MergeJob(handles, MergeMethod(kind), tmp_path / "out.st", threads=1)
        run_merge(job)
    assert len(calls) == 2 * (3 + 1), calls


@pytest.mark.parametrize("n", [200, 2 * COLUMN_BLOCK + 3])
def test_given_norms_give_the_bits_of_taken_ones(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((3, n))
    w = np.array([0.2, 0.5, 0.3])
    norms = [merge_methods.norm(row) for row in stack]
    merged, stats = merge_karcher(stack, w)
    given, given_stats = merge_karcher(stack, w, norms=norms)
    assert given.tobytes() == merged.tobytes() and given_stats == stats
    assert merge_multislerp(stack, w, norms=norms).tobytes() == merge_multislerp(stack, w).tobytes()


# -- regression guard: no n-length temporary in the solver ----------------------------

N = 1 << 17  # two blocks


@pytest.mark.parametrize("kind", ["karcher", "multislerp"])
def test_a_second_tensor_allocates_under_three_quarters_of_a_vector(tmp_path, monkeypatch, kind):
    """The chord and the residual go through one block-sized scratch vector
    (half a vector here); either one as an n-length vector would pass 0.75."""
    marks: list[int] = []
    put = CheckpointWriter.put

    def mark(self, name, array):
        put(self, name, array)
        if name == "x":  # the one worker turns to y next
            marks.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()

    monkeypatch.setattr(CheckpointWriter, "put", mark)
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open_checkpoint(p)) for p in _sources(tmp_path, N)]
        job = MergeJob(handles, MergeMethod(kind), tmp_path / "out.st", threads=1)
        tracemalloc.start()
        try:
            run_merge(job)
            before_y, peak = marks[0], tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak - before_y < 0.75 * 8 * N, (peak - before_y) / (8 * N)
