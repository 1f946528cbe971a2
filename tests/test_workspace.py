"""The per-worker float64 workspace of ``run_merge``.

Each worker decodes every source (and the base) straight into its row of one
float64 stack it keeps from tensor to tensor, the rules write into a kept
``out`` vector, and the writer encodes into kept buffers.  These tests pin
what that must not change: the values and errors of a load, the bytes and
summary of a merge (against ``oracles.run_merge_held``, which loads and
merges every tensor afresh), and that a tensor after the first allocates no
stack or encode buffers of its own.
"""

from __future__ import annotations

import contextlib
import json
import tracemalloc

import numpy as np
import pytest

from geomerge import dtypes
from geomerge.delta_ops import SparsifySpec, della_drop, sparsify_stream
from geomerge.errors import DTypeOverflowError, NonFiniteError
from geomerge.merge_methods import METHODS, MergeJob, MergeMethod, run_merge
from geomerge.tensor_io import CheckpointHandle, open_checkpoint
from oracles import build_container, run_merge_held

CODES = ("f64", "f32", "f16", "bf16")


def _container(path, tensors: dict[str, tuple[str, np.ndarray]]) -> None:
    """Write ``{name: (dtype code, values)}``, each tensor at its own dtype."""
    entries = {
        name: (dtypes.container_tag(code), list(values.shape), dtypes.encode_array(values, code))
        for name, (code, values) in sorted(tensors.items())
    }
    path.write_bytes(build_container(entries))


# -- load_tensor(out=) -----------------------------------------------------------


def _payload(code: str) -> np.ndarray:
    """Values the dtype holds: signed zeros, subnormals, both signs, large."""
    rng = np.random.default_rng(CODES.index(code))
    tiny = {"f64": 1e-310, "f32": 1e-40, "f16": 1e-7, "bf16": 1e-40}[code]
    big = {"f64": 1e300, "f32": 3e38, "f16": 6e4, "bf16": 3e38}[code]
    values = rng.standard_normal(97) * 10.0 ** rng.integers(-3, 4, 97)
    values[:6] = [0.0, -0.0, tiny, -tiny, big, -big]
    return values


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("code", CODES)
def test_load_into_a_row_matches_the_default_load(tmp_path, code, precision):
    values = _payload(code)
    tensors = {"t": (code, values.reshape(1, 97)), "s": (code, np.array(values[10]))}
    _container(tmp_path / "c.st", tensors)
    stack = np.full((3, 97), np.nan)
    with open_checkpoint(tmp_path / "c.st") as h:  # f64's 1e300 is Inf at f32
        want = h.load_tensor("t", precision, strict=False)
        got = h.load_tensor("t", precision, strict=False, out=stack[1])
        scalar = h.load_tensor("s", precision, strict=False, out=stack[2, :1])
    assert got.shape == want.shape == (1, 97) and got.dtype == want.dtype == code
    assert got.data.dtype == np.float64 and np.shares_memory(got.data, stack[1])
    assert got.data.tobytes() == want.data.astype(np.float64).tobytes()
    assert scalar.shape == () and scalar.data == got.data[0, 10]
    assert np.isnan(stack[0]).all() and np.isnan(stack[2, 1:]).all()  # nothing beyond the row


def _load_outcome(path, name, precision, strict, out):
    with open_checkpoint(path) as h:
        try:
            rec = h.load_tensor(name, precision, strict, out=out)
        except Exception as exc:
            return type(exc), str(exc)
        return rec.data.astype(np.float64).tobytes()


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize(
    "code,bad",
    [(c, v) for c in CODES for v in (np.nan, np.inf, -np.inf)] + [("f64", 1e39), ("f64", -3e300)],
)
def test_load_into_a_row_fails_as_the_default_load(tmp_path, code, bad, precision, strict):
    values = np.linspace(-2.0, 2.0, 9)
    values[4] = bad
    path = tmp_path / "c.st"
    _container(path, {"t": (code, values)})
    want = _load_outcome(path, "t", precision, strict, None)
    got = _load_outcome(path, "t", precision, strict, np.empty(9))
    if strict and (not np.isfinite(bad) or precision == "f32"):
        assert want[0] in (NonFiniteError, DTypeOverflowError), want
    assert got == want


def test_a_finite_f64_beyond_f32_names_its_value(tmp_path):
    path = tmp_path / "c.st"
    _container(path, {"t": ("f64", np.array([1.0, -1e39, 2.0]))})
    with open_checkpoint(path) as h:
        with pytest.raises(DTypeOverflowError, match=r"holds -1e\+39, beyond the range of the f32"):
            h.load_tensor("t", "f32", out=np.empty(3))
        assert h.load_tensor("t", "f64", out=np.empty(3)).data[1] == -1e39


@pytest.mark.parametrize(
    "out",
    [np.empty(8), np.empty(10), np.empty(9, np.float32), np.empty(18)[::2], np.empty((1, 9))],
    ids=["short", "long", "f32", "strided", "2-d"],
)
def test_load_refuses_an_unfit_out(tmp_path, out):
    _container(tmp_path / "c.st", {"t": ("f32", np.ones(9))})
    with open_checkpoint(tmp_path / "c.st") as h:
        with pytest.raises(ValueError, match="out must be a contiguous float64 vector of 9"):
            h.load_tensor("t", out=out)


# -- no stale data: mixed sizes, dtypes, precisions -------------------------------

# Sizes go large -> small -> large (and grow past the first), so each
# worker's buffers are reused at a smaller size and then regrown.
SHAPES = {"t0": (40, 50), "t1": (3,), "t2": (45, 50), "t3": (), "t4": (5, 7)}
# Non-strict runs merge a tensor first when the base holds it in another
# shape and the method does not read the base.  Two such tensors, the second
# smaller, so that a shared buffer would let the second overwrite the first
# before it is written.
EARLY = {"e0": (60,), "e1": (30,)}


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    """Checkpoints a-c and a base whose tensors cycle through every dtype."""
    root = tmp_path_factory.mktemp("mixed")
    rng = np.random.default_rng(83)
    base = {name: rng.standard_normal(shape) for name, shape in {**SHAPES, **EARLY}.items()}
    for i, tag in enumerate(["base", "a", "b", "c"]):
        tensors = {}
        for j, (name, values) in enumerate(sorted(base.items())):
            if tag != "base":
                values = values + 0.3 * rng.standard_normal(values.shape)
            elif name in EARLY:
                values = rng.standard_normal(EARLY[name][0] + 1)
            tensors[name] = (CODES[(i + j) % 4], np.asarray(values))
        _container(root / f"{tag}.st", tensors)
    return root


def _outcome(run, root, method, out_dtype, precision, threads):
    out = root / f"out-{run.__name__}.st"
    models = "ab" if method == "slerp" else "abc"
    with contextlib.ExitStack() as stack:
        job = MergeJob(
            sources=[stack.enter_context(open_checkpoint(root / f"{m}.st")) for m in models],
            base=stack.enter_context(open_checkpoint(root / "base.st")),
            method=MergeMethod(method, {"drop_rate": 0.3, "window": 0.1, "seed": 5}),
            out_path=out,
            out_dtype=out_dtype,
            precision=precision,
            strict=False,
            threads=threads,
        )
        try:
            summary = run(job).to_dict()
        except Exception as exc:
            return type(exc), str(exc)
    summary.pop("wall_ms")
    data = out.read_bytes()
    out.unlink()
    return data, json.dumps(summary)


@pytest.mark.parametrize("method", list(METHODS))
def test_reused_buffers_leave_no_stale_data(mixed, method):
    for out_dtype in CODES:
        for precision in ("f32", "f64"):
            held = _outcome(run_merge_held, mixed, method, out_dtype, precision, 2)
            for threads in (1, 3):
                case = (method, out_dtype, precision, threads)
                assert _outcome(run_merge, mixed, *case) == held, case
    # the early tensors were merged (not copied) where the base is unread
    skipped = json.loads(held[1])["tensors_skipped"]
    assert skipped == (sorted(EARLY) if METHODS[method].needs_base else [])


# -- regression guard: the second tensor allocates no stack or encode buffers -----

N = 1 << 17


@pytest.mark.parametrize("method", ["lerp", "karcher", "dare_ties"])
def test_a_second_tensor_allocates_under_two_vectors(tmp_path, monkeypatch, method):
    rng = np.random.default_rng(29)
    base = rng.standard_normal(N)
    for tag in ("base", "a", "b", "c"):
        values = base if tag == "base" else base + rng.standard_normal(N)
        _container(tmp_path / f"{tag}.st", {"x": ("f32", values), "y": ("f32", values[::-1])})
    marks: list[tuple[int, int]] = []
    load = CheckpointHandle.load_tensor

    def mark(self, name, *args, **kwargs):
        if name == "y" and not marks:  # the one worker is done with x and all it made
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
        return load(self, name, *args, **kwargs)

    monkeypatch.setattr(CheckpointHandle, "load_tensor", mark)
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open_checkpoint(tmp_path / f"{t}.st")) for t in "abc"]
        job = MergeJob(
            sources=handles,
            base=stack.enter_context(open_checkpoint(tmp_path / "base.st")),
            method=MergeMethod(method),
            out_path=tmp_path / "out.st",
            threads=1,
        )
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_merge(job)
            (before_y, first_peak), peak = marks[0], tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    vector = 8 * N
    # the first tensor builds the workspace: a stack of three sources at least
    assert first_peak - start > 3 * vector, (first_peak - start) / vector
    # a per-tensor stack, or an encode copy on top of a product, would
    # reach two vectors
    assert peak - before_y < 2 * vector, (peak - before_y) / vector


# each method's parameters and data seed
IN_PLACE = {
    "lerp": ({}, 43),
    "slerp": ({"t": 0.3}, 41),
    "karcher": ({}, 29),
    "task_arithmetic": ({"lambda": 0.7}, 31),
    "dare_ties": ({}, 29),
    "model_stock": ({}, 37),
}


@pytest.mark.parametrize("method", list(IN_PLACE))
def test_a_second_tensor_allocates_under_one_vector(tmp_path, monkeypatch, method):
    """lerp sums into the workspace's out vector.  slerp normalizes the two
    source rows in place by the norms ``merge_one`` took, and writes the
    geodesic point into the out vector through one block of scratch.
    karcher writes its mean into the out vector.  Task arithmetic makes its
    deltas in the stack rows, as the other delta methods do, and keeps no
    per-tensor scratch vector; dare_ties drops and trims them there too,
    with the out vector as its draws, trim scratch and signs.  Model Stock
    takes the expert mean into the out vector and makes its deltas in the
    stack rows; the blend with the base runs over column blocks.  So none
    makes a fresh n-length vector per tensor."""
    params, seed = IN_PLACE[method]
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(N)
    for tag in ("base", "a", "b", "c"):
        values = base if tag == "base" else base + rng.standard_normal(N)
        _container(tmp_path / f"{tag}.st", {"x": ("f32", values), "y": ("f32", values[::-1])})
    marks: list[int] = []
    load = CheckpointHandle.load_tensor

    def mark(self, name, *args, **kwargs):
        if name == "y" and not marks:  # the one worker is done with x and all it made
            marks.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return load(self, name, *args, **kwargs)

    monkeypatch.setattr(CheckpointHandle, "load_tensor", mark)
    models = "ab" if method == "slerp" else "abc"
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open_checkpoint(tmp_path / f"{t}.st")) for t in models]
        job = MergeJob(
            sources=handles,
            base=stack.enter_context(open_checkpoint(tmp_path / "base.st")),
            method=MergeMethod(method, params),
            out_path=tmp_path / "out.st",
            threads=1,
        )
        tracemalloc.start()
        try:
            run_merge(job)
            before_y, peak = marks[0], tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # about half a vector is left (dare_ties three quarters): the weighted
    # sum's product block, slerp's block of scratch, or the blend's block of
    # the base; a fresh result, unit vector, delta or mean would pass one
    assert peak - before_y < 8 * N, (peak - before_y) / (8 * N)


# -- della_drop refuses draws that alias what it reads -----------------------------


def test_draws_aliasing_the_delta_with_a_window_is_refused():
    d = np.array([1.0, -2.0, 3.0, 0.5, 4.0])
    spec = SparsifySpec(drop_rate=0.2, window=0.2, seed=0)
    want = della_drop(d, spec, sparsify_stream(0, "t", 0))
    with pytest.raises(ValueError, match="draws must not overlap"):
        della_drop(d, spec, sparsify_stream(0, "t", 0), out=np.empty(5), draws=d)
    out = np.empty(5)
    with pytest.raises(ValueError, match="draws must not overlap"):
        della_drop(d, spec, sparsify_stream(0, "t", 0), out=out, draws=out[::-1])
    assert d.tolist() == [1.0, -2.0, 3.0, 0.5, 4.0]
    got = della_drop(d, spec, sparsify_stream(0, "t", 0), out=out, draws=np.empty(5))
    assert got.tobytes() == want.tobytes()
