"""One decode path: ``dtypes.decode_buffer`` into any float32 or float64 array.

Every load decodes its payload straight into one array: a row of a merge
worker's stack, or a fresh array of the working precision.  These tests pin
that the values keep the bits of the allocating decode it replaced
(``oracles.decode_buffer_direct``), NaN payloads included, that a default
load holds no array beyond its result, and that a load decodes once, also
when it raises.  The buffers the rows come from are a ``dtypes.Workspace``,
which gives each thread its own.
"""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest

from geomerge import dtypes, tensor_io
from geomerge.errors import DTypeOverflowError
from geomerge.tensor_io import open_checkpoint
from oracles import build_container, decode_buffer_direct

CODES = ("f64", "f32", "f16", "bf16")
# bits per element and mantissa bits of each code
_LAYOUT = {"f64": (64, 52), "f32": (32, 23), "f16": (16, 10), "bf16": (16, 7)}


def _payload(code: str) -> tuple[bytes, int]:
    """Raw little-endian words: ±0, the extreme subnormals, the largest
    finite value, ±Inf, quiet and signaling NaNs of both signs, then random
    bit patterns (for f64, many beyond float32's range)."""
    width, mantissa = _LAYOUT[code]
    sign, quiet = 1 << (width - 1), 1 << (mantissa - 1)
    inf = (sign - 1) ^ ((1 << mantissa) - 1)  # every exponent bit set
    special = [0, sign, 1, (1 << mantissa) - 1, inf - 1, sign | (inf - 1), inf, sign | inf]
    special += [inf | quiet, inf | quiet | 1, sign | inf | quiet]  # quiet NaNs
    special += [inf | 1, sign | inf | (quiet >> 1)]  # signaling NaNs
    storage = f"<u{width // 8}"
    noise = np.random.default_rng(width + mantissa).bytes(300 * width // 8)
    words = np.concatenate([np.array(special, storage), np.frombuffer(noise, storage)])
    return words.tobytes(), words.size


def _container(path, code: str, raw: bytes, count: int) -> None:
    path.write_bytes(build_container({"t": (dtypes.container_tag(code), [count], raw)}))


@pytest.mark.parametrize("code", CODES)
def test_decode_keeps_the_bits_of_the_allocating_decode(code):
    raw, count = _payload(code)
    with np.errstate(all="ignore"):  # casting a signaling NaN sets the invalid flag
        want = decode_buffer_direct(raw, code, count)
        narrowed = {np.float32: want.astype(np.float32), np.float64: want.astype(np.float64)}
    got = dtypes.decode_buffer(raw, code, count)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for dtype, want_out in narrowed.items():
        stack = np.full((3, count), 7.0, dtype)
        row = stack[1]
        assert dtypes.decode_buffer(raw, code, count, out=row) is row
        assert row.tobytes() == want_out.tobytes(), dtype
        assert (stack[[0, 2]] == 7.0).all()  # nothing beyond the row


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("code", CODES)
def test_a_default_load_keeps_the_bits_of_the_allocating_decode(tmp_path, code, precision):
    raw, count = _payload(code)
    _container(tmp_path / "c.st", code, raw, count)
    with open_checkpoint(tmp_path / "c.st") as h:
        rec = h.load_tensor("t", precision, strict=False)
    with np.errstate(all="ignore"):  # f64 beyond float32's range is Inf at f32
        want = decode_buffer_direct(raw, code, count).astype(f"f{dtypes.itemsize(precision)}")
    assert rec.dtype == code and rec.shape == (count,)
    assert rec.data.dtype == want.dtype and rec.data.tobytes() == want.tobytes()
    if code == "f64" and precision == "f32":  # finite payload values beyond f32 load as Inf
        assert np.isinf(rec.data).sum() > np.isinf(np.frombuffer(raw, "<f8")).sum()


@pytest.mark.parametrize("out", [None, "row"])
def test_a_strict_load_decodes_once_when_it_raises(tmp_path, monkeypatch, out):
    values = np.array([1.0, -1e39, 2.0])
    _container(tmp_path / "c.st", "f64", values.tobytes(), 3)
    calls = []
    real_decode = dtypes.decode_buffer

    def decode(*args, **kwargs):
        calls.append(None)
        return real_decode(*args, **kwargs)

    monkeypatch.setattr(tensor_io.dtypes, "decode_buffer", decode)
    message = r"holds -1e\+39, beyond the range of the f32"
    with open_checkpoint(tmp_path / "c.st") as h:
        with pytest.raises(DTypeOverflowError, match=message):
            h.load_tensor("t", "f32", out=None if out is None else np.empty(3))
    assert len(calls) == 1


# -- regression guard: a default load holds its payload and its result only -------

N = 1 << 17


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("code", CODES)
def test_a_default_load_holds_one_working_array(tmp_path, code, precision, strict):
    values = np.random.default_rng(7).standard_normal(N)
    raw = bytes(dtypes.encode_array(values, code))
    _container(tmp_path / "c.st", code, raw, N)
    with open_checkpoint(tmp_path / "c.st") as h:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rec = h.load_tensor("t", precision, strict)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert rec.data.dtype == np.dtype(f"f{dtypes.itemsize(precision)}")
    # the bytes pread returns, the result, and strict's isfinite mask
    bound = len(raw) + N * dtypes.itemsize(precision) + (N if strict else 0) + (64 << 10)
    assert peak - start <= bound, (peak - start) / N


# -- a Workspace keeps one set of buffers per thread --------------------------------


def test_a_workspace_gives_each_thread_its_own_buffers():
    work = dtypes.Workspace()
    mine = work.take("row", 4)
    theirs: list[np.ndarray] = []
    threads = [threading.Thread(target=lambda: theirs.append(work.take("row", 4))) for _ in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len(theirs) == 2 and not np.shares_memory(theirs[0], theirs[1])
    assert not any(np.shares_memory(mine, arr) for arr in theirs)
    assert np.shares_memory(work.take("row", 2), mine)  # this thread's buffer is kept
