"""``CheckpointWriter.put`` encodes and writes a tensor 2**18 entries at a
time.  The bytes are those of one whole-tensor encode
(``oracles.encode_array_direct``); an overflow names the largest value of
the whole tensor, in whichever block it lies; an array that does not fit
the layout is refused before anything is written; and the encode buffers
cover one block, not the tensor.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from geomerge import tensor_io
from geomerge.errors import DTypeOverflowError
from geomerge.tensor_io import CheckpointWriter
from oracles import encode_array_direct

BLOCK = 1 << 18
N = 3 * BLOCK + 5  # four blocks, the last of five entries

# a smaller overflow in the first block, the largest in the third
OVERFLOWS = {"f32": (1e39, -5e39), "f16": (7e4, -9e4), "bf16": (1e39, -5e39)}


def _values(code: str) -> np.ndarray:
    values = np.random.default_rng(7).standard_normal(N)
    small, large = OVERFLOWS[code]
    values[[10, BLOCK - 1]] = small
    values[2 * BLOCK + 7] = large
    return values


def _payload(path) -> bytes:
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[:8], "little")
    return raw[8 + header_len :]


@pytest.mark.parametrize("code", sorted(OVERFLOWS))
def test_the_error_names_the_whole_tensors_largest_value(tmp_path, code):
    values = _values(code)
    with pytest.raises(OverflowError) as want:
        encode_array_direct(values, code)
    writer = CheckpointWriter(tmp_path / "o.st", {"x": (N,)}, code)
    with pytest.raises(DTypeOverflowError) as got:
        writer.put("x", values)
    writer.abort()
    assert str(got.value) == f"tensor 'x': {want.value}"
    assert repr(OVERFLOWS[code][1]) in str(got.value)


@pytest.mark.parametrize("code", ["f64", "f32", "f16", "bf16"])
def test_blocks_give_the_bytes_of_one_encode(tmp_path, code):
    values = np.random.default_rng(8).standard_normal((N, 2))[:, 0]  # strided
    shapes = {"a": values.shape, "b": (), "c": (0,)}
    with CheckpointWriter(tmp_path / "o.st", shapes, code) as writer:
        for name, array in zip("abc", (values, np.array(2.5), np.empty(0))):
            writer.put(name, array)
    want = encode_array_direct(values, code) + encode_array_direct(np.array([2.5]), code)
    assert _payload(tmp_path / "o.st") == want


@pytest.mark.parametrize("code", sorted(OVERFLOWS))
@pytest.mark.parametrize("size", [N - 1, N + 1])
def test_a_misfit_is_refused_before_any_write(tmp_path, monkeypatch, code, size):
    writer = CheckpointWriter(tmp_path / "o.st", {"x": (N,)}, code)
    writes: list[int] = []
    real = os.pwrite

    def spy(fd, data, offset):
        writes.append(offset)
        return real(fd, data, offset)

    monkeypatch.setattr(tensor_io.os, "pwrite", spy)
    item = {"f32": 4, "f16": 2, "bf16": 2}[code]
    with pytest.raises(ValueError, match=f"encodes to {size * item} bytes, its layout holds"):
        writer.put("x", np.ones(size))
    # an overflow in a misfit is told first, as when the whole tensor was encoded at once
    misfit = np.ones(size)
    misfit[-1] = OVERFLOWS[code][1]
    with pytest.raises(DTypeOverflowError):
        writer.put("x", misfit)
    writer.abort()
    assert writes == []


def test_encode_buffers_cover_one_block(tmp_path):
    """bf16 takes 11 bytes of buffers per entry encoded at once: about 2.9 MB
    for a block, where the whole tensor would take 8.7 MB."""
    values = np.random.default_rng(9).standard_normal(N)
    with CheckpointWriter(tmp_path / "o.st", {"x": (N,)}, "bf16") as writer:
        tracemalloc.start()
        try:
            writer.put("x", values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 12 * BLOCK + (1 << 16), peak / N
