"""The output side of a merge: one ordered tensor list, one encode-and-write pass.

``run_merge`` hands ``write_checkpoint`` one list of merged and copied
tensors in name order, and ``write_checkpoint`` lays the header out from the
element counts, then encodes and writes one tensor at a time.
"""

from __future__ import annotations

import json
import logging
import re
import tracemalloc

import numpy as np
import pytest

from geomerge import dtypes
from geomerge.cli import _build_parser, main
from geomerge.errors import UnsupportedDTypeError
from geomerge.merge_methods import MergeJob, MergeMethod
from geomerge.tensor_io import TensorRecord, working_dtype, write_checkpoint
from oracles import read_records


def _write_peak(path, records) -> int:
    """Peak traced bytes allocated while writing ``records`` to bf16."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_checkpoint(path, records, output_dtype="bf16")
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_write_peak_does_not_grow_with_tensor_count(tmp_path):
    n = 1 << 16
    rng = np.random.default_rng(0)
    records = [TensorRecord(f"t{i}", rng.standard_normal(n)) for i in range(8)]
    encoded = n * dtypes.itemsize("bf16")
    one = _write_peak(tmp_path / "one.st", records[:1])
    eight = _write_peak(tmp_path / "eight.st", records)
    header = int.from_bytes((tmp_path / "eight.st").read_bytes()[:8], "little")
    # writing eight tensors may hold at most one more encoded tensor than
    # writing one does; holding all eight encoded buffers costs 7 more
    assert eight - one < 2 * encoded + header, (eight - one) / encoded
    assert list(read_records(tmp_path / "eight.st")) == [r.name for r in records]


def _setup(tmp_path, big=1.0):
    rng = np.random.default_rng(11)
    base = {"w": rng.standard_normal((3, 4)), "d": rng.standard_normal(5), "n": np.ones(6)}
    base["big"] = np.full(4, big)
    write_checkpoint(tmp_path / "base.st", [TensorRecord(k, v) for k, v in base.items()])
    for tag in "abc":
        tensors = {k: v + 0.1 * rng.standard_normal(v.shape) for k, v in base.items()}
        tensors["big"] = np.full(4, big)
        if tag == "b":
            tensors["d"] = rng.standard_normal(7)  # shape conflict: not mergeable
        if tag == "c":
            tensors["n"][1] = np.nan  # fails a strict load: numeric fallback
        write_checkpoint(tmp_path / f"{tag}.st", [TensorRecord(k, v) for k, v in tensors.items()])


def _recipe(tmp_path, method, dtype):
    path = tmp_path / "r.yaml"
    path.write_text(
        f"method: {method}\n"
        f"models: [{tmp_path / 'a.st'}, {tmp_path / 'b.st'}, {tmp_path / 'c.st'}]\n"
        f"base_model: {tmp_path / 'base.st'}\n"
        "parameters: {strict: false}\n"
        f"output: {{path: {tmp_path / 'm.st'}, dtype: {dtype}}}\n"
    )
    return path


def test_non_strict_overflow_is_not_a_fallback(tmp_path, capsys, caplog):
    _setup(tmp_path, big=1e5)
    with caplog.at_level(logging.WARNING):
        rc = main(["merge", str(_recipe(tmp_path, "lerp", "f16")), "--threads", "2"])
    assert rc == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: tensor 'big': value \S+ not representable as f16\n", err), err
    assert not (tmp_path / "m.st").exists()
    assert not (tmp_path / "m.st.summary.json").exists()
    assert not list(tmp_path.glob("*.tmp"))
    # the per-tensor fallback saw only the NaN tensor, never the overflow
    fallbacks = [r.getMessage() for r in caplog.records if "copying fallback" in r.getMessage()]
    assert len(fallbacks) == 1 and fallbacks[0].startswith("tensor 'n' failed")


def test_fallbacks_are_thread_count_independent(tmp_path):
    _setup(tmp_path)
    recipe = _recipe(tmp_path, "ties", "bf16")
    outputs = []
    for threads in ("1", "3"):
        assert main(["merge", str(recipe), "--threads", threads]) == 0
        summary = json.loads((tmp_path / "m.st.summary.json").read_text())
        summary.pop("wall_ms")
        outputs.append(((tmp_path / "m.st").read_bytes(), summary))
    assert outputs[0] == outputs[1]
    summary = outputs[0][1]
    assert summary["tensors_skipped"] == ["d", "n"]
    assert [t["name"] for t in summary["per_tensor"]] == ["big", "w"]
    merged = read_records(tmp_path / "m.st", strict=False)
    assert list(merged) == ["big", "d", "n", "w"]
    # the numeric failure comes from the base, the shape conflict from source 0
    np.testing.assert_array_equal(merged["n"].data, np.ones(6, dtype=np.float32))
    first = read_records(tmp_path / "a.st")["d"].data
    bf16 = dtypes.decode_buffer(dtypes.encode_array(first, "bf16"), "bf16", first.size)
    np.testing.assert_array_equal(merged["d"].data, bf16)


def test_merge_job_rejects_an_unknown_output_dtype_up_front():
    with pytest.raises(UnsupportedDTypeError, match="unsupported dtype 'f8'"):
        MergeJob(sources=[], method=MergeMethod("lerp"), out_path="m.st", out_dtype="f8")


class TestDtypeTable:
    @pytest.mark.parametrize("code", sorted(dtypes.DTYPES))
    def test_storage_type_matches_tag_and_size(self, code):
        entry = dtypes.DTYPES[code]
        assert np.dtype(entry.storage).itemsize == entry.size == dtypes.itemsize(code)
        assert dtypes.container_tag(code) == entry.tag
        assert dtypes.code_from_tag(entry.tag) == code

    @pytest.mark.parametrize("code", ["f64", "f32", "f16"])
    def test_float_codecs_use_the_storage_type(self, code):
        values = np.array([1.5, -0.25, 0.0, 3.0])
        raw = dtypes.encode_array(values, code)
        assert raw == values.astype(dtypes.DTYPES[code].storage).tobytes()
        np.testing.assert_array_equal(dtypes.decode_buffer(raw, code, 4), values)

    def test_working_precisions_in_one_place(self):
        assert dtypes.WORKING_PRECISIONS == ("f32", "f64")
        assert working_dtype("f32") == np.float32 and working_dtype("f64") == np.float64
        with pytest.raises(ValueError, match=r"precision must be one of \['f32', 'f64'\], got 'f16'"):
            working_dtype("f16")
        merge = _build_parser()._subparsers._group_actions[0].choices["merge"]
        (precision,) = [a for a in merge._actions if "--precision" in a.option_strings]
        assert tuple(precision.choices) == ("f32", "f64")

    @pytest.mark.parametrize(
        "override,message",
        [
            ("output.dtype=f8", "output.dtype must be one of ['bf16', 'f16', 'f32', 'f64']"),
            ("output.dtype=[1]", "output.dtype must be one of ['bf16', 'f16', 'f32', 'f64']"),
            ("parameters.precision=f16", "parameters.precision must be one of ['f32', 'f64']"),
            ("parameters.precision=[1]", "parameters.precision must be one of ['f32', 'f64']"),
        ],
    )
    def test_recipe_dtype_errors_exit_1(self, tmp_path, capsys, override, message):
        _setup(tmp_path)
        rc = main(["merge", str(_recipe(tmp_path, "lerp", "f32")), "--set", override])
        assert rc == 1
        assert message in capsys.readouterr().err
