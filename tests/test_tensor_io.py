"""Container read/write, dtype conversion, laziness, and alignment checks."""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import geomerge.tensor_io as tio
from geomerge.errors import (
    ContainerError,
    DTypeOverflowError,
    NonFiniteError,
    TensorNotFoundError,
    UnsupportedDTypeError,
)
from geomerge.tensor_io import (
    TensorRecord,
    open_checkpoint,
    read_checkpoint,
    validate_aligned,
    write_checkpoint,
)
from oracles import (
    bf16_bits_to_float,
    build_container,
    f16_bits_to_float,
    float_to_bf16_bits,
)


def _write(tmp_path, name, records, dtype="f32", **kw):
    path = tmp_path / name
    write_checkpoint(path, records, output_dtype=dtype, **kw)
    return path


class TestRoundTrip:
    def test_f32_values_bit_exact(self, tmp_path):
        data = np.array([[1.0, 2.0], [3.0, -4.5]], dtype=np.float32)
        path = _write(tmp_path, "a.st", [TensorRecord("a", data)])
        with open_checkpoint(path) as h:
            rec = h.load_tensor("a")
        assert rec.shape == (2, 2)
        np.testing.assert_array_equal(rec.data, data)

    def test_f64_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.standard_normal(37)
        path = _write(tmp_path, "a.st", [TensorRecord("a", data)], dtype="f64")
        rec = read_checkpoint(path, precision="f64")["a"]
        np.testing.assert_array_equal(rec.data, data)

    def test_f16_round_to_nearest_even(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.standard_normal(256).astype(np.float32) * 100
        path = _write(tmp_path, "a.st", [TensorRecord("a", data)], dtype="f16")
        rec = read_checkpoint(path)["a"]
        expected = data.astype(np.float16).astype(np.float32)
        np.testing.assert_array_equal(rec.data, expected)

    def test_bf16_round_trip_matches_scalar_reference(self, tmp_path):
        rng = np.random.default_rng(3)
        data = (rng.standard_normal(128) * 10).astype(np.float32)
        path = _write(tmp_path, "a.st", [TensorRecord("a", data)], dtype="bf16")
        rec = read_checkpoint(path)["a"]
        expected = np.array(
            [bf16_bits_to_float(float_to_bf16_bits(float(v))) for v in data],
            dtype=np.float32,
        )
        np.testing.assert_array_equal(rec.data, expected)

    def test_metadata_preserved_verbatim(self, tmp_path):
        meta = {"origin": "unit-test", "note": "x/y z"}
        path = _write(
            tmp_path, "a.st", [TensorRecord("a", np.ones(2))], metadata=meta
        )
        with open_checkpoint(path) as h:
            assert h.metadata == meta

    def test_thousand_tensors_all_present_sorted(self, tmp_path):
        names = [f"t{i:04d}" for i in range(1000)]
        records = [TensorRecord(n, np.full(3, i, dtype=np.float32)) for i, n in enumerate(names)]
        rng = np.random.default_rng(4)
        rng.shuffle(records)
        path = _write(tmp_path, "many.st", records)
        with open_checkpoint(path) as h:
            listed = h.names()
        assert listed == sorted(names)
        assert set(listed) == set(names)

    def test_scalar_and_empty_tensors(self, tmp_path):
        records = [
            TensorRecord("scalar", np.array(7.5, dtype=np.float32)),
            TensorRecord("empty", np.zeros((0, 4), dtype=np.float32)),
        ]
        path = _write(tmp_path, "edge.st", records)
        ck = read_checkpoint(path)
        assert ck["scalar"].shape == ()
        assert float(ck["scalar"].data) == 7.5
        assert ck["empty"].shape == (0, 4)

    def test_f32_loads_exactly_into_f64(self, tmp_path):
        data = np.array([0.1, 1 / 3, 1e-30], dtype=np.float32)
        path = _write(tmp_path, "a.st", [TensorRecord("a", data)])
        rec = read_checkpoint(path, precision="f64")["a"]
        np.testing.assert_array_equal(rec.data, data.astype(np.float64))


class TestKnownBitPatterns:
    def test_f16_bit_patterns_against_decoder_table(self, tmp_path):
        # 1.0, smallest subnormal, 0.333..., max finite, -2.5
        patterns = [0x3C00, 0x0001, 0x3555, 0x7BFF, 0xC100]
        raw = np.array(patterns, dtype="<u2").tobytes()
        blob = build_container({"x": ("F16", [len(patterns)], raw)})
        path = tmp_path / "f16.st"
        path.write_bytes(blob)
        with open_checkpoint(path) as h:
            assert h.dtype("x") == "f16"
            rec = h.load_tensor("x")
        expected = [f16_bits_to_float(p) for p in patterns]
        np.testing.assert_allclose(rec.data, expected, rtol=0, atol=0)

    def test_bf16_bit_pattern_of_1_5(self, tmp_path):
        raw = np.array([0x3FC0], dtype="<u2").tobytes()
        blob = build_container({"x": ("BF16", [1], raw)})
        path = tmp_path / "bf16.st"
        path.write_bytes(blob)
        rec = read_checkpoint(path)["x"]
        assert rec.data[0] == 1.5
        assert bf16_bits_to_float(0x3FC0) == 1.5


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.st"):
            open_checkpoint(tmp_path / "nope.st")

    def test_truncated_file(self, tmp_path):
        path = _write(tmp_path, "a.st", [TensorRecord("a", np.ones(64))])
        clipped = path.read_bytes()[:20]
        bad = tmp_path / "bad.st"
        bad.write_bytes(clipped)
        with pytest.raises(ContainerError, match="malformed container"):
            open_checkpoint(bad)

    def test_header_garbage(self, tmp_path):
        bad = tmp_path / "bad.st"
        bad.write_bytes((5).to_bytes(8, "little") + b"hello")
        with pytest.raises(ContainerError, match="malformed container"):
            open_checkpoint(bad)

    def test_unsupported_dtype_names_tensor(self, tmp_path):
        blob = build_container({"weird": ("I8", [2], b"\x00\x01")})
        path = tmp_path / "bad.st"
        path.write_bytes(blob)
        with pytest.raises(UnsupportedDTypeError, match="weird"):
            open_checkpoint(path)

    def test_offsets_must_tile_data_region(self, tmp_path):
        raw = np.ones(2, dtype="<f4").tobytes()
        blob = build_container({"a": ("F32", [2], raw)}) + b"extra!"
        path = tmp_path / "bad.st"
        path.write_bytes(blob)
        with pytest.raises(ContainerError, match="data region"):
            open_checkpoint(path)

    def test_buffer_length_mismatch(self, tmp_path):
        raw = np.ones(3, dtype="<f4").tobytes()
        blob = build_container({"a": ("F32", [2], raw)})
        path = tmp_path / "bad.st"
        path.write_bytes(blob)
        with pytest.raises(ContainerError, match="expected 8"):
            open_checkpoint(path)

    def test_unknown_tensor_name(self, tmp_path):
        path = _write(tmp_path, "a.st", [TensorRecord("a", np.ones(2))])
        with open_checkpoint(path) as h:
            with pytest.raises(TensorNotFoundError, match="tensor not found: zz"):
                h.load_tensor("zz")

    def test_nan_raises_in_strict_mode_only(self, tmp_path):
        data = np.array([1.0, np.nan], dtype=np.float64)
        raw = data.astype("<f8").tobytes()
        blob = build_container({"a": ("F64", [2], raw)})
        path = tmp_path / "nan.st"
        path.write_bytes(blob)
        with open_checkpoint(path) as h:
            with pytest.raises(NonFiniteError, match="'a'"):
                h.load_tensor("a")
            rec = h.load_tensor("a", strict=False)
            assert np.isnan(rec.data[1])

    def test_write_overflow_error_names_tensor(self, tmp_path):
        rec = TensorRecord("big", np.array([1e40], dtype=np.float64))
        with pytest.raises(DTypeOverflowError, match="big"):
            write_checkpoint(tmp_path / "o.st", [rec], output_dtype="f16")

    def test_write_overflow_clamp(self, tmp_path):
        rec = TensorRecord("big", np.array([1e40, -1e40, 1.0]))
        path = tmp_path / "o.st"
        write_checkpoint(path, [rec], output_dtype="f16", clamp_overflow=True)
        out = read_checkpoint(path)["big"].data
        limit = float(np.finfo(np.float16).max)
        np.testing.assert_allclose(out, [limit, -limit, 1.0])

    def test_duplicate_names_rejected(self, tmp_path):
        recs = [TensorRecord("a", np.ones(1)), TensorRecord("a", np.zeros(1))]
        with pytest.raises(ValueError, match="duplicate"):
            write_checkpoint(tmp_path / "d.st", recs)


class TestAtomicWrite:
    def test_concurrent_writers_of_one_path(self, tmp_path):
        path = tmp_path / "out.st"
        payloads = [np.full(65536, 1.0), np.full(65536, 2.0)]

        def write_many(data):
            for _ in range(50):
                write_checkpoint(path, [TensorRecord("w", data)], output_dtype="f64")

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(write_many, data) for data in payloads]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        expected = []
        for i, data in enumerate(payloads):
            ref = tmp_path / f"ref{i}.st"
            write_checkpoint(ref, [TensorRecord("w", data)], output_dtype="f64")
            expected.append(ref.read_bytes())
        assert path.read_bytes() in expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.st", "ref0.st", "ref1.st"]

    def test_failed_write_leaves_no_temp_sibling(self, tmp_path, monkeypatch):
        path = tmp_path / "o.st"
        with pytest.raises(DTypeOverflowError):
            write_checkpoint(path, [TensorRecord("big", np.array([1e40]))], output_dtype="f16")
        assert list(tmp_path.iterdir()) == []

        write_checkpoint(path, [TensorRecord("a", np.ones(3))])
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(tio.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            write_checkpoint(path, [TensorRecord("a", np.zeros(3))])
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before

    def test_output_mode_follows_umask_like_open(self, tmp_path):
        ref = tmp_path / "ref"
        ref.write_bytes(b"")
        path = tmp_path / "o.st"
        write_checkpoint(path, [TensorRecord("a", np.ones(2))])
        assert path.stat().st_mode == ref.stat().st_mode


class TestLaziness:
    def test_open_reads_no_payload_bytes(self, tmp_path, monkeypatch):
        path = _write(
            tmp_path,
            "a.st",
            [TensorRecord("a", np.ones((2, 2))), TensorRecord("b", np.ones(3))],
        )
        calls: list[tuple[int, int]] = []
        original = tio._pread

        def spy(fd, size, offset):
            calls.append((size, offset))
            return original(fd, size, offset)

        monkeypatch.setattr(tio, "_pread", spy)
        with open_checkpoint(path) as h:
            assert h.names() == ["a", "b"]
            assert h.shape("a") == (2, 2)
            assert calls == []
            h.load_tensor("a")
            assert len(calls) == 1
            size, _ = calls[0]
            assert size == 4 * 4  # exactly tensor a's payload

    def test_concurrent_loads_distinct_names(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = {f"t{i}": rng.standard_normal(100).astype(np.float32) for i in range(16)}
        path = _write(tmp_path, "c.st", [TensorRecord(n, a) for n, a in arrays.items()])
        with open_checkpoint(path) as h:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda n: (n, h.load_tensor(n).data), arrays))
        for name, data in results:
            np.testing.assert_array_equal(data, arrays[name])


class TestHeaderCompat:
    def test_reads_trailing_whitespace_padded_header(self, tmp_path):
        # common writers pad the JSON header with spaces for alignment
        raw = np.ones(2, dtype="<f4").tobytes()
        header = json.dumps(
            {"a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}
        ).encode()
        header += b" " * (8 - len(header) % 8)
        blob = len(header).to_bytes(8, "little") + header + raw
        path = tmp_path / "pad.st"
        path.write_bytes(blob)
        rec = read_checkpoint(path)["a"]
        np.testing.assert_array_equal(rec.data, [1.0, 1.0])


class TestAlignment:
    def _ckpt(self, tmp_path, name, shapes: dict[str, tuple[int, ...]]):
        records = [TensorRecord(n, np.zeros(s, dtype=np.float32)) for n, s in shapes.items()]
        return open_checkpoint(_write(tmp_path, name, records))

    def test_identical_checkpoints_fully_mergeable(self, tmp_path):
        shapes = {"a": (2, 2), "b": (3,)}
        h1 = self._ckpt(tmp_path, "x.st", shapes)
        h2 = self._ckpt(tmp_path, "y.st", shapes)
        report = validate_aligned([h1, h2])
        assert report.mergeable == ("a", "b")
        assert report.is_aligned

    def test_missing_tensor_listed_and_excluded(self, tmp_path):
        h1 = self._ckpt(tmp_path, "x.st", {"a": (2,), "b": (3,)})
        h2 = self._ckpt(tmp_path, "y.st", {"a": (2,)})
        report = validate_aligned([h1, h2])
        assert report.mergeable == ("a",)
        assert report.missing == {"b": (1,)}

    def test_shape_conflict_names_both_shapes(self, tmp_path):
        h1 = self._ckpt(tmp_path, "x.st", {"a": (2, 2)})
        h2 = self._ckpt(tmp_path, "y.st", {"a": (4,)})
        report = validate_aligned([h1, h2])
        assert report.mergeable == ()
        assert report.shape_conflicts == {"a": ((2, 2), (4,))}

    def test_symmetric(self, tmp_path):
        h1 = self._ckpt(tmp_path, "x.st", {"a": (2,), "b": (3,)})
        h2 = self._ckpt(tmp_path, "y.st", {"a": (2,), "c": (1,)})
        fwd = validate_aligned([h1, h2])
        rev = validate_aligned([h2, h1])
        assert fwd.mergeable == rev.mergeable

    def test_requires_two_handles(self, tmp_path):
        h1 = self._ckpt(tmp_path, "x.st", {"a": (2,)})
        with pytest.raises(ValueError):
            validate_aligned([h1])
