"""Single-file tensor container: lazy reader, writer, alignment checks.

File layout (compatible with the common JSON-header safetensors container):
an 8-byte little-endian unsigned header length, a UTF-8 JSON header mapping
tensor name to ``{"dtype", "shape", "data_offsets"}`` (offsets relative to
the end of the header) plus an optional ``"__metadata__"`` string map, then
the concatenated little-endian row-major buffers.

``open_checkpoint`` parses only the header; tensor payloads are fetched on
demand with positional reads (``os.pread``), so concurrent ``load_tensor``
calls on distinct names do not serialize on a shared file offset.  Handles
are immutable after open.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import dtypes
from .errors import (
    ContainerError,
    DTypeOverflowError,
    NonFiniteError,
    TensorNotFoundError,
    UnsupportedDTypeError,
)

_HEADER_PREFIX_LEN = 8
_MAX_HEADER_BYTES = 100 * 1024 * 1024

WORKING_DTYPES = {"f32": np.float32, "f64": np.float64}


def working_dtype(precision: str) -> np.dtype:
    if precision not in WORKING_DTYPES:
        raise ValueError(f"precision must be one of {sorted(WORKING_DTYPES)}, got {precision!r}")
    return np.dtype(WORKING_DTYPES[precision])


@dataclass
class TensorRecord:
    """One named tensor: shaped row-major array plus its container dtype."""

    name: str
    data: np.ndarray
    dtype: str = "f32"

    def __post_init__(self) -> None:
        dtypes.itemsize(self.dtype)  # validates the code
        arr = np.asarray(self.data)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = arr.copy(order="C")  # keeps 0-d shape, unlike ascontiguousarray
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    def flat(self) -> np.ndarray:
        return self.data.reshape(-1)


@dataclass
class Checkpoint:
    """In-memory checkpoint: uniquely named tensors, lexicographic order."""

    tensors: dict[str, TensorRecord] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_records(
        cls, records: Iterable[TensorRecord], metadata: dict[str, str] | None = None
    ) -> "Checkpoint":
        out: dict[str, TensorRecord] = {}
        for rec in records:
            if rec.name in out:
                raise ValueError(f"duplicate tensor name {rec.name!r}")
            out[rec.name] = rec
        ordered = {name: out[name] for name in sorted(out)}
        return cls(tensors=ordered, metadata=dict(metadata or {}))

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def __getitem__(self, name: str) -> TensorRecord:
        try:
            return self.tensors[name]
        except KeyError:
            raise TensorNotFoundError(f"tensor not found: {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def __len__(self) -> int:
        return len(self.tensors)


@dataclass(frozen=True)
class _Entry:
    code: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int


def _pread(fd: int, size: int, offset: int) -> bytes:
    """All payload byte-range reads funnel through here (patchable in tests)."""
    return os.pread(fd, size, offset)


class CheckpointHandle:
    """Lazy, read-only view of a container file.

    The name/shape/dtype index is parsed at open time; payload bytes are only
    touched by :meth:`load_tensor`.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        try:
            self._fd = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            raise FileNotFoundError(f"checkpoint file not found: {self.path}") from None
        try:
            self._size = os.fstat(self._fd).st_size
            self._entries, self.metadata, self._data_start = self._parse_header()
        except Exception:
            os.close(self._fd)
            self._fd = -1
            raise

    # -- header ---------------------------------------------------------

    def _parse_header(self) -> tuple[dict[str, _Entry], dict[str, str], int]:
        prefix = _pread_header(self._fd, _HEADER_PREFIX_LEN, 0)
        if len(prefix) < _HEADER_PREFIX_LEN:
            raise ContainerError(f"malformed container {self.path}: truncated length prefix")
        header_len = int.from_bytes(prefix, "little")
        if header_len == 0 or header_len > _MAX_HEADER_BYTES:
            raise ContainerError(
                f"malformed container {self.path}: implausible header length {header_len}"
            )
        if _HEADER_PREFIX_LEN + header_len > self._size:
            raise ContainerError(f"malformed container {self.path}: truncated header")
        raw = _pread_header(self._fd, header_len, _HEADER_PREFIX_LEN)
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerError(f"malformed container {self.path}: bad header JSON ({exc})")
        if not isinstance(header, dict):
            raise ContainerError(f"malformed container {self.path}: header is not an object")

        data_start = _HEADER_PREFIX_LEN + header_len
        data_len = self._size - data_start
        metadata: dict[str, str] = {}
        entries: dict[str, _Entry] = {}
        for name, spec in header.items():
            if name == "__metadata__":
                if not isinstance(spec, dict) or not all(
                    isinstance(k, str) and isinstance(v, str) for k, v in spec.items()
                ):
                    raise ContainerError(
                        f"malformed container {self.path}: __metadata__ must map str to str"
                    )
                metadata = dict(spec)
                continue
            entries[name] = self._parse_entry(name, spec, data_len)

        self._check_tiling(entries, data_len)
        return entries, metadata, data_start

    def _parse_entry(self, name: str, spec: object, data_len: int) -> _Entry:
        if not isinstance(spec, dict) or set(spec) != {"dtype", "shape", "data_offsets"}:
            raise ContainerError(
                f"malformed container {self.path}: tensor {name!r} entry must have exactly "
                "dtype/shape/data_offsets"
            )
        tag = spec["dtype"]
        if not isinstance(tag, str):
            raise ContainerError(f"malformed container {self.path}: tensor {name!r} dtype")
        try:
            code = dtypes.code_from_tag(tag)
        except UnsupportedDTypeError:
            raise UnsupportedDTypeError(
                f"tensor {name!r} in {self.path} has unsupported dtype {tag!r}"
            ) from None
        shape = spec["shape"]
        if not isinstance(shape, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape
        ):
            raise ContainerError(
                f"malformed container {self.path}: tensor {name!r} shape must be "
                "non-negative integers"
            )
        offs = spec["data_offsets"]
        if (
            not isinstance(offs, list)
            or len(offs) != 2
            or not all(isinstance(o, int) and not isinstance(o, bool) and o >= 0 for o in offs)
            or offs[0] > offs[1]
            or offs[1] > data_len
        ):
            raise ContainerError(
                f"malformed container {self.path}: tensor {name!r} has invalid data_offsets"
            )
        expected = math.prod(shape) * dtypes.itemsize(code)
        if offs[1] - offs[0] != expected:
            raise ContainerError(
                f"malformed container {self.path}: tensor {name!r} buffer is "
                f"{offs[1] - offs[0]} bytes, expected {expected}"
            )
        return _Entry(code=code, shape=tuple(shape), offset=offs[0], nbytes=expected)

    def _check_tiling(self, entries: dict[str, _Entry], data_len: int) -> None:
        spans = sorted((e.offset, e.offset + e.nbytes) for e in entries.values())
        cursor = 0
        for begin, end in spans:
            if begin != cursor:
                raise ContainerError(
                    f"malformed container {self.path}: buffers leave a gap or overlap "
                    f"at byte {begin}"
                )
            cursor = end
        if cursor != data_len:
            raise ContainerError(
                f"malformed container {self.path}: data region is {data_len} bytes, "
                f"buffers cover {cursor}"
            )

    # -- index ------------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._entries)

    def shape(self, name: str) -> tuple[int, ...]:
        return self._entry(name).shape

    def dtype(self, name: str) -> str:
        return self._entry(name).code

    def _entry(self, name: str) -> _Entry:
        try:
            return self._entries[name]
        except KeyError:
            raise TensorNotFoundError(f"tensor not found: {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- payload ----------------------------------------------------------

    def load_tensor(
        self, name: str, precision: str = "f32", strict: bool = True
    ) -> TensorRecord:
        """Load one tensor converted to the working precision.

        f32 -> f64 is value-exact; f16/bf16 widen exactly to f32 before any
        further conversion.  With ``strict`` (default) NaN/Inf payloads raise
        :class:`NonFiniteError`.
        """
        entry = self._entry(name)
        target = working_dtype(precision)
        if entry.nbytes:
            raw = _pread(self._fd, entry.nbytes, self._data_start + entry.offset)
            if len(raw) != entry.nbytes:
                raise ContainerError(
                    f"malformed container {self.path}: truncated payload for {name!r}"
                )
            count = math.prod(entry.shape)
            values = dtypes.decode_buffer(raw, entry.code, count)
        else:
            values = np.empty(0, dtype=target)
        arr = values.astype(target, copy=False).reshape(entry.shape)
        if strict and not np.isfinite(arr).all():
            raise NonFiniteError(f"tensor {name!r} in {self.path} contains NaN/Inf")
        return TensorRecord(name=name, data=arr, dtype=entry.code)

    def load_all(self, precision: str = "f32", strict: bool = True) -> Checkpoint:
        records = [self.load_tensor(n, precision, strict) for n in self.names()]
        return Checkpoint.from_records(records, self.metadata)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "CheckpointHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


def _pread_header(fd: int, size: int, offset: int) -> bytes:
    # Header reads bypass _pread so laziness tests can count payload access.
    return os.pread(fd, size, offset)


def open_checkpoint(path: str | os.PathLike) -> CheckpointHandle:
    """Open a container file, parsing only its index."""
    return CheckpointHandle(path)


def read_checkpoint(
    path: str | os.PathLike, precision: str = "f32", strict: bool = True
) -> Checkpoint:
    """Eagerly load a whole container into memory."""
    with open_checkpoint(path) as handle:
        return handle.load_all(precision, strict)


def write_checkpoint(
    path: str | os.PathLike,
    tensors: Iterable[TensorRecord],
    output_dtype: str = "f32",
    metadata: dict[str, str] | None = None,
    clamp_overflow: bool = False,
) -> None:
    """Write tensors to ``path`` at ``output_dtype``.

    Names must be unique; tensors are laid out in lexicographic name order so
    identical inputs always produce byte-identical files.  Values outside the
    output dtype's range raise :class:`DTypeOverflowError` naming the tensor
    (or saturate when ``clamp_overflow`` is set).  The file is written to a
    temporary sibling and atomically renamed.
    """
    dtypes.itemsize(output_dtype)
    records: dict[str, TensorRecord] = {}
    for rec in tensors:
        if rec.name == "__metadata__":
            raise ValueError("tensor name '__metadata__' is reserved")
        if rec.name in records:
            raise ValueError(f"duplicate tensor name {rec.name!r}")
        records[rec.name] = rec

    header: dict[str, object] = {}
    if metadata:
        header["__metadata__"] = {str(k): str(v) for k, v in metadata.items()}

    buffers: list[bytes] = []
    cursor = 0
    for name in sorted(records):
        rec = records[name]
        try:
            raw = dtypes.encode_array(rec.data, output_dtype, clamp=clamp_overflow)
        except DTypeOverflowError as exc:
            raise DTypeOverflowError(f"tensor {name!r}: {exc}") from None
        header[name] = {
            "dtype": dtypes.container_tag(output_dtype),
            "shape": list(rec.shape),
            "data_offsets": [cursor, cursor + len(raw)],
        }
        buffers.append(raw)
        cursor += len(raw)

    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    # A fresh random name per call (128 bits, as in a uuid4), so concurrent
    # writers of one output never share (or delete) each other's temporary
    # file.  Mode 0o666 less the umask is what open(path, "wb") would give.
    tmp = path.with_name(f"{path.name}.{os.urandom(16).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(len(header_bytes).to_bytes(_HEADER_PREFIX_LEN, "little"))
            fh.write(header_bytes)
            for raw in buffers:
                fh.write(raw)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class AlignmentReport:
    """Which tensors the given checkpoints can merge, and why the rest cannot.

    ``missing`` maps a tensor name to the handle indices lacking it;
    ``shape_conflicts`` maps a name to the per-handle shapes when they differ.
    """

    mergeable: tuple[str, ...]
    missing: dict[str, tuple[int, ...]]
    shape_conflicts: dict[str, tuple[tuple[int, ...], ...]]

    @property
    def is_aligned(self) -> bool:
        return not self.missing and not self.shape_conflicts


def validate_aligned(handles: Sequence[CheckpointHandle]) -> AlignmentReport:
    """Compare name/shape indexes across checkpoints (no payload reads).

    Symmetric in its inputs: the mergeable set is the tensors present in
    every checkpoint with identical shapes.
    """
    if len(handles) < 2:
        raise ValueError("validate_aligned requires at least two checkpoints")
    all_names: set[str] = set()
    for h in handles:
        all_names.update(h.names())

    mergeable: list[str] = []
    missing: dict[str, tuple[int, ...]] = {}
    conflicts: dict[str, tuple[tuple[int, ...], ...]] = {}
    for name in sorted(all_names):
        absent = tuple(i for i, h in enumerate(handles) if name not in h)
        if absent:
            missing[name] = absent
            continue
        shapes = tuple(h.shape(name) for h in handles)
        if len(set(shapes)) > 1:
            conflicts[name] = shapes
            continue
        mergeable.append(name)
    return AlignmentReport(
        mergeable=tuple(mergeable), missing=missing, shape_conflicts=conflicts
    )
