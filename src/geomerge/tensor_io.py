"""Single-file tensor container: lazy reader, writer, alignment checks.

File layout (compatible with the common JSON-header safetensors container):
an 8-byte little-endian unsigned header length, a UTF-8 JSON header mapping
tensor name to ``{"dtype", "shape", "data_offsets"}`` (offsets relative to
the end of the header) plus an optional ``"__metadata__"`` string map, then
the concatenated little-endian row-major buffers.

``open_checkpoint`` parses only the header; tensor payloads are fetched on
demand with positional reads (``os.pread``, or ``os.preadv`` into an array
the caller gives), so concurrent ``load_tensor``
calls on distinct names do not serialize on a shared file offset.  Handles
are immutable after open.
"""

from __future__ import annotations

import errno
import json
import math
import os
import stat
import threading
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


def working_dtype(precision: str) -> np.dtype:
    if precision not in dtypes.WORKING_PRECISIONS:
        raise ValueError(
            f"precision must be one of {sorted(dtypes.WORKING_PRECISIONS)}, got {precision!r}"
        )
    return np.dtype(f"f{dtypes.itemsize(precision)}")


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


def _pread(
    fd: int, size: int, offset: int, into: np.ndarray | None = None
) -> "bytes | np.ndarray":
    """All payload byte-range reads funnel through here (patchable in tests).

    Returns the bytes read, fresh, or with ``into``, a writable uint8 array
    of ``size`` entries, fills it (``os.preadv``) and returns the part filled.
    """
    if into is None:
        return os.pread(fd, size, offset)
    done = 0
    while done < size:
        got = os.preadv(fd, [into[done:]], offset + done)
        if not got:
            break
        done += got
    return into[:done]


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
            info = os.fstat(self._fd)
            if not stat.S_ISREG(info.st_mode):
                raise ContainerError(f"checkpoint is not a regular file: {self.path}")
            self._size = info.st_size
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
        self,
        name: str,
        precision: str = "f32",
        strict: bool = True,
        out: np.ndarray | None = None,
    ) -> TensorRecord:
        """Load one tensor converted to the working precision.

        f32 -> f64 is value-exact; f16/bf16 widen exactly to f32 before any
        further conversion.  With ``strict`` (default) NaN/Inf payloads raise
        :class:`NonFiniteError`, and finite f64 values beyond the working
        precision's range raise :class:`DTypeOverflowError`; without it they
        load as Inf.

        The payload is decoded straight into one array: a fresh one of the
        working precision, or ``out``.  ``out``, if given, is a contiguous
        float64 vector with one entry per element, which holds float64 at
        either precision: an f64 payload loaded at f32 is rounded through
        float32 in place.  The payload is read into ``out``'s own bytes and
        widened there, so such a load allocates no payload buffer.  The
        record's data is then ``out`` in the tensor's shape, with the values
        and errors the default load gives.
        """
        entry = self._entry(name)
        target = working_dtype(precision)
        count = math.prod(entry.shape)
        position = self._data_start + entry.offset
        into: tuple[np.ndarray, ...] = ()  # where the payload is read to, if not fresh bytes
        if out is None:
            out = np.empty(count, target)
        elif not (out.dtype == np.float64 and out.shape == (count,) and out.flags.c_contiguous):
            raise ValueError(
                f"out must be a contiguous float64 vector of {count} entries, "
                f"got {out.dtype} of shape {out.shape}"
            )
        else:
            # where decode_buffer widens it in place, front to back: f32 in the
            # upper half, each float64 written below what is still unread; f16
            # and bf16 at the front, clear of the float32 staged in the upper half
            start = out.nbytes - entry.nbytes if entry.code == "f32" else 0
            into = (out.view(np.uint8)[start : start + entry.nbytes],)
        if entry.nbytes:
            raw = _pread(self._fd, entry.nbytes, position, *into)
            if len(raw) != entry.nbytes:
                raise ContainerError(
                    f"malformed container {self.path}: truncated payload for {name!r}"
                )
            dtypes.decode_buffer(raw, entry.code, count, out)
            if entry.code == "f64" and out.dtype != target:
                # a finite value beyond f32's range becomes Inf
                with np.errstate(over="ignore"):
                    np.positive(out, out=out, dtype=target)
        arr = out.reshape(entry.shape)
        if strict and not np.isfinite(arr).all():
            # only an f64 payload can hold a finite value that loads as Inf;
            # it is read again, since the load may have rounded it in place
            values = (
                np.frombuffer(_pread(self._fd, entry.nbytes, position), "<f8")
                if entry.code == "f64"
                else arr
            )
            if not np.isfinite(values).all():
                raise NonFiniteError(f"tensor {name!r} in {self.path} contains NaN/Inf")
            worst = float(values[np.argmax(np.abs(values))])
            raise DTypeOverflowError(
                f"tensor {name!r} in {self.path} holds {worst!r}, beyond the range of "
                f"the {precision} working precision; set precision: f64"
            )
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


class CheckpointWriter:
    """Write a container whose layout is fixed before any payload exists.

    The header is laid out from ``{name: shape}`` and ``output_dtype`` alone:
    names in lexicographic order, each buffer ``elements x itemsize`` bytes,
    so identical inputs always give byte-identical files.  Construction opens
    a fresh temporary sibling of ``path`` and writes the header; :meth:`put`
    encodes one tensor and writes it at its own offset, and may be called
    from several threads at once.  :meth:`commit` syncs the file and renames
    it over ``path``; :meth:`abort` deletes it.  As a context manager the
    writer commits on a clean exit and aborts on an exception.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        shapes: dict[str, tuple[int, ...]],
        output_dtype: str = "f32",
        metadata: dict[str, str] | None = None,
        clamp_overflow: bool = False,
    ):
        size = dtypes.itemsize(output_dtype)
        if "__metadata__" in shapes:
            raise ValueError("tensor name '__metadata__' is reserved")
        self.output_dtype = output_dtype
        self.clamp_overflow = clamp_overflow
        header: dict[str, object] = {}
        if metadata:
            header["__metadata__"] = {str(k): str(v) for k, v in metadata.items()}
        self._spans: dict[str, tuple[int, int]] = {}
        cursor = 0
        for name in sorted(shapes):
            shape = list(shapes[name])
            end = cursor + math.prod(shape) * size  # what _parse_entry checks on read
            header[name] = {
                "dtype": dtypes.container_tag(output_dtype),
                "shape": shape,
                "data_offsets": [cursor, end],
            }
            self._spans[name] = (cursor, end - cursor)
            cursor = end
        header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        self._data_start = _HEADER_PREFIX_LEN + len(header_bytes)
        self._written: set[str] = set()
        self._lock = threading.Lock()
        self._work = dtypes.Workspace()  # each thread's encode buffers

        self.path = Path(path)
        # refused before any tensor is merged, not at the final rename (which
        # would replace a symlink to a directory, not enter it)
        if self.path.is_dir() and not self.path.is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(self.path))
        # A fresh random name per writer (128 bits, as in a uuid4), so
        # concurrent writers of one output never share (or delete) each
        # other's temporary file.  Mode 0o666 less the umask is what
        # open(path, "wb") would give.
        self._tmp = self.path.with_name(f"{self.path.name}.{os.urandom(16).hex()}.tmp")
        self._fd = os.open(self._tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            prefix = len(header_bytes).to_bytes(_HEADER_PREFIX_LEN, "little")
            self._write_at(prefix + header_bytes, 0)
        except BaseException:
            self.abort()
            raise

    def _write_at(self, raw: "bytes | np.ndarray", offset: int) -> None:
        view = memoryview(raw).cast("B")
        while view:
            written = os.pwrite(self._fd, view, offset)
            view = view[written:]
            offset += written

    def put(self, name: str, array: np.ndarray) -> None:
        """Encode ``array`` and write it at ``name``'s offset.

        A value outside the output dtype's range raises
        :class:`DTypeOverflowError` naming the tensor (or saturates when
        ``clamp_overflow`` is set).  Each thread encodes into buffers of its
        own, kept for its next tensor, and writes from them.
        """
        offset, nbytes = self._spans[name]
        try:
            words = dtypes.encode_array(array, self.output_dtype, self.clamp_overflow, self._work)
        except DTypeOverflowError as exc:
            raise DTypeOverflowError(f"tensor {name!r}: {exc}") from None
        if words.nbytes != nbytes:
            raise ValueError(
                f"tensor {name!r} encodes to {words.nbytes} bytes, its layout holds {nbytes}"
            )
        self._write_at(words, self._data_start + offset)
        with self._lock:
            self._written.add(name)

    def commit(self) -> None:
        """Sync the file and rename it over the output path."""
        try:
            missing = sorted(set(self._spans) - self._written)
            if missing:
                raise ValueError(f"tensor {missing[0]!r} was laid out but never written")
            os.fsync(self._fd)
            os.close(self._fd)
            self._fd = -1
            os.replace(self._tmp, self.path)
        except BaseException:
            self.abort()
            raise

    def abort(self) -> None:
        """Close and delete the temporary file."""
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1
        self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, exc_type: type | None, *exc: object) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.abort()


def write_checkpoint(
    path: str | os.PathLike,
    tensors: Iterable[TensorRecord],
    output_dtype: str = "f32",
    metadata: dict[str, str] | None = None,
    clamp_overflow: bool = False,
) -> None:
    """Write tensors to ``path`` at ``output_dtype`` through a
    :class:`CheckpointWriter`.

    Names must be unique; tensors are laid out, encoded and written in
    lexicographic name order, so the first tensor with a value outside the
    output dtype's range is the one a :class:`DTypeOverflowError` names.
    The file is written to a temporary sibling and atomically renamed.
    """
    records: dict[str, TensorRecord] = {}
    for rec in tensors:
        if rec.name in records:
            raise ValueError(f"duplicate tensor name {rec.name!r}")
        records[rec.name] = rec
    shapes = {name: rec.shape for name, rec in records.items()}
    with CheckpointWriter(path, shapes, output_dtype, metadata, clamp_overflow) as out:
        for name in sorted(records):
            out.put(name, records[name].data)


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
