"""Numeric dtype codes and raw-buffer codecs for the tensor container.

Supported element types are ``f64``, ``f32``, ``f16`` and ``bf16``.  Buffers
are little-endian, row-major.  numpy has no bfloat16, so bf16 is handled at
the bit level: widening to f32 appends sixteen zero mantissa bits (exact),
narrowing from f32 rounds to nearest-even.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .errors import DTypeOverflowError, UnsupportedDTypeError


class DType(NamedTuple):
    tag: str  # container tag
    size: int  # bytes per element
    storage: str  # little-endian numpy type of the stored elements (bf16: its bits)


DTYPES: dict[str, DType] = {
    "f64": DType("F64", 8, "<f8"),
    "f32": DType("F32", 4, "<f4"),
    "f16": DType("F16", 2, "<f2"),
    "bf16": DType("BF16", 2, "<u2"),
}

#: The precisions that tensors are loaded into and merged at.
WORKING_PRECISIONS = ("f32", "f64")

_TAG_TO_CODE = {d.tag: code for code, d in DTYPES.items()}

# Largest finite magnitude representable in each target (clamp saturation).
_MAX_FINITE = {
    "f64": float(np.finfo(np.float64).max),
    "f32": float(np.finfo(np.float32).max),
    "f16": float(np.finfo(np.float16).max),
    "bf16": 3.3895313892515355e38,  # 0x7F7F widened
}


def code_from_tag(tag: str) -> str:
    if tag not in _TAG_TO_CODE:
        raise UnsupportedDTypeError(f"unsupported dtype tag {tag!r}")
    return _TAG_TO_CODE[tag]


def itemsize(code: str) -> int:
    _check_code(code)
    return DTYPES[code].size


def container_tag(code: str) -> str:
    _check_code(code)
    return DTYPES[code].tag


def _check_code(code: str) -> None:
    if code not in DTYPES:
        raise UnsupportedDTypeError(f"unsupported dtype {code!r}")


class Workspace(threading.local):
    """Named buffers kept from call to call, a separate set per thread.

    :meth:`take` hands out an array of any shape and dtype in the calling
    thread's buffer of a given name.  A buffer is replaced only when a larger
    array is asked for, so a loop over tensors allocates (and the kernel
    faults in) memory only for a tensor larger than any before it.  Each
    array taken under a name on a thread shares its memory with every other.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(
        self, name: str, shape: int | tuple[int, ...], dtype: np.dtype | type = np.float64
    ) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = (shape if isinstance(shape, int) else math.prod(shape)) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.size < nbytes:
            buf = self._buffers[name] = np.empty(nbytes, np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


def f32_to_bf16(values: np.ndarray, work: Workspace | None = None) -> np.ndarray:
    """Narrow float32 to uint16 bf16 bit patterns, rounding to nearest-even.

    The temporaries and the result are taken from ``work`` (its ``u32``,
    ``mask`` and ``words`` buffers) when it is given.
    """
    work = work or Workspace()
    u = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    # add 0x7FFF plus the lowest kept bit, then keep the high half
    rounded = np.right_shift(u, 16, out=work.take("u32", u.shape, np.uint32))
    rounded &= 1
    rounded += 0x7FFF
    rounded += u
    rounded >>= 16
    nan = np.isnan(u.view(np.float32), out=work.take("mask", u.shape, bool))
    if nan.any():
        # force a quiet-NaN payload instead of letting rounding flush to Inf
        np.right_shift(u, 16, out=rounded, where=nan)
        np.bitwise_or(rounded, 0x0040, out=rounded, where=nan)
    return _cast(rounded, np.uint16, work, "words")


def _cast(values: np.ndarray, dtype: np.dtype | type, work: Workspace, name: str) -> np.ndarray:
    """``values`` as ``dtype``: itself if it already is, else cast into
    ``work``'s buffer ``name``."""
    if values.dtype == dtype:
        return values
    return _copy(work.take(name, values.shape, dtype), values)


def _copy(out: np.ndarray, values: np.ndarray) -> np.ndarray:
    np.copyto(out, values, casting="unsafe")
    return out


def decode_buffer(
    raw: bytes, code: str, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Decode ``count`` elements from a little-endian buffer into ``out``.

    ``out``, a contiguous float32 or float64 vector of ``count`` entries, is
    returned holding the values in its dtype.  Without it, float64 is made
    for f64 and float32, which holds every f16/bf16 value, for the rest.
    f16 and bf16 widen to float32 first (NaN bits too); a float64 ``out``
    takes those in the upper half of its own bytes and widens them in place,
    front to back, each float64 below every bit pattern not yet read.
    ``raw`` may be ``out``'s own bytes: all of them for f64, the upper half
    for f32, and the first quarter for f16 and bf16.
    """
    _check_code(code)
    arr = np.frombuffer(raw, dtype=DTYPES[code].storage, count=count)
    if out is None:
        out = np.empty(count, np.float64 if code == "f64" else np.float32)
    narrow = out.dtype == np.float64 and code in ("f16", "bf16")
    staged = out.view(np.float32)[count:] if narrow else out
    # narrowing f64 to float32 may overflow; widening a signaling NaN sets
    # the invalid flag
    with np.errstate(over="ignore", invalid="ignore"):
        if code == "bf16":  # its bits are the high half of a float32's
            np.left_shift(arr, 16, out=staged.view(np.uint32), dtype=np.uint32)
        else:
            _copy(staged, arr)
        if staged is not out:
            _copy(out, staged)
    return out


def encode_array(
    values: np.ndarray, code: str, clamp: bool = False, work: Workspace | None = None
) -> "bytes | np.ndarray":
    """Encode a float array to the container representation of ``code``.

    Overflow means a finite input that is no longer finite after rounding to
    the target type.  It raises :class:`DTypeOverflowError` by default;
    with ``clamp`` the value saturates at the largest finite magnitude.

    Without ``work`` the result is fresh ``bytes``.  With it, the
    temporaries are taken from ``work`` (``f32`` staging, ``u32`` rounding,
    ``words`` output and a ``mask``) and the result is the array of
    encoded words: in ``work``, or ``values`` itself when it already holds
    them.  It stays valid until ``work`` is used again.
    """
    _check_code(code)
    buffers = work or Workspace()
    flat = np.ravel(values)
    with np.errstate(over="ignore"):
        if code == "bf16":
            words = f32_to_bf16(_cast(flat, np.float32, buffers, "f32"), buffers)
            # all exponent bits set: Inf, or NaN, which only a NaN input gives
            exponent = np.bitwise_and(words, 0x7F80, out=buffers.take("u32", flat.shape, np.uint16))
            overflowed = np.equal(exponent, 0x7F80, out=buffers.take("mask", flat.shape, bool))
        else:
            words = _cast(flat, np.dtype(DTYPES[code].storage), buffers, "words")
            if code == "f64":
                return words if work is not None else words.tobytes()
            overflowed = np.isinf(words, out=buffers.take("mask", flat.shape, bool))
    if overflowed.any():
        overflowed &= np.isfinite(flat)
    if overflowed.any():
        if not clamp:
            culprits = flat[overflowed]
            worst = float(culprits[np.argmax(np.abs(culprits))])
            raise DTypeOverflowError(f"value {worst!r} not representable as {code}")
        # an overflow needs a cast, so ``words`` is not ``values`` here
        saturated = np.sign(flat) * _MAX_FINITE[code]
        if code == "bf16":
            saturated = f32_to_bf16(saturated.astype(np.float32))
        np.copyto(words, saturated, where=overflowed, casting="unsafe")
    return words if work is not None else words.tobytes()
