"""Numeric dtype codes and raw-buffer codecs for the tensor container.

Supported element types are ``f64``, ``f32``, ``f16`` and ``bf16``.  Buffers
are little-endian, row-major.  numpy has no bfloat16, so bf16 is handled at
the bit level: widening to f32 appends sixteen zero mantissa bits (exact),
narrowing from f32 rounds to nearest-even.
"""

from __future__ import annotations

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


def bf16_to_f32(bits: np.ndarray) -> np.ndarray:
    """Widen uint16 bf16 bit patterns to float32 (exact)."""
    widened = bits.astype(np.uint32) << 16
    return widened.view(np.float32)


def f32_to_bf16(values: np.ndarray) -> np.ndarray:
    """Narrow float32 to uint16 bf16 bit patterns, rounding to nearest-even."""
    u = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    nan_mask = np.isnan(values)
    # add 0x7FFF plus the lowest kept bit, then keep the high half; one
    # full-length uint32 temporary, updated in place
    rounded = u >> 16
    rounded &= 1
    rounded += 0x7FFF
    rounded += u
    rounded >>= 16
    bits = rounded.astype(np.uint16)
    if nan_mask.any():
        # force a quiet-NaN payload instead of letting rounding flush to Inf
        bits = np.where(nan_mask, (u >> 16).astype(np.uint16) | np.uint16(0x0040), bits)
    return bits


def decode_buffer(raw: bytes, code: str, count: int) -> np.ndarray:
    """Decode ``count`` elements from a little-endian buffer.

    f16/bf16 are widened to float32 (value-exact); f32/f64 keep their width.
    """
    _check_code(code)
    arr = np.frombuffer(raw, dtype=DTYPES[code].storage, count=count)
    if code == "bf16":
        return bf16_to_f32(arr)
    if code == "f16":
        return arr.astype(np.float32)
    return arr.astype(arr.dtype.newbyteorder("="))


def encode_array(values: np.ndarray, code: str, clamp: bool = False) -> bytes:
    """Encode a float array to the container representation of ``code``.

    Overflow means a finite input that is no longer finite after rounding to
    the target type.  It raises :class:`DTypeOverflowError` by default;
    with ``clamp`` the value saturates at the largest finite magnitude.
    """
    _check_code(code)
    storage = DTYPES[code].storage
    flat = np.ascontiguousarray(values).reshape(-1)
    if code == "f64":
        return flat.astype(storage).tobytes()

    with np.errstate(over="ignore"):
        if code == "bf16":
            out = f32_to_bf16(flat.astype(np.float32, copy=False))
            # all exponent bits set: Inf, or NaN, which only a NaN input gives
            overflowed = (out & 0x7F80) == 0x7F80
        else:
            out = flat.astype(storage, copy=False)
            overflowed = ~np.isfinite(out)
    if overflowed.any():
        overflowed &= np.isfinite(flat)
    if overflowed.any():
        if not clamp:
            culprits = flat[overflowed]
            worst = float(culprits[np.argmax(np.abs(culprits))])
            raise DTypeOverflowError(f"value {worst!r} not representable as {code}")
        saturated = np.sign(flat) * _MAX_FINITE[code]
        if code == "bf16":
            out = np.where(overflowed, f32_to_bf16(saturated.astype(np.float32)), out)
        else:
            out = np.where(overflowed, saturated, out).astype(out.dtype)
    return out.astype(storage, copy=False).tobytes()
