"""Minimal reader and streaming writer for the tensor container format.

The benchmark builds its inputs and checks the program's outputs with this
module rather than with ``geomerge.tensor_io``, so that neither the inputs
nor the output checks depend on the code being measured.  Layout: an 8-byte
little-endian header length, a JSON header mapping tensor name to
``{"dtype", "shape", "data_offsets"}``, then the row-major payloads.
"""

from __future__ import annotations

import json
import math
import os
from typing import Callable, Iterable

import numpy as np

ITEMSIZE = {"F32": 4, "BF16": 2}


def write_container(
    path: str | os.PathLike,
    specs: Iterable[tuple[str, str, tuple[int, ...]]],
    payload: Callable[[str], bytes],
) -> int:
    """Write tensors given as (name, dtype tag, shape), fetching each payload
    from ``payload(name)`` only when it is written, so at most one tensor is
    held in memory.  Returns the file size in bytes."""
    header: dict[str, object] = {}
    cursor = 0
    ordered = sorted(specs)
    for name, tag, shape in ordered:
        nbytes = math.prod(shape) * ITEMSIZE[tag]
        header[name] = {"dtype": tag, "shape": list(shape), "data_offsets": [cursor, cursor + nbytes]}
        cursor += nbytes
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(len(head).to_bytes(8, "little"))
        fh.write(head)
        for name, tag, shape in ordered:
            raw = payload(name)
            if len(raw) != math.prod(shape) * ITEMSIZE[tag]:
                raise ValueError(f"payload for {name!r} has the wrong size")
            fh.write(raw)
        # flushed now, so that write-back of the inputs cannot overlap a timed run
        fh.flush()
        os.fsync(fh.fileno())
    return 8 + len(head) + cursor


class Container:
    """Read-only view of one container file; payloads are read on demand."""

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        with open(self.path, "rb") as fh:
            length = int.from_bytes(fh.read(8), "little")
            self.header = json.loads(fh.read(length).decode("utf-8"))
        self.header.pop("__metadata__", None)
        self.data_start = 8 + length

    def names(self) -> list[str]:
        return sorted(self.header)

    def read(self, name: str) -> np.ndarray:
        """Tensor ``name`` as float64, widened exactly from F32 or BF16."""
        entry = self.header[name]
        begin, end = entry["data_offsets"]
        with open(self.path, "rb") as fh:
            fh.seek(self.data_start + begin)
            raw = fh.read(end - begin)
        tag = entry["dtype"]
        if tag == "BF16":
            values = (np.frombuffer(raw, dtype="<u2").astype(np.uint32) << 16).view(np.float32)
        elif tag == "F32":
            values = np.frombuffer(raw, dtype="<f4")
        else:
            raise ValueError(f"unexpected dtype {tag!r} in {self.path}")
        return values.astype(np.float64).reshape(entry["shape"])
