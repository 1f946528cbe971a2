"""Every refusal of a container header, and of a payload that shrank after
the header was read, on hand-built bytes.

Each case raises :class:`ContainerError` with a message that names the path
and what is wrong, and ``geomerge inspect`` exits 2 with that one line.
"""

from __future__ import annotations

import json
import os

import pytest

from geomerge import cli, tensor_io
from geomerge.cli import main
from geomerge.errors import ContainerError
from geomerge.tensor_io import open_checkpoint


def _container(header: object, data: int = 0, prefix: int | None = None) -> bytes:
    """``header`` as JSON behind its length prefix (or ``prefix``), then ``data`` bytes."""
    blob = json.dumps(header).encode("utf-8")
    length = len(blob) if prefix is None else prefix
    return length.to_bytes(8, "little") + blob + bytes(data)


def _one(**fields: object) -> dict:
    """A header with one f32 tensor 'w' of one element, some fields replaced."""
    return {"w": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4], **fields}}


_ENTRY_KEYS = "tensor 'w' entry must have exactly dtype/shape/data_offsets"
_SHAPE = "tensor 'w' shape must be non-negative integers"
_OFFSETS = "tensor 'w' has invalid data_offsets"

CASES = {
    "truncated length prefix": (b"\x10\x00\x00", "truncated length prefix"),
    "zero header length": (_container({}, prefix=0), "implausible header length 0"),
    "huge header length": (
        _container({}, prefix=tensor_io._MAX_HEADER_BYTES + 1),
        f"implausible header length {tensor_io._MAX_HEADER_BYTES + 1}",
    ),
    "header is a list": (_container([]), "header is not an object"),
    "metadata is a list": (_container({"__metadata__": []}), "__metadata__ must map str to str"),
    "metadata value": (
        _container({"__metadata__": {"a": 1}}),
        "__metadata__ must map str to str",
    ),
    "entry is a number": (_container({"w": 3}), _ENTRY_KEYS),
    "entry lacks offsets": (_container({"w": {"dtype": "F32", "shape": [1]}}), _ENTRY_KEYS),
    "entry has an extra key": (_container({"w": {**_one()["w"], "x": 0}}, 4), _ENTRY_KEYS),
    "dtype is a number": (_container(_one(dtype=5), 4), "tensor 'w' dtype"),
    "shape is a string": (_container(_one(shape="1"), 4), _SHAPE),
    "negative dimension": (_container(_one(shape=[-1]), 4), _SHAPE),
    "float dimension": (_container(_one(shape=[1.0]), 4), _SHAPE),
    "bool dimension": (_container(_one(shape=[True]), 4), _SHAPE),
    "offsets not a list": (_container(_one(data_offsets="0,4"), 4), _OFFSETS),
    "one offset": (_container(_one(data_offsets=[4]), 4), _OFFSETS),
    "three offsets": (_container(_one(data_offsets=[0, 4, 4]), 4), _OFFSETS),
    "bool offset": (_container(_one(data_offsets=[False, 4]), 4), _OFFSETS),
    "negative offset": (_container(_one(data_offsets=[-4, 0]), 4), _OFFSETS),
    "begin after end": (_container(_one(data_offsets=[4, 0]), 4), _OFFSETS),
    "end past the data": (_container(_one(data_offsets=[0, 8]), 4), _OFFSETS),
    "gap between buffers": (
        _container({**_one(), "v": _one(data_offsets=[8, 12])["w"]}, 12),
        "buffers leave a gap or overlap at byte 8",
    ),
    "overlapping buffers": (
        _container({**_one(), "v": _one()["w"]}, 4),
        "buffers leave a gap or overlap at byte 0",
    ),
    "name is a lone surrogate": (
        _container({"w\ud800": _one()["w"]}, 4),
        "tensor name 'w\\ud800' is not valid Unicode",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_header_refusal_names_the_path(tmp_path, capsys, case):
    raw, message = CASES[case]
    path = tmp_path / "c.st"
    path.write_bytes(raw)
    expected = f"malformed container {path}: {message}"
    with pytest.raises(ContainerError) as info:
        open_checkpoint(path)
    assert str(info.value) == expected
    assert main(["inspect", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {expected}"]


def test_payload_truncated_after_open(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c.st"
    path.write_bytes(_container(_one(), 4))
    expected = f"malformed container {path}: truncated payload for 'w'"
    with open_checkpoint(path) as handle:
        os.truncate(path, path.stat().st_size - 1)
        with pytest.raises(ContainerError) as info:
            handle.load_tensor("w")
    assert str(info.value) == expected

    path.write_bytes(_container(_one(), 4))

    def open_then_truncate(p):
        handle = open_checkpoint(p)
        os.truncate(p, os.path.getsize(p) - 1)
        return handle

    monkeypatch.setattr(cli, "open_checkpoint", open_then_truncate)
    assert main(["inspect", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {expected}"]
