"""``run_merge`` as plan, stream and finish.

- A tensor whose unread base holds it in another shape ("early") is merged
  once to fix the output layout, its result dropped, and merged again in its
  turn: peak memory does not grow with the number of such tensors, and the
  output matches ``oracles.run_merge_held``.
- An output or summary path that names a directory is refused before any
  payload is read, and no output or temporary file is left.
- Warnings and ``-v`` lines are logged by the main thread as it collects
  results, so they come in name order for any thread count, whichever
  worker finishes first.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from geomerge import merge_methods, tensor_io
from geomerge.cli import main
from geomerge.merge_methods import METHODS, MergeJob, MergeMethod, run_merge
from geomerge.tensor_io import TensorRecord, open_checkpoint, write_checkpoint

from oracles import run_merge_held


@pytest.fixture
def reads(monkeypatch):
    calls: list[tuple[int, int]] = []
    real = tensor_io._pread

    def spy(fd, size, offset, *into):
        calls.append((size, offset))
        return real(fd, size, offset, *into)

    monkeypatch.setattr(tensor_io, "_pread", spy)
    return calls


def _write(path, tensors, dtype="f64"):
    write_checkpoint(path, [TensorRecord(k, np.asarray(v)) for k, v in tensors.items()], dtype)


def _recipe(root, method, models, output, base=None, params="strict: false", dtype="f64"):
    path = root / "r.yaml"
    path.write_text(
        f"method: {method}\n"
        f"models: [{', '.join(str(root / m) for m in models)}]\n"
        + (f"base_model: {root / base}\n" if base else "")
        + f"parameters: {{{params}}}\n"
        f"output: {{path: {root / output}, dtype: {dtype}}}\n"
    )
    return path


def _one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def _leftovers(root) -> list[str]:
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".tmp") or p.name == "m.st")


# -- an output that names a directory, refused before any read -------------------


def test_directory_output_is_refused_before_an_early_merge_reads(tmp_path, capsys, reads):
    rng = np.random.default_rng(1)
    for tag in "ab":
        _write(tmp_path / f"{tag}.st", {"e": rng.standard_normal(4), "w": rng.standard_normal(3)})
    _write(tmp_path / "base.st", {"e": rng.standard_normal(5), "w": rng.standard_normal(3)})
    (tmp_path / "sub").mkdir()
    recipe = _recipe(tmp_path, "lerp", ["a.st", "b.st"], "sub", base="base.st")
    assert main(["merge", str(recipe)]) == 2
    assert f"Is a directory: '{tmp_path / 'sub'}'" in _one_error_line(capsys)
    assert reads == []
    assert not any((tmp_path / "sub").iterdir())
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


@pytest.mark.parametrize("link", [False, True])
def test_directory_summary_path_is_refused_before_any_read(tmp_path, capsys, reads, link):
    rng = np.random.default_rng(2)
    for tag in "ab":
        _write(tmp_path / f"{tag}.st", {"w": rng.standard_normal(3)})
    summary = tmp_path / "m.st.summary.json"
    if link:  # the summary's write would follow the link into the directory
        (tmp_path / "sub").mkdir()
        summary.symlink_to(tmp_path / "sub")
    else:
        summary.mkdir()
    recipe = _recipe(tmp_path, "lerp", ["a.st", "b.st"], "m.st")
    assert main(["merge", str(recipe)]) == 2
    assert f"Is a directory: '{summary}'" in _one_error_line(capsys)
    assert reads == []
    assert _leftovers(tmp_path) == []


# -- early tensors: bounded memory, and the held oracle's output -----------------

N = 1 << 18


def _early_peak(root, count: int) -> int:
    """Peak traced bytes of a non-strict lerp of ``count`` tensors of ``N``
    elements, each held by the base in another shape."""
    rng = np.random.default_rng(count)
    names = [f"t{i:02d}" for i in range(count)]
    for tag in "ab":
        _write(root / f"{tag}.st", {n: rng.standard_normal(N) for n in names}, "f32")
    _write(root / "base.st", {n: np.zeros(2) for n in names}, "f32")
    with contextlib.ExitStack() as stack:
        job = MergeJob(
            sources=[stack.enter_context(open_checkpoint(root / f"{t}.st")) for t in "ab"],
            base=stack.enter_context(open_checkpoint(root / "base.st")),
            method=MergeMethod("lerp", {}),
            out_path=root / "m.st",
            out_dtype="f32",
            strict=False,
            threads=2,
        )
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            summary = run_merge(job)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert summary.tensors_merged == count and summary.tensors_skipped == []
    return peak


def test_early_tensors_hold_no_result(tmp_path):
    (tmp_path / "8").mkdir()
    (tmp_path / "32").mkdir()
    small = _early_peak(tmp_path / "8", 8)
    large = _early_peak(tmp_path / "32", 32)
    # holding each early result until its turn adds one f64 tensor (2 MiB)
    # per tensor: 48 MiB more for the larger count
    assert large - small < N * 8, (small / 2**20, large / 2**20)


@pytest.fixture(scope="module")
def early_inputs(tmp_path_factory):
    """Sources a-c and a base that holds each ``e*`` in another shape; the
    ``e1`` and ``e3`` of source b hold a NaN, so their merges fail."""
    root = tmp_path_factory.mktemp("early")
    rng = np.random.default_rng(41)
    shapes = {"e0": (6,), "e1": (2, 3), "e2": (7,), "e3": (4,), "w": (3, 4), "d": (5,)}
    base = {n: rng.standard_normal(s) for n, s in shapes.items()}
    for name in ("e0", "e1", "e2", "e3"):
        base[name] = rng.standard_normal(math.prod(shapes[name]) + 2)
    _write(root / "base.st", base)
    for tag in "abc":
        tensors = {n: rng.standard_normal(s) for n, s in shapes.items()}
        if tag == "b":
            tensors["e1"][0, 1] = np.nan
            tensors["e3"][2] = np.nan
            tensors["d"] = rng.standard_normal(8)  # not mergeable
        _write(root / f"{tag}.st", tensors)
    return root


def _outcome(run, root, method, out_dtype, threads):
    out = root / f"out-{run.__name__}-{threads}.st"
    models = "ab" if method == "slerp" else "abc"
    with contextlib.ExitStack() as stack:
        job = MergeJob(
            sources=[stack.enter_context(open_checkpoint(root / f"{m}.st")) for m in models],
            base=stack.enter_context(open_checkpoint(root / "base.st")),
            method=MergeMethod(method, {"drop_rate": 0.3, "seed": 5}),
            out_path=out,
            out_dtype=out_dtype,
            strict=False,
            threads=threads,
        )
        try:
            summary = run(job).to_dict()
        except Exception as exc:
            return type(exc), str(exc)
    summary.pop("wall_ms")
    data = out.read_bytes()
    out.unlink()
    return data, json.dumps(summary)


@pytest.mark.parametrize("method", list(METHODS))
def test_early_merges_match_the_held_oracle(early_inputs, method):
    for out_dtype in ("f64", "bf16"):
        held = _outcome(run_merge_held, early_inputs, method, out_dtype, 2)
        for threads in (1, 3):
            assert _outcome(run_merge, early_inputs, method, out_dtype, threads) == held
    summary = json.loads(held[1])
    # where the base is unread, e0 and e2 merge and e1 and e3 fall back to it
    expected = ["d"] + (["e0", "e1", "e2", "e3"] if METHODS[method].needs_base else ["e1", "e3"])
    assert summary["tensors_skipped"] == expected


# -- log lines in name order ------------------------------------------------------


@pytest.fixture
def slow_first(monkeypatch):
    """Delay the Karcher solve of the 5-element tensor t0, so that every
    later tensor's worker finishes before it."""
    real = merge_methods.karcher_mean
    started = threading.Event()

    def karcher_mean(points, *args, **kwargs):
        if points.shape[1] == 5:
            started.set()
            time.sleep(0.2)
        return real(points, *args, **kwargs)

    monkeypatch.setattr(merge_methods, "karcher_mean", karcher_mean)
    return started


def _karcher_logs(root, caplog, strict: bool, nan: bool) -> list[str]:
    rng = np.random.default_rng(7)
    for i, tag in enumerate("abc"):
        tensors = {f"t{k}": rng.standard_normal(5 + k) for k in range(3)}
        if nan and tag == "b":
            tensors["t1"][0] = np.nan
        _write(root / f"{tag}.st", tensors)
    params = f"max_iter: 1, strict: {str(strict).lower()}"
    recipe = _recipe(root, "karcher", ["a.st", "b.st", "c.st"], "m.st", params=params)
    with caplog.at_level(logging.DEBUG, logger="geomerge.merge_methods"):
        assert main(["-v", "merge", str(recipe), "--threads", "3"]) == 0
    return [r.getMessage() for r in caplog.records if r.name == "geomerge.merge_methods"]


def _tensor(line: str) -> str:
    return line.split("'")[1]


def test_warnings_come_in_name_order(tmp_path, caplog, slow_first):
    logs = _karcher_logs(tmp_path, caplog, strict=True, nan=False)
    assert slow_first.is_set()
    warnings = [line for line in logs if "hit max_iter" in line]
    assert [_tensor(line) for line in warnings] == ["t0", "t1", "t2"]
    merged = [line for line in logs if line.startswith("merged tensor")]
    assert [_tensor(line) for line in merged] == ["t0", "t1", "t2"]
    assert "merged tensor 't0' (5) norm" in merged[0]


def test_fallbacks_and_warnings_come_in_name_order(tmp_path, caplog, slow_first):
    logs = _karcher_logs(tmp_path, caplog, strict=False, nan=True)
    lines = [line for line in logs if "hit max_iter" in line or "copying fallback" in line]
    assert [(_tensor(line), "fallback" in line) for line in lines] == [
        ("t0", False),
        ("t1", True),
        ("t2", False),
    ]


def test_an_early_tensor_logs_once(tmp_path, caplog):
    rng = np.random.default_rng(9)
    for tag in "abc":
        _write(tmp_path / f"{tag}.st", {"e": rng.standard_normal(6), "w": rng.standard_normal(4)})
    _write(tmp_path / "base.st", {"e": rng.standard_normal(3), "w": rng.standard_normal(4)})
    recipe = _recipe(
        tmp_path, "karcher", ["a.st", "b.st", "c.st"], "m.st", base="base.st",
        params="max_iter: 1, strict: false",
    )
    with caplog.at_level(logging.DEBUG, logger="geomerge.merge_methods"):
        assert main(["-v", "merge", str(recipe), "--threads", "2"]) == 0
    logs = [r.getMessage() for r in caplog.records if r.name == "geomerge.merge_methods"]
    assert [_tensor(line) for line in logs if "hit max_iter" in line] == ["e", "w"]
    assert [_tensor(line) for line in logs if line.startswith("merged tensor")] == ["e", "w"]
