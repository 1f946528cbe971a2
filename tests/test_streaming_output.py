"""The streamed output: one writer, tensors written by the merge workers.

``CheckpointWriter`` lays the header out before any payload exists and lets
each worker encode and ``pwrite`` its own tensor; ``write_checkpoint`` is a
thin wrapper over it.  ``run_merge`` opens the writer before any merge, keeps
at most two tensors per worker in flight, and leaves nothing behind when it
fails.  Its peak memory follows the largest tensor, not the tensor count.
"""

from __future__ import annotations

import errno
import json
import os
import stat
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from geomerge import merge_methods, tensor_io
from geomerge.cli import main
from geomerge.errors import DTypeOverflowError
from geomerge.tensor_io import CheckpointWriter, TensorRecord, write_checkpoint
from oracles import read_records

SRC = Path(__file__).resolve().parent.parent / "src"


def _records(rng, shapes):
    return [TensorRecord(name, rng.standard_normal(shape)) for name, shape in shapes.items()]


SHAPES = {"b": (3, 4), "a": (5,), "c": (), "e": (0, 3), "d": (2, 2, 2)}


class TestWriter:
    @pytest.mark.parametrize("dtype", ["f32", "bf16", "f16", "f64"])
    def test_threads_in_any_order_write_the_wrapper_bytes(self, tmp_path, dtype):
        records = _records(np.random.default_rng(1), SHAPES)
        write_checkpoint(tmp_path / "ref.st", records, dtype)
        shapes = {r.name: r.shape for r in records}
        with CheckpointWriter(tmp_path / "out.st", shapes, dtype) as out:
            with ThreadPoolExecutor(max_workers=3) as pool:
                for future in [pool.submit(out.put, r.name, r.data) for r in records[::-1]]:
                    future.result()
        assert (tmp_path / "out.st").read_bytes() == (tmp_path / "ref.st").read_bytes()

    def test_many_threads_lose_no_tensor(self, tmp_path):
        rng = np.random.default_rng(3)
        records = [TensorRecord(f"t{i:03d}", rng.standard_normal(i % 7)) for i in range(300)]
        write_checkpoint(tmp_path / "ref.st", records, "bf16")
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shapes = {r.name: r.shape for r in records}
            with CheckpointWriter(tmp_path / "out.st", shapes, "bf16") as out:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(out.put, r.name, r.data) for r in records]
                    for future in futures:
                        future.result(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        # commit checks that every laid-out tensor was recorded as written
        assert (tmp_path / "out.st").read_bytes() == (tmp_path / "ref.st").read_bytes()

    def test_header_is_written_before_any_tensor(self, tmp_path):
        out = CheckpointWriter(tmp_path / "o.st", {"w": (2,)})
        (tmp,) = tmp_path.glob("o.st.*.tmp")
        header_len = int.from_bytes(tmp.read_bytes()[:8], "little")
        assert json.loads(tmp.read_bytes()[8 : 8 + header_len])["w"]["data_offsets"] == [0, 8]
        out.abort()
        assert list(tmp_path.iterdir()) == []

    def test_commit_syncs_before_the_rename(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            tensor_io.os, "fsync", lambda fd: calls.append("fsync") or real_fsync(fd)
        )
        monkeypatch.setattr(
            tensor_io.os, "replace", lambda a, b: calls.append("replace") or real_replace(a, b)
        )
        write_checkpoint(tmp_path / "o.st", [TensorRecord("w", np.ones(3))])
        # the file, the rename, then the directory that holds the new name
        assert calls == ["fsync", "replace", "fsync"]
        assert read_records(tmp_path / "o.st")["w"].data.tolist() == [1.0, 1.0, 1.0]

    def test_the_directory_sync_is_of_the_outputs_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            tensor_io.os, "fsync", lambda fd: synced.append(os.fstat(fd)) or real_fsync(fd)
        )
        (tmp_path / "sub").mkdir()
        write_checkpoint(tmp_path / "sub" / "o.st", [TensorRecord("w", np.ones(3))])
        assert os.path.samestat(synced[-1], os.stat(tmp_path / "sub"))

    def test_a_failed_directory_sync_names_the_output_in_place(self, tmp_path, monkeypatch):
        real_fsync = os.fsync

        def failing_directory_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(errno.EIO, "Input/output error")
            return real_fsync(fd)

        monkeypatch.setattr(tensor_io.os, "fsync", failing_directory_fsync)
        out = tmp_path / "o.st"
        with pytest.raises(OSError) as caught:
            write_checkpoint(out, [TensorRecord("w", np.ones(3))])
        assert caught.value.filename == str(out)
        assert str(caught.value) == (
            f"[Errno {errno.EIO}] Input/output error (syncing its directory): '{out}'"
        )
        # the rename came first: the new file is in place, no temporary is left
        assert [p.name for p in tmp_path.iterdir()] == ["o.st"]
        assert read_records(out)["w"].data.tolist() == [1.0, 1.0, 1.0]

    def test_a_failed_sync_leaves_nothing(self, tmp_path, monkeypatch):
        def failing_fsync(fd):
            raise OSError("sync failed")

        monkeypatch.setattr(tensor_io.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="sync failed"):
            write_checkpoint(tmp_path / "o.st", [TensorRecord("w", np.ones(3))])
        assert list(tmp_path.iterdir()) == []

    def test_a_short_pwrite_is_continued(self, tmp_path, monkeypatch):
        real_pwrite = os.pwrite

        def short_pwrite(fd, data, offset):
            return real_pwrite(fd, bytes(data)[:3], offset)

        records = _records(np.random.default_rng(2), SHAPES)
        write_checkpoint(tmp_path / "ref.st", records)
        monkeypatch.setattr(tensor_io.os, "pwrite", short_pwrite)
        write_checkpoint(tmp_path / "out.st", records)
        assert (tmp_path / "out.st").read_bytes() == (tmp_path / "ref.st").read_bytes()

    def test_a_tensor_that_does_not_fit_its_layout_is_refused(self, tmp_path):
        with CheckpointWriter(tmp_path / "o.st", {"w": (2, 3)}) as out:
            message = "tensor 'w' encodes to 20 bytes, its layout holds 24"
            with pytest.raises(ValueError, match=message):
                out.put("w", np.ones(5))
            out.put("w", np.ones(6))
        assert read_records(tmp_path / "o.st")["w"].shape == (2, 3)

    def test_a_tensor_never_written_fails_the_commit(self, tmp_path):
        with pytest.raises(ValueError, match="tensor 'b' was laid out but never written"):
            with CheckpointWriter(tmp_path / "o.st", {"a": (1,), "b": (1,)}) as out:
                out.put("a", np.ones(1))
        assert list(tmp_path.iterdir()) == []

    def test_overflow_names_the_tensor_and_leaves_nothing(self, tmp_path):
        message = r"^tensor 'big': value 1e\+40 not representable as f16$"
        with pytest.raises(DTypeOverflowError, match=message):
            with CheckpointWriter(tmp_path / "o.st", {"big": (1,)}, "f16") as out:
                out.put("big", np.array([1e40]))
        assert list(tmp_path.iterdir()) == []

    def test_reserved_name(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            CheckpointWriter(tmp_path / "o.st", {"__metadata__": (1,)})
        with pytest.raises(ValueError, match="reserved"):
            write_checkpoint(tmp_path / "o.st", [TensorRecord("__metadata__", np.ones(1))])
        assert list(tmp_path.iterdir()) == []


def _sources(root: Path, names: list[str], n: int = 4, nan_in: str | None = None) -> None:
    rng = np.random.default_rng(5)
    for tag in "ab":
        records = []
        for name in names:
            data = rng.standard_normal(n).astype(np.float32)
            if tag == "b" and name == nan_in:
                data[0] = np.nan
            records.append(TensorRecord(name, data))
        write_checkpoint(root / f"{tag}.st", records)


def _recipe(root: Path, out: Path) -> Path:
    path = root / "r.yaml"
    path.write_text(
        f"method: lerp\nmodels: [{root / 'a.st'}, {root / 'b.st'}]\noutput: {{path: {out}}}\n"
    )
    return path


class TestRunMergeStreams:
    def test_a_failed_directory_sync_exits_2_naming_the_output(self, tmp_path, monkeypatch, capsys):
        _sources(tmp_path, ["w0", "w1"])
        real_fsync = os.fsync

        def failing_directory_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(errno.EIO, "Input/output error")
            return real_fsync(fd)

        monkeypatch.setattr(tensor_io.os, "fsync", failing_directory_fsync)
        out = tmp_path / "m.st"
        assert main(["merge", str(_recipe(tmp_path, out)), "--threads", "2"]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.EIO}] Input/output error (syncing its directory): '{out}'\n"
        )
        assert sorted(read_records(out)) == ["w0", "w1"]

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("stalled", [0, 1, 2], ids=["header", "tensor", "last"])
    def test_a_write_that_makes_no_progress_exits_2_and_keeps_the_old_output(
        self, tmp_path, monkeypatch, capsys, stalled, threads
    ):
        _sources(tmp_path, ["w0", "w1"])
        out = tmp_path / "m.st"
        recipe = _recipe(tmp_path, out)
        assert main(["merge", str(recipe)]) == 0
        kept = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_pwrite, calls = os.pwrite, []

        def stalling_pwrite(fd, data, offset):
            calls.append(offset)
            return 0 if len(calls) > stalled else real_pwrite(fd, data, offset)

        monkeypatch.setattr(tensor_io.os, "pwrite", stalling_pwrite)
        capsys.readouterr()
        assert main(["merge", str(recipe), "--threads", threads]) == 2
        assert capsys.readouterr().err == f"error: no bytes written to {out}\n"
        assert len(set(calls)) == len(calls) > stalled  # no stalled write is retried
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == kept

    def test_unwritable_output_exits_2_before_any_load(self, tmp_path, monkeypatch, capsys):
        _sources(tmp_path, ["w0", "w1"])
        loads = []
        real_load = tensor_io.CheckpointHandle.load_tensor
        monkeypatch.setattr(
            tensor_io.CheckpointHandle,
            "load_tensor",
            lambda self, *a, **k: loads.append(a) or real_load(self, *a, **k),
        )
        out = tmp_path / "missing" / "m.st"
        assert main(["merge", str(_recipe(tmp_path, out)), "--threads", "2"]) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert loads == []
        assert not out.parent.exists()

    def test_strict_failure_on_the_last_tensor_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        names = [f"w{i}" for i in range(6)]
        _sources(tmp_path, names, nan_in="w5")
        written = []
        real_put = CheckpointWriter.put

        def put(self, name, array):
            written.append(name)
            return real_put(self, name, array)

        monkeypatch.setattr(CheckpointWriter, "put", put)
        out = tmp_path / "m.st"
        assert main(["merge", str(_recipe(tmp_path, out)), "--threads", "1"]) == 3
        err = capsys.readouterr().err
        assert err == f"error: tensor 'w5' in {tmp_path / 'b.st'} contains NaN/Inf\n"
        assert written == names[:5]  # every earlier tensor reached the file
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.st", "b.st", "r.yaml"]

    def test_the_default_pool_follows_the_cpu_affinity(self, tmp_path, monkeypatch):
        names = [f"w{i:02d}" for i in range(8)]
        _sources(tmp_path, names)
        recipe = _recipe(tmp_path, tmp_path / "m.st")
        assert main(["merge", str(recipe), "--threads", "2"]) == 0
        want = (tmp_path / "m.st").read_bytes()
        workers: set[int] = set()
        real_lerp = merge_methods.merge_lerp

        def lerp(tensors, weights, **kw):
            workers.add(threading.get_ident())
            time.sleep(0.01)  # room for a second worker, were there one, to take a tensor
            return real_lerp(tensors, weights, **kw)

        monkeypatch.setattr(merge_methods, "merge_lerp", lerp)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert main(["merge", str(recipe)]) == 0
        assert len(workers) == 1
        assert (tmp_path / "m.st").read_bytes() == want

    @pytest.mark.parametrize("threads", [2, 3])
    def test_at_most_two_tensors_per_worker_in_flight(self, tmp_path, monkeypatch, threads):
        names = [f"w{i:02d}" for i in range(16)]
        _sources(tmp_path, names)
        lock = threading.Lock()
        started: list[None] = []
        window_started = threading.Event()
        real_lerp = merge_methods.merge_lerp

        def lerp(tensors, weights, **kw):
            with lock:
                started.append(None)
                if len(started) >= 2 * threads:
                    window_started.set()
            return real_lerp(tensors, weights, **kw)

        first_done: list[int] = []
        real_stats = merge_methods.TensorStats

        def stats(**kwargs):
            if kwargs["name"] == names[0]:
                # The first tensor in name order holds up the collection of
                # results, so the window decides how many others may start.
                window_started.wait(timeout=2.0)
                time.sleep(0.05)  # room for any tensor beyond the window
                with lock:
                    first_done.append(len(started))
            return real_stats(**kwargs)

        monkeypatch.setattr(merge_methods, "merge_lerp", lerp)
        monkeypatch.setattr(merge_methods, "TensorStats", stats)
        recipe = _recipe(tmp_path, tmp_path / "m.st")
        assert main(["merge", str(recipe), "--threads", str(threads)]) == 0
        assert first_done == [2 * threads]
        assert len(started) == len(names)


# A process's ru_maxrss starts from the peak of the process that spawned it
# (exec carries the old image's peak over), and this test process is large.
# So a small child runs the merge as its own child and reports that one's
# ru_maxrss, which starts from the small child's peak only.
_RSS_CHILD = """
import resource, subprocess, sys
merge = [sys.executable, "-m", "geomerge.cli", "merge", sys.argv[1], "--threads", "2"]
subprocess.run(merge, check=True, capture_output=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _peak_rss_kib(root: Path, count: int) -> int:
    """Peak RSS of a child merging ``count`` tensors of 256k f32 elements."""
    rng = np.random.default_rng(count)
    names = [f"t{i:03d}" for i in range(count)]
    for tag in "ab":
        records = [TensorRecord(n, rng.standard_normal(1 << 18).astype(np.float32)) for n in names]
        write_checkpoint(root / f"{tag}.st", records)
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, str(_recipe(root, root / "m.st"))],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


def test_peak_rss_does_not_grow_with_tensor_count(tmp_path):
    # holding every merged tensor until the end would add 2 MiB of f64 per
    # tensor: 32 MiB more for the doubled count
    (tmp_path / "16").mkdir()
    (tmp_path / "32").mkdir()
    small = _peak_rss_kib(tmp_path / "16", 16)
    large = _peak_rss_kib(tmp_path / "32", 32)
    assert large < 1.1 * small, (small, large)
