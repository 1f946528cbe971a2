"""The CLI starts numpy on one OpenBLAS thread, unless told otherwise.

numpy's bundled OpenBLAS starts its thread pool as numpy loads, and no
command runs BLAS on more than one thread, so ``geomerge.cli`` sets
``OPENBLAS_NUM_THREADS=1`` before numpy is imported.  A setting already in
the environment wins, and where numpy is already loaded the environment is
left alone.  ``diagnose -v`` logs the count it found.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geomerge import diagnostics
from geomerge.tensor_io import TensorRecord, write_checkpoint

SRC = Path(__file__).resolve().parent.parent / "src"
_MAIN = "import sys\nfrom geomerge.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def _child(code: str, args: list[str], blas_threads: str | None) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for key in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(key, None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("blas_threads,found", [(None, 1), ("2", 2)], ids=["unset", "set"])
def test_diagnose_finds_one_thread_unless_the_environment_sets_one(
    tmp_path, blas_threads, found
):
    if isinstance(diagnostics._blas_thread_calls(), str):
        pytest.skip("no BLAS thread-count calls to observe the count with")
    if found > (os.cpu_count() or 1):
        pytest.skip(f"OpenBLAS caps its thread count at the {os.cpu_count()} CPUs here")
    acts = tmp_path / "acts.st"
    layer = np.random.default_rng(3).standard_normal((9, 4))
    write_checkpoint(acts, [TensorRecord("layer_0", layer)])
    args = ["-v", "diagnose", str(acts), "--draws", "2", "--out", str(tmp_path / "r.json")]
    err = _child(_MAIN, args, blas_threads).stderr
    assert f"geomerge.diagnostics: BLAS threads set from {found} to 1 for the diagnostics\n" in err


@pytest.mark.parametrize(
    "first,blas_threads,seen",
    [("", None, "1"), ("", "3", "3"), ("numpy, ", None, "None"), ("numpy, ", "3", "3")],
    ids=["unset", "set", "numpy-first-unset", "numpy-first-set"],
)
def test_the_setting_is_made_only_where_numpy_is_not_loaded(first, blas_threads, seen):
    code = f"import os, {first}geomerge.cli\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    assert _child(code, [], blas_threads).stdout == f"{seen}\n"
