"""``diagnose`` refuses counts that no address space holds with one line.

A toy-forward ``samples`` or a ``--draws`` of 10**17 asks numpy for exabytes,
which it refuses outright without allocating: ``main`` prints that refusal
as one ``error:`` line and exits 1, with no traceback and no report.  A
count of 10**19 is beyond numpy's largest dimension and still exits 3.
"""

from __future__ import annotations

import numpy as np
import pytest

from geomerge.cli import main
from geomerge.tensor_io import TensorRecord, write_checkpoint


def _diagnose(capsys, *args: str) -> tuple[int, list[str]]:
    code = main(["diagnose", *args])
    return code, capsys.readouterr().err.splitlines()


def test_toy_forward_samples_beyond_memory_exit_1_with_one_line(tmp_path, capsys):
    net = tmp_path / "net.st"
    write_checkpoint(net, [TensorRecord("a", np.ones((2, 2)), "f64")], "f64")
    spec = tmp_path / "s.yaml"
    spec.write_text(f"samples: {10**17}\nlayers: [a]\n")
    report = tmp_path / "r.json"
    code, err = _diagnose(capsys, str(net), "--toy-forward", str(spec), "--out", str(report))
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate"), err
    assert not report.exists()


@pytest.mark.parametrize(
    "draws,code,line",
    [(10**17, 1, "error: Unable to allocate"), (10**19, 3, "error: Maximum allowed dimension")],
)
def test_draws_beyond_memory_exit_with_one_line(tmp_path, capsys, draws, code, line):
    acts = tmp_path / "acts.st"
    samples = np.random.default_rng(7).standard_normal((8, 5))
    write_checkpoint(acts, [TensorRecord("layer_0", samples, "f64")], "f64")
    report = tmp_path / "r.json"
    got, err = _diagnose(capsys, str(acts), "--draws", str(draws), "--out", str(report))
    assert got == code
    assert len(err) == 1 and err[0].startswith(line), err
    assert not report.exists()
