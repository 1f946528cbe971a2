"""``diagnose`` far from unit scale.

The rank measures do not depend on the scale of the activations: an 8 x 5
matrix times 1e-90 or 1e100 reports the ranks of the matrix itself, and its
mean variance (mean and std) scaled by the square of the factor.  A
covariance beyond float64's range, or one whose Gram products would all fall
below its normal range, exits 3 with one ``error:`` line naming the layer,
and so does a toy forward whose product overflows; none prints a numpy
warning.  The runs are in a child interpreter, where a warning would
reach stderr instead of failing the test.  The same paths also run
in-process, where tier-1 turns any RuntimeWarning into a failure.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geomerge.diagnostics import ActivationMatrix, bootstrap_stats, participation_ratio
from geomerge.errors import DTypeOverflowError, NonFiniteError
from geomerge.tensor_io import TensorRecord, write_checkpoint
from oracles import toy_forward_stack

SRC = Path(__file__).resolve().parent.parent / "src"

RANKS = ("eff_rank", "stable_rank", "participation_ratio", "num_rank")


def _cli(*args: str) -> subprocess.CompletedProcess:
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    }
    return subprocess.run(
        [sys.executable, "-m", "geomerge.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _strict_json(text: str) -> dict:
    def reject(constant: str):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _diagnose(root: Path, scale: float) -> subprocess.CompletedProcess:
    x = np.random.default_rng(7).standard_normal((8, 5)) * scale
    path = root / f"acts_{scale:g}.st"
    write_checkpoint(path, [TensorRecord("layer_0", x, "f64")], output_dtype="f64")
    return _cli("diagnose", str(path), "--out", str(root / f"r_{scale:g}.json"), "--draws", "3")


def _metrics(root: Path, scale: float) -> dict:
    proc = _diagnose(root, scale)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    report = _strict_json((root / f"r_{scale:g}.json").read_text())
    return report["layers"][0]["metrics"]


@pytest.mark.parametrize("scale", [1e-90, 1e100])
def test_ranks_do_not_depend_on_scale(tmp_path, scale):
    unit, scaled = _metrics(tmp_path, 1.0), _metrics(tmp_path, scale)
    for metric in RANKS:
        for key in ("mean", "std"):
            assert scaled[metric][key] == pytest.approx(unit[metric][key], rel=1e-9, abs=1e-12)
    assert unit["participation_ratio"]["mean"] > 1.0
    for key in ("mean", "std"):
        want = unit["mean_variance"][key] * scale**2
        assert scaled["mean_variance"][key] == pytest.approx(want, rel=1e-9)


def test_covariance_beyond_float64_is_refused_by_layer(tmp_path):
    proc = _diagnose(tmp_path, 1e160)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["error: layer 'layer_0': covariance beyond float64 range"]
    assert not (tmp_path / "r_1e+160.json").exists()


def test_covariance_below_float64_is_refused_by_layer(tmp_path):
    proc = _diagnose(tmp_path, 1e-170)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "error: layer 'layer_0': covariance below float64's normal range"
    ]
    assert not (tmp_path / "r_1e-170.json").exists()


def test_toy_forward_overflow_prints_one_line(tmp_path):
    w = np.full((2, 2), 1e200)
    net = tmp_path / "net.st"
    write_checkpoint(net, [TensorRecord("a", w, "f64"), TensorRecord("b", w, "f64")], "f64")
    spec = tmp_path / "s.yaml"
    spec.write_text("samples: 3\nlayers: [a, b]\n")
    proc = _cli("diagnose", str(net), "--out", str(tmp_path / "r.json"), "--toy-forward", str(spec))
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["error: layer 'layer_2': activations contain NaN/Inf"]


# -- in-process ---------------------------------------------------------------------------


def _acts(scale: float, label: str = "layer_0") -> ActivationMatrix:
    return ActivationMatrix(label, np.random.default_rng(7).standard_normal((8, 5)) * scale)


@pytest.mark.parametrize("scale", [1e-90, 1e100])
def test_bootstrap_ranks_do_not_depend_on_scale(scale):
    unit = bootstrap_stats(_acts(1.0), 3, 0).metrics
    scaled = bootstrap_stats(_acts(scale), 3, 0).metrics
    for metric in RANKS:
        for key in ("mean", "std"):
            assert scaled[metric][key] == pytest.approx(unit[metric][key], rel=1e-9, abs=1e-12)
    for key in ("mean", "std"):
        want = unit["mean_variance"][key] * scale**2
        assert scaled["mean_variance"][key] == pytest.approx(want, rel=1e-9)


def test_bootstrap_refuses_a_covariance_beyond_float64():
    with pytest.raises(NonFiniteError, match=r"^layer 'layer_3': covariance beyond float64 range$"):
        bootstrap_stats(_acts(1e160, "layer_3"), 2, 0)


def test_bootstrap_refuses_an_eigenvalue_beyond_float64():
    # the Gram (1.28e308 in each entry) is finite, its top eigenvalue is not
    a = 8e153
    acts = ActivationMatrix("layer_5", np.array([[a, a], [-a, -a]]))
    with pytest.raises(NonFiniteError, match=r"^layer 'layer_5': covariance beyond float64 range$"):
        bootstrap_stats(acts, 3, 0)


def test_bootstrap_refuses_a_covariance_below_float64():
    with pytest.raises(
        DTypeOverflowError, match=r"^layer 'layer_4': covariance below float64's normal range$"
    ):
        bootstrap_stats(_acts(1e-170, "layer_4"), 2, 0)


def test_toy_forward_overflow_is_refused_without_a_warning():
    w = np.full((2, 2), 1e200)
    inputs = np.random.default_rng(0).standard_normal((3, 2))
    with pytest.raises(NonFiniteError, match=r"^layer 'layer_2': activations contain NaN/Inf$"):
        toy_forward_stack([w, w], inputs)


# -- participation_ratio ---------------------------------------------------------------


def test_participation_ratio_keeps_its_bits_at_unit_scale():
    rng = np.random.default_rng(3)
    for _ in range(200):
        lam = np.sort(rng.exponential(size=int(rng.integers(1, 300))))[::-1]
        lam[rng.random(lam.size) < 0.2] = 0.0
        if lam.max() == 0.0:
            continue
        want = float(lam.sum()) ** 2 / float(np.sum(lam**2))
        assert participation_ratio(lam) == want


@pytest.mark.parametrize("exponent", [-300, -200, -160, -154, 100, 154, 200, 300])
def test_participation_ratio_is_scale_free(exponent):
    lam = np.array([4.1, 2.3, 1.7, 0.35, 0.0])
    want = participation_ratio(lam)
    # a power of two scales every eigenvalue exactly
    scale = 2.0 ** round(exponent * math.log2(10))
    assert participation_ratio(lam * scale) == pytest.approx(want, rel=1e-12)


def test_participation_ratio_is_zero_only_on_an_all_zero_spectrum():
    assert participation_ratio(np.zeros(4)) == 0.0
    assert participation_ratio(np.array([5e-324, 0.0])) == 1.0
    assert participation_ratio(np.array([1e308, 1e308, 1e308])) == pytest.approx(3.0)
