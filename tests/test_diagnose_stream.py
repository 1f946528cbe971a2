"""``diagnose`` holds one layer at a time.

The input's header is checked first.  Then each layer's tensors are read
when the forward (or the container's ``k`` order) reaches them, bootstrapped
and let go.  These tests pin the report bytes against ``oracles.diagnose_eager``,
which reads the whole input first.  They bound the memory that streaming
saves, and they pin what changed with it: only the tensors a spec names are
read, header problems come before payload problems, and a payload error in
layer k surfaces after the layers below k have been bootstrapped.  They also
pin that a load into a given array reads its payload straight into that
array's bytes.
"""

from __future__ import annotations

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from geomerge import diagnostics, dtypes, tensor_io
from geomerge.cli import main
from geomerge.tensor_io import open_checkpoint
from oracles import build_container, diagnose_eager

CODES = ("f64", "f32", "f16", "bf16")


def _container(path, tensors: dict[str, tuple[str, np.ndarray]]) -> None:
    """Write ``{name: (dtype code, values)}``, each tensor at its own dtype."""
    entries = {
        name: (dtypes.container_tag(code), list(values.shape), dtypes.encode_array(values, code))
        for name, (code, values) in sorted(tensors.items())
    }
    path.write_bytes(build_container(entries))


def _report_bytes(report) -> tuple[bytes, bytes]:
    """The JSON and CSV bytes ``diagnose`` writes for ``report``."""
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    rows = io.StringIO(newline="")
    writer = csv.writer(rows)
    writer.writerow(["layer", "metric", "mean", "std"])
    writer.writerows(report.csv_rows())
    return text.encode("utf-8"), rows.getvalue().encode("utf-8")


def _diagnose(tmp_path, args: list[str]) -> tuple[int, bytes, bytes]:
    out, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
    code = main(["diagnose", *map(str, args), "--out", str(out), "--csv", str(csv_path)])
    if code:
        return code, b"", b""
    return code, out.read_bytes(), csv_path.read_bytes()


# -- report bytes against the eager path ----------------------------------------

WIDTHS = (6, 11, 4, 9, 7)  # n = 8 samples: both Gram routes are taken


def _toy(tmp_path, layers: int, bias: bool, nonlinearity: str) -> tuple:
    """Weights cycling through every payload dtype, and a spec naming them
    (biases shaped 1 x d_out, which the forward flattens)."""
    rng = np.random.default_rng(layers * 10 + bias)
    tensors, entries = {}, []
    for k in range(1, layers + 1):
        d_in, d_out = WIDTHS[k - 1], WIDTHS[k]
        tensors[f"fc{k}.weight"] = (CODES[k % 4], rng.standard_normal((d_in, d_out)) / d_in**0.5)
        entry = {"weight": f"fc{k}.weight"}
        if bias:
            tensors[f"fc{k}.bias"] = (CODES[(k + 1) % 4], rng.standard_normal((1, d_out)))
            entry["bias"] = f"fc{k}.bias"
        entries.append(entry)
    weights, spec = tmp_path / "w.st", tmp_path / "toy.yaml"
    _container(weights, tensors)
    spec.write_text(
        json.dumps({"nonlinearity": nonlinearity, "samples": 8, "seed": 4, "layers": entries})
    )
    return weights, spec


@pytest.mark.parametrize("layers", [1, 2, 3, 4])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("nonlinearity", ["identity", "relu", "tanh"])
def test_toy_forward_report_matches_the_eager_path(tmp_path, nonlinearity, bias, layers):
    weights, spec = _toy(tmp_path, layers, bias, nonlinearity)
    for draws in (1, 2, 20):
        want = _report_bytes(diagnose_eager(weights, spec, draws=draws, seed=3))
        got = _diagnose(tmp_path, [weights, "--toy-forward", spec, "--draws", draws, "--seed", 3])
        assert got == (0, *want), draws


@pytest.mark.parametrize("code", ["f32", "f64", "bf16"])
def test_activation_report_matches_the_eager_path(tmp_path, code):
    rng = np.random.default_rng(5)
    # name order (layer_10 < layer_2) is not k order
    tensors = {
        f"layer_{k}": (code, rng.standard_normal((9, d)) * (k + 1))
        for k, d in zip((0, 1, 2, 10), (4, 12, 1, 7))
    }
    _container(tmp_path / "acts.st", tensors)
    for draws in (1, 2, 20):
        want = _report_bytes(diagnose_eager(tmp_path / "acts.st", draws=draws, seed=8))
        got = _diagnose(tmp_path, [tmp_path / "acts.st", "--draws", draws, "--seed", 8])
        assert got == (0, *want), draws


# -- memory: one layer at a time ---------------------------------------------------


def _peak(run) -> int:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_toy_forward_holds_one_weight_at_a_time(tmp_path):
    d, n, layers = 512, 32, 6
    rng = np.random.default_rng(11)
    names = [f"fc{k}.weight" for k in range(1, layers + 1)]
    _container(
        tmp_path / "w.st", {name: ("f32", rng.standard_normal((d, d)) / d**0.5) for name in names}
    )
    spec = tmp_path / "toy.yaml"
    spec.write_text(json.dumps({"nonlinearity": "tanh", "samples": n, "layers": names}))
    weight, activations = d * d * 8, (layers + 1) * n * d * 8
    args = ["diagnose", str(tmp_path / "w.st"), "--toy-forward", str(spec), "--draws", "2"]
    streamed = _peak(lambda: main([*args, "--out", str(tmp_path / "r.json")]))
    eager = _peak(lambda: diagnose_eager(tmp_path / "w.st", spec, draws=2))
    assert streamed < 2 * weight + activations, streamed / weight
    assert eager > layers * weight, eager / weight


def test_activation_container_holds_one_layer_at_a_time(tmp_path):
    n, d = 64, 256
    layer = n * d * 8
    rng = np.random.default_rng(12)
    peaks = {}
    for count in (1, 8):
        path = tmp_path / f"acts{count}.st"
        _container(path, {f"layer_{k}": ("f64", rng.standard_normal((n, d))) for k in range(count)})
        args = ["diagnose", str(path), "--draws", "2", "--out", str(tmp_path / "r.json")]
        peaks[count] = _peak(lambda: main(args))
    eager = _peak(lambda: diagnose_eager(tmp_path / "acts8.st", draws=2))
    # eight layers cost what one does, give or take part of a layer
    assert peaks[8] < peaks[1] + layer // 2, (peaks[8] - peaks[1]) / layer
    assert eager > peaks[1] + 6 * layer, (eager - peaks[1]) / layer


# -- what streaming changed -------------------------------------------------------


def test_a_tensor_the_spec_does_not_name_is_not_read(tmp_path, capsys):
    w = np.random.default_rng(13).standard_normal((3, 3))
    _container(tmp_path / "w.st", {"w": ("f32", w), "unused": ("f32", np.array([1.0, np.nan]))})
    spec = tmp_path / "toy.yaml"
    spec.write_text("samples: 4\nlayers: [w]\n")
    code, report, _ = _diagnose(tmp_path, [tmp_path / "w.st", "--toy-forward", spec])
    assert code == 0, capsys.readouterr().err  # the eager path exited 3 on 'unused'
    assert [layer["layer"] for layer in json.loads(report)["layers"]] == ["layer_0", "layer_1"]


def test_a_header_problem_comes_before_a_payload_problem(tmp_path, capsys):
    _container(
        tmp_path / "acts.st",
        {"layer_0": ("f32", np.full((4, 2), np.nan)), "weird": ("f32", np.ones((4, 2)))},
    )
    code, _, _ = _diagnose(tmp_path, [tmp_path / "acts.st"])
    assert code == 1  # the eager path exited 3 on layer_0's NaN
    assert "activation tensors must be named layer_<k>, found 'weird'" in capsys.readouterr().err


def test_a_spec_shape_problem_comes_before_a_payload_problem(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(14)
    _container(
        tmp_path / "w.st",
        {"a": ("f32", np.full((3, 4), np.nan)), "b": ("f32", rng.standard_normal((5, 2)))},
    )
    spec = tmp_path / "toy.yaml"
    spec.write_text("samples: 4\nlayers: [a, b]\n")
    reads = []
    real = tensor_io._pread

    def spy(*args):
        reads.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(tensor_io, "_pread", spy)
    code, _, _ = _diagnose(tmp_path, [tmp_path / "w.st", "--toy-forward", spec])
    assert code == 3 and reads == []
    assert capsys.readouterr().err == (
        "error: shape mismatch at layer 2: activations are n x 4, weight is 5x2\n"
    )


def _counting_bootstraps(monkeypatch) -> list[str]:
    labels: list[str] = []
    real = diagnostics.bootstrap_stats

    def spy(layer, draws, seed, threads=None):
        labels.append(layer.label)
        return real(layer, draws, seed, threads)

    monkeypatch.setattr(diagnostics, "bootstrap_stats", spy)
    return labels


def test_a_payload_error_in_a_layer_follows_the_layers_below(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(15)
    tensors = {f"layer_{k}": ("f32", rng.standard_normal((6, 3))) for k in range(4)}
    tensors["layer_2"] = ("f32", np.full((6, 3), np.inf))
    _container(tmp_path / "acts.st", tensors)
    labels = _counting_bootstraps(monkeypatch)
    code, _, _ = _diagnose(tmp_path, [tmp_path / "acts.st"])
    assert code == 3 and labels == ["layer_0", "layer_1"]
    assert capsys.readouterr().err == (
        f"error: tensor 'layer_2' in {tmp_path / 'acts.st'} contains NaN/Inf\n"
    )
    assert not (tmp_path / "report.json").exists()


def test_a_payload_error_in_a_weight_follows_the_layers_below(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(16)
    names = ["fc1", "fc2", "fc3"]
    tensors = {name: ("f32", rng.standard_normal((3, 3))) for name in names}
    tensors["fc3"] = ("f32", np.full((3, 3), np.nan))
    _container(tmp_path / "w.st", tensors)
    spec = tmp_path / "toy.yaml"
    spec.write_text(json.dumps({"samples": 5, "layers": names}))
    labels = _counting_bootstraps(monkeypatch)
    code, _, _ = _diagnose(tmp_path, [tmp_path / "w.st", "--toy-forward", spec])
    # layer k - 1 is bootstrapped once layer k is made
    assert code == 3 and labels == ["layer_0", "layer_1"]
    assert capsys.readouterr().err == (
        f"error: tensor 'fc3' in {tmp_path / 'w.st'} contains NaN/Inf\n"
    )
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "second,message",
    [
        (np.full((2, 2), 1e200), "layer 'layer_2': activations contain NaN/Inf"),
        (np.ones((2, 0)), "layer 'layer_2': need at least 1 feature"),
    ],
    ids=["overflow", "no-features"],
)
@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
def test_a_failing_layer_is_named_by_its_place_in_the_stack(tmp_path, capsys, second, message):
    _container(tmp_path / "w.st", {"a": ("f64", np.full((2, 2), 1e200)), "b": ("f64", second)})
    spec = tmp_path / "toy.yaml"
    spec.write_text("samples: 3\nlayers: [a, b]\n")
    code, _, _ = _diagnose(tmp_path, [tmp_path / "w.st", "--toy-forward", spec])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


# -- load_tensor(out=) reads into out's own bytes ---------------------------------


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("code", CODES)
def test_a_load_into_out_reads_its_payload_into_out(tmp_path, monkeypatch, code, precision):
    count = (1 << 16) + 3  # past any block size of the in-place widening
    values = np.random.default_rng(17).standard_normal(count) * 100.0
    _container(tmp_path / "c.st", {"t": (code, values)})
    calls = []
    real = tensor_io._pread

    def spy(fd, size, offset, *into):
        calls.append(into)
        return real(fd, size, offset, *into)

    out = np.full(count, np.nan)
    with open_checkpoint(tmp_path / "c.st") as h:
        want = h.load_tensor("t", precision).data.astype(np.float64)
        monkeypatch.setattr(tensor_io, "_pread", spy)
        got = h.load_tensor("t", precision, out=out)
    assert len(calls) == 1 and len(calls[0]) == 1
    assert np.shares_memory(calls[0][0], out)
    assert got.data.base is out or np.shares_memory(got.data, out)
    assert got.data.tobytes() == want.tobytes()
