"""``diagnose`` runs on one BLAS thread, and puts the old count back.

The eigensolve's bits depend on the BLAS thread count, so the whole
``diagnose`` loop (payload reads, the toy forward, every bootstrap draw)
runs with BLAS held to one thread.  These tests pin the scope of that pin
(set for ``diagnose`` alone, restored when it succeeds or fails, never
touched by ``merge``), the fallback where the thread-count calls are not
found, and the bytes: reports and CSVs are the same under any
``OPENBLAS_NUM_THREADS``, and equal a one-thread reference that takes no pin.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geomerge import cli, diagnostics
from geomerge.cli import main
from geomerge.rng import keyed_stream
from geomerge.tensor_io import TensorRecord, write_checkpoint
from oracles import (
    bootstrap_stats_from_gram,
    bootstrap_stats_per_metric,
    read_records,
    toy_forward_stack,
)

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
DRAWS, SEED = 3, 2


def _thread_calls():
    calls = diagnostics._blas_thread_calls()
    if isinstance(calls, str):
        pytest.skip(f"no BLAS thread-count calls: {calls}")
    return calls


@pytest.fixture
def blas_count():
    """The BLAS thread count, set to 2 (where the library has 2 threads) for
    the test so that a pin left behind shows, and put back afterwards."""
    get, put = _thread_calls()
    before = get()
    put(2)
    try:
        yield get
    finally:
        put(before)


@pytest.fixture
def spy_put(monkeypatch):
    """Every count the diagnostics set, recorded on the way to the real setter."""
    get, put = _thread_calls()
    seen: list[int] = []

    def recording_put(count: int) -> None:
        seen.append(count)
        put(count)

    monkeypatch.setattr(diagnostics, "_blas_thread_calls", lambda: (get, recording_put))
    return seen


def _toy_inputs(root: Path, width: int, samples: int) -> list[str]:
    """Two tanh layers of ``width`` x ``width`` weights and a spec, as the
    ``diagnose`` arguments that read them."""
    rng = np.random.default_rng(11)
    gain = 1.5 / math.sqrt(width)
    write_checkpoint(
        root / "toy.st",
        [
            TensorRecord(f"fc{k}.weight", (rng.standard_normal((width, width)) * gain))
            for k in (1, 2)
        ],
    )
    spec = root / "toy.yaml"
    spec.write_text(
        f"nonlinearity: tanh\nsamples: {samples}\nseed: 3\nlayers: [fc1.weight, fc2.weight]\n"
    )
    return [str(root / "toy.st"), "--toy-forward", str(spec)]


def _activations(root: Path, shapes, nan_layer: int | None = None) -> str:
    rng = np.random.default_rng(12)
    records = []
    for k, shape in enumerate(shapes):
        values = np.tanh(rng.standard_normal(shape))
        if k == nan_layer:
            values[0, 0] = np.nan
        records.append(TensorRecord(f"layer_{k}", values))
    write_checkpoint(root / "acts.st", records)
    return str(root / "acts.st")


def _diagnose(root: Path, args: list[str], tag: str, *flags: str) -> int:
    return main(
        [*flags, "diagnose", *args, "--draws", str(DRAWS), "--seed", str(SEED),
         "--out", str(root / f"{tag}.json"), "--csv", str(root / f"{tag}.csv")]
    )


# -- scope of the pin -------------------------------------------------------------


def test_diagnose_runs_every_blas_call_on_one_thread_and_restores(
    tmp_path, monkeypatch, blas_count, spy_put, caplog
):
    before = blas_count()
    seen_during: list[int] = []

    def spying(real):
        def wrapper(*args, **kwargs):
            seen_during.append(blas_count())
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "_load_f64", spying(cli._load_f64))
    monkeypatch.setattr(cli, "toy_forward_collect", spying(cli.toy_forward_collect))
    monkeypatch.setattr(
        diagnostics, "covariance_spectrum", spying(diagnostics.covariance_spectrum)
    )
    with caplog.at_level(logging.DEBUG, logger="geomerge.diagnostics"):
        assert _diagnose(tmp_path, _toy_inputs(tmp_path, 24, 16), "toy", "-v") == 0
    # two weight loads, two forward steps, three layers of three draws
    assert seen_during == [1] * 13
    assert blas_count() == before
    assert spy_put == [1, before]
    lines = [r.getMessage() for r in caplog.records if r.name == "geomerge.diagnostics"]
    assert lines == [f"BLAS threads set from {before} to 1 for the diagnostics"]


def test_a_failed_diagnose_restores_the_count(tmp_path, blas_count, spy_put, capsys):
    before = blas_count()
    acts = _activations(tmp_path, [(12, 5), (12, 5)], nan_layer=1)
    assert _diagnose(tmp_path, [acts], "nan") == 3
    # layer_0 is bootstrapped first, so the failure comes from inside the pin
    assert "tensor 'layer_1' in" in capsys.readouterr().err
    assert blas_count() == before
    assert spy_put == [1, before]


def test_merge_never_sets_the_count(tmp_path, blas_count, spy_put):
    before = blas_count()
    rng = np.random.default_rng(13)
    for tag in "ab":
        write_checkpoint(tmp_path / f"{tag}.st", [TensorRecord("w", rng.standard_normal(300))])
    recipe = tmp_path / "r.yaml"
    recipe.write_text(
        f"method: karcher\nmodels: [{tmp_path / 'a.st'}, {tmp_path / 'b.st'}]\n"
        f"output: {{path: {tmp_path / 'm.st'}}}\n"
    )
    assert main(["merge", str(recipe), "--threads", "2"]) == 0
    assert spy_put == []
    assert blas_count() == before


@pytest.fixture
def no_blas_library(monkeypatch):
    """The library lookup finds nothing; the cached lookup is cleared around it."""
    diagnostics._blas_thread_calls.cache_clear()
    monkeypatch.setattr(diagnostics, "_bundled_openblas", lambda: None)
    yield
    diagnostics._blas_thread_calls.cache_clear()


def test_without_the_thread_calls_the_report_is_unchanged(tmp_path, no_blas_library, caplog):
    # small enough that no BLAS call starts a thread, so the oracle's bits
    # are the report's whatever the thread count
    acts = _activations(tmp_path, [(12, 5), (9, 7)])
    with caplog.at_level(logging.DEBUG, logger="geomerge.diagnostics"):
        assert _diagnose(tmp_path, [acts], "got", "-v") == 0
    write_reference(str(tmp_path / "want"), acts)
    for suffix in ("json", "csv"):
        want = (tmp_path / f"want.{suffix}").read_bytes()
        assert (tmp_path / f"got.{suffix}").read_bytes() == want
    records = [r for r in caplog.records if r.name == "geomerge.diagnostics"]
    assert [(r.levelno, r.getMessage()) for r in records] == [
        (logging.DEBUG, "BLAS thread count left alone: numpy's wheel ships no scipy-openblas")
    ]


# -- bytes across BLAS thread settings ----------------------------------------------

# a 256 x 256 eigensolve is past the size where OpenBLAS threads its
# reduction, so without the pin the default and 2-thread bytes differ
WIDTH = SAMPLES = 256


def _child(code: str, args: list[str], blas_threads: str | None) -> None:
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")])
        ),
    }
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(key, None)
        if blas_threads is not None:
            env[key] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


_DIAGNOSE = (
    "import sys\n"
    "from geomerge.cli import main\n"
    "out, inputs = sys.argv[1], sys.argv[2:]\n"
    f"sys.exit(main(['diagnose', *inputs, '--draws', '{DRAWS}', '--seed', '{SEED}',\n"
    "                '--out', out + '.json', '--csv', out + '.csv']))\n"
)

_REFERENCE = (
    "import sys\n"
    "from test_blas_pin import write_reference\n"
    "write_reference(*sys.argv[1:])\n"
)


def write_reference(out: str, path: str, spec: str | None = None) -> None:
    """The report and CSV of ``diagnose`` on an input of :func:`_activations`,
    or of :func:`_toy_inputs` at ``WIDTH`` and ``SAMPLES`` when ``spec`` is
    given, built from the per-metric oracle (n >= d) and the Gram oracle
    (n < d), which take no BLAS pin: under ``OPENBLAS_NUM_THREADS=1`` these
    are the one-thread bits."""
    ckpt = read_records(path, precision="f64")
    if spec is None:
        layers = [(name, ckpt[name].data) for name in ckpt]
    else:
        weights = [ckpt[f"fc{k}.weight"].data for k in (1, 2)]
        inputs = keyed_stream(3, "toy-forward-input", 0).standard_normal((SAMPLES, WIDTH))
        made = toy_forward_stack(weights, inputs, nonlinearity="tanh")
        layers = [(layer.label, layer.samples) for layer in made]
    report = {"draws": DRAWS, "seed": SEED, "layers": []}
    rows = io.StringIO(newline="")
    writer = csv.writer(rows)
    writer.writerow(["layer", "metric", "mean", "std"])
    for label, samples in layers:
        wide = samples.shape[0] < samples.shape[1]
        oracle = bootstrap_stats_from_gram if wide else bootstrap_stats_per_metric
        metrics = oracle(samples, label, DRAWS, SEED)
        report["layers"].append(
            {"layer": label, "samples": samples.shape[0], "features": samples.shape[1],
             "metrics": metrics}
        )
        writer.writerows(
            (label, metric, entry["mean"], entry["std"]) for metric, entry in metrics.items()
        )
    Path(out + ".json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    Path(out + ".csv").write_bytes(rows.getvalue().encode("utf-8"))


def test_report_bytes_do_not_follow_the_blas_thread_count(tmp_path):
    cases = {
        "toy": _toy_inputs(tmp_path, WIDTH, SAMPLES),
        "acts": [
            _activations(tmp_path, [(SAMPLES, WIDTH), (SAMPLES, 100), (SAMPLES, 2 * WIDTH)])
        ],
    }
    for case, args in cases.items():
        reference = str(tmp_path / f"{case}-reference")
        _child(_REFERENCE, [reference, args[0], *args[2:]], "1")
        want = [Path(f"{reference}.{suffix}").read_bytes() for suffix in ("json", "csv")]
        for threads in ("1", "2", None):
            out = str(tmp_path / f"{case}-{threads}")
            _child(_DIAGNOSE, [out, *args], threads)
            got = [Path(f"{out}.{suffix}").read_bytes() for suffix in ("json", "csv")]
            assert got == want, f"{case}: OPENBLAS_NUM_THREADS={threads}"
