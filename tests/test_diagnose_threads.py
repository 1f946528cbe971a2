"""``diagnose`` runs a layer's bootstrap draws on several threads, with the
bits of one.

``bootstrap_stats`` shares a layer's draws out between the calling thread
and ``--threads`` - 1 workers; draw k fills column k of the table, so the
report and CSV bytes do not depend on the thread count, nor on the BLAS
thread setting.  Where draws fail, the refusal is the one the serial loop
gives.  Each draw gathers its resample into its thread's buffer, finds the
resample's equal rows from the layer's row keys and its index, and takes
its variance with the mean the spectrum takes; each step keeps the bits of
``spectral_stats`` on the gathered resample.  The eigensolve is LAPACK's
dsyevd called through ctypes, with the bits of ``np.linalg.eigvalsh``,
which it falls back to where the routine is not found or fails.
"""

from __future__ import annotations

import ctypes
import json
import sys
import threading
import time
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomerge import diagnostics, tensor_io
from geomerge.cli import main
from geomerge.diagnostics import (
    ActivationMatrix,
    _distinct_rows,
    _draw_stats,
    _eigvalsh,
    _key_vector,
    _row_keys,
    diagnostics_report,
    spectral_stats,
)
from geomerge.errors import DTypeOverflowError, NonFiniteError
from geomerge.rng import keyed_stream
from oracles import read_records
from test_blas_pin import (
    DRAWS,
    SAMPLES,
    SEED,
    WIDTH,
    _REFERENCE,
    _activations,
    _child,
    _toy_inputs,
)


def _index(label: str, k: int, n: int, seed: int = SEED) -> np.ndarray:
    return keyed_stream(seed, f"bootstrap:{label}", k).integers(0, n, size=n)


def _diagnose(root: Path, args: list[str], tag: str, *extra: str) -> tuple[int, bytes, bytes]:
    out, csv_path = root / f"{tag}.json", root / f"{tag}.csv"
    code = main(["diagnose", *args, "--seed", str(SEED), "--out", str(out), "--csv",
                 str(csv_path), *extra])
    if code:
        return code, b"", b""
    return code, out.read_bytes(), csv_path.read_bytes()


# -- bytes across thread counts --------------------------------------------------------

_DIAGNOSE_THREADS = (
    "import sys\n"
    "from geomerge.cli import main\n"
    "out, inputs = sys.argv[1], sys.argv[2:]\n"
    "for threads in ('1', '2', '3'):\n"
    f"    code = main(['diagnose', *inputs, '--draws', '{DRAWS}', '--seed', '{SEED}',\n"
    "                 '--threads', threads, '--out', f'{out}-{threads}.json',\n"
    "                 '--csv', f'{out}-{threads}.csv'])\n"
    "    if code:\n"
    "        sys.exit(code)\n"
)


def test_report_bytes_do_not_follow_the_thread_count(tmp_path):
    cases = {
        "toy": _toy_inputs(tmp_path, WIDTH, SAMPLES),
        "acts": [_activations(tmp_path, [(SAMPLES, WIDTH), (SAMPLES, 100)])],
    }
    for case, args in cases.items():
        reference = str(tmp_path / f"{case}-reference")
        _child(_REFERENCE, [reference, args[0], *args[2:]], "1")
        want = [Path(f"{reference}.{suffix}").read_bytes() for suffix in ("json", "csv")]
        for blas in ("1", "2"):
            out = str(tmp_path / f"{case}-blas{blas}")
            _child(_DIAGNOSE_THREADS, [out, *args], blas)
            for threads in ("1", "2", "3"):
                got = [Path(f"{out}-{threads}.{suffix}").read_bytes() for suffix in ("json", "csv")]
                assert got == want, f"{case}: OPENBLAS_NUM_THREADS={blas}, --threads {threads}"


def _layers(rng: np.random.Generator) -> list[ActivationMatrix]:
    """A wide layer, a tall one, and a wide one whose rows repeat and tie."""
    wide = np.tanh(rng.standard_normal((24, 40)))
    tall = rng.standard_normal((30, 6)) ** 3
    tied = np.tanh(rng.standard_normal((8, 10)))
    key = _key_vector(10)
    tied[0], tied[1] = 0.0, 0.0
    tied[0, 0], tied[1, 1] = key[1], key[0]  # rows that differ, with equal keys
    tied[5] = tied[7]  # equal rows at two places of the layer
    return [ActivationMatrix(f"layer_{k}", x) for k, x in enumerate((wide, tall, tied))]


def test_many_threads_on_a_short_switch_interval_keep_the_bits():
    layers = _layers(np.random.default_rng(1))
    want = diagnostics_report(layers, draws=30, seed=4, threads=1).to_dict()
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        for _ in range(3):
            assert diagnostics_report(layers, draws=30, seed=4, threads=6).to_dict() == want
        assert time.monotonic() - start < 60
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


def test_workers_are_joined_before_the_next_layer_is_taken():
    layers = _layers(np.random.default_rng(2))
    before = threading.active_count()
    seen = []

    def stream():
        for layer in layers:
            seen.append(threading.active_count())
            yield layer

    diagnostics_report(stream(), draws=9, seed=1, threads=4)
    assert seen == [before] * 3


# -- one draw, with the bits of spectral_stats ---------------------------------------------


def _outcome(stats):
    """A draw's summaries, as JSON keeps their bits, or the refusal it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return json.dumps(astuple(stats()))
    except (NonFiniteError, DTypeOverflowError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("shape", [(24, 40), (40, 24), (9, 9), (2, 3)])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e100, 1e160])
def test_a_draw_keeps_the_bits_of_spectral_stats(shape, scale):
    rng = np.random.default_rng(shape[0] * shape[1])
    x = np.tanh(rng.standard_normal(shape)) * scale
    n, d = shape
    keys = _row_keys(x) if n < d else None
    rows, work = np.empty(shape), np.empty(shape)
    for k in range(5):
        index = _index("layer_1", k, n)
        got = _outcome(lambda: _draw_stats(x, keys, index, rows, work))
        assert got == _outcome(lambda: spectral_stats(x[index])), k


def test_each_draw_passes_the_groups_of_its_resample(monkeypatch):
    layer = _layers(np.random.default_rng(3))[2]
    n = layer.samples.shape[0]
    seen = []
    real = diagnostics.covariance_spectrum

    def spy(samples):
        # copied now: the spectrum spends the draw's buffers
        seen.append((np.array(samples), samples.groups))
        return real(samples)

    monkeypatch.setattr(diagnostics, "covariance_spectrum", spy)
    diagnostics_report([layer], draws=12, seed=SEED, threads=3)
    assert len(seen) == 12
    indices = {layer.samples[i].tobytes(): i for i in (_index("layer_2", k, n) for k in range(12))}
    ties = 0
    for resample, groups in seen:
        index = indices[resample.tobytes()]
        want = _distinct_rows(resample)
        if want is None:
            assert groups is None
            continue
        assert groups is not None
        for got_part, want_part in zip(groups, want):
            np.testing.assert_array_equal(got_part, want_part)
        # rows that differ are never taken as one
        for first, count in zip(*groups):
            assert count <= (resample == resample[first]).all(axis=1).sum()
        # rows 0 and 1 differ but their keys tie; rows 5 and 7 are equal
        ties += {0, 1} <= set(index) or {5, 7} <= set(index)
    assert ties > 0


# -- refusals ------------------------------------------------------------------------------


def test_the_lowest_failing_draw_is_refused(tmp_path, monkeypatch, capsys):
    acts = _activations(tmp_path, [(16, 40), (16, 40)])
    n = 16
    x = read_records(acts, precision="f64")["layer_1"].data
    fails = {x[_index("layer_1", 3, n)].tobytes(): (3, 0.05, NonFiniteError),
             x[_index("layer_1", 5, n)].tobytes(): (5, 0.0, DTypeOverflowError)}
    real = diagnostics.covariance_spectrum

    def failing(samples):
        k, delay, error = fails.get(np.asarray(samples).tobytes(), (None, 0.0, None))
        if error is None:
            return real(samples)
        time.sleep(delay)  # draw 3 fails after draw 5 has
        raise error(f"draw {k} refused")

    monkeypatch.setattr(diagnostics, "covariance_spectrum", failing)
    results = []
    for threads in ("1", "2", "3"):
        results.append((_diagnose(tmp_path, [acts, "--draws", "8"], threads, "--threads", threads),
                        capsys.readouterr().err))
    assert results[0] == ((3, b"", b""), "error: layer 'layer_1': draw 3 refused\n")
    assert results[1:] == results[:1] * 2


def test_the_other_threads_stop_after_a_failure(monkeypatch):
    x = np.tanh(np.random.default_rng(5).standard_normal((10, 20)))
    first = x[_index("layer_0", 0, 10, seed=0)].tobytes()
    calls = []
    real = diagnostics.covariance_spectrum

    def failing(samples):
        calls.append(1)
        if np.asarray(samples).tobytes() == first:
            raise NonFiniteError("draw 0 refused")
        time.sleep(0.005)
        return real(samples)

    monkeypatch.setattr(diagnostics, "covariance_spectrum", failing)
    before = threading.active_count()
    with pytest.raises(NonFiniteError, match="^layer 'layer_0': draw 0 refused$"):
        diagnostics_report([ActivationMatrix("layer_0", x)], draws=60, seed=0, threads=3)
    assert len(calls) < 20  # of 60 draws
    assert threading.active_count() == before


def test_threads_zero_is_refused_before_any_read(tmp_path, monkeypatch, capsys):
    acts = _activations(tmp_path, [(6, 4)])
    reads = []
    real = tensor_io._pread

    def spy(*args):
        reads.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(tensor_io, "_pread", spy)
    assert _diagnose(tmp_path, [acts], "zero", "--threads", "0")[0] == 1
    assert reads == []
    assert capsys.readouterr().err == "error: --threads must be >= 1\n"
    with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
        diagnostics_report([], draws=2, seed=0, threads=0)


@pytest.mark.parametrize("threads,draws,workers", [("8", "3", 2), ("2", "1", 0), ("1", "5", 0)])
def test_workers_are_capped_at_the_draws(tmp_path, monkeypatch, threads, draws, workers):
    acts = _activations(tmp_path, [(6, 4), (6, 9)])
    started = []
    real = threading.Thread.start

    def spy(self):
        started.append(self.name)
        return real(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    code = _diagnose(tmp_path, [acts, "--draws", draws], "capped", "--threads", threads)[0]
    assert code == 0
    assert len(started) == 2 * workers  # two layers


# -- the eigensolve ------------------------------------------------------------------------


@st.composite
def matrices(draw):
    """A square matrix of 1 to 200 rows at a scale of 1e-150 to 1e150:
    symmetric, or symmetric but for a few ulps."""
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n))
    a = a + a.T
    if draw(st.booleans()):
        a *= 1.0 + 4e-16 * rng.standard_normal((n, n))
    return a * 10.0 ** draw(st.integers(-150, 150))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_the_ctypes_eigensolve_has_the_bits_of_eigvalsh(a):
    if diagnostics._lapack_dsyevd() is None:
        pytest.skip("numpy's wheel loads no scipy-openblas dsyevd")
    want = np.linalg.eigvalsh(a)
    kept = a.copy()
    assert _eigvalsh(a).tobytes() == want.tobytes()
    assert a.tobytes() == kept.tobytes()
    # in place where a is its own transpose, else on a copy
    assert _eigvalsh(a, scratch=np.empty(a.size)).tobytes() == want.tobytes()
    if not np.array_equal(kept, kept.T):
        assert a.tobytes() == kept.tobytes()


@pytest.fixture
def no_dsyevd(monkeypatch):
    """The library lookup finds nothing; the cached lookup is cleared around it."""
    diagnostics._lapack_dsyevd.cache_clear()
    monkeypatch.setattr(diagnostics, "_bundled_openblas", lambda: None)
    yield
    diagnostics._lapack_dsyevd.cache_clear()


def _counting_eigvalsh(monkeypatch) -> list[int]:
    calls = []
    real = np.linalg.eigvalsh

    def spy(a):
        calls.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


def test_without_the_routine_eigvalsh_runs(tmp_path, monkeypatch, no_dsyevd):
    assert diagnostics._lapack_dsyevd() is None
    calls = _counting_eigvalsh(monkeypatch)
    a = np.random.default_rng(6).standard_normal((7, 7))
    a += a.T
    assert _eigvalsh(a, scratch=np.empty(49)).tobytes() == np.linalg.eigvalsh(a).tobytes()
    acts = _activations(tmp_path, [(8, 12)])
    calls.clear()
    assert _diagnose(tmp_path, [acts, "--draws", "4"], "fallback")[0] == 0
    assert len(calls) == 4


def test_a_failed_solve_falls_back_or_is_refused(monkeypatch):
    def failing(*args):
        work, lwork, iwork, liwork, info = args[6:11]
        if lwork.value == -1:  # the size query answers
            ctypes.c_double.from_address(work).value = 8.0
            ctypes.c_int64.from_address(iwork).value = 1
        else:
            info.value = 1  # no convergence

    monkeypatch.setattr(diagnostics, "_lapack_dsyevd", lambda: failing)
    calls = _counting_eigvalsh(monkeypatch)
    a = np.diag([3.0, 1.0, 2.0])
    np.testing.assert_array_equal(_eigvalsh(a), [1.0, 2.0, 3.0])
    assert calls == [3]
    # solved in place, a is spent: refused as eigvalsh refuses it
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        _eigvalsh(a, scratch=np.empty(9))
