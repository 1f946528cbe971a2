"""Representation-collapse diagnostics.

Spectral statistics of activation (or weight) matrices -- mean variance and
rank measures of the feature covariance -- with bootstrap uncertainty, plus a
small forward harness that generates per-layer activations from a stack of
affine layers.
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .dtypes import usable_cpus
from .errors import DTypeOverflowError, NonFiniteError
from .rng import keyed_stream

logger = logging.getLogger(__name__)

NONLINEARITIES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda z: z,
    "relu": lambda z: np.maximum(z, 0.0),
    "tanh": np.tanh,
}


@dataclass
class ActivationMatrix:
    """n x d sample-by-feature activations for one labeled layer."""

    label: str
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise ValueError(f"layer {self.label!r}: activations must be 2-D")
        if self.samples.shape[0] < 2:
            raise ValueError(f"layer {self.label!r}: need at least 2 samples")
        if self.samples.shape[1] == 0:
            raise ValueError(f"layer {self.label!r}: need at least 1 feature")
        if not np.isfinite(self.samples).all():
            raise NonFiniteError(f"layer {self.label!r}: activations contain NaN/Inf")


@dataclass
class SpectralStats:
    """The five per-layer spectrum summaries.

    Rank measures are 0 (not in [1, d]) on an all-zero spectrum; that is the
    degenerate-layer flag.
    """

    mean_variance: float
    eff_rank: float
    stable_rank: float
    participation_ratio: float
    num_rank: int


#: The metric names, in report order: the fields of :class:`SpectralStats`.
METRIC_NAMES = tuple(f.name for f in fields(SpectralStats))


#: The square root of float64's smallest normal value.
_ROOT_TINY = math.sqrt(np.finfo(np.float64).tiny)


@dataclass
class _Resample:
    """One bootstrap draw's rows, as :func:`covariance_spectrum` takes them.

    ``rows`` is the n x d resample, in the drawing thread's own buffer;
    ``np.asarray`` gives it, so any function of an array takes a draw.
    ``mean`` is its column mean, ``groups`` its sets of equal rows as
    :func:`_distinct_rows` gives them (None for n >= d), and ``work`` a
    second n x d buffer of the thread's.  The spectrum spends both buffers.
    """

    rows: np.ndarray
    mean: np.ndarray
    groups: tuple[np.ndarray, np.ndarray] | None
    work: np.ndarray

    def __array__(self, dtype: Any = None, copy: bool | None = None) -> np.ndarray:
        return np.array(self.rows, dtype=dtype, copy=copy)


def _head(buffer: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray | None:
    """The first entries of a C-contiguous ``buffer`` as an array of ``shape``
    (None without a buffer)."""
    if buffer is None:
        return None
    return buffer.reshape(-1)[: math.prod(shape)].reshape(shape)


def covariance_spectrum(samples: np.ndarray | _Resample) -> np.ndarray:
    """Descending eigenvalues of the feature covariance of row-centered data.

    Uses the unbiased (n-1) normalization; tiny negative eigenvalues from the
    symmetric eigensolve are clamped to zero.  With C the centered n x d
    matrix, the eigensolve runs on the smaller of C C^T and C^T C (divided by
    n-1): both have the same nonzero eigenvalues, so a wide matrix costs
    O(n^2 d + n^3) rather than O(n d^2 + d^3).  The result is always
    zero-padded to length d, so the rank measures (and the d * eps threshold
    of :func:`numerical_rank`) see the same spectrum either way.

    A wide matrix with repeated rows (a bootstrap resample holds about
    0.63 n distinct rows) is collapsed first: with C_u its k distinct
    centered rows and c their counts, C C^T has the nonzero eigenvalues of
    the k x k matrix sqrt(c) (C_u C_u^T) sqrt(c), so it costs
    O(n d + k^2 d + k^3).  The mean is still taken over all n rows, and a
    matrix with no repeated row keeps its bits.

    A bootstrap draw comes as a :class:`_Resample`, whose mean and equal
    rows its caller already has.  The spectrum takes them from it, centres
    the rows in the draw's work buffer, then takes the Gram into the spent
    resample's memory and gives the work buffer to the eigensolve, so it
    allocates nothing of the size of the rows or the Gram; the bits are
    those of the resample's array.
    """
    draw = samples if isinstance(samples, _Resample) else None
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("covariance_spectrum expects an n x d matrix with n >= 2")
    # a draw's rows are those of a layer, which ActivationMatrix checked
    if draw is None and not np.isfinite(x).all():
        raise NonFiniteError("covariance_spectrum input contains NaN/Inf")
    n, d = x.shape
    # beyond float64's range the Gram or its eigenvalues turn non-finite,
    # refused below; below it every product of the Gram underflows
    with np.errstate(over="ignore", invalid="ignore"):
        if draw is None:
            mean = x.mean(axis=0, keepdims=True)
            groups = _distinct_rows(x) if n < d else None
            rows = work = None
        else:
            mean, groups, rows, work = draw.mean, draw.groups, draw.rows, draw.work
        # a repeated row has the entries of its first copy, so the range
        # check sees the same largest magnitude
        if groups is None:
            centered = np.subtract(x, mean, out=_head(work, (n, d)))
        else:
            k = groups[0].size
            centered = np.take(x, groups[0], axis=0, out=_head(work, (k, d)), mode="clip")
            centered -= mean
        if 0.0 < max(centered.max(), -centered.min()) < _ROOT_TINY:
            raise DTypeOverflowError("covariance below float64's normal range")
        if n < d:
            k = len(centered)
            gram = np.matmul(centered, centered.T, out=_head(rows, (k, k)))
            gram /= n - 1
            if groups is not None:
                # the centred rows are spent
                weights = np.multiply.outer(
                    groups[1], groups[1], out=_head(work, gram.shape), dtype=np.float64
                )
                gram *= np.sqrt(weights, out=weights)
        else:
            gram = np.matmul(centered.T, centered, out=_head(rows, (d, d)))
            gram /= n - 1
    if not np.isfinite(gram).all():
        raise NonFiniteError("covariance beyond float64 range")
    eig = np.clip(_eigvalsh(gram, scratch=work), 0.0, None)[::-1]
    if not np.isfinite(eig).all():
        raise NonFiniteError("covariance beyond float64 range")
    spectrum = np.zeros(d)
    spectrum[: eig.size] = eig
    return spectrum


def _key_vector(d: int) -> np.ndarray:
    """The fixed vector of d entries that :func:`_row_keys` projects on."""
    return keyed_stream(0, "row-key", d).standard_normal(d)


def _row_keys(x: np.ndarray) -> np.ndarray:
    """Each row's product with :func:`_key_vector`, summed in one order for
    every row, so equal rows get equal keys, wherever they sit in a
    C-contiguous matrix; a BLAS matrix-vector product can round equal rows
    apart."""
    return np.einsum("ij,j->i", x, _key_vector(x.shape[1]))


def _distinct_rows(
    x: np.ndarray, index: np.ndarray | None = None, keys: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """The index of one row of each set of equal rows of ``x[index]`` (of
    ``x`` where no index is given) and the size of each set, or None where
    no row repeats.

    Rows are sorted by :func:`_row_keys`, and neighbours whose keys tie are
    compared entry by entry, so rows that differ are never taken as one.
    Equal rows that a tied row of other entries sorts apart stay apart,
    which costs time, not accuracy.  A row's key does not depend on its
    place, so ``keys``, the keys of a C-contiguous ``x`` where the caller
    has them, serve every index; and two rows of ``x[index]`` that are
    copies of one row of ``x`` are equal without a comparison.
    """
    rows = np.arange(x.shape[0]) if index is None else index
    keys = (_row_keys(x) if keys is None else keys)[rows]
    n = rows.size
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    tied = np.flatnonzero(keys[1:] == keys[:-1])
    a, b = rows[order[tied]], rows[order[tied + 1]]
    equal = a == b
    other = np.flatnonzero(~equal)
    equal[other] = (x[a[other]] == x[b[other]]).all(axis=1)
    repeats = tied[equal]
    if repeats.size == 0:
        return None
    first = np.ones(n, dtype=bool)
    first[repeats + 1] = False
    starts = np.flatnonzero(first)
    return order[starts], np.diff(starts, append=n)


def mean_activation_variance(samples: np.ndarray) -> float:
    """Mean over features of the per-feature sample variance (n-1 denominator).

    Equals trace(covariance)/d, i.e. the spectrum mean.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("mean_activation_variance expects an n x d matrix with n >= 2")
    return float(x.var(axis=0, ddof=1).mean())


def effective_rank(spectrum: np.ndarray) -> float:
    """exp of the Shannon entropy of the normalized spectrum.

    d for a flat spectrum, 1 for rank one, 0 (flagging degeneracy) when the
    spectrum is all zero.
    """
    lam = _spectrum(spectrum)
    total = float(lam.sum())
    if total <= 0.0:
        return 0.0
    p = lam / total
    nz = p[p > 0.0]
    return float(np.exp(-np.sum(nz * np.log(nz))))


def stable_rank(spectrum: np.ndarray) -> float:
    """Spectrum sum over largest eigenvalue (0 on an all-zero spectrum)."""
    lam = _spectrum(spectrum)
    lmax = float(lam.max(initial=0.0))
    if lmax <= 0.0:
        return 0.0
    return float(lam.sum()) / lmax


def _power_of_two_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``a`` times 2**-e and e, the binary exponent of its largest magnitude.

    The largest magnitude lands in [0.5, 1), so squares and sums stay in
    float64's range; the scaling is exact but for entries it takes below
    the normal range.
    """
    e = math.frexp(float(np.abs(a).max()))[1]
    return np.ldexp(a, -e), e


def participation_ratio(spectrum: np.ndarray) -> float:
    """(sum lambda)^2 / sum lambda^2 (0 on an all-zero spectrum).

    Scale-free: it is computed on the spectrum scaled by a power of two,
    which leaves the ratio's bits unchanged where the plain form neither
    overflows nor underflows.
    """
    lam = _spectrum(spectrum)
    if lam.max() <= 0.0:
        return 0.0
    lam = _power_of_two_scaled(lam)[0]
    return float(lam.sum()) ** 2 / float(np.sum(lam**2))


def numerical_rank(spectrum: np.ndarray) -> int:
    """Count of eigenvalues above d * machine epsilon (float64) times
    lambda_max, the usual numerical-rank convention."""
    lam = _spectrum(spectrum)
    lmax = float(lam.max(initial=0.0))
    if lmax <= 0.0:
        return 0
    rel_tol = lam.size * float(np.finfo(np.float64).eps)
    return int(np.count_nonzero(lam > rel_tol * lmax))


def _spectrum(spectrum: np.ndarray) -> np.ndarray:
    lam = np.asarray(spectrum, dtype=np.float64).reshape(-1)
    if lam.size == 0:
        raise ValueError("empty spectrum")
    if (lam < 0).any():
        raise ValueError("spectrum must be non-negative")
    return lam


def spectral_stats(samples: np.ndarray) -> SpectralStats:
    """All five summaries for one activation matrix."""
    lam = covariance_spectrum(samples)
    return _summaries(mean_activation_variance(samples), lam)


def _summaries(mean_variance: float, lam: np.ndarray) -> SpectralStats:
    return SpectralStats(
        mean_variance=mean_variance,
        eff_rank=effective_rank(lam),
        stable_rank=stable_rank(lam),
        participation_ratio=participation_ratio(lam),
        num_rank=numerical_rank(lam),
    )


@dataclass
class LayerDiagnostics:
    """Bootstrap mean and std of every metric for one layer."""

    label: str
    samples: int
    features: int
    metrics: dict[str, dict[str, float]]

    def to_dict(self) -> dict[str, Any]:
        return {
            "layer": self.label,
            "samples": self.samples,
            "features": self.features,
            "metrics": self.metrics,
        }


@dataclass
class DiagnosticsReport:
    """Per-layer spectral statistics with bootstrap uncertainty."""

    draws: int
    seed: int
    layers: list[LayerDiagnostics] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "draws": self.draws,
            "seed": self.seed,
            "layers": [layer.to_dict() for layer in self.layers],
        }

    def csv_rows(self) -> list[tuple[str, str, float, float]]:
        rows = []
        for layer in self.layers:
            for metric in METRIC_NAMES:
                entry = layer.metrics[metric]
                rows.append((layer.label, metric, entry["mean"], entry["std"]))
        return rows


#: The ufunc buffer size, in elements, on a thread that draws.  A ufunc
#: with a broadcast operand (a row minus the mean) takes a buffer of numpy's
#: default 8192 elements per call; a smaller one keeps each thread's
#: temporaries far below a resample, so the peak does not follow how the
#: threads interleave.  No result changes with it.
_UFUNC_BUFSIZE = 1024


def bootstrap_stats(
    activations: ActivationMatrix, draws: int, seed: int, threads: int | None = None
) -> LayerDiagnostics:
    """Resample rows with replacement and summarize each metric.

    Draw ``k`` uses the stream keyed by (seed, "bootstrap:<label>", k), so
    the draws are the same on every run; rows (samples) are resampled, never
    features.  The eigensolve's bits can change with the BLAS thread count:
    :func:`diagnostics_report` holds BLAS to one thread, so its reports are
    bit-identical across runs and thread settings for a given BLAS build.
    Called on its own, or where the BLAS's thread-count calls are not found,
    the bits follow the BLAS thread count in force.

    The draws are shared out between the calling thread and up to
    ``threads - 1`` worker threads (default: one thread per CPU; at most
    one per draw), which are joined before this returns.  Draw ``k`` fills
    column ``k`` of the table, so the bits do not depend on the thread
    count.  Each thread draws into two n x d buffers of its own, made
    before the first draw: the resample and the rows the spectrum centres.
    Where draws fail, the error of the lowest failing draw is raised, as a
    serial loop would, and the other threads stop at their next draw.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    x = activations.samples
    n, d = x.shape
    label = activations.label
    # a row's key does not depend on where it sits in a C-contiguous
    # matrix, so these serve every draw
    keys = _row_keys(np.ascontiguousarray(x)) if n < d else None
    # a row per metric, a column per draw
    table = np.empty((len(METRIC_NAMES), draws))
    threads = min(threads or usable_cpus(), draws)
    # made here, not in each worker, where glibc's per-thread malloc arenas added 4 MiB of RSS
    buffers = [(np.empty((n, d)), np.empty((n, d))) for _ in range(threads)]
    todo = iter(range(draws))
    lock = threading.Lock()
    stop = threading.Event()
    failed: dict[int, Exception] = {}

    def run(rows: np.ndarray, work: np.ndarray) -> None:
        # a statistic beyond float64's range is refused below, with no
        # overflow warning; the error state is each thread's own
        with np.errstate(over="ignore", invalid="ignore"):
            before = np.setbufsize(_UFUNC_BUFSIZE)
            try:
                while True:
                    with lock:
                        k = None if stop.is_set() else next(todo, None)
                    if k is None:
                        return
                    try:
                        index = keyed_stream(seed, f"bootstrap:{label}", k).integers(0, n, size=n)
                        table[:, k] = astuple(_draw_stats(x, keys, index, rows, work))
                    except Exception as exc:
                        with lock:
                            failed[k] = exc
                        stop.set()
                        return
            finally:
                np.setbufsize(before)

    workers: list[threading.Thread] = []
    try:
        for rows, work in buffers[1:]:
            worker = threading.Thread(target=run, args=(rows, work), name=f"bootstrap-{label}")
            worker.start()
            workers.append(worker)
        run(*buffers[0])
    finally:
        stop.set()
        for worker in workers:
            worker.join()
    metrics = {}
    # a covariance outside float64's range, or a statistic beyond it, is
    # refused with the layer's name, and no overflow warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if failed:
                raise failed[min(failed)]
            for metric, vals in zip(METRIC_NAMES, table):
                mean, std = _mean_std(vals)
                if not (math.isfinite(mean) and math.isfinite(std)):
                    raise NonFiniteError(f"{metric} beyond float64 range")
                metrics[metric] = {"mean": mean, "std": std}
        except (NonFiniteError, DTypeOverflowError) as exc:
            raise type(exc)(f"layer {label!r}: {exc}") from None
    return LayerDiagnostics(label=label, samples=n, features=d, metrics=metrics)


def _draw_stats(
    x: np.ndarray, keys: np.ndarray | None, index: np.ndarray, rows: np.ndarray, work: np.ndarray
) -> SpectralStats:
    """``spectral_stats(x[index])``, with its bits, in the n x d buffers
    ``rows`` and ``work``.

    The resample is gathered into ``rows``, and its equal rows are found
    from ``keys``, the keys of x's rows (None for n >= d).  Its column mean
    serves both the variance and the spectrum.  The variance is taken
    first, in ``work``, in the steps of numpy's ``var(axis=0, ddof=1)``:
    subtract, square, sum over the rows, divide by n - 1.  The spectrum
    then spends both buffers.
    """
    n = index.size
    # mode "clip" (the index is in range) gathers straight into rows;
    # the default mode gathers into a temporary first
    resample = np.take(x, index, axis=0, out=rows, mode="clip")
    mean = resample.mean(axis=0, keepdims=True)
    squares = np.subtract(resample, mean, out=work)
    squares *= squares
    variance = squares.sum(axis=0)
    variance /= n - 1
    groups = None if keys is None else _distinct_rows(x, index, keys)
    lam = covariance_spectrum(_Resample(resample, mean, groups, work))
    return _summaries(float(variance.mean()), lam)


def _mean_std(vals: np.ndarray) -> tuple[float, float]:
    """The mean and sample std (0 for one draw) of one metric's draws.

    Both are taken on the draws scaled by a power of two, so their squares
    stay in float64's range, and scaled back (non-finite past its top).
    """
    scaled, e = _power_of_two_scaled(vals)
    std = np.std(scaled, ddof=1) if scaled.size > 1 else 0.0
    return float(np.ldexp(scaled.mean(), e)), float(np.ldexp(std, e))


def diagnostics_report(
    layers: Iterable[ActivationMatrix], draws: int, seed: int, threads: int | None = None
) -> DiagnosticsReport:
    """Bootstrap every layer, in order, on one BLAS thread.

    Each layer is let go before the next is taken from ``layers``, so a
    generator that makes its layers one at a time is never asked to keep
    more than the ones it holds itself.  The whole loop, and so whatever
    the generator computes to make its layers, runs inside
    :func:`_one_blas_thread`.  A layer's draws run on ``threads`` threads
    (default: one per CPU this process may run on), which are joined
    before the next layer is taken; the report's bits do not depend on
    the count.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    report = DiagnosticsReport(draws=draws, seed=seed)
    with _one_blas_thread():
        for layer in layers:
            report.layers.append(bootstrap_stats(layer, draws, seed, threads))
            del layer
    return report


def _bundled_openblas() -> Path | None:
    """The scipy-openblas library that numpy's wheel ships in ``numpy.libs``."""
    return next(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*"), None)


def _loaded_openblas() -> ctypes.CDLL | str:
    """The scipy-openblas library that numpy's wheel loaded, or the reason
    there is none.

    ``RTLD_NOLOAD`` opens only a library the process has already loaded, so
    a copy numpy does not use is never loaded here.
    """
    if not hasattr(os, "RTLD_NOLOAD"):
        return "this platform cannot open a loaded library by path"
    path = _bundled_openblas()
    if path is None:
        return "numpy's wheel ships no scipy-openblas"
    try:
        return ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
    except OSError:
        return f"{path.name} is not the BLAS numpy loaded"


@cache
def _blas_thread_calls() -> tuple[Callable[[], int], Callable[[int], None]] | str:
    """The get/set thread-count pair of the scipy-openblas build that numpy's
    wheel loads, or the reason there is none.

    Looked up once.  Other BLAS builds are left to their own thread count.
    """
    lib = _loaded_openblas()
    if isinstance(lib, str):
        return lib
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or put is None:
        return "the loaded scipy-openblas exports no get/set thread-count pair"
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@cache
def _lapack_dsyevd() -> Callable[..., None] | None:
    """LAPACK's dsyevd in the scipy-openblas build that numpy's wheel loads
    (the routine ``np.linalg.eigvalsh`` calls), or None where it is not
    found.  Looked up once."""
    lib = _loaded_openblas()
    dsyevd = None if isinstance(lib, str) else getattr(lib, "scipy_dsyevd_64_", None)
    if dsyevd is not None:
        # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, and
        # the hidden lengths of the two character arguments; arrays go by
        # address (``ndarray.ctypes.data_as`` leaves a reference cycle
        # that holds the array until the garbage collector runs)
        int64, array = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
        dsyevd.argtypes = [ctypes.c_char_p, ctypes.c_char_p, int64, array, int64, array,
                           array, int64, array, int64, int64, ctypes.c_size_t, ctypes.c_size_t]
        dsyevd.restype = None
    return dsyevd


def _eigvalsh(a: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """``np.linalg.eigvalsh(a)``, with its bits, through a call that lets go
    of the GIL, so that eigensolves on several threads overlap.

    ctypes drops the GIL for the call; ``eigvalsh`` holds it.  The call is
    numpy's: dsyevd with no eigenvectors on the lower triangle of a
    Fortran-order copy, with the workspace its size query asks for.  Where
    the routine is not found, or it reports a failure, ``eigvalsh`` itself
    runs (and raises its own error).

    Given ``scratch``, a float64 buffer the caller is done with, a
    C-contiguous ``a`` equal to its transpose (its own Fortran-order copy)
    is solved in its own memory, which it loses, and the workspace comes
    from ``scratch`` where it fits.  A failure there raises the error
    ``eigvalsh`` raises for it.
    """
    dsyevd = _lapack_dsyevd()
    if dsyevd is None:
        return np.linalg.eigvalsh(a)
    n = a.shape[0]
    in_place = scratch is not None and a.flags.c_contiguous and np.array_equal(a, a.T)
    matrix = a if in_place else np.array(a, dtype=np.float64, order="F")
    w = np.empty(n)
    info = ctypes.c_int64(0)

    def call(work: np.ndarray, lwork: int, iwork: np.ndarray, liwork: int) -> int:
        dsyevd(b"N", b"L", ctypes.c_int64(n), matrix.ctypes.data, ctypes.c_int64(max(n, 1)),
               w.ctypes.data, work.ctypes.data, ctypes.c_int64(lwork), iwork.ctypes.data,
               ctypes.c_int64(liwork), info, 1, 1)
        return info.value

    # sizes of -1 ask for the workspace's sizes, written into sizes
    sizes = np.empty(2)
    if call(sizes[:1], -1, sizes[1:].view(np.int64), -1) != 0:
        return np.linalg.eigvalsh(a)
    lwork, liwork = int(sizes[0]), int(sizes[1:].view(np.int64)[0])
    if in_place and lwork + liwork <= scratch.size:
        space = scratch.reshape(-1)
    else:
        space = np.empty(lwork + liwork)
    if call(space[:lwork], lwork, space[lwork : lwork + liwork].view(np.int64), liwork) == 0:
        return w
    if in_place:  # a is spent
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return np.linalg.eigvalsh(a)


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold the BLAS that numpy loaded to one thread, and put the old count
    back on the way out.

    The eigensolve's bits depend on the BLAS thread count, and between the
    many small products and eigensolves of a bootstrap the idle BLAS
    threads spin for nothing.  The count is process-wide.  Where the
    thread-count calls are not found it is left alone, and the debug log
    says why.
    """
    calls = _blas_thread_calls()
    if isinstance(calls, str):
        logger.debug("BLAS thread count left alone: %s", calls)
        yield
        return
    get, put = calls
    before = get()
    logger.debug("BLAS threads set from %d to 1 for the diagnostics", before)
    put(1)
    try:
        yield
    finally:
        put(before)


def check_layer_shapes(
    k: int, width: int, weight_shape: Sequence[int], bias_size: int | None = None
) -> None:
    """Raise the forward's ``ValueError`` unless layer ``k``'s (d_in, d_out)
    weight takes activations ``width`` features wide and its bias, if any,
    has d_out entries."""
    if len(weight_shape) != 2 or weight_shape[0] != width:
        raise ValueError(
            f"shape mismatch at layer {k}: activations are n x {width}, "
            f"weight is {'x'.join(map(str, weight_shape))}"
        )
    if bias_size is not None and bias_size != weight_shape[1]:
        raise ValueError(
            f"shape mismatch at layer {k}: bias has {bias_size} entries, "
            f"expected {weight_shape[1]}"
        )


def toy_forward_collect(
    k: int,
    below: ActivationMatrix,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    nonlinearity: str = "identity",
) -> ActivationMatrix:
    """Layer ``k`` of an affine + nonlinearity stack, made from ``below``,
    the activations of layer ``k - 1``, and labelled ``layer_<k>``.

    The weight is (d_in, d_out) and the bias, if any, has d_out entries.
    """
    if nonlinearity not in NONLINEARITIES:
        raise ValueError(
            f"unknown nonlinearity {nonlinearity!r}; expected one of {sorted(NONLINEARITIES)}"
        )
    x = below.samples
    w = np.asarray(weight, dtype=np.float64)
    b = None if bias is None else np.asarray(bias, dtype=np.float64).reshape(-1)
    check_layer_shapes(k, x.shape[1], w.shape, None if b is None else b.size)
    # an overflow shows as a non-finite entry, refused by ActivationMatrix
    with np.errstate(over="ignore", invalid="ignore"):
        z = x @ w
        if b is not None:
            z = z + b
        return ActivationMatrix(label=f"layer_{k}", samples=NONLINEARITIES[nonlinearity](z))
