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
from functools import cache, cached_property
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
class _Draw:
    """One bootstrap draw of a layer, as :func:`covariance_spectrum` takes it.

    ``layer`` is the layer's n x d rows and ``index`` the rows the draw
    took; ``np.asarray`` gives the resample the draw stands for.  ``gram``
    is, for n < d, the n x n Gram K of the layer's rows less a centre per
    column; ``rows``, for n >= d, an n x d buffer to gather and centre in.
    """

    layer: np.ndarray
    gram: np.ndarray | None
    index: np.ndarray
    rows: np.ndarray | None = None

    def __array__(self, dtype: Any = None, copy: bool | None = None) -> np.ndarray:
        return np.asarray(self.layer[self.index], dtype=dtype)

    @cached_property
    def matrix(self) -> np.ndarray:
        """A matrix whose eigenvalues are the nonzero ones of the
        resample's covariance, and whose trace is the covariance's.

        For n >= d it is that d x d covariance, of the resample centred in
        place in ``rows``, with the bits of :func:`covariance_spectrum`'s.
        For n < d, with c the count of each of the k rows the draw took,
        w = c / n, a = K w and b = w^T a, the resample's centred rows have
        the Gram K - a 1^T - 1 a^T + b (taken at those rows); scaled by
        sqrt(c) sqrt(c)^T, the k x k matrix stands for all n rows, so
        equal rows need no finding.  Rows equal in content count as one
        row: w = 1, so the matrix is exactly zero.
        """
        n = self.index.size
        if self.gram is None:
            # mode "clip" (the index is in range) gathers straight into rows
            x = np.take(self.layer, self.index, axis=0, out=self.rows, mode="clip")
            cov = _centred_gram(_centred(x, out=x))
            cov /= n - 1
            return cov
        counts = np.bincount(self.index, minlength=n)
        rows = np.flatnonzero(counts)
        if _equal_rows(self.layer, rows):
            counts[rows[0]] = n
            rows = rows[:1]
        c = counts[rows].astype(np.float64)
        w = c / n
        g = self.gram[np.ix_(rows, rows)]
        a = g @ w
        g -= a[:, None]
        g -= a
        g += w @ a
        g /= n - 1
        root = np.sqrt(c)
        g *= np.multiply.outer(root, root)
        return g


def _equal_rows(x: np.ndarray, rows: np.ndarray | slice = slice(None)) -> bool:
    """Whether the rows of ``x`` at ``rows`` are all equal; one column is
    compared first, so most matrices cost O(n)."""
    column = x[rows, :1]
    return bool((column == column[0]).all() and (x[rows] == x[rows][0]).all())


def _centred(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x`` less its column means, into ``out`` if given.  Rows that are
    all equal are centred at the first, to exact zeros rather than the
    rounding of an inexact mean."""
    return np.subtract(x, x[:1] if _equal_rows(x) else x.mean(axis=0, keepdims=True), out=out)


def _mean_variance(centred: np.ndarray) -> float:
    """The mean over features of ``np.var(ddof=1)`` of rows already
    centred, with its bits; ``centred`` is squared in place."""
    sq = np.square(centred, out=centred)
    return float((np.add.reduce(sq, axis=0) / (len(sq) - 1)).mean())


def _centred_gram(centred: np.ndarray) -> np.ndarray:
    """The smaller Gram of the n x d rows ``centred``, a layer less a
    centre per column: C C^T (n x n) for n < d, else C^T C (d x d).

    Centred rows whose largest magnitude is below float64's normal range,
    where every product of the Gram underflows, are refused.
    """
    if 0.0 < max(centred.max(), -centred.min()) < _ROOT_TINY:
        raise DTypeOverflowError("covariance below float64's normal range")
    n, d = centred.shape
    return centred @ centred.T if n < d else centred.T @ centred


def covariance_spectrum(samples: np.ndarray | _Draw) -> np.ndarray:
    """Descending eigenvalues of the feature covariance of row-centered data.

    Uses the unbiased (n-1) normalization; tiny negative eigenvalues from the
    symmetric eigensolve are clamped to zero.  With C the centered n x d
    matrix, the eigensolve runs on the smaller of C C^T and C^T C (divided by
    n-1): both have the same nonzero eigenvalues, so a wide matrix costs
    O(n^2 d + n^3) rather than O(n d^2 + d^3).  The result is always
    zero-padded to length d, so the rank measures (and the d * eps threshold
    of :func:`numerical_rank`) see the same spectrum either way.

    Where every row is equal the spectrum is exactly zero.  A bootstrap
    draw comes as a :class:`_Draw`, whose eigensolve runs on its matrix:
    for an n < d layer a k x k one, made from the layer's Gram at O(k^2),
    for the k distinct rows it took.
    """
    if isinstance(samples, _Draw):
        gram, d = samples.matrix, samples.layer.shape[1]
    else:
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 2:
            raise ValueError("covariance_spectrum expects an n x d matrix with n >= 2")
        if not np.isfinite(x).all():
            raise NonFiniteError("covariance_spectrum input contains NaN/Inf")
        n, d = x.shape
        # beyond float64's range the Gram or its eigenvalues turn non-finite,
        # refused below
        with np.errstate(over="ignore", invalid="ignore"):
            gram = _centred_gram(_centred(x)) / (n - 1)
    if not np.isfinite(gram).all():
        raise NonFiniteError("covariance beyond float64 range")
    eig = np.clip(_eigvalsh(gram), 0.0, None)[::-1]
    if not np.isfinite(eig).all():
        raise NonFiniteError("covariance beyond float64 range")
    spectrum = np.zeros(d)
    spectrum[: eig.size] = eig
    return spectrum


def mean_activation_variance(samples: np.ndarray) -> float:
    """Mean over features of the per-feature sample variance (n-1 denominator).

    Equals trace(covariance)/d, i.e. the spectrum mean; exactly zero where
    every row is equal.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("mean_activation_variance expects an n x d matrix with n >= 2")
    return _mean_variance(_centred(x))


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

    For n >= d a draw gathers its resample into an n x d buffer that each
    thread keeps for its draws, and centres it there at one mean, with the
    bits of :func:`spectral_stats`.  For n < d the layer is centred at its column median once, and its
    n x n Gram K taken once, at O(n^2 d).  A draw then builds its k x k
    matrix from K and the count of each row it took, at O(k^2), and
    eigensolves it at O(k^3); its mean variance is that matrix's trace
    over d.  That matrix rounds in proportion to the centred rows the draw
    took: a median, unlike a mean, is not pulled towards a few rows far
    from the rest, so a draw that leaves them out keeps its ranks.

    The draws are shared out between the calling thread and up to
    ``threads - 1`` worker threads (default: one thread per CPU; at most
    one per draw), which are joined before this returns.  Draw ``k`` fills
    column ``k`` of the table, so the bits do not depend on the thread
    count.  Where draws fail, the error of the lowest failing draw is
    raised, as a serial loop would, and the other threads stop at their
    next draw.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    x = activations.samples
    n, d = x.shape
    label = activations.label
    # a row per metric, a column per draw
    table = np.empty((len(METRIC_NAMES), draws))
    threads = min(threads or usable_cpus(), draws)
    # made here, not in each worker, where glibc's per-thread malloc arenas added 4 MiB of RSS
    buffers = [np.empty((n, d)) if n >= d else None for _ in range(threads)]
    todo = iter(range(draws))
    lock = threading.Lock()
    stop = threading.Event()
    failed: dict[int, Exception] = {}

    def run(rows: np.ndarray | None) -> None:
        # a statistic beyond float64's range is refused below, with no
        # overflow warning; the error state is each thread's own
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                with lock:
                    k = None if stop.is_set() else next(todo, None)
                if k is None:
                    return
                try:
                    index = keyed_stream(seed, f"bootstrap:{label}", k).integers(0, n, size=n)
                    table[:, k] = astuple(_draw_stats(x, gram, index, rows))
                except Exception as exc:
                    with lock:
                        failed[k] = exc
                    stop.set()
                    return

    workers: list[threading.Thread] = []
    metrics = {}
    # a covariance outside float64's range, or a statistic beyond it, is
    # refused with the layer's name, and no overflow warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            # the column median (the upper middle value for even n)
            gram = _centred_gram(x - np.partition(x, n // 2, axis=0)[n // 2]) if n < d else None
            try:
                for rows in buffers[1:]:
                    worker = threading.Thread(target=run, args=(rows,), name=f"bootstrap-{label}")
                    worker.start()
                    workers.append(worker)
                run(buffers[0])
            finally:
                stop.set()
                for worker in workers:
                    worker.join()
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
    x: np.ndarray, gram: np.ndarray | None, index: np.ndarray, rows: np.ndarray | None
) -> SpectralStats:
    """The summaries of the draw of ``x``'s rows at ``index``: from the
    layer's centred Gram ``gram`` for n < d, else from the resample,
    gathered into the n x d buffer ``rows``."""
    draw = _Draw(x, gram, index, rows)
    lam = covariance_spectrum(draw)  # for n >= d, its matrix centres rows
    if gram is None:
        return _summaries(_mean_variance(rows), lam)
    return _summaries(float(np.trace(draw.matrix)) / x.shape[1], lam)


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
    the count.  Besides the layer, an n < d layer holds one n x n Gram
    while its draws run, and each draw a k x k matrix (k its distinct
    rows); on any other layer each thread works in one n x d buffer, and
    each draw makes a d x d covariance.
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


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)``, with its bits, through a call that lets go
    of the GIL, so that eigensolves on several threads overlap.

    ctypes drops the GIL for the call; ``eigvalsh`` holds it.  The call is
    numpy's: dsyevd with no eigenvectors on the lower triangle of a
    Fortran-order copy, with the workspace its size query asks for.  Where
    the routine is not found, or it reports a failure, ``eigvalsh`` itself
    runs (and raises its own error).
    """
    dsyevd = _lapack_dsyevd()
    if dsyevd is None:
        return np.linalg.eigvalsh(a)
    n = a.shape[0]
    matrix = np.array(a, dtype=np.float64, order="F")
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
    if call(np.empty(lwork), lwork, np.empty(liwork, dtype=np.int64), liwork) == 0:
        return w
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
