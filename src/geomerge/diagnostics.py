"""Representation-collapse diagnostics.

Spectral statistics of activation (or weight) matrices -- mean variance and
rank measures of the feature covariance -- with bootstrap uncertainty, plus a
small forward harness that generates per-layer activations from a stack of
affine layers, and a norm-shrinkage report comparing merged checkpoints
against their sources.
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import AlignmentError, DTypeOverflowError, NonFiniteError
from .rng import keyed_stream
from .sphere import DEGENERATE_NORM, norm, normalized_weights
from .tensor_io import Checkpoint

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


def covariance_spectrum(samples: np.ndarray) -> np.ndarray:
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
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("covariance_spectrum expects an n x d matrix with n >= 2")
    if not np.isfinite(x).all():
        raise NonFiniteError("covariance_spectrum input contains NaN/Inf")
    n, d = x.shape
    # beyond float64's range the Gram or its eigenvalues turn non-finite,
    # refused below; below it every product of the Gram underflows
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0, keepdims=True)
        groups = _distinct_rows(x) if n < d else None
        # a repeated row has the entries of its first copy, so the range
        # check sees the same largest magnitude
        centered = (x if groups is None else x[groups[0]]) - mean
        if 0.0 < float(np.abs(centered).max()) < _ROOT_TINY:
            raise DTypeOverflowError("covariance below float64's normal range")
        if n < d:
            gram = centered @ centered.T / (n - 1)
            if groups is not None:
                gram *= np.sqrt(np.multiply.outer(groups[1], groups[1]))
        else:
            gram = centered.T @ centered / (n - 1)
    if not np.isfinite(gram).all():
        raise NonFiniteError("covariance beyond float64 range")
    eig = np.clip(np.linalg.eigvalsh(gram), 0.0, None)[::-1]
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
    every row, so equal rows get equal keys; a BLAS matrix-vector product
    can round equal rows apart."""
    return np.einsum("ij,j->i", x, _key_vector(x.shape[1]))


def _distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The index of one row of each set of equal rows of ``x`` and the size
    of each set, or None where no row repeats.

    Rows are sorted by :func:`_row_keys`, and neighbours whose keys tie are
    compared entry by entry, so rows that differ are never taken as one.
    Equal rows that a tied row of other entries sorts apart stay apart,
    which costs time, not accuracy.
    """
    n = x.shape[0]
    keys = _row_keys(x)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    tied = np.flatnonzero(keys[1:] == keys[:-1])
    repeats = tied[(x[order[tied]] == x[order[tied + 1]]).all(axis=1)]
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


def numerical_rank(spectrum: np.ndarray, rel_tol: float | None = None) -> int:
    """Count of eigenvalues above ``rel_tol * lambda_max``.

    The default threshold is d * machine epsilon (float64), the usual
    numerical-rank convention.
    """
    lam = _spectrum(spectrum)
    lmax = float(lam.max(initial=0.0))
    if lmax <= 0.0:
        return 0
    if rel_tol is None:
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
    return SpectralStats(
        mean_variance=mean_activation_variance(samples),
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


def bootstrap_stats(activations: ActivationMatrix, draws: int, seed: int) -> LayerDiagnostics:
    """Resample rows with replacement and summarize each metric.

    Draw ``k`` uses the stream keyed by (seed, "bootstrap:<label>", k), so
    the draws are the same on every run; rows (samples) are resampled, never
    features.  The eigensolve's bits can change with the BLAS thread count:
    :func:`diagnostics_report` holds BLAS to one thread, so its reports are
    bit-identical across runs and thread settings for a given BLAS build.
    Called on its own, or where the BLAS's thread-count calls are not found,
    the bits follow the BLAS thread count in force.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    x = activations.samples
    n = x.shape[0]
    # a row per metric, a column per draw
    table = np.empty((len(METRIC_NAMES), draws))
    metrics = {}
    # a covariance outside float64's range, or a statistic beyond it, is
    # refused with the layer's name, and no overflow warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(draws):
                rng = keyed_stream(seed, f"bootstrap:{activations.label}", k)
                idx = rng.integers(0, n, size=n)
                table[:, k] = astuple(spectral_stats(x[idx]))
            for metric, vals in zip(METRIC_NAMES, table):
                mean, std = _mean_std(vals)
                if not (math.isfinite(mean) and math.isfinite(std)):
                    raise NonFiniteError(f"{metric} beyond float64 range")
                metrics[metric] = {"mean": mean, "std": std}
        except (NonFiniteError, DTypeOverflowError) as exc:
            raise type(exc)(f"layer {activations.label!r}: {exc}") from None
    return LayerDiagnostics(
        label=activations.label, samples=n, features=x.shape[1], metrics=metrics
    )


def _mean_std(vals: np.ndarray) -> tuple[float, float]:
    """The mean and sample std (0 for one draw) of one metric's draws.

    Both are taken on the draws scaled by a power of two, so their squares
    stay in float64's range, and scaled back (non-finite past its top).
    """
    scaled, e = _power_of_two_scaled(vals)
    std = np.std(scaled, ddof=1) if scaled.size > 1 else 0.0
    return float(np.ldexp(scaled.mean(), e)), float(np.ldexp(std, e))


def diagnostics_report(
    layers: Iterable[ActivationMatrix], draws: int, seed: int
) -> DiagnosticsReport:
    """Bootstrap every layer, in order, on one BLAS thread.

    Each layer is let go before the next is taken from ``layers``, so a
    generator that makes its layers one at a time is never asked to keep
    more than the ones it holds itself.  The whole loop, and so whatever
    the generator computes to make its layers, runs inside
    :func:`_one_blas_thread`.
    """
    report = DiagnosticsReport(draws=draws, seed=seed)
    with _one_blas_thread():
        for layer in layers:
            report.layers.append(bootstrap_stats(layer, draws, seed))
            del layer
    return report


def _bundled_openblas() -> Path | None:
    """The scipy-openblas library that numpy's wheel ships in ``numpy.libs``."""
    return next(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*"), None)


@cache
def _blas_thread_calls() -> tuple[Callable[[], int], Callable[[int], None]] | str:
    """The get/set thread-count pair of the scipy-openblas build that numpy's
    wheel loads, or the reason there is none.

    Looked up once.  ``RTLD_NOLOAD`` opens only a library the process has
    already loaded, so a copy numpy does not use is never loaded here.
    Other BLAS builds are left to their own thread count.
    """
    if not hasattr(os, "RTLD_NOLOAD"):
        return "this platform cannot open a loaded library by path"
    path = _bundled_openblas()
    if path is None:
        return "numpy's wheel ships no scipy-openblas"
    try:
        lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
    except OSError:
        return f"{path.name} is not the BLAS numpy loaded"
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or put is None:
        return f"{path.name} exports no get/set thread-count pair"
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


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
    layer_weights: Sequence[np.ndarray],
    inputs: np.ndarray,
    nonlinearity: str = "identity",
    biases: Sequence[np.ndarray | None] | None = None,
) -> list[ActivationMatrix]:
    """Propagate inputs through an affine + nonlinearity stack.

    Weights are (d_in, d_out); layer 0 of the returned sequence is the raw
    input, each later entry the post-nonlinearity activations.
    """
    if nonlinearity not in NONLINEARITIES:
        raise ValueError(
            f"unknown nonlinearity {nonlinearity!r}; expected one of {sorted(NONLINEARITIES)}"
        )
    fn = NONLINEARITIES[nonlinearity]
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("inputs must be an n x d0 matrix")
    if biases is not None and len(biases) != len(layer_weights):
        raise ValueError("biases must match layer_weights in length")
    collected = [ActivationMatrix(label="layer_0", samples=x)]
    for k, weight in enumerate(layer_weights, start=1):
        w = np.asarray(weight, dtype=np.float64)
        bias = biases[k - 1] if biases is not None else None
        b = None if bias is None else np.asarray(bias, dtype=np.float64).reshape(-1)
        check_layer_shapes(k, x.shape[1], w.shape, None if b is None else b.size)
        # an overflow shows as a non-finite entry, refused by ActivationMatrix
        with np.errstate(over="ignore", invalid="ignore"):
            z = x @ w
            if b is not None:
                z = z + b
            x = fn(z)
        collected.append(ActivationMatrix(label=f"layer_{k}", samples=x))
    return collected


def weight_norm_report(
    sources: Sequence[Checkpoint],
    merged: Checkpoint,
    weights: Sequence[float] | None = None,
) -> list[dict[str, Any]]:
    """Per-tensor norms of sources and merge, and the shrinkage ratio
    ||merged|| / (sum_i alpha_i ||source_i||).

    A ratio near 1 means the merge preserved scale; straight averaging of
    disagreeing tensors lands strictly below 1.
    """
    m = len(sources)
    if m == 0:
        raise ValueError("weight_norm_report requires at least one source")
    alphas = normalized_weights(np.ones(m) if weights is None else weights, m)

    rows: list[dict[str, Any]] = []
    for name in merged.names():
        for i, src in enumerate(sources):
            if name not in src:
                raise AlignmentError(f"tensor {name!r} missing from source {i}")
        source_norms = [norm(src[name].data) for src in sources]
        merged_norm = norm(merged[name].data)
        expected = float(np.dot(alphas, source_norms))
        if expected < DEGENERATE_NORM:
            ratio = 1.0 if merged_norm < DEGENERATE_NORM else math.inf
        else:
            ratio = merged_norm / expected
        rows.append(
            {
                "name": name,
                "source_norms": source_norms,
                "merged_norm": merged_norm,
                "shrinkage_ratio": ratio,
            }
        )
    return rows
