"""Task-vector construction and delta sparsification primitives.

These are the per-tensor building blocks for trim/sign-resolve merging and
for random drop-and-rescale merging.  Everything is computed in float64 and
is fully deterministic: the stochastic ops take an explicit generator, which
callers derive from :func:`geomerge.rng.keyed_stream` so masks depend only on
``(seed, tensor name, model index)`` and never on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import keyed_stream

#: Entries per block where a loop works through a length-n vector a block at
#: a time: :func:`disjoint_merge`'s four float64 block buffers take 512 KiB,
#: :func:`_select`'s index array 128 KiB.
_BLOCK = 1 << 14


@dataclass
class SparsifySpec:
    """Density/drop-rate parameters for the sparsified delta transforms.

    ``density`` is the kept fraction for magnitude trimming; ``drop_rate``
    the expected zeroed fraction for random dropping; ``window`` the
    half-width of the magnitude-dependent drop-rate band (0 disables the
    magnitude dependence).
    """

    density: float = 0.5
    drop_rate: float = 0.5
    window: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {self.density}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if self.window < 0.0 or self.drop_rate - self.window < 0.0:
            raise ValueError("window must satisfy 0 <= window <= drop_rate")
        if self.drop_rate + self.window >= 1.0:
            raise ValueError("drop_rate + window must be < 1")


def sparsify_stream(seed: int, tensor_name: str, model_index: int) -> np.random.Generator:
    """Counter-based stream for one (tensor, model) pair."""
    return keyed_stream(seed, tensor_name, model_index)


def task_vector(
    expert: np.ndarray, base: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Elementwise update of an expert relative to its base (float64).

    Narrower inputs are widened inside the subtraction, not copied first.
    ``out``, if given, is a float64 vector of the same length that receives
    the result (a row of a preallocated stack); the result is returned.
    """
    e, b = np.ravel(expert), np.ravel(base)
    if e.shape != b.shape:
        raise ValueError(f"length mismatch: expert has {e.size}, base has {b.size}")
    return np.subtract(e, b, out=out, dtype=np.float64)


def trim_topk(
    delta: np.ndarray,
    density: float,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Keep the ceil(density*n) largest-magnitude entries, zero the rest.

    The k-th largest magnitude is found by selection (``np.partition`` over
    the nonzero magnitudes only), not by a full sort.  Every entry above
    that threshold is kept; entries equal to it are kept lowest index first
    until k are kept, which is exactly the set a stable descending sort of
    the magnitudes keeps.  Zeros (either sign) rank below every nonzero
    magnitude and NaN below zero, each lowest index first.  Kept entries
    keep their bits (``-0.0`` and NaN payloads included); the rest become
    ``+0.0``.  No step branches per entry on the mask: the nonzero
    magnitudes are selected by ``np.compress`` and the rest are zeroed by
    :func:`_zero_unkept`.

    ``out``, if given, is a float64 vector of the same length that receives
    the result (a row of a preallocated stack); the result is returned.
    ``scratch``, if given, is a float64 vector of that length, overlapping
    neither, that holds the magnitudes; what it holds after is unspecified.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    d = np.asarray(delta, dtype=np.float64).reshape(-1)
    n = d.size
    if out is None:
        out = d.copy()
    else:
        out[...] = d
    if n == 0 or density == 1.0:
        return out
    k = int(np.ceil(density * n))
    mags = np.abs(d, out=scratch)
    keep = mags > 0.0  # NaN compares false: NaN ranks below zero
    nonzero = int(np.count_nonzero(keep))
    if k < nonzero:
        # on an all-true mask a copy is about four times faster than compress
        values = mags.copy() if nonzero == n else _select(keep, mags, nonzero)
        values.partition(nonzero - k)
        threshold = values[nonzero - k]
        del values
        np.greater(mags, threshold, out=keep)
        keep[np.flatnonzero(mags == threshold)[: k - int(np.count_nonzero(keep))]] = True
    elif k > nonzero:
        zeros = np.flatnonzero(mags == 0.0)[: k - nonzero]
        keep[zeros] = True
        keep[np.flatnonzero(np.isnan(mags))[: k - nonzero - zeros.size]] = True
    return _zero_unkept(out, keep)


def _select(keep: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """``values[keep]``, which has ``count`` entries, by ``np.compress`` a
    block of ``_BLOCK`` at a time.

    A boolean subscript branches on every entry, and on a random mask the
    CPU mispredicts about every other branch; compress gathers through an
    index array instead.  Blocks keep that array ``_BLOCK`` long, not
    ``count``.
    """
    out = np.empty(count)
    start = 0
    for j in range(0, keep.size, _BLOCK):
        kept = keep[j : j + _BLOCK]
        stop = start + int(np.count_nonzero(kept))
        np.compress(kept, values[j : j + _BLOCK], out=out[start:stop])
        start = stop
    return out


def _zero_unkept(out: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``out[~keep] = 0.0`` without a branch per entry; returns ``out``.

    The float64 bits of ``out`` are multiplied, as uint64, by ``keep`` cast
    to 1 and 0: kept entries keep their bits (``-0.0`` and NaN payloads
    included) and the rest become +0.0.  A scatter through a random boolean
    mask mispredicts a branch on about every other entry; this is one ufunc
    pass.
    """
    bits = out.view(np.uint64)
    np.multiply(bits, keep, out=bits)
    return out


def elect_signs(
    deltas: Sequence[np.ndarray] | np.ndarray,
    weights: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-coordinate sign of the weighted delta sum; zero sums become +1.

    ``deltas`` is anything :func:`stack_rows` takes; ``out``, if given, is a
    float64 vector that receives the signs.  The sums are one
    OpenBLAS gemv per block of B columns, B the largest power of two with
    m * B < 9216.  OpenBLAS runs a gemv that small (under 2304 times its
    default ``GEMM_MULTITHREAD_THRESHOLD`` of 4) on the calling thread; a
    whole-stack ``w @ mat`` may go to its thread pool, whose threads then
    spin on the cores the merge workers need.

    Tied signs hang on the last bits of the sums, and those depend on where
    a column falls in the kernel's unrolled body or scalar tail.  Blocks a
    power of two wide keep every column where it falls in the whole stack,
    so each sum has the bits of one single-threaded ``w @ mat``.  Blocks of
    another width change the bits at each block's tail, as a threaded gemv
    does where it splits the columns; einsum or exact sums change them
    throughout.
    """
    totals = _weighted_totals(stack_rows(deltas), np.asarray(weights, dtype=np.float64), out)
    negative = totals < 0.0
    np.multiply(negative, -2.0, out=totals)  # -2.0 or -0.0, with no branch
    totals += 1.0
    return totals


def _weighted_totals(mat: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``w @ mat`` in the column blocks :func:`elect_signs` describes: one
    ``np.matmul`` over a (blocks, m, B) view, and one for the tail."""
    m, n = mat.shape
    block = 1 << max(0, (9215 // m).bit_length() - 1)
    full = n - n % block
    totals = np.empty(n) if out is None else out
    blocks = mat[:, :full].reshape(m, -1, block).transpose(1, 0, 2)
    np.matmul(w, blocks, out=totals[:full].reshape(-1, block))
    np.matmul(w, mat[:, full:], out=totals[full:])
    return totals


def disjoint_merge(
    deltas: Sequence[np.ndarray] | np.ndarray,
    weights: np.ndarray,
    signs: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted mean over the nonzero entries agreeing with the elected sign.

    Weights are renormalized over the agreeing subset per coordinate; a
    coordinate with no agreeing model is 0.  ``deltas`` is anything
    :func:`stack_rows` takes.  The numerator and denominator are
    accumulated one row at a time, in row order from +0.0.  The columns go
    in blocks of ``_BLOCK``, so that the denominator and the products stay
    in cache and only the result is n long; no m x n temporary is built.
    Every column is divided, and the ones without an agreeing model are
    zeroed after, since a ``where=`` mask costs a branch per column.

    ``out``, if given, is a float64 vector that receives the mean; it may be
    ``signs`` itself, since each block of signs is copied before its block of
    the mean is begun.
    """
    mat = stack_rows(deltas)
    w = np.asarray(weights, dtype=np.float64)
    s = np.asarray(signs, dtype=np.float64)
    m, n = mat.shape
    if w.shape != (m,):
        raise ValueError(f"expected {m} weights, got shape {w.shape}")
    if s.shape != (n,):
        raise ValueError("signs length does not match delta length")
    numer = np.empty(n) if out is None else out
    scratch = np.empty((4, min(n, _BLOCK)))
    mask = np.empty(scratch.shape[1], dtype=bool)
    for j in range(0, n, _BLOCK):
        num = numer[j : j + _BLOCK]
        k = num.size
        denom, product, weighted, sign = scratch[:, :k]
        agree = mask[:k]
        np.copyto(sign, s[j : j + k])
        num.fill(0.0)
        denom.fill(0.0)
        for w_i, row in zip(w, mat[:, j : j + k]):
            np.multiply(row, sign, out=product)
            np.greater(product, 0.0, out=agree)
            np.multiply(agree, w_i, out=weighted)
            denom += weighted
            np.multiply(weighted, row, out=product)
            num += product
        np.greater(denom, 0.0, out=agree)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(num, denom, out=num)
        _zero_unkept(num, agree)
    return numer


def dare_drop(delta: np.ndarray, drop_rate: float, rng: np.random.Generator) -> np.ndarray:
    """Zero each coordinate independently with probability ``drop_rate`` and
    rescale survivors by 1/(1-drop_rate), preserving the delta in expectation:
    :func:`della_drop` with ``window=0``.
    """
    return della_drop(delta, SparsifySpec(drop_rate=drop_rate, window=0.0), rng)


def della_drop(
    delta: np.ndarray,
    spec: SparsifySpec,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
    draws: np.ndarray | None = None,
) -> np.ndarray:
    """Magnitude-aware random dropping.

    Coordinates ranked by |delta| ascending get drop probabilities falling
    linearly from ``drop_rate + window`` (smallest magnitude) to
    ``drop_rate - window`` (largest); survivors are rescaled per coordinate.
    With ``window=0`` every coordinate has the scalar rate ``drop_rate`` and
    no ranking is done; that is DARE's drop.

    ``out``, if given, is a float64 vector of the same length that receives
    the result; it may be ``delta`` itself.  ``draws``, if given, is a
    float64 vector of that length used as scratch: what it holds after the
    call is unspecified, so callers read nothing from it.  Callers dropping
    several deltas share one.  Either way the bits are the same.  ``draws``
    may not overlap ``out``, nor ``delta`` when ``window > 0``, since the
    delta is then read after the rates are written there; a ValueError says
    so.  Dropped entries are zeroed by :func:`_zero_unkept`.
    """
    d = np.asarray(delta, dtype=np.float64).reshape(-1)
    n = d.size
    if out is None:
        out = np.empty(n)
    if draws is None:
        draws = np.empty(n)
    elif np.may_share_memory(draws, out) or (
        spec.window > 0.0 and np.may_share_memory(draws, d)
    ):
        raise ValueError("draws must not overlap out, nor delta when window > 0")
    if spec.window == 0.0:
        p: "float | np.ndarray" = spec.drop_rate
        np.multiply(d, 1.0 / (1.0 - p), out=out)
    else:
        hi = spec.drop_rate + spec.window
        lo = spec.drop_rate - spec.window
        if n == 1:
            p = np.array([0.5])
        else:
            # the rank of |d|, scattered a block at a time so that no
            # n-long arange is held next to the order, then the rate in place
            order = np.argsort(np.abs(d), kind="stable")
            p = np.empty(n)
            for start in range(0, n, _BLOCK):
                stop = min(n, start + _BLOCK)
                p[order[start:stop]] = np.arange(start, stop, dtype=np.float64)
            p /= n - 1
        np.multiply(hi - lo, p, out=p)
        np.subtract(hi, p, out=p)
        np.subtract(1.0, p, out=draws)
        np.divide(1.0, draws, out=draws)
        np.multiply(d, draws, out=out)
    rng.random(n, out=draws)
    # draws lie in [0, 1) and p is finite: keeping draws >= p drops draws < p
    return _zero_unkept(out, draws >= p)


def stack_rows(vectors: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Equal-length vectors as the rows of one float64 matrix.

    An m x n float64 array is used as is, not copied.  Anything else is a
    sequence of arrays of any float dtype and shape, each flattened and cast
    straight into its row of one new matrix.
    """
    if len(vectors) == 0:
        raise ValueError("need at least one vector")
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2 and vectors.dtype == np.float64:
        return vectors
    flats = [np.ravel(v) for v in vectors]
    for i, flat in enumerate(flats):
        if flat.size != flats[0].size:
            raise ValueError(
                f"length mismatch: vector 0 has {flats[0].size}, vector {i} has {flat.size}"
            )
    return np.stack(flats, dtype=np.float64)
