"""Geodesic interpolation between two unit vectors and the weighted
geodesic-barycenter (Karcher mean) fixed-point solver on the unit
hypersphere.

Vectors are plain 1-D numpy arrays.  Every operation converts to float64
internally, so reductions carry full double-precision partials regardless of
the caller's working precision.  Points passed to the solver are
re-normalized on entry.

The barycenter solver follows the fixed-point scheme of Buss & Fillmore
("Spherical averages and applications to spherical splines and
interpolation", ACM TOG 2001).  Every iterate lies in the span of the m unit
points u_i, so it is kept as coefficients beta (x = sum_i beta_i u_i) and the
loop runs on the m x m Gram matrix G = U U^T: one O(m^2 n) product, then
O(m^2) per iteration, then O(m n) to rebuild x and measure the residual.
The reported ``residual`` is the tangent-mean norm computed in n-space at
the returned iterate, so ``converged`` means ``residual < tol`` there; an
iterate the Gram estimate calls converged but n-space does not is iterated
further.  The solver has fixed summation order and no state shared between
tensors, and its n-length products never go through BLAS, so merges stay
byte-identical for any ``--threads`` value or BLAS thread count.

Every n-space pass of the solver runs over blocks of :data:`COLUMN_BLOCK`
columns: the Gram matrix is summed block by block, and the chord and the
residual are combined into one block-sized scratch vector whose squares are
summed, so the solver holds no n-length vector but the mean it returns.  A
tensor of at most one block gives the bits of the whole-stack products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import AntipodalError

#: Norms below this are treated as directionless (zero) vectors.
DEGENERATE_NORM = 1e-12

_ZERO_ANGLE = 1e-12

#: Points whose cosine is within this of -1 count as antipodal, where the
#: geodesic between them is not unique.
ANTIPODAL_EPS = 1e-8


@dataclass
class KarcherConfig:
    """Solver controls: step size, stationarity tolerance, iteration cap."""

    eta: float = 1.0
    tol: float = 1e-6
    max_iter: int = 50

    def __post_init__(self) -> None:
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class KarcherResult:
    """Fixed point reached by the solver plus its exit diagnostics.

    ``residual`` is the norm of the weighted tangent-space mean at the final
    iterate, measured in n-space; ``converged`` holds exactly when
    ``residual < tol``.  ``stalled`` holds when the solve stopped short of
    ``tol`` because a step fell below the smallest angle the solver moves
    by, rather than at ``max_iter``.
    """

    mean: np.ndarray
    iterations: int
    residual: float
    converged: bool
    stalled: bool = False


def slerp(p: np.ndarray, q: np.ndarray, t: float, out: np.ndarray | None = None) -> np.ndarray:
    """Constant-speed geodesic interpolation between unit vectors (into
    ``out``, if given), normalized linear interpolation when the angle
    vanishes.  The q-term is added one :data:`COLUMN_BLOCK` at a time
    through a block-sized scratch vector, so no argument is modified.
    """
    p64, q64 = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    c = float(np.clip(inner(p64, q64), -1.0, 1.0))
    if c <= -1.0 + ANTIPODAL_EPS:
        raise AntipodalError("slerp undefined for (near-)antipodal points")
    theta = float(np.arccos(c))
    if theta < _ZERO_ANGLE:
        cp, cq = 1.0 - t, t
    else:
        s = np.sin(theta)
        cp, cq = np.sin((1.0 - t) * theta) / s, np.sin(t * theta) / s
    out = np.multiply(p64, cp, out=out)
    scratch = np.empty(min(out.size, COLUMN_BLOCK))
    for cols in column_blocks(out.size):
        block = q64[cols]
        out[cols] += np.multiply(block, cq, out=scratch[: block.size])
    if theta < _ZERO_ANGLE:
        out /= norm(out)
    return out


def normalized_weights(weights: "np.ndarray | Sequence[float]", count: int) -> np.ndarray:
    """``count`` finite, non-negative weights scaled to sum to 1."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (count,):
        raise ValueError(f"expected {count} weights, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if (w < 0).any() or total <= 0.0:
        raise ValueError("weights must be non-negative and not all zero")
    if total == np.inf:  # every weight would become 0
        raise ValueError("weights must have a finite sum")
    return w / total


# -- n-length kernels -------------------------------------------------------
# Every norm, dot and m x n product over tensor-length vectors goes through
# np.einsum with its default optimize=False, which never calls BLAS: merges
# run these inside their own worker pool, where a threaded BLAS call would
# wake BLAS's threads to spin on the cores the other workers need, and its
# partial sums would depend on the host's core count.  einsum sums on the
# calling thread in an order fixed by the shapes.  np.vecdot, np.dot and
# np.inner are no substitute: on float64 they call BLAS ddot, and with a
# Gram matrix built on np.vecdot the karcher summary changed between
# OPENBLAS_NUM_THREADS=1 and 2 (tests/test_blas_free.py).  The m x m
# coefficient algebra stays on ``@``: it is far below BLAS's threading size.

#: Columns per block in the solver's n-space passes (512 KiB of one row).
#: Each block is a few numpy calls, and a worker takes the GIL back after
#: each, so smaller blocks lose to the handoffs what they gain in cache.
#: Two threads each running 8 ``merge_karcher`` calls on 4 x 2**20 float64
#: sources, on a 2-core x86-64 host (best of 5, three rounds): whole-stack
#: passes 0.39-0.40 s; blocks of 2**14 columns 0.29-0.32 s, 2**16
#: 0.27-0.30 s, 2**18 0.29-0.35 s.
COLUMN_BLOCK = 1 << 16


def column_blocks(n: int) -> list[slice]:
    """Slices of at most :data:`COLUMN_BLOCK` columns covering ``n``; one
    empty slice when ``n`` is 0, so a sum over the blocks has a first term."""
    return [slice(j, j + COLUMN_BLOCK) for j in range(0, max(n, 1), COLUMN_BLOCK)]


def norm(v: np.ndarray) -> float:
    """Euclidean norm of the flattened ``v``, summed in float64.

    Narrower input is widened chunk by chunk, with no full-length copy.  When
    the sum of squares overflows though every entry is finite, the norm is
    summed again over the entries scaled by the largest magnitude, so it is
    finite unless it exceeds float64's range itself.
    """
    flat = np.ravel(v)
    squares = np.einsum("i,i->", flat, flat, dtype=np.float64)
    if squares == math.inf and np.isfinite(flat).all():
        scale = float(max(flat.max(), -flat.min()))
        return scale * norm(flat / scale)
    return math.sqrt(squares)


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two vectors, summed in float64."""
    return float(np.einsum("i,i->", a, b, dtype=np.float64))


def combine_rows(coef: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``sum_i coef_i * rows[i]``, accumulated in row order (into ``out``, if given)."""
    return np.einsum("i,ij->j", coef, rows, out=out)


def row_dots(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``<rows[i], x>`` for every row."""
    return np.einsum("ij,j->i", rows, x)


def gram_matrix(rows: np.ndarray) -> np.ndarray:
    """``<rows[i], rows[j]>`` for every pair of rows."""
    return np.einsum("ik,jk->ij", rows, rows)


def combined_norm(coef: np.ndarray, rows: np.ndarray) -> float:
    """``norm(combine_rows(coef, rows))``, combined one column block at a time
    into a block-sized scratch vector, with no n-length vector.

    The squares are summed per block and the block sums in order, so at most
    one block gives :func:`norm`'s bits.  Meant for combinations of unit rows
    with bounded coefficients, whose sum of squares cannot overflow.
    """
    scratch = np.empty(min(rows.shape[1], COLUMN_BLOCK))
    squares = 0.0
    for cols in column_blocks(rows.shape[1]):
        block = rows[:, cols]
        part = combine_rows(coef, block, scratch[: block.shape[1]])
        squares += inner(part, part)
    return math.sqrt(squares)


def _tangent_coefficients(
    dots: np.ndarray, beta: np.ndarray, w: np.ndarray, iteration: int
) -> np.ndarray:
    """Coefficients on the unit points of the weighted mean of log maps.

    ``dots`` holds <u_i, x> and ``beta`` the coefficients of the iterate x.
    Log_x(u_i) = (theta_i / sin theta_i) (u_i - <u_i, x> x), so the weighted
    mean is sum_i gamma_i u_i with gamma = w*coef - (sum_i w_i coef_i c_i) beta,
    which is tangent at x by construction.
    """
    dots = np.clip(dots, -1.0, 1.0)
    bad = np.nonzero(dots <= -1.0 + ANTIPODAL_EPS)[0]
    if bad.size:
        raise AntipodalError(
            f"point {int(bad[0])} is antipodal to the iterate at iteration {iteration}"
        )
    # theta / sin(theta), with its limit 1 at theta = 0; smooth in theta, so
    # the digits arccos loses on tiny angles do not matter
    coef = 1.0 / np.sinc(np.arccos(dots) / np.pi)
    wc = w * coef
    # fixed summation order (input order) keeps results reproducible
    return wc - float(wc @ dots) * beta


def _at_iterate(
    pts: np.ndarray,
    inv_norms: np.ndarray,
    beta: np.ndarray,
    w: np.ndarray,
    iteration: int,
    out: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Rebuild the iterate in n-space (in ``out``, if given) and measure the
    stationarity residual there.

    Returns (x, beta, gamma, residual) with x re-normalized by its n-space norm
    and gamma the tangent-mean coefficients from n-space dot products.  Each
    pass (x, the row dots, the residual) runs one column block at a time.
    """
    blocks = column_blocks(pts.shape[1])
    x = np.empty(pts.shape[1]) if out is None else out
    coef = beta * inv_norms
    for cols in blocks:
        combine_rows(coef, pts[:, cols], x[cols])
    x_norm = norm(x)
    x /= x_norm
    beta = beta / x_norm
    dots = reduce(np.add, (row_dots(pts[:, cols], x[cols]) for cols in blocks))
    gamma = _tangent_coefficients(dots * inv_norms, beta, w, iteration)
    residual = combined_norm(gamma * inv_norms, pts)
    return x, beta, gamma, residual


def karcher_mean(
    points: "np.ndarray | list[np.ndarray]",
    weights: np.ndarray,
    config: KarcherConfig | None = None,
    out: np.ndarray | None = None,
) -> KarcherResult:
    """Weighted geodesic barycenter of unit vectors via fixed-point iteration.

    Starting from the normalized weighted Euclidean mean (or the
    highest-weight point when that mean degenerates), each step moves along
    ``Exp_x(eta * mean_i w_i Log_x(u_i))`` until the tangent-mean norm drops
    below ``tol``, ``max_iter`` steps have been taken, or the iterate stalls
    (a step shorter than the smallest angle the solver moves by, after which
    one more iteration measures it in n-space and stops).  Non-convergence
    returns the last iterate with ``converged=False`` rather than raising,
    and ``stalled`` says whether a stall or ``max_iter`` ended it.

    The iterate is kept as coefficients on the points and the loop runs on
    their Gram matrix, summed over column blocks; see the module docstring.
    A 2-D float64 ``points`` array is used as given, without a copy.
    ``out``, if given, is a float64 vector that receives the mean.
    """
    cfg = config or KarcherConfig()
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m, n = pts.shape
    if m == 0:
        raise ValueError("karcher_mean requires at least one point")
    w = normalized_weights(weights, m)
    gram = reduce(np.add, (gram_matrix(pts[:, cols]) for cols in column_blocks(n)))
    norms = np.sqrt(np.diagonal(gram))
    if (norms < DEGENERATE_NORM).any():
        bad = int(np.argmin(norms))
        raise ValueError(f"point {bad} has (near-)zero norm; not a direction")
    # normalize in coefficient space: the unit points are pts / norms
    inv_norms = 1.0 / norms
    gram *= np.outer(inv_norms, inv_norms)

    chord_norm = combined_norm(w * inv_norms, pts)
    if chord_norm < DEGENERATE_NORM:
        beta = np.zeros(m)
        beta[int(np.argmax(w))] = 1.0
    else:
        beta = w / chord_norm

    # gamma^T G gamma carries rounding of about this much times ||gamma||_1^2;
    # within it of tol^2 the residual is decided in n-space instead
    slack = 16.0 * (m + np.sqrt(n)) * np.finfo(np.float64).eps
    # r2 is at most about pi**2, so the cap changes no decision; it keeps the
    # square finite, which a float power refuses past 1e154 (OverflowError)
    tol2 = min(cfg.tol, 1e150) ** 2
    iteration = 0
    stalled = False
    while True:
        gamma = _tangent_coefficients(gram @ beta, beta, w, iteration)
        r2 = float(gamma @ gram @ gamma)
        last = stalled or iteration == cfg.max_iter
        if last or r2 < tol2 + slack * float(np.abs(gamma).sum()) ** 2:
            x, beta, gamma, residual = _at_iterate(pts, inv_norms, beta, w, iteration, out)
            if residual < cfg.tol or last:
                converged = residual < cfg.tol
                return KarcherResult(
                    mean=x,
                    iterations=iteration,
                    residual=residual,
                    converged=converged,
                    stalled=stalled and not converged,
                )
            r = residual
        else:
            r = float(np.sqrt(r2))
        step = cfg.eta * r
        # a step this small is not taken: the iterate can no longer move, so
        # the next iteration is the last
        stalled = step < _ZERO_ANGLE
        if not stalled:
            beta = np.cos(step) * beta + (np.sin(step) / r) * gamma
            beta /= float(np.sqrt(beta @ gram @ beta))
        iteration += 1
