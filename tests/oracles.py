"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the file-format and math
definitions from first principles (pure Python loops, bit twiddling, dense
grids) so it shares no code with the package under test.  The exceptions
are ``run_merge_held``, an earlier orchestration of the package's own rules,
loads and writer, kept to compare output paths; the ``*_scatter`` kernels,
four ``delta_ops`` kernels as they were with boolean-mask scatters, kept to
pin the branch-free ones byte for byte; ``decode_buffer_direct``, the
allocating payload decode, kept to pin the one that decodes in place; and
``bootstrap_stats_per_metric``, the bootstrap summary as it was with one
array per named metric and each draw's ``spectral_stats``, kept to pin the
one-table form and the n >= d draws; ``gram_draws`` and
``bootstrap_stats_from_gram``, the n < d draws from one centred Gram of the
layer in plain numpy, kept to pin the package's bits, with
``assert_draws_near_spectral_stats`` holding them to ``spectral_stats``;
``covariance_spectrum_gram``, the n < d spectrum of a plain matrix as the
Gram of every centred row, kept to pin its bits; and
``diagnose_eager``, the ``diagnose`` report as it was when every tensor of
the input was read before the first draw, kept to pin the streamed one, with
``toy_forward_stack``, the toy forward as it was with one loop over the
whole stack, kept to pin the one-layer step that the command calls;
``karcher_mean_to_max_iter``, the Gram-coefficient solver as it was before a
stall ended the solve, kept to pin the stall exit's mean and residual; and
``karcher_mean_unblocked``, the solver as it was with whole-stack products
and n-length chord and residual vectors, kept to pin the blocked one;
``multislerp_direct``, the multislerp merge as it was with its own equal-rows
copy, solve and norm rescale, kept to pin the one that runs on
``merge_karcher``; ``model_stock_direct``, the Model Stock merge as it
was with fresh deltas and a fresh blend, kept to pin the one that merges in
the workspace; and ``slerp_direct`` and ``unit_slerp_direct``, the slerp
merge and the two-point ``sphere.slerp`` as they were with whole-vector
products, kept to pin the ones that write into ``out``.  The two-point maps
``normalize_to_sphere``, ``geodesic_distance``, ``sphere_log``,
``sphere_exp`` and ``frechet_objective`` were the package's own until no
command reached them; they serve as reference geometry here.  So were a
whole-container read and a norm-shrinkage report: ``read_records`` loads
every tensor through the package's ``open_checkpoint``, and
``shrinkage_ratio`` takes the report's ratio of in-memory arrays.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Sequence

import numpy as np

from geomerge.delta_ops import _BLOCK, SparsifySpec, _weighted_totals, stack_rows
from geomerge.diagnostics import (
    NONLINEARITIES,
    ActivationMatrix,
    SpectralStats,
    check_layer_shapes,
    effective_rank,
    numerical_rank,
    participation_ratio,
    spectral_stats,
    stable_rank,
)
from geomerge.errors import AntipodalError, DegenerateError, NonFiniteError
from geomerge.rng import keyed_stream
from geomerge.sphere import (
    _ZERO_ANGLE,
    ANTIPODAL_EPS,
    DEGENERATE_NORM,
    KarcherConfig,
    KarcherResult,
    _at_iterate,
    _tangent_coefficients,
    combine_rows,
    gram_matrix,
    inner,
    norm,
    normalized_weights,
    row_dots,
)
from geomerge.tensor_io import open_checkpoint


# -- container format (independent writer) -----------------------------------


def build_container(
    entries: dict[str, tuple[str, list[int], bytes]],
    metadata: dict[str, str] | None = None,
) -> bytes:
    """Assemble container bytes by hand: name -> (dtype tag, shape, raw buffer)."""
    header: dict[str, object] = {}
    if metadata is not None:
        header["__metadata__"] = metadata
    payload = b""
    for name, (tag, shape, raw) in entries.items():
        header[name] = {
            "dtype": tag,
            "shape": shape,
            "data_offsets": [len(payload), len(payload) + len(raw)],
        }
        payload += raw
    blob = json.dumps(header).encode("utf-8")
    return len(blob).to_bytes(8, "little") + blob + payload


# -- IEEE 754 half / bfloat16 (bit-level, scalar) -----------------------------


def f16_bits_to_float(bits: int) -> float:
    """Decode one IEEE 754 binary16 bit pattern."""
    sign = -1.0 if (bits >> 15) & 1 else 1.0
    exp = (bits >> 10) & 0x1F
    mant = bits & 0x3FF
    if exp == 0:
        return sign * mant * 2.0**-24
    if exp == 31:
        return sign * math.inf if mant == 0 else math.nan
    return sign * (1.0 + mant / 1024.0) * 2.0 ** (exp - 15)


def bf16_bits_to_float(bits: int) -> float:
    """Decode one bfloat16 bit pattern by widening to binary32."""
    return struct.unpack("<f", struct.pack("<I", bits << 16))[0]


def float_to_bf16_bits(value: float) -> int:
    """Round one binary32 value to bfloat16 (round to nearest, ties to even)."""
    (u,) = struct.unpack("<I", struct.pack("<f", value))
    if math.isnan(value):
        return ((u >> 16) | 0x0040) & 0xFFFF
    rounding = 0x7FFF + ((u >> 16) & 1)
    return ((u + rounding) >> 16) & 0xFFFF


# -- magnitude trimming (pure-python reference) --------------------------------


def trim_reference(values: list[float], density: float) -> list[float]:
    """Keep the ceil(density*n) largest magnitudes; ties keep lower index."""
    n = len(values)
    if n == 0:
        return []
    k = math.ceil(density * n)
    order = sorted(range(n), key=lambda i: (-abs(values[i]), i))
    keep = set(order[:k])
    return [v if i in keep else 0.0 for i, v in enumerate(values)]


# -- dense sphere grid for barycenter search ----------------------------------


def sphere_grid(resolution_deg: float) -> np.ndarray:
    """All (theta, phi) lattice points on S^2 at the given angular resolution."""
    thetas = np.deg2rad(np.arange(0.0, 180.0 + resolution_deg / 2, resolution_deg))
    phis = np.deg2rad(np.arange(0.0, 360.0, resolution_deg))
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    t, p = t.ravel(), p.ravel()
    return np.stack(
        [np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=1
    )


def grid_frechet_minimizer(
    grid: np.ndarray, points: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, float]:
    """Brute-force weighted-squared-geodesic minimizer over a fixed grid."""
    w = weights / weights.sum()
    dots = np.clip(grid @ points.T, -1.0, 1.0)
    objective = (np.arccos(dots) ** 2) @ w
    best = int(np.argmin(objective))
    return grid[best], float(objective[best])


# -- two-point sphere maps (reference geometry) --------------------------------

#: ``sphere_exp`` rejects a velocity whose dot with ``p`` exceeds this times its norm.
_TANGENCY_TOL = 1e-6


def normalize_to_sphere(v: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Split a vector into (unit direction, norm).

    Returns ``None`` for degenerate (near-zero-norm) input, where no
    direction exists.  Non-finite entries raise :class:`NonFiniteError`.
    """
    arr = np.asarray(v, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NonFiniteError("cannot normalize a vector with NaN/Inf entries")
    length = norm(arr)
    if length < DEGENERATE_NORM:
        return None
    return arr / length, length


def geodesic_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Great-circle distance between unit vectors, in [0, pi]."""
    c = inner(np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def sphere_log(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Tangent vector at ``p`` pointing along the geodesic to ``q``.

    The result is orthogonal to ``p`` with norm equal to the geodesic
    distance.  Raises :class:`AntipodalError` when the points are antipodal
    up to ``ANTIPODAL_EPS`` (the direction is then undefined).
    """
    p64, q64 = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    c = float(np.clip(inner(p64, q64), -1.0, 1.0))
    if c <= -1.0 + ANTIPODAL_EPS:
        raise AntipodalError("log map undefined for (near-)antipodal points")
    theta = float(np.arccos(c))
    if theta < _ZERO_ANGLE:
        return np.zeros_like(p64)
    residual = q64 - c * p64
    rnorm = norm(residual)
    if rnorm < DEGENERATE_NORM:
        return np.zeros_like(p64)
    return residual * (theta / rnorm)


def sphere_exp(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Follow the geodesic from ``p`` with initial velocity ``v``.

    ``v`` must be tangent at ``p``; the output is re-normalized to the
    sphere.
    """
    p64, v64 = np.asarray(p, dtype=np.float64), np.asarray(v, dtype=np.float64)
    n = norm(v64)
    if n < _ZERO_ANGLE:
        return p64.copy()
    if abs(inner(p64, v64)) > _TANGENCY_TOL * n:
        raise ValueError("exp map requires a tangent vector (<p, v> != 0)")
    out = np.cos(n) * p64 + np.sin(n) * (v64 / n)
    return out / norm(out)


def frechet_objective(
    x: np.ndarray, points: "np.ndarray | list[np.ndarray]", weights: np.ndarray
) -> float:
    """Weighted sum of squared geodesic distances from ``x`` to ``points``."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] == 0:
        raise ValueError("frechet_objective requires at least one point")
    w = normalized_weights(weights, pts.shape[0])
    dots = np.clip(row_dots(pts, np.asarray(x, dtype=np.float64)), -1.0, 1.0)
    return float(w @ (np.arccos(dots) ** 2))


def unit_slerp_direct(p: np.ndarray, q: np.ndarray, t: float) -> np.ndarray:
    """``sphere.slerp`` as it was, with whole-vector products and no ``out``."""
    p64, q64 = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    c = float(np.clip(inner(p64, q64), -1.0, 1.0))
    if c <= -1.0 + ANTIPODAL_EPS:
        raise AntipodalError("slerp undefined for (near-)antipodal points")
    theta = float(np.arccos(c))
    if theta < _ZERO_ANGLE:
        mix = (1.0 - t) * p64 + t * q64
        return mix / norm(mix)
    s = np.sin(theta)
    return (np.sin((1.0 - t) * theta) / s) * p64 + (np.sin(t * theta) / s) * q64


def slerp_direct(a: np.ndarray, b: np.ndarray, t: float = 0.5) -> np.ndarray:
    """``merge_slerp`` as it was: fresh float64 copies, each normalized by
    ``normalize_to_sphere``, interpolated by :func:`unit_slerp_direct`."""
    a64 = np.asarray(a, dtype=np.float64).reshape(-1)
    b64 = np.asarray(b, dtype=np.float64).reshape(-1)
    if t == 0.0 or np.array_equal(a64, b64):
        return a64.copy()
    if t == 1.0:
        return b64.copy()
    na = normalize_to_sphere(a64)
    nb = normalize_to_sphere(b64)
    if na is None or nb is None:
        raise DegenerateError("slerp sources must have nonzero norm")
    direction = unit_slerp_direct(na[0], nb[0], t)
    return direction * ((1.0 - t) * na[1] + t * nb[1])


# -- random data helpers -------------------------------------------------------


def hemisphere_points(
    rng: np.random.Generator, m: int, d: int, spread: float = 0.6
) -> np.ndarray:
    """m unit vectors confined to an open hemisphere around a random center."""
    center = rng.standard_normal(d)
    center /= np.linalg.norm(center)
    pts = np.empty((m, d))
    for i in range(m):
        while True:
            v = center + spread * rng.standard_normal(d)
            norm = np.linalg.norm(v)
            if norm > 1e-9 and np.dot(v / norm, center) > 0.15:
                pts[i] = v / norm
                break
    return pts


# -- n-space barycenter iteration (reference solver) ---------------------------


def karcher_direct(
    points: np.ndarray,
    weights: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 50,
    eta: float = 1.0,
) -> tuple[np.ndarray, int, float, bool]:
    """Fixed-point barycenter iteration carried out on full n-vectors.

    Each step builds every log map u_i - <u_i, x> x explicitly, so one
    iteration costs O(m n).  Returns (mean, iterations, residual, converged)
    with the package solver's stopping rule at a ``tol`` it can reach: stop
    at the first iterate whose tangent-mean norm is below ``tol``, or at
    ``max_iter``.  It has no stall exit.
    """
    pts = np.asarray(points, dtype=np.float64)
    pts = pts / np.linalg.norm(pts, axis=1)[:, None]
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    chord = w @ pts
    chord_norm = np.linalg.norm(chord)
    x = pts[int(np.argmax(w))].copy() if chord_norm < 1e-12 else chord / chord_norm
    for iteration in range(max_iter + 1):
        dots = np.clip(pts @ x, -1.0, 1.0)
        if (dots <= -1.0 + 1e-8).any():
            raise ValueError(f"antipodal point at iteration {iteration}")
        thetas = np.arccos(dots)
        residuals = pts - dots[:, None] * x[None, :]
        rnorms = np.linalg.norm(residuals, axis=1)
        coef = np.where(
            (thetas < 1e-12) | (rnorms < 1e-12), 0.0, thetas / np.maximum(rnorms, 1e-300)
        )
        v = (w * coef) @ residuals
        residual = float(np.linalg.norm(v))
        if residual < tol or iteration == max_iter:
            return x, iteration, residual, residual < tol
        step = eta * residual
        if step >= 1e-12:
            x = np.cos(step) * x + np.sin(step) * (v / residual)
            x = x / np.linalg.norm(x)
    raise AssertionError("unreachable")


def karcher_mean_to_max_iter(
    points: np.ndarray,
    weights: np.ndarray,
    config: KarcherConfig | None = None,
    out: np.ndarray | None = None,
) -> KarcherResult:
    """``sphere.karcher_mean`` as it was before a stall ended the solve: a
    step too small to take is skipped and the loop runs on to ``max_iter``,
    rebuilding the iterate in n-space whenever the Gram estimate nears
    ``tol``."""
    cfg = config or KarcherConfig()
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m, n = pts.shape
    w = normalized_weights(weights, m)
    gram = gram_matrix(pts)
    inv_norms = 1.0 / np.sqrt(np.diagonal(gram))
    gram *= np.outer(inv_norms, inv_norms)
    chord_norm = norm(combine_rows(w * inv_norms, pts))
    if chord_norm < DEGENERATE_NORM:
        beta = np.zeros(m)
        beta[int(np.argmax(w))] = 1.0
    else:
        beta = w / chord_norm
    slack = 16.0 * (m + np.sqrt(n)) * np.finfo(np.float64).eps
    iteration = 0
    while True:
        gamma = _tangent_coefficients(gram @ beta, beta, w, iteration)
        r2 = float(gamma @ gram @ gamma)
        last = iteration == cfg.max_iter
        if last or r2 < cfg.tol**2 + slack * float(np.abs(gamma).sum()) ** 2:
            x, beta, gamma, residual = _at_iterate(pts, inv_norms, beta, w, iteration, out)
            if residual < cfg.tol or last:
                return KarcherResult(x, iteration, residual, residual < cfg.tol)
            r = residual
        else:
            r = float(np.sqrt(r2))
        step = cfg.eta * r
        if step >= _ZERO_ANGLE:
            beta = np.cos(step) * beta + (np.sin(step) / r) * gamma
            beta /= float(np.sqrt(beta @ gram @ beta))
        iteration += 1


def _at_iterate_unblocked(
    pts: np.ndarray,
    inv_norms: np.ndarray,
    beta: np.ndarray,
    w: np.ndarray,
    iteration: int,
    out: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``sphere._at_iterate`` as it was before its passes ran over column
    blocks: x, its row dots and the residual from whole-stack products, the
    residual through an n-length vector."""
    x = combine_rows(beta * inv_norms, pts, out)
    x_norm = norm(x)
    x /= x_norm
    beta = beta / x_norm
    gamma = _tangent_coefficients(row_dots(pts, x) * inv_norms, beta, w, iteration)
    residual = norm(combine_rows(gamma * inv_norms, pts))
    return x, beta, gamma, residual


def karcher_mean_unblocked(
    points: np.ndarray,
    weights: np.ndarray,
    config: KarcherConfig | None = None,
    out: np.ndarray | None = None,
) -> KarcherResult:
    """``sphere.karcher_mean`` as it was before its n-space passes ran over
    column blocks: one whole-stack Gram matrix, an n-length chord, and
    :func:`_at_iterate_unblocked`.  The stall exit is the package's."""
    cfg = config or KarcherConfig()
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m, n = pts.shape
    if m == 0:
        raise ValueError("karcher_mean requires at least one point")
    w = normalized_weights(weights, m)
    gram = gram_matrix(pts)
    norms = np.sqrt(np.diagonal(gram))
    if (norms < DEGENERATE_NORM).any():
        bad = int(np.argmin(norms))
        raise ValueError(f"point {bad} has (near-)zero norm; not a direction")
    inv_norms = 1.0 / norms
    gram *= np.outer(inv_norms, inv_norms)
    chord_norm = norm(combine_rows(w * inv_norms, pts))
    if chord_norm < DEGENERATE_NORM:
        beta = np.zeros(m)
        beta[int(np.argmax(w))] = 1.0
    else:
        beta = w / chord_norm
    slack = 16.0 * (m + np.sqrt(n)) * np.finfo(np.float64).eps
    iteration = 0
    stalled = False
    while True:
        gamma = _tangent_coefficients(gram @ beta, beta, w, iteration)
        r2 = float(gamma @ gram @ gamma)
        last = stalled or iteration == cfg.max_iter
        if last or r2 < cfg.tol**2 + slack * float(np.abs(gamma).sum()) ** 2:
            x, beta, gamma, residual = _at_iterate_unblocked(
                pts, inv_norms, beta, w, iteration, out
            )
            if residual < cfg.tol or last:
                converged = residual < cfg.tol
                return KarcherResult(
                    x, iteration, residual, converged, stalled=stalled and not converged
                )
            r = residual
        else:
            r = float(np.sqrt(r2))
        step = cfg.eta * r
        stalled = step < _ZERO_ANGLE
        if not stalled:
            beta = np.cos(step) * beta + (np.sin(step) / r) * gamma
            beta /= float(np.sqrt(beta @ gram @ beta))
        iteration += 1


# -- multislerp and model_stock as they were (reference merges) ----------------


def multislerp_direct(
    tensors: Sequence[np.ndarray],
    weights: Sequence[float],
    *,
    out: np.ndarray | None = None,
    norms: Sequence[float] | None = None,
) -> np.ndarray:
    """``merge_multislerp`` as it was before it ran on ``merge_karcher``: its
    own equal-rows copy, one-step ``karcher_mean`` and ``w @ norms`` rescale."""
    import logging
    import sys

    from geomerge.merge_methods import _row_norms, _rows_equal, weighted_sum
    from geomerge.sphere import combined_norm, karcher_mean

    if len(tensors) < 2:
        raise ValueError("multislerp requires at least 2 tensors")
    w = normalized_weights(weights, len(tensors))
    stack = stack_rows(tensors)
    out = np.empty(stack.shape[1]) if out is None else out
    if _rows_equal(stack):
        np.copyto(out, stack[0])
        return out
    norms = _row_norms(stack, norms)
    zero = np.flatnonzero(norms < DEGENERATE_NORM)
    if zero.size:
        from geomerge.errors import DegenerateError

        raise DegenerateError(f"multislerp source {int(zero[0])} has (near-)zero norm")
    if combined_norm(w / norms, stack) < DEGENERATE_NORM:
        logging.getLogger("geomerge.merge_methods").warning(
            "multislerp basepoint degenerate (symmetric sources); using lerp"
        )
        return weighted_sum(stack, w, out)
    one_step = KarcherConfig(eta=1.0, tol=sys.float_info.min, max_iter=1)
    return np.multiply(karcher_mean(stack, w, one_step, out).mean, float(w @ norms), out=out)


def model_stock_direct(base: np.ndarray, experts: Sequence[np.ndarray]) -> np.ndarray:
    """``merge_model_stock`` as it was before it merged in the workspace: a
    fresh delta per expert, a fresh expert mean and a whole-vector blend."""
    from geomerge.delta_ops import task_vector
    from geomerge.merge_methods import weighted_sum
    from geomerge.sphere import inner

    m = len(experts)
    if m < 2:
        raise ValueError(f"model_stock requires at least 2 experts, got {m}")
    b = np.asarray(base, dtype=np.float64).reshape(-1)
    deltas = [task_vector(e, b) for e in experts]
    norms = [norm(d) for d in deltas]
    cosines = []
    for i in range(m):
        for j in range(i + 1, m):
            if norms[i] < DEGENERATE_NORM or norms[j] < DEGENERATE_NORM:
                cosines.append(1.0)
            else:
                cosines.append(inner(deltas[i], deltas[j]) / (norms[i] * norms[j]))
    c = float(np.mean(cosines))
    c = min(max(c, -1.0 / (m - 1) + 1e-6), 1.0)
    t = m * c / (1.0 + (m - 1) * c)
    expert_mean = weighted_sum(experts, normalized_weights(np.ones(m), m))
    return t * expert_mean + (1.0 - t) * b


# -- d x d covariance eigensolve (reference spectrum) --------------------------


def covariance_spectrum_direct(samples: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of the full d x d unbiased feature covariance.

    Builds C^T C / (n-1) from the row-centered n x d matrix C and eigensolves
    it whatever the shape, at O(n d^2 + d^3); tiny negative eigenvalues are
    clamped to zero.
    """
    x = np.asarray(samples, dtype=np.float64)
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eig = np.linalg.eigvalsh(cov)
    return np.clip(eig, 0.0, None)[::-1]


def covariance_spectrum_gram(samples: np.ndarray) -> np.ndarray:
    """The package's ``covariance_spectrum`` route for n < d as it was before
    repeated rows were collapsed: the n x n Gram C C^T / (n-1) of every
    centered row, eigensolved and zero-padded to length d."""
    x = np.asarray(samples, dtype=np.float64)
    n, d = x.shape
    assert n < d, "the Gram route is the n < d one"
    centered = x - x.mean(axis=0, keepdims=True)
    gram = centered @ centered.T / (n - 1)
    eig = np.clip(np.linalg.eigvalsh(gram), 0.0, None)[::-1]
    spectrum = np.zeros(d)
    spectrum[: eig.size] = eig
    return spectrum


def bootstrap_stats_per_metric(
    samples: np.ndarray, label: str, draws: int, seed: int
) -> dict[str, dict[str, float]]:
    """Each metric's bootstrap mean and std, its draws gathered by name.

    The package's ``bootstrap_stats`` as it was before its draws went into
    one table: each draw's five summaries go through a dict into one array
    per metric, ``num_rank`` as a float.  For n >= d its bits are still the
    package's; for n < d see :func:`bootstrap_stats_from_gram`.
    """
    n = samples.shape[0]
    return _per_metric_summary(
        spectral_stats(samples[keyed_stream(seed, f"bootstrap:{label}", k).integers(0, n, size=n)])
        for k in range(draws)
    )


def _per_metric_summary(draws) -> dict[str, dict[str, float]]:
    """The unscaled mean and std of each metric over ``draws``, an iterable of
    ``SpectralStats``, gathered into one array per metric."""
    names = ("mean_variance", "eff_rank", "stable_rank", "participation_ratio", "num_rank")
    columns: dict[str, list[float]] = {metric: [] for metric in names}
    for stats in draws:
        as_dict = {
            "mean_variance": stats.mean_variance,
            "eff_rank": stats.eff_rank,
            "stable_rank": stats.stable_rank,
            "participation_ratio": stats.participation_ratio,
            "num_rank": float(stats.num_rank),
        }
        for metric in names:
            columns[metric].append(as_dict[metric])
    metrics = {}
    for metric in names:
        vals = np.array(columns[metric])
        std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
        metrics[metric] = {"mean": float(vals.mean()), "std": std}
    return metrics


def gram_draws(
    samples: np.ndarray, label: str, draws: int, seed: int
) -> list[tuple[np.ndarray, SpectralStats]]:
    """Each bootstrap draw of an n < d layer as (its row index, its five
    summaries), taken from the layer's centred n x n Gram.

    The layer is centred at its column median and K = C C^T taken once.  A
    draw with row counts c (its k rows with c > 0) has w = c / n, a = K w,
    b = w^T a and the k x k matrix
    G = (K - a 1^T - 1 a^T + b) / (n - 1) * sqrt(c) sqrt(c)^T: its
    eigenvalues, zero-padded to d, are the spectrum, and trace(G) / d the
    mean variance.  Rows equal in content count as one row, so a draw
    whose rows are all equal has G exactly zero.  Finite layers within
    float64's range only.
    """
    x = np.asarray(samples, dtype=np.float64)
    n, d = x.shape
    assert n < d, "the Gram route is the n < d one"
    centred = x - np.sort(x, axis=0)[n // 2]
    gram = centred @ centred.T
    out = []
    for k in range(draws):
        index = keyed_stream(seed, f"bootstrap:{label}", k).integers(0, n, size=n)
        counts = np.bincount(index, minlength=n)
        rows = np.flatnonzero(counts)
        if np.unique(x[rows], axis=0).shape[0] == 1:
            counts[rows[0]] = n
            rows = rows[:1]
        c = counts[rows].astype(np.float64)
        w = c / n
        a = gram[np.ix_(rows, rows)] @ w
        b = w @ a
        g = (gram[np.ix_(rows, rows)] - a[:, None] - a[None, :] + b) / (n - 1)
        g = g * np.outer(np.sqrt(c), np.sqrt(c))
        lam = np.zeros(d)
        lam[: rows.size] = np.clip(np.linalg.eigvalsh(g), 0.0, None)[::-1]
        stats = SpectralStats(
            mean_variance=float(np.trace(g)) / d,
            eff_rank=effective_rank(lam),
            stable_rank=stable_rank(lam),
            participation_ratio=participation_ratio(lam),
            num_rank=numerical_rank(lam),
        )
        out.append((index, stats))
    return out


def bootstrap_stats_from_gram(
    samples: np.ndarray, label: str, draws: int, seed: int
) -> dict[str, dict[str, float]]:
    """Each metric's bootstrap mean and std over the :func:`gram_draws` of an
    n < d layer, unscaled, so its bits are the package's at unit scale."""
    return _per_metric_summary(stats for _, stats in gram_draws(samples, label, draws, seed))


def assert_draws_near_spectral_stats(samples: np.ndarray, label: str, draws: int, seed: int):
    """Each :func:`gram_draws` draw within rtol 1e-12 of ``spectral_stats`` of
    its gathered resample, with the same numerical rank.

    A resample whose rows are all equal has no spread: both routes give
    exactly zero, ranks included.
    """
    for k, (index, got) in enumerate(gram_draws(samples, label, draws, seed)):
        want = spectral_stats(samples[index])
        if np.unique(samples[index], axis=0).shape[0] == 1:
            assert got == want == SpectralStats(0.0, 0.0, 0.0, 0.0, 0), k
        assert got.num_rank == want.num_rank, k
        for metric in ("mean_variance", "eff_rank", "stable_rank", "participation_ratio"):
            np.testing.assert_allclose(
                getattr(got, metric), getattr(want, metric), rtol=1e-12, atol=0.0,
                err_msg=f"draw {k}: {metric}",
            )


# -- whole-container read and norm-shrinkage ratio (test helpers) ---------------


def read_records(path, precision: str = "f32", strict: bool = True) -> dict:
    """Every tensor of the container at ``path``, as ``{name: TensorRecord}``
    in name order, each from ``load_tensor`` at ``precision``."""
    with open_checkpoint(path) as handle:
        return {name: handle.load_tensor(name, precision, strict) for name in handle.names()}


def shrinkage_ratio(sources: Sequence[np.ndarray], merged: np.ndarray) -> float:
    """||merged|| / sum_i alpha_i ||source_i|| at equal weights alpha_i: 1
    where a merge keeps the weighted source norm, below 1 where it shrinks."""
    alphas = normalized_weights(np.ones(len(sources)), len(sources))
    return norm(merged) / float(np.dot(alphas, [norm(s) for s in sources]))


# -- eager diagnose (reference input path) ---------------------------------------


def toy_forward_stack(
    layer_weights: Sequence[np.ndarray],
    inputs: np.ndarray,
    nonlinearity: str = "identity",
    biases: Sequence[np.ndarray | None] | None = None,
) -> list[ActivationMatrix]:
    """Propagate inputs through an affine + nonlinearity stack in one loop.

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


def diagnose_eager(input_path, spec_path=None, draws: int = 20, seed: int = 0):
    """The ``diagnose`` command's report as it was before it streamed: the
    whole input is read at float64 (``read_records``), a toy forward runs
    as one :func:`toy_forward_stack` call over the whole stack, and the layers
    go to ``diagnostics_report`` as one list.  Valid inputs only.
    """
    import re

    import yaml

    from geomerge.diagnostics import diagnostics_report

    ckpt = read_records(input_path, precision="f64")
    if spec_path is None:
        indexed = [(int(re.match(r"^layer_(\d+)$", name).group(1)), name) for name in ckpt]
        layers = [
            ActivationMatrix(label=name, samples=ckpt[name].data)
            for _, name in sorted(indexed, key=lambda kv: kv[0])
        ]
    else:
        with open(spec_path, encoding="utf-8") as fh:
            spec = yaml.safe_load(fh)
        entries = [{"weight": e} if isinstance(e, str) else e for e in spec["layers"]]
        weights = [ckpt[e["weight"]].data for e in entries]
        biases = [ckpt[e["bias"]].data.reshape(-1) if "bias" in e else None for e in entries]
        rng = keyed_stream(spec.get("seed", 0), "toy-forward-input", 0)
        inputs = rng.standard_normal((spec.get("samples", 256), weights[0].shape[0]))
        layers = toy_forward_stack(
            weights, inputs, nonlinearity=spec.get("nonlinearity", "identity"), biases=biases
        )
    return diagnostics_report(layers, draws=draws, seed=seed)


# -- task arithmetic (reference) ----------------------------------------------


def task_arithmetic_direct(
    base: np.ndarray, experts: Sequence[np.ndarray], weights: Sequence[float], scaling: float
) -> np.ndarray:
    """base + scaling * sum_i w_i * (e_i - base), with w the weights over their sum.

    The weights are summed one by one from 0.0.  The accumulator starts at
    +0.0 and each product ``w_i * (e_i - b)``, with ``e_i`` and ``b`` widened
    to float64, is added in row order; the sum is multiplied by ``scaling``
    and then added to ``b``.
    """
    total = 0.0
    for w_i in weights:
        total += float(w_i)
    b = np.asarray(base).reshape(-1).astype(np.float64)
    acc = np.zeros(b.size)
    for w_i, e in zip(weights, experts):
        acc += (float(w_i) / total) * (np.asarray(e).reshape(-1).astype(np.float64) - b)
    acc *= scaling
    return b + acc


# -- full-sort TIES trim and m x n sign election (reference combine) ----------


def trim_topk_direct(delta: np.ndarray, density: float) -> np.ndarray:
    """Keep the ceil(density*n) largest magnitudes by a full stable argsort.

    Sorting -|delta| stably keeps the lower index first among equal
    magnitudes, ranks zeros of either sign below every nonzero magnitude and
    NaN below zero.  Kept entries keep their bits; the rest become +0.0.
    """
    d = np.asarray(delta, dtype=np.float64).reshape(-1)
    n = d.size
    if n == 0 or density == 1.0:
        return d.copy()
    k = int(np.ceil(density * n))
    order = np.argsort(-np.abs(d), kind="stable")
    out = np.zeros_like(d)
    keep = order[:k]
    out[keep] = d[keep]
    return out


def ties_combine_direct(deltas: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Sign election plus disjoint mean over a freshly stacked m x n matrix.

    The elected sign is that of the weighted column sum (zero counts as +).
    Each coordinate averages, with the weights renormalized over them, the
    entries whose sign agrees with it; a coordinate with no agreeing entry
    is 0.  Built from m x n ``agree``/``weighted`` temporaries, with
    column sums taken by numpy's axis-0 reduction.
    """
    mat = np.vstack([np.asarray(d, dtype=np.float64).reshape(-1) for d in deltas])
    w = np.asarray(weights, dtype=np.float64)
    signs = np.where(w @ mat < 0.0, -1.0, 1.0)
    agree = (mat * signs[None, :]) > 0.0
    weighted = w[:, None] * agree
    denom = weighted.sum(axis=0)
    numer = (weighted * mat).sum(axis=0)
    safe = np.where(denom > 0.0, denom, 1.0)
    return np.where(denom > 0.0, numer / safe, 0.0)


def ties_combine_blocked(deltas: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """:func:`ties_combine_direct` with the weighted column sums taken by a
    loop of ``w @ mat[:, j:j+B]``, B the largest power of two with
    m * B < 9216.

    OpenBLAS runs a gemv that small on the calling thread, and blocks a power
    of two wide keep each column where it falls in the kernel's unrolled
    body, so every sum, and every tied sign, is that of a single-threaded
    ``w @ mat`` whatever the BLAS thread count.
    """
    mat = np.vstack([np.asarray(d, dtype=np.float64).reshape(-1) for d in deltas])
    w = np.asarray(weights, dtype=np.float64)
    m, n = mat.shape
    block = 1
    while m * block * 2 < 9216:
        block *= 2
    totals = np.empty(n)
    for j in range(0, n, block):
        totals[j : j + block] = w @ mat[:, j : j + block]
    signs = np.where(totals < 0.0, -1.0, 1.0)
    agree = (mat * signs[None, :]) > 0.0
    weighted = w[:, None] * agree
    denom = weighted.sum(axis=0)
    numer = (weighted * mat).sum(axis=0)
    safe = np.where(denom > 0.0, denom, 1.0)
    return np.where(denom > 0.0, numer / safe, 0.0)


# -- delta kernels with boolean-mask scatters (byte references) ---------------


def trim_topk_scatter(
    delta: np.ndarray, density: float, out: np.ndarray | None = None
) -> np.ndarray:
    """``delta_ops.trim_topk`` as it was with boolean-mask selection and
    zeroing: ``mags[keep]`` and ``out[~keep] = 0.0``."""
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
    mags = np.abs(d)
    keep = mags > 0.0  # NaN compares false: NaN ranks below zero
    nonzero = int(np.count_nonzero(keep))
    if k < nonzero:
        values = mags[keep]
        values.partition(nonzero - k)
        threshold = values[nonzero - k]
        np.greater(mags, threshold, out=keep)
        keep[np.flatnonzero(mags == threshold)[: k - int(np.count_nonzero(keep))]] = True
    elif k > nonzero:
        zeros = np.flatnonzero(mags == 0.0)[: k - nonzero]
        keep[zeros] = True
        keep[np.flatnonzero(np.isnan(mags))[: k - nonzero - zeros.size]] = True
    out[~keep] = 0.0
    return out


def elect_signs_scatter(
    deltas: Sequence[np.ndarray] | np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """``delta_ops.elect_signs`` as it was with a boolean-mask scatter of
    the negative signs."""
    totals = _weighted_totals(stack_rows(deltas), np.asarray(weights, dtype=np.float64))
    negative = totals < 0.0
    totals.fill(1.0)
    totals[negative] = -1.0
    return totals


def disjoint_merge_scatter(
    deltas: Sequence[np.ndarray] | np.ndarray, weights: np.ndarray, signs: np.ndarray
) -> np.ndarray:
    """``delta_ops.disjoint_merge`` as it was with a ``where=`` divide and a
    boolean-mask zeroing of the columns no model agrees with."""
    mat = stack_rows(deltas)
    w = np.asarray(weights, dtype=np.float64)
    s = np.asarray(signs, dtype=np.float64)
    m, n = mat.shape
    if w.shape != (m,):
        raise ValueError(f"expected {m} weights, got shape {w.shape}")
    if s.shape != (n,):
        raise ValueError("signs length does not match delta length")
    numer = np.zeros(n)
    scratch = np.empty((3, min(n, _BLOCK)))
    mask = np.empty(scratch.shape[1], dtype=bool)
    for j in range(0, n, _BLOCK):
        num, sign = numer[j : j + _BLOCK], s[j : j + _BLOCK]
        k = num.size
        denom, product, weighted = scratch[:, :k]
        agree = mask[:k]
        denom.fill(0.0)
        for w_i, row in zip(w, mat[:, j : j + k]):
            np.multiply(row, sign, out=product)
            np.greater(product, 0.0, out=agree)
            np.multiply(agree, w_i, out=weighted)
            denom += weighted
            np.multiply(weighted, row, out=product)
            num += product
        np.greater(denom, 0.0, out=agree)
        np.divide(num, denom, out=num, where=agree)
        num[~agree] = 0.0
    return numer


def della_drop_scatter(
    delta: np.ndarray,
    spec: SparsifySpec,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
    draws: np.ndarray | None = None,
) -> np.ndarray:
    """``delta_ops.della_drop`` as it was with a boolean-mask zeroing of the
    dropped entries."""
    d = np.asarray(delta, dtype=np.float64).reshape(-1)
    n = d.size
    if out is None:
        out = np.empty(n)
    if draws is None:
        draws = np.empty(n)
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
    out[draws < p] = 0.0
    return out


# -- random drop-and-rescale (the separate DARE/DELLA paths) -------------------


def drop_rescale_direct(
    delta: np.ndarray, drop_rate: float, window: float, rng: np.random.Generator
) -> np.ndarray:
    """DELLA's drop with the per-coordinate rate always built from the stable
    rank of |delta| (DARE when ``window`` is 0), and survivors rescaled by
    ``np.where`` over the full length."""
    d = np.asarray(delta, dtype=np.float64).reshape(-1)
    n = d.size
    if n == 0:
        return d.copy()
    hi, lo = drop_rate + window, drop_rate - window
    if n == 1:
        frac = np.array([0.5])
    else:
        ranks = np.empty(n)
        ranks[np.argsort(np.abs(d), kind="stable")] = np.arange(n, dtype=np.float64)
        frac = ranks / (n - 1)
    p = hi - (hi - lo) * frac
    keep = rng.random(n) >= p
    return np.where(keep, d * (1.0 / (1.0 - p)), 0.0)


# -- dtype encoding (re-widening overflow check) --------------------------------

_STORAGE = {"f64": "<f8", "f32": "<f4", "f16": "<f2", "bf16": "<u2"}


def _f32_to_bf16_direct(values: np.ndarray) -> np.ndarray:
    """Round float32 to bf16 bits, nearest-even, NaN kept quiet."""
    u = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    nan_mask = np.isnan(values)
    bias = np.uint32(0x7FFF) + ((u >> 16) & np.uint32(1))
    bits = ((u + bias) >> 16).astype(np.uint16)
    if nan_mask.any():
        bits = np.where(nan_mask, (u >> 16).astype(np.uint16) | np.uint16(0x0040), bits)
    return bits


def decode_buffer_direct(raw: bytes, code: str, count: int) -> np.ndarray:
    """Container payload to a fresh array, as ``dtypes.decode_buffer`` made
    it before it decoded into a given one: f16 cast to float32, bf16 bits
    shifted into the high half of float32 words, f32 and f64 at their width."""
    arr = np.frombuffer(raw, dtype=_STORAGE[code], count=count)
    if code == "bf16":
        return (arr.astype(np.uint32) << 16).view(np.float32)
    if code == "f16":
        return arr.astype(np.float32)
    return arr.astype(arr.dtype.newbyteorder("="))


def encode_array_direct(values: np.ndarray, code: str) -> bytes:
    """Container encoding that finds overflow by widening the rounded result
    back to float32 and testing it for finiteness.  Raises ``OverflowError``
    with the message ``dtypes.encode_array`` gives its DTypeOverflowError."""
    storage = _STORAGE[code]
    flat = np.ascontiguousarray(values).reshape(-1)
    if code == "f64":
        return flat.astype(storage).tobytes()

    finite_in = np.isfinite(flat)
    with np.errstate(over="ignore"):
        if code == "bf16":
            narrowed = flat.astype(np.float32)
            bits = _f32_to_bf16_direct(narrowed)
            out_values = (bits.astype(np.uint32) << 16).view(np.float32)
        else:
            out_values = flat.astype(storage)

    overflowed = finite_in & ~np.isfinite(out_values)
    if overflowed.any():
        culprits = flat[overflowed]
        worst = float(culprits[np.argmax(np.abs(culprits))])
        raise OverflowError(f"value {worst!r} not representable as {code}")

    if code == "bf16":
        return bits.astype(storage).tobytes()
    return out_values.tobytes()


# -- hold-everything merge output (reference output path) ----------------------


def run_merge_held(job):
    """``run_merge`` as it was before the output streamed: every merged and
    copied tensor is held, as an f64 result or a loaded copy, until one
    ``write_checkpoint`` call encodes and writes them all in name order.

    The merge rules, loads, stats and the writer are the package's; only the
    orchestration is kept, so a streaming ``run_merge`` must give the same
    bytes, summary (apart from ``wall_ms``) and errors.
    """
    import logging
    import os
    import time
    from concurrent.futures import ThreadPoolExecutor

    from geomerge.errors import AlignmentError, NonFiniteError
    from geomerge.merge_methods import MergeSummary, TensorStats, _name_tensor
    from geomerge.sphere import norm, normalized_weights
    from geomerge.tensor_io import TensorRecord, validate_aligned, write_checkpoint

    logger = logging.getLogger("geomerge.merge_methods")
    start = time.perf_counter()
    sources = list(job.sources)
    method = job.method
    method.validate_sources(len(sources), job.base is not None)
    weights = (
        np.full(len(sources), 1.0 / len(sources))
        if job.weights is None
        else normalized_weights(job.weights, len(sources))
    )

    align_set = sources + ([job.base] if method.needs_base else [])
    if len(align_set) >= 2:
        report = validate_aligned(align_set)
        if job.strict and not report.is_aligned:
            problems = sorted(report.missing) + sorted(report.shape_conflicts)
            raise AlignmentError(
                "checkpoints are not aligned; offending tensors: " + ", ".join(problems)
            )
        mergeable = list(report.mergeable)
    else:
        mergeable = sources[0].names()

    union_names: set[str] = set()
    for h in sources:
        union_names.update(h.names())
    skipped = sorted(union_names.difference(mergeable))
    for name in skipped:
        logger.warning("tensor %r is not mergeable; copying from the first source", name)

    def merge_one(name):
        records = [h.load_tensor(name, job.precision, strict=True) for h in sources]
        flats = [rec.flat() for rec in records]
        base_flat = (
            job.base.load_tensor(name, job.precision, strict=True).flat()
            if method.needs_base
            else None
        )
        with np.errstate(over="ignore", invalid="ignore"):
            out = method.spec.rule(method.param, name, flats, base_flat, weights)
        merged, stats = out if isinstance(out, tuple) else (out, None)
        tensor_stats = TensorStats(
            name=name,
            iterations=stats.iterations if stats else None,
            residual=stats.residual if stats else None,
            converged=stats.converged if stats else None,
            norm_in=[norm(f) for f in flats],
            norm_out=norm(merged),
        )
        if not math.isfinite(tensor_stats.norm_out) and not np.isfinite(merged).all():
            raise NonFiniteError("merge produced NaN/Inf values")
        return merged.reshape(records[0].shape), tensor_stats

    def copy_from(name, donors):
        donor = next(h for h in donors if h is not None and name in h)
        return donor.load_tensor(name, job.precision, strict=False).data

    outputs = {}
    per_tensor = []
    failed = []
    max_workers = job.threads or os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = {name: pool.submit(merge_one, name) for name in mergeable}
        for name in mergeable:
            try:
                outputs[name], stats = futures[name].result()
                per_tensor.append(stats)
            except Exception as exc:
                if job.strict:
                    for pending in futures.values():
                        pending.cancel()
                    _name_tensor(exc, name)
                    raise
                logger.warning("tensor %r failed (%s); copying fallback", name, exc)
                failed.append(name)

    for name in skipped:
        outputs[name] = copy_from(name, sources)
    for name in failed:
        outputs[name] = copy_from(name, [job.base, *sources])
    tensors = [TensorRecord(name, outputs[name], job.out_dtype) for name in sorted(outputs)]
    write_checkpoint(job.out_path, tensors, output_dtype=job.out_dtype)

    return MergeSummary(
        method=method.kind,
        parameters={**{k: method.param(k) for k in method.spec.reads}, **method.params},
        tensors_merged=len(per_tensor),
        tensors_skipped=sorted(skipped + failed),
        per_tensor=per_tensor,
        wall_ms=(time.perf_counter() - start) * 1000.0,
    )
