"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the file-format and math
definitions from first principles (pure Python loops, bit twiddling, dense
grids) so it shares no code with the package under test.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np


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
    with the same stopping rule as the package solver: stop at the first
    iterate whose tangent-mean norm is below ``tol``, or at ``max_iter``.
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
