"""Output checks: plain-numpy references for the merge rules the benchmark
runs, and the invariants of the diagnose report.

Every check returns a list of failure messages; an empty list means the
output is correct.  Tolerances follow the output dtype: one unit in the last
place of the output type, relative to the magnitude of the terms that were
summed, which covers the final rounding and any change of summation order.
"""

from __future__ import annotations

import json
import math
from typing import Any, Sequence

import numpy as np

from .container import Container

ULP = {"F32": 2.0**-23, "BF16": 2.0**-7}


def _compare(name: str, out: np.ndarray, ref: np.ndarray, scale: np.ndarray, tag: str) -> list[str]:
    err = np.abs(out.reshape(-1) - ref.reshape(-1))
    limit = ULP[tag] * scale.reshape(-1) + 1e-300
    bad = int(np.count_nonzero(err > limit))
    if bad:
        worst = int(np.argmax(err / limit))
        return [f"{name}: {bad} elements off the reference (worst {err[worst]:.3e} > {limit[worst]:.3e})"]
    return []


def _out_tag(out: Container, name: str) -> str:
    return out.header[name]["dtype"]


def lerp_reference(sources: Sequence[np.ndarray], weights: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sum with normalized weights, and the magnitude it summed."""
    w = np.asarray(weights, dtype=np.float64) / float(np.sum(weights))
    ref = sum(wi * s for wi, s in zip(w, sources))
    scale = sum(wi * np.abs(s) for wi, s in zip(w, sources))
    return ref, scale


def check_lerp(out: Container, sources: Sequence[Container], weights: Sequence[float], names: Sequence[str]) -> list[str]:
    errors: list[str] = []
    for name in names:
        ref, scale = lerp_reference([s.read(name) for s in sources], weights)
        errors += _compare(name, out.read(name), ref, scale, _out_tag(out, name))
    return errors


def trim_reference(delta: np.ndarray, density: float) -> np.ndarray:
    """Keep the ceil(density * n) largest magnitudes; among entries equal to
    the threshold magnitude, the lowest indices are kept."""
    n = delta.size
    k = int(math.ceil(density * n))
    if k >= n:
        return delta.copy()
    mag = np.abs(delta)
    threshold = np.partition(mag, n - k)[n - k]
    keep = mag > threshold
    ties = np.flatnonzero(mag == threshold)
    keep[ties[: k - int(keep.sum())]] = True
    return np.where(keep, delta, 0.0)


def dare_ties_reference(
    base: np.ndarray,
    experts: Sequence[np.ndarray],
    weights: Sequence[float],
    masks: Sequence[np.ndarray],
    drop_rate: float,
    density: float,
) -> tuple[np.ndarray, np.ndarray]:
    """DARE drop-and-rescale with the given keep masks, then TIES trim, sign
    election and disjoint mean.  Returns the merge and the magnitude scale."""
    w = np.asarray(weights, dtype=np.float64) / float(np.sum(weights))
    scale = 1.0 / (1.0 - drop_rate)
    deltas = [np.where(keep, (e - base) * scale, 0.0) for e, keep in zip(experts, masks)]
    trimmed = np.vstack([trim_reference(d, density) for d in deltas])
    signs = np.where(w @ trimmed < 0.0, -1.0, 1.0)
    agree = trimmed * signs > 0.0
    weight = (w[:, None] * agree).sum(axis=0)
    total = (w[:, None] * agree * trimmed).sum(axis=0)
    merged = np.divide(total, weight, out=np.zeros_like(total), where=weight > 0.0)
    return base + merged, np.abs(base) + np.abs(trimmed).max(axis=0)


def dare_keep_masks(seed: int, name: str, count: int, size: int, drop_rate: float) -> list[np.ndarray]:
    """The program's documented mask streams: one keyed stream per (seed,
    tensor name, model index), one uniform draw per coordinate."""
    from geomerge.rng import keyed_stream

    return [keyed_stream(seed, name, i).random(size) >= drop_rate for i in range(count)]


def check_dare_ties(
    out: Container,
    base: Container,
    experts: Sequence[Container],
    weights: Sequence[float],
    names: Sequence[str],
    seed: int,
    drop_rate: float,
    density: float,
) -> list[str]:
    errors: list[str] = []
    for name in names:
        b = base.read(name).reshape(-1)
        es = [e.read(name).reshape(-1) for e in experts]
        masks = dare_keep_masks(seed, name, len(es), b.size, drop_rate)
        ref, scale = dare_ties_reference(b, es, weights, masks, drop_rate, density)
        errors += _compare(name, out.read(name), ref, scale, _out_tag(out, name))
    return errors


def tangent_mean_norm(x: np.ndarray, units: Sequence[np.ndarray], weights: np.ndarray) -> float:
    """Norm of the weighted mean of the sphere log maps at unit vector x;
    zero exactly at the weighted geodesic barycenter."""
    total = np.zeros_like(x)
    for w, u in zip(weights, units):
        c = float(np.clip(x @ u, -1.0, 1.0))
        residual = u - c * x
        r = float(np.linalg.norm(residual))
        if r > 0.0:
            total += w * math.acos(c) / r * residual
    return float(np.linalg.norm(total))


def check_karcher(
    out: Container,
    sources: Sequence[Container],
    source_norms: dict[str, list[float]],
    weights: Sequence[float],
    summary: dict[str, Any],
    stationary_names: Sequence[str],
    tol: float,
) -> list[str]:
    """Every tensor converged; every output norm is the weighted mean of its
    source norms; on the sampled tensors the output direction is stationary
    (tangent-mean norm within the solver tolerance plus output rounding)."""
    errors = [
        f"{t['name']}: solver did not converge" for t in summary["per_tensor"] if t["converged"] is not True
    ]
    w = np.asarray(weights, dtype=np.float64) / float(np.sum(weights))
    for name in out.names():
        values = out.read(name).reshape(-1)
        expected = float(w @ np.asarray(source_norms[name]))
        norm = float(np.linalg.norm(values))
        ulp = ULP[_out_tag(out, name)]
        if abs(norm - expected) > 4 * ulp * expected:
            errors.append(f"{name}: output norm {norm!r} != weighted source norm {expected!r}")
        if name in stationary_names:
            units = [s.read(name).reshape(-1) for s in sources]
            units = [u / np.linalg.norm(u) for u in units]
            residual = tangent_mean_norm(values / norm, units, w)
            if residual > tol + 16 * ulp:
                errors.append(f"{name}: output is not stationary (tangent mean {residual:.3e})")
    return errors


def check_summary(summary: dict[str, Any], method: str, merged: int) -> list[str]:
    errors = []
    if summary.get("method") != method:
        errors.append(f"summary method {summary.get('method')!r} != {method!r}")
    if summary.get("tensors_merged") != merged or summary.get("tensors_skipped"):
        errors.append(
            f"summary merged {summary.get('tensors_merged')} (skipped {summary.get('tensors_skipped')}),"
            f" expected {merged}"
        )
    return errors


RANK_METRICS = ("eff_rank", "stable_rank", "participation_ratio", "num_rank")


def check_report(report_bytes: bytes, layers: int, width: int, draws: int) -> list[str]:
    """Finite values, rank measures inside [1, d], the expected layers."""
    report = json.loads(report_bytes)
    errors = []
    if report.get("draws") != draws or len(report.get("layers", [])) != layers:
        errors.append(f"report has {len(report.get('layers', []))} layers / {report.get('draws')} draws")
    for layer in report.get("layers", []):
        for metric, entry in layer["metrics"].items():
            if not all(math.isfinite(v) for v in entry.values()):
                errors.append(f"{layer['layer']}.{metric} is not finite")
            elif metric in RANK_METRICS and not 1.0 <= entry["mean"] <= width:
                errors.append(f"{layer['layer']}.{metric} mean {entry['mean']} outside [1, {width}]")
    return errors
