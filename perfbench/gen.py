"""Seeded synthetic inputs for the benchmark workloads.

Every tensor is drawn from its own generator keyed by (seed, role, tensor
index), so the same seed always gives the same bytes and a tensor can be
regenerated without keeping the others in memory.  Nothing here imports the
program under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import write_container

# Roles keep the generator streams of different files apart.
_BASE, _EXPERT, _FAR, _WIDE, _TOY, _SCALE = range(6)


def _rng(seed: int, role: int, *index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, role, *index]))


def _normal(seed: int, role: int, index: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    return _rng(seed, role, *index).standard_normal(shape, dtype=np.float32)


@dataclass
class Generated:
    """Paths of the generated files plus facts the output checks need."""

    sources: list[Path]
    base: Path | None
    names: list[str]
    source_norms: dict[str, list[float]]
    params: int


def matrix_names(count: int) -> list[str]:
    return [f"layer.{i:03d}.weight" for i in range(count)]


def far_sources(out: Path, seed: int, sources: int, tensors: int, shape: tuple[int, int]) -> Generated:
    """Independent f32 sources, each with its own scale: nearly orthogonal
    directions, so the spherical solver has real work to do."""
    names = matrix_names(tensors)
    scales = 0.5 + _rng(seed, _SCALE).random(sources)
    norms: dict[str, list[float]] = {n: [] for n in names}
    paths = []
    for s in range(sources):
        path = out / f"far-{s}.safetensors"

        def payload(name: str, s: int = s) -> bytes:
            values = _normal(seed, _FAR, (s, names.index(name)), shape) * np.float32(scales[s])
            norms[name].append(float(np.linalg.norm(values.astype(np.float64))))
            return values.astype("<f4").tobytes()

        write_container(path, [(n, "F32", shape) for n in names], payload)
        paths.append(path)
    return Generated(paths, None, names, norms, tensors * math.prod(shape))


def near_sources(out: Path, seed: int, experts: int, tensors: int, shape: tuple[int, int]) -> Generated:
    """A base plus fine-tune-like f32 experts (base + 0.1 x noise)."""
    names = matrix_names(tensors)
    specs = [(n, "F32", shape) for n in names]

    def base_values(name: str) -> np.ndarray:
        return _normal(seed, _BASE, (names.index(name),), shape)

    base = out / "base.safetensors"
    write_container(base, specs, lambda n: base_values(n).astype("<f4").tobytes())
    paths = []
    for e in range(experts):
        path = out / f"expert-{e}.safetensors"

        def payload(name: str, e: int = e) -> bytes:
            noise = _normal(seed, _EXPERT, (e, names.index(name)), shape)
            return (base_values(name) + np.float32(0.1) * noise).astype("<f4").tobytes()

        write_container(path, specs, payload)
        paths.append(path)
    return Generated(paths, base, names, {}, tensors * math.prod(shape))


def wide_shapes(blocks: int, rows: int, cols: int) -> dict[str, tuple[int, ...]]:
    """Transformer-like mix: per block four rows x cols matrices and two
    cols-long vectors."""
    shapes: dict[str, tuple[int, ...]] = {}
    for b in range(blocks):
        for part in ("attn.q", "attn.k", "attn.v", "mlp.up"):
            shapes[f"blk.{b:03d}.{part}.weight"] = (rows, cols)
        for part in ("norm1", "norm2"):
            shapes[f"blk.{b:03d}.{part}.weight"] = (cols,)
    return shapes


def random_bf16(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """bf16 bit patterns with a random sign and mantissa and magnitudes in
    [2^-9, 2^-1): weight-like values, drawn from random bits because drawing
    normals for every element would dominate the set-up of a run."""
    raw = rng.integers(0, 1 << 16, size=shape, dtype=np.uint16)
    exponent = (np.uint16(118) + ((raw >> 7) & np.uint16(7))) << 7
    return (raw & np.uint16(0x807F)) | exponent


def wide_bf16_sources(out: Path, seed: int, experts: int, blocks: int, rows: int, cols: int) -> Generated:
    """Mixed-shape bf16 experts."""
    shapes = wide_shapes(blocks, rows, cols)
    names = sorted(shapes)
    paths = []
    for e in range(experts):
        path = out / f"wide-{e}.safetensors"

        def payload(name: str, e: int = e) -> bytes:
            return random_bf16(_rng(seed, _WIDE, e, names.index(name)), shapes[name]).astype("<u2").tobytes()

        write_container(path, [(n, "BF16", shapes[n]) for n in names], payload)
        paths.append(path)
    params = sum(math.prod(s) for s in shapes.values())
    return Generated(paths, None, names, {}, params)


def toy_weights(out: Path, seed: int, layers: int, width: int) -> Generated:
    """Square f32 layer weights scaled so tanh stays mostly unsaturated."""
    shape = (width, width)
    names = [f"fc{k}.weight" for k in range(1, layers + 1)]
    gain = np.float32(1.5 / math.sqrt(width))
    path = out / "toy-weights.safetensors"
    write_container(
        path,
        [(n, "F32", shape) for n in names],
        lambda n: (_normal(seed, _TOY, (names.index(n),), shape) * gain).astype("<f4").tobytes(),
    )
    return Generated([path], None, names, {}, layers * width * width)
