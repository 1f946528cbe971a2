"""The four workloads: how each builds its inputs, the geomerge command it
times, and how each output is checked.

Why each exists (the README says more):

- ``karcher-far``: disagreeing sources, where the geodesic merge differs
  from lerp; the spherical solver dominates.
- ``dare_ties-near``: fine-tune-like deltas; ``delta_ops`` does the work and
  no spherical code runs.
- ``lerp-bf16-wide``: a trivial rule over many mixed-shape bf16 tensors, so
  reads, the bf16 codec, the write and memory held dominate.
- ``diagnose-toy``: the diagnostics path; no merge code runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from . import check, gen
from .container import Container

KARCHER_TOL = 1e-6
DARE_DROP_RATE = 0.5
TIES_DENSITY = 0.5


@dataclass
class Inputs:
    """Generated inputs of one run and everything needed to invoke and check."""

    gen: gen.Generated
    argv: Callable[[int], list[str]]  # worker threads -> geomerge arguments
    output: Path
    check: Callable[[], list[str]]
    work: float  # units of work per invocation, for the throughput metric
    merge: bool  # a merge (takes --threads) rather than diagnose


@dataclass(frozen=True)
class Workload:
    name: str
    throughput: str  # name of the throughput metric the runner prints
    unit: str
    sizes: dict[str, dict]
    build: Callable[[Path, int, dict], Inputs]

    def generate(self, workdir: Path, seed: int, size: str = "full") -> Inputs:
        return self.build(workdir, seed, self.sizes[size])


def output_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            digest.update(block)
    return digest.hexdigest()


def _sample(names: list[str], seed: int, count: int) -> list[str]:
    rng = np.random.default_rng([seed, 7919])
    return sorted(rng.choice(names, size=min(count, len(names)), replace=False).tolist())


def _merge_inputs(
    workdir: Path, generated: gen.Generated, method: str, params: dict, out_dtype: str, checker
) -> Inputs:
    out = workdir / "merged.safetensors"
    recipe = {
        "method": method,
        "models": [{"path": str(p)} for p in generated.sources],
        "parameters": params,
        "output": {"path": str(out), "dtype": out_dtype},
    }
    if generated.base is not None:
        recipe["base_model"] = str(generated.base)
    recipe_path = workdir / "recipe.yaml"
    recipe_path.write_text(yaml.safe_dump(recipe), encoding="utf-8")
    summary_path = out.with_name(out.name + ".summary.json")

    def run_check() -> list[str]:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        errors = check.check_summary(summary, method, len(generated.names))
        return errors + checker(Container(out), summary)

    return Inputs(
        gen=generated,
        argv=lambda threads: ["merge", str(recipe_path), "--threads", str(threads)],
        output=out,
        check=run_check,
        work=generated.params / 1e6,
        merge=True,
    )


def _karcher_far(workdir: Path, seed: int, size: dict) -> Inputs:
    g = gen.far_sources(workdir, seed, size["sources"], size["tensors"], size["shape"])
    sources = [Container(p) for p in g.sources]
    weights = [1.0] * len(sources)
    stationary = _sample(g.names, seed, 2)
    return _merge_inputs(
        workdir,
        g,
        "karcher",
        {"tol": KARCHER_TOL},
        "f32",
        lambda out, summary: check.check_karcher(
            out, sources, g.source_norms, weights, summary, stationary, KARCHER_TOL
        ),
    )


def _dare_ties_near(workdir: Path, seed: int, size: dict) -> Inputs:
    g = gen.near_sources(workdir, seed, size["experts"], size["tensors"], size["shape"])
    base, experts = Container(g.base), [Container(p) for p in g.sources]
    sampled = _sample(g.names, seed, 2)
    params = {"seed": seed, "drop_rate": DARE_DROP_RATE, "density": TIES_DENSITY}
    return _merge_inputs(
        workdir,
        g,
        "dare_ties",
        params,
        "f32",
        lambda out, summary: check.check_dare_ties(
            out, base, experts, [1.0] * len(experts), sampled, seed, DARE_DROP_RATE, TIES_DENSITY
        ),
    )


def _lerp_bf16_wide(workdir: Path, seed: int, size: dict) -> Inputs:
    g = gen.wide_bf16_sources(workdir, seed, size["experts"], size["blocks"], size["rows"], size["cols"])
    sources = [Container(p) for p in g.sources]
    sampled = _sample(g.names, seed, 8)
    return _merge_inputs(
        workdir,
        g,
        "lerp",
        {},
        "bf16",
        lambda out, summary: check.check_lerp(out, sources, [1.0] * len(sources), sampled),
    )


def _diagnose_toy(workdir: Path, seed: int, size: dict) -> Inputs:
    g = gen.toy_weights(workdir, seed, size["layers"], size["width"])
    spec = {"nonlinearity": "tanh", "samples": size["samples"], "seed": seed, "layers": g.names}
    spec_path = workdir / "toy.yaml"
    spec_path.write_text(yaml.safe_dump(spec), encoding="utf-8")
    report = workdir / "report.json"
    draws = size["draws"]
    argv = ["diagnose", str(g.sources[0]), "--out", str(report), "--draws", str(draws)]
    argv += ["--seed", str(seed), "--toy-forward", str(spec_path)]
    first: list[bytes] = []

    def run_check() -> list[str]:
        data = report.read_bytes()
        if not first:
            first.append(data)
        errors = check.check_report(data, size["layers"] + 1, size["width"], draws)
        if data != first[0]:
            errors.append("report bytes differ from the first invocation of this run")
        return errors

    return Inputs(
        gen=g,
        argv=lambda threads: argv,
        output=report,
        check=run_check,
        work=float((size["layers"] + 1) * draws),
        merge=False,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "karcher-far",
            "merge_mparam_s",
            "Mparam/s",
            {
                "full": {"sources": 4, "tensors": 16, "shape": (1024, 1024)},
                "tiny": {"sources": 4, "tensors": 3, "shape": (16, 32)},
            },
            _karcher_far,
        ),
        Workload(
            "dare_ties-near",
            "merge_mparam_s",
            "Mparam/s",
            {
                "full": {"experts": 3, "tensors": 16, "shape": (1024, 1024)},
                "tiny": {"experts": 3, "tensors": 3, "shape": (16, 32)},
            },
            _dare_ties_near,
        ),
        Workload(
            "lerp-bf16-wide",
            "merge_mparam_s",
            "Mparam/s",
            {
                "full": {"experts": 3, "blocks": 64, "rows": 256, "cols": 1024},
                "tiny": {"experts": 3, "blocks": 2, "rows": 8, "cols": 32},
            },
            _lerp_bf16_wide,
        ),
        Workload(
            "diagnose-toy",
            "diagnose_spectra_s",
            "spectra/s",
            {
                "full": {"layers": 3, "width": 1024, "samples": 256, "draws": 20},
                "tiny": {"layers": 3, "width": 16, "samples": 8, "draws": 3},
            },
            _diagnose_toy,
        ),
    )
}
