"""Command-line interface: merge, diagnose, inspect.

Exit codes group failures by cause: 1 configuration, 2 I/O or container,
3 numeric.  Summary and report JSON are written with sorted keys so the same
inputs and seed always produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import json
import logging
import math
import os
import re
import sys
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np
import yaml

from .diagnostics import (
    ActivationMatrix,
    NONLINEARITIES,
    check_layer_shapes,
    diagnostics_report,
    toy_forward_collect,
)
from .dtypes import WORKING_PRECISIONS
from .errors import (
    AlignmentError,
    AntipodalError,
    ConfigError,
    ContainerError,
    DegenerateError,
    DTypeOverflowError,
    NonFiniteError,
)
from .merge_methods import MergeJob, run_merge
from .recipe import load_recipe, load_yaml
from .rng import keyed_stream
from .sphere import norm
from .tensor_io import CheckpointHandle, open_checkpoint

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

_LAYER_NAME = re.compile(r"^layer_(\d+)$")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        _print_error(exc)
        return EXIT_CONFIG
    except (FileNotFoundError, ContainerError, OSError) as exc:
        _print_error(exc)
        return EXIT_IO
    except (
        NonFiniteError,
        DTypeOverflowError,
        DegenerateError,
        AntipodalError,
        AlignmentError,
        ValueError,
    ) as exc:
        _print_error(exc)
        return EXIT_NUMERIC


def _print_error(exc: Exception) -> None:
    notes = "".join(f" ({note})" for note in getattr(exc, "__notes__", ()))
    print(f"error: {exc}{notes}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomerge",
        description="Merge model checkpoints with geodesic or Euclidean rules "
        "and diagnose representation collapse.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(required=True)

    p_merge = sub.add_parser("merge", help="run a merge recipe")
    p_merge.add_argument("recipe", type=Path, help="YAML recipe file")
    p_merge.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a recipe entry, e.g. --set parameters.seed=7",
    )
    p_merge.add_argument("--threads", type=int, default=None, help="worker pool size")
    p_merge.add_argument(
        "--precision", choices=WORKING_PRECISIONS, default=None, help="working precision"
    )
    p_merge.set_defaults(func=cmd_merge)

    p_diag = sub.add_parser("diagnose", help="spectral diagnostics of activations")
    p_diag.add_argument("input", type=Path, help="activation container, or weights with --toy-forward")
    p_diag.add_argument("--out", type=Path, required=True, help="report JSON path")
    p_diag.add_argument("--csv", type=Path, default=None, help="also write CSV rows")
    p_diag.add_argument("--draws", type=int, default=20, help="bootstrap draws")
    p_diag.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    p_diag.add_argument(
        "--toy-forward",
        type=Path,
        default=None,
        metavar="SPEC",
        help="treat input as layer weights and generate activations per this YAML spec",
    )
    p_diag.set_defaults(func=cmd_diagnose)

    p_inspect = sub.add_parser("inspect", help="list tensors of a checkpoint")
    p_inspect.add_argument("checkpoint", type=Path)
    p_inspect.add_argument("--json", action="store_true", dest="as_json")
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


def cmd_merge(args: argparse.Namespace) -> int:
    if args.threads is not None and args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    recipe = load_recipe(args.recipe, overrides=args.overrides)
    precision = args.precision or recipe.precision
    with contextlib.ExitStack() as stack:
        sources = [stack.enter_context(open_checkpoint(m.path)) for m in recipe.models]
        base = (
            stack.enter_context(open_checkpoint(recipe.base_model))
            if recipe.base_model is not None
            else None
        )
        job = MergeJob(
            sources=sources,
            base=base,
            weights=recipe.weights,
            method=recipe.method,
            out_path=recipe.output_path,
            out_dtype=recipe.output_dtype,
            precision=precision,
            strict=recipe.strict,
            threads=args.threads,
        )
        summary = run_merge(job)

    summary_path = recipe.output_path.parent / (recipe.output_path.name + ".summary.json")
    summary_path.write_text(
        json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"merged {summary.tensors_merged} tensors "
        f"({len(summary.tensors_skipped)} skipped) -> {recipe.output_path}"
    )
    return EXIT_OK


def cmd_diagnose(args: argparse.Namespace) -> int:
    if args.draws < 1:
        raise ConfigError("--draws must be >= 1")
    for path in (args.out, args.csv):
        if path is not None and path.is_dir():  # refused before any draw, not at the write
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    spec = None if args.toy_forward is None else _toy_forward_spec(args.toy_forward)
    with open_checkpoint(args.input) as handle:
        if spec is None:
            layers = _activation_layers(handle)
        else:
            layers = _toy_forward_layers(handle, args.toy_forward, *spec)
        report = diagnostics_report(layers, draws=args.draws, seed=args.seed)
    args.out.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if args.csv is not None:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "metric", "mean", "std"])
            writer.writerows(report.csv_rows())
    print(f"diagnosed {len(report.layers)} layers -> {args.out}")
    return EXIT_OK


def _load_f64(handle: CheckpointHandle, name: str) -> np.ndarray:
    """``name`` at float64, read straight into a fresh array of its own."""
    out = np.empty(math.prod(handle.shape(name)))
    return handle.load_tensor(name, precision="f64", out=out).data


def _activation_layers(handle: CheckpointHandle) -> Iterator[ActivationMatrix]:
    """Every name and shape is checked from the header; the layers are then
    loaded one at a time, in ``k`` order."""
    path = handle.path
    indexed: list[tuple[int, str]] = []
    for name in handle.names():
        match = _LAYER_NAME.match(name)
        if not match:
            raise ConfigError(
                f"{path}: activation tensors must be named layer_<k>, found {name!r}"
            )
        if len(handle.shape(name)) != 2:
            raise ConfigError(f"{path}: tensor {name!r} must be 2-D (samples x features)")
        indexed.append((int(match.group(1)), name))
    if not indexed:
        raise ConfigError(f"{path}: no layer_<k> tensors found")
    return (
        ActivationMatrix(label=name, samples=_load_f64(handle, name))
        for _, name in sorted(indexed, key=lambda kv: kv[0])
    )


def _toy_forward_spec(spec_path: Path) -> tuple[str, int, int, list]:
    """The spec's nonlinearity, samples, seed and raw layer entries."""
    try:
        raw = load_yaml(spec_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FileNotFoundError(f"toy-forward spec not found: {spec_path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{spec_path}: invalid YAML ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{spec_path}: toy-forward spec must be a mapping")
    allowed = {"nonlinearity", "samples", "seed", "layers"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{spec_path}: unknown key {sorted(unknown)[0]!r} (typo?)")
    nonlinearity = raw.get("nonlinearity", "identity")
    if nonlinearity not in NONLINEARITIES:
        raise ConfigError(
            f"{spec_path}: nonlinearity must be one of {sorted(NONLINEARITIES)}"
        )
    samples = raw.get("samples", 256)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 2:
        raise ConfigError(f"{spec_path}: samples must be an integer >= 2")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"{spec_path}: seed must be a non-negative integer")
    layer_specs = raw.get("layers")
    if not isinstance(layer_specs, list) or not layer_specs:
        raise ConfigError(f"{spec_path}: layers must be a non-empty list")
    return nonlinearity, samples, seed, layer_specs


def _toy_forward_layers(
    handle: CheckpointHandle,
    spec_path: Path,
    nonlinearity: str,
    samples: int,
    seed: int,
    layer_specs: list,
) -> Iterator[ActivationMatrix]:
    """The spec's Gaussian inputs pushed through the stack, layer by layer,
    with the bits of one :func:`toy_forward_collect` call over the whole stack.

    The spec is checked against the header (names, 2-D weights, the shapes
    along the stack) before any payload is read.  Each weight (and bias) is
    then read when its layer is reached and dropped after its matmul, and
    layer ``k - 1`` is handed on once layer ``k`` is made: beyond the
    forward's temporaries, one layer's weights and two layers' activations
    are held at most.
    """
    layers: list[tuple[str, str | None]] = []
    for i, entry in enumerate(layer_specs):
        if isinstance(entry, str):
            entry = {"weight": entry}
        if not isinstance(entry, dict) or set(entry) - {"weight", "bias"} or "weight" not in entry:
            raise ConfigError(
                f"{spec_path}: layers[{i}] must be a mapping with 'weight' and optional 'bias'"
            )
        for key, tensor in entry.items():
            if not isinstance(tensor, str) or tensor not in handle:
                raise ConfigError(
                    f"{spec_path}: layers[{i}] {key} {tensor!r} is not a tensor in {handle.path}"
                )
        if len(handle.shape(entry["weight"])) != 2:
            raise ConfigError(f"{spec_path}: layers[{i}] weight {entry['weight']!r} must be 2-D")
        layers.append((entry["weight"], entry.get("bias")))
    width = handle.shape(layers[0][0])[0]
    for k, (weight, bias) in enumerate(layers, start=1):
        shape = handle.shape(weight)
        check_layer_shapes(k, width, shape, None if bias is None else math.prod(handle.shape(bias)))
        width = shape[1]

    rng = keyed_stream(seed, "toy-forward-input", 0)
    below: ActivationMatrix | None = None  # the last layer made, not yet handed on
    for k, (weight, bias) in enumerate(layers, start=1):
        w = _load_f64(handle, weight)
        b = None if bias is None else _load_f64(handle, bias)
        # the first payload is read before the inputs are drawn
        x = rng.standard_normal((samples, w.shape[0])) if below is None else below.samples
        try:
            inputs, layer = toy_forward_collect([w], x, nonlinearity=nonlinearity, biases=[b])
        except (ValueError, NonFiniteError) as exc:  # a one-layer call names its layer layer_1
            raise type(exc)(str(exc).replace("'layer_1'", f"'layer_{k}'")) from None
        del w, b, x
        layer.label = f"layer_{k}"
        yield inputs if below is None else below
        del inputs
        below = layer
    yield below


def cmd_inspect(args: argparse.Namespace) -> int:
    rows: list[dict[str, Any]] = []
    with open_checkpoint(args.checkpoint) as handle:
        metadata = dict(handle.metadata)
        for name in handle.names():
            record = handle.load_tensor(name, precision="f64", strict=False)
            rows.append(
                {
                    "name": name,
                    "shape": list(record.shape),
                    "dtype": handle.dtype(name),
                    "norm": norm(record.data),
                }
            )
    if args.as_json:
        print(json.dumps({"tensors": rows, "metadata": metadata}, indent=2, sort_keys=True))
    else:
        width = max([len(r["name"]) for r in rows] + [4])
        print(f"{'name':<{width}}  {'shape':<16} {'dtype':<5} norm")
        for r in rows:
            shape = "x".join(map(str, r["shape"])) or "scalar"
            print(f"{r['name']:<{width}}  {shape:<16} {r['dtype']:<5} {r['norm']:.6g}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
