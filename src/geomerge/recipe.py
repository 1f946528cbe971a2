"""Merge recipe parsing: YAML in, fully validated job description out.

A recipe names the method, the source models (with optional weights), an
optional base model, method parameters, and the output file.  Unknown keys
are rejected everywhere so typos fail loudly, and method/source-count
constraints are enforced at parse time with actionable messages.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml

from . import dtypes
from .errors import ConfigError, refuse_unknown_keys
from .merge_methods import METHODS, MergeMethod

_TOP_KEYS = {"method", "models", "base_model", "parameters", "output"}
_MODEL_KEYS = {"path", "weight"}
_OUTPUT_KEYS = {"path", "dtype"}


class _YamlLoader(yaml.SafeLoader):
    """PyYAML's safe loader plus YAML 1.2 exponent floats: YAML 1.1 reads
    ``1e-8`` and ``1.0e6`` as strings.  Other scalars keep their types."""


_YamlLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_yaml(text: str) -> Any:
    """The one place that loads YAML, always with :class:`_YamlLoader`."""
    return yaml.load(text, Loader=_YamlLoader)


def invalid_yaml(source: str, exc: yaml.YAMLError) -> ConfigError:
    """The refusal of a document that is not YAML, on one line: the parser's
    problem and where it is, without its multi-line quote of the text."""
    mark = getattr(exc, "problem_mark", None)
    where = "" if mark is None else f" at line {mark.line + 1}, column {mark.column + 1}"
    problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
    return ConfigError(f"{source}: invalid YAML ({problem}{where})")


@dataclass
class ModelEntry:
    path: Path
    weight: float = 1.0


@dataclass
class MergeRecipe:
    """Validated description of one merge job."""

    method: MergeMethod
    models: list[ModelEntry]
    output_path: Path
    output_dtype: str = "f32"
    base_model: Path | None = None
    precision: str = "f32"
    strict: bool = True
    source: str = "<recipe>"

    @property
    def weights(self) -> list[float]:
        return [m.weight for m in self.models]


def load_recipe(path: str | Path, overrides: list[str] | None = None) -> MergeRecipe:
    """Read, override, and validate a recipe file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(f"recipe file not found: {path}") from None
    return parse_recipe(text, source=str(path), overrides=overrides)


def parse_recipe(
    text: str, source: str = "<recipe>", overrides: list[str] | None = None
) -> MergeRecipe:
    """Parse a recipe document, applying ``key.path=value`` overrides first."""
    try:
        raw = load_yaml(text)
    except yaml.YAMLError as exc:
        raise invalid_yaml(source, exc) from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: recipe must be a mapping")
    for item in overrides or []:
        _apply_override(raw, item, source)
    return _validate(raw, source)


def _apply_override(raw: dict[str, Any], item: str, source: str) -> None:
    if "=" not in item:
        raise ConfigError(f"{source}: override {item!r} must look like key.path=value")
    dotted, value_text = item.split("=", 1)
    segments = dotted.strip().split(".")
    if not all(segments):
        raise ConfigError(f"{source}: override {item!r} has an empty path segment")
    try:
        value = load_yaml(value_text)
    except yaml.YAMLError:
        value = value_text
    # each segment descends as if another followed; the last step's entry
    # (a new {} or a model's mapping form) is then replaced by the value
    node: Any = raw
    for seg in segments:
        if isinstance(node, list):
            key: Any = _list_index(node, seg, item, source)
            if node is raw.get("models") and isinstance(node[key], str):
                node[key] = {"path": node[key]}  # the mapping form of a plain path
        elif isinstance(node, dict):
            key = seg
            node.setdefault(key, {})
        else:
            raise ConfigError(f"{source}: override {item!r} descends into a scalar")
        parent, node = node, node[key]
    parent[key] = value


def _list_index(node: list, seg: str, item: str, source: str) -> int:
    try:
        idx = int(seg)
    except ValueError:
        raise ConfigError(f"{source}: override {item!r} indexes a list with {seg!r}") from None
    if not 0 <= idx < len(node):
        raise ConfigError(f"{source}: override {item!r} index {idx} out of range")
    return idx


def _validate(raw: dict[str, Any], source: str) -> MergeRecipe:
    refuse_unknown_keys(raw, _TOP_KEYS, f"{source}: ")
    for key in ("method", "models", "output"):
        if key not in raw:
            raise ConfigError(f"{source}: missing required key {key!r}")

    kind = raw["method"]
    if not isinstance(kind, str) or kind not in METHODS:
        raise ConfigError(f"{source}: method must be one of {', '.join(METHODS)}, got {kind!r}")

    models = _validate_models(raw["models"], source)
    base_model = raw.get("base_model")
    if base_model is not None:
        if not isinstance(base_model, str):
            raise ConfigError(f"{source}: base_model must be a path string")
        base_model = _file_path(base_model, "base_model", source)

    method, precision, strict = _validate_params(kind, raw.get("parameters") or {}, source)
    out_path, out_dtype = _validate_output(raw["output"], source)
    try:
        method.validate_sources(len(models), base_model is not None)
        method.validate_weights([entry.weight for entry in models])
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None

    return MergeRecipe(
        method=method,
        models=models,
        output_path=out_path,
        output_dtype=out_dtype,
        base_model=base_model,
        precision=precision,
        strict=strict,
        source=source,
    )


def _validate_models(node: Any, source: str) -> list[ModelEntry]:
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{source}: models must be a non-empty list")
    entries = []
    for i, entry in enumerate(node):
        if isinstance(entry, str):
            entry = {"path": entry}
        if not isinstance(entry, dict):
            raise ConfigError(f"{source}: models[{i}] must be a mapping or path string")
        refuse_unknown_keys(entry, _MODEL_KEYS, f"{source}: models[{i}]: ")
        if "path" not in entry or not isinstance(entry["path"], str):
            raise ConfigError(f"{source}: models[{i}] needs a 'path' string")
        weight = entry.get("weight", 1.0)
        if not isinstance(weight, (int, float)) or isinstance(weight, bool) or weight < 0:
            raise ConfigError(f"{source}: models[{i}]: weight must be a non-negative number")
        try:
            weight = float(weight)
        except OverflowError:  # an int beyond the float range
            weight = math.inf
        if not math.isfinite(weight):
            raise ConfigError(
                f"{source}: models[{i}]: weight must be a finite number, got {weight}"
            )
        path = _file_path(entry["path"], f"models[{i}].path", source)
        entries.append(ModelEntry(path=path, weight=weight))
    total = sum(e.weight for e in entries)
    if total <= 0:
        raise ConfigError(f"{source}: model weights must not all be zero")
    if total == math.inf:
        raise ConfigError(f"{source}: model weights must have a finite sum")
    return entries


def _validate_params(kind: str, node: Any, source: str) -> tuple[MergeMethod, str, bool]:
    """The method with its checked parameters, the precision and strict mode."""
    if not isinstance(node, dict):
        raise ConfigError(f"{source}: parameters must be a mapping")
    params = dict(node)
    precision = params.pop("precision", "f32")
    strict = params.pop("strict", True)
    try:
        method = MergeMethod(kind=kind, params=params)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    if precision not in dtypes.WORKING_PRECISIONS:
        raise ConfigError(
            f"{source}: parameters.precision must be one of {sorted(dtypes.WORKING_PRECISIONS)}"
        )
    if not isinstance(strict, bool):
        raise ConfigError(f"{source}: parameters.strict must be a boolean")
    return method, precision, strict


def _validate_output(node: Any, source: str) -> tuple[Path, str]:
    if not isinstance(node, dict):
        raise ConfigError(f"{source}: output must be a mapping")
    refuse_unknown_keys(node, _OUTPUT_KEYS, f"{source}: output: ")
    if "path" not in node or not isinstance(node["path"], str):
        raise ConfigError(f"{source}: output needs a 'path' string")
    dtype = node.get("dtype", "f32")
    if not isinstance(dtype, str) or dtype not in dtypes.DTYPES:
        raise ConfigError(f"{source}: output.dtype must be one of {sorted(dtypes.DTYPES)}")
    return _file_path(node["path"], "output.path", source), dtype


def _file_path(text: str, key: str, source: str) -> Path:
    """``text`` as a path, which must end in a file name: ``''``, ``'.'``,
    ``'/'`` and ``'..'`` name a directory."""
    path = Path(text)
    if path.name in ("", ".."):
        raise ConfigError(f"{source}: {key} must name a file, got {text!r}")
    return path
