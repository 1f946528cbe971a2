"""Per-tensor merge rules and the streaming merge orchestrator.

Each rule maps flat (row-major) source vectors to one merged vector,
computed in float64.  ``run_merge`` streams every mergeable tensor of a job
through the selected rule with a bounded worker pool, and each worker writes
its result into the output checkpoint at an offset fixed before any merge
starts; outputs are bit-identical for any worker count because summation
order is fixed and random masks are keyed by (seed, tensor name, model
index).

The geodesic rule normalizes each source to the unit sphere, solves for the
weighted geodesic barycenter of the directions, and rescales by the weighted
mean of the source norms, so the merged tensor's norm never shrinks the way
a straight weighted average does.
"""

from __future__ import annotations

import logging
import math
import sys
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import dtypes
from .delta_ops import (
    SparsifySpec,
    dare_drop,  # noqa: F401  (not called here; kept so it can be traced under this module)
    della_drop,
    disjoint_merge,
    elect_signs,
    sparsify_stream,
    stack_rows,
    task_vector,
    trim_topk,
)
from .errors import AlignmentError, ConfigError, DegenerateError, NonFiniteError, refuse_unknown_keys
from .sphere import (
    COLUMN_BLOCK,
    DEGENERATE_NORM,
    KarcherConfig,
    column_blocks,
    combined_norm,
    inner,
    karcher_mean,
    norm,
    normalized_weights,
    slerp as unit_slerp,
)
from .tensor_io import (
    CheckpointHandle,
    CheckpointWriter,
    check_output_path,
    validate_aligned,
    write_checkpoint,  # noqa: F401  (not called here; kept so it can be traced under this module)
)

logger = logging.getLogger(__name__)


class Param(NamedTuple):
    """A method parameter's default and its check, which returns the
    normalized value or raises ConfigError."""

    default: Any
    check: Callable[[str, Any], Any]


def _number(
    lo: float = -math.inf, hi: float = math.inf, lo_open: bool = False, hi_open: bool = False
) -> Callable[[str, Any], float]:
    def check(key: str, v: Any) -> float:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ConfigError(f"parameters.{key} must be a number, got {v!r}")
        try:
            v = float(v)
        except OverflowError:  # an int beyond the float range
            v = math.inf
        if not math.isfinite(v):
            raise ConfigError(f"parameters.{key} must be a finite number, got {v}")
        if v < lo or v > hi or (lo_open and v == lo) or (hi_open and v == hi):
            raise ConfigError(f"parameters.{key}={v} out of range")
        return v

    return check


def _integer(what: str, ok: Callable[[int], bool]) -> Callable[[str, Any], int]:
    def check(key: str, v: Any) -> int:
        if not isinstance(v, int) or isinstance(v, bool) or not ok(v):
            raise ConfigError(f"parameters.{key} must be {what}")
        return v

    return check


PARAMS: dict[str, Param] = {
    "t": Param(0.5, _number(0.0, 1.0)),
    "density": Param(0.5, _number(0.0, 1.0, lo_open=True)),
    "drop_rate": Param(0.5, _number(0.0, 1.0, hi_open=True)),
    "window": Param(0.1, _number(0.0, 1.0, hi_open=True)),
    "lambda": Param(1.0, _number()),
    "eta": Param(1.0, _number(0.0, 1.0, lo_open=True)),
    "tol": Param(1e-6, _number(0.0, lo_open=True)),
    "max_iter": Param(50, _integer("a positive integer", lambda v: v >= 1)),
    "seed": Param(0, _integer("an unsigned 64-bit integer", lambda v: 0 <= v < 2**64)),
}


@dataclass
class SolverStats:
    """Barycenter solver exit diagnostics for one tensor."""

    iterations: int
    residual: float
    converged: bool
    stalled: bool = False


@dataclass
class MergeMethod:
    """A merge rule plus its parameter bag (defaults filled on access).

    ``params`` is checked and normalized against :data:`PARAMS` on
    construction; unknown keys and out-of-range values raise ConfigError.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in METHODS:
            raise ConfigError(
                f"unknown merge method {self.kind!r}; expected one of {', '.join(METHODS)}"
            )
        refuse_unknown_keys(self.params, PARAMS, "parameters: ")
        self.params = {key: PARAMS[key].check(key, v) for key, v in self.params.items()}
        # the default window counts only for the methods that read it
        drop = self.param("drop_rate")
        reads_window = "window" in self.params or "window" in self.spec.reads
        window = self.param("window") if reads_window else 0.0
        if drop - window < 0 or drop + window >= 1:
            raise ConfigError(
                "parameters: need 0 <= drop_rate - window and "
                f"drop_rate + window < 1 (got drop_rate={drop}, window={window})"
            )

    def param(self, name: str) -> Any:
        return self.params.get(name, PARAMS[name].default)

    @property
    def spec(self) -> MethodSpec:
        return METHODS[self.kind]

    @property
    def needs_base(self) -> bool:
        return self.spec.needs_base

    def validate_sources(self, n_sources: int, has_base: bool) -> None:
        spec = self.spec
        if n_sources < 1:
            raise ConfigError("merge requires at least one source model")
        if spec.min_sources == spec.max_sources != n_sources:
            raise ConfigError(
                f"{self.kind} requires exactly {spec.min_sources} models, got {n_sources}"
            )
        if n_sources < spec.min_sources:
            experts = "expert models" if spec.needs_base else "models"
            raise ConfigError(
                f"{self.kind} requires at least {spec.min_sources} {experts}, got {n_sources}"
            )
        if spec.needs_base and not has_base:
            raise ConfigError(f"{self.kind} requires a base model")

    def validate_weights(self, weights: Sequence[float] | None) -> None:
        """Refuse unequal model weights for a method whose rule reads none."""
        if weights is not None and not self.spec.weighted and len(set(weights)) > 1:
            raise ConfigError(
                f"{self.kind} does not weight its models; give them equal weights or none "
                f"(got {', '.join(f'{float(v):g}' for v in weights)})"
            )


def weighted_sum(
    vectors: Iterable[np.ndarray], weights: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Fixed-order float64 weighted sum (deterministic across thread counts).

    The sum starts from +0.0, as a zero vector would, and adds the products
    in order; ``vectors`` may be a generator, so only one of them need be
    held at a time.  Each vector is widened inside its product, and the
    products are made one :func:`column_blocks` block at a time, so no
    n-length product is.  ``out``, if given, is a float64 vector that
    receives the sum.
    """
    acc = out
    if acc is not None:
        acc.fill(0.0)
    product = None
    for w_i, vec in zip(weights, vectors):
        flat = np.ravel(vec)
        if acc is None:
            acc = np.zeros(flat.size)
        if product is None:
            product = np.empty(min(acc.size, COLUMN_BLOCK))
        if flat.size != acc.size:
            raise ValueError(f"length mismatch: the sum has {acc.size}, a vector {flat.size}")
        for cols in column_blocks(acc.size):
            block = flat[cols]
            acc[cols] += np.multiply(block, w_i, out=product[: block.size], dtype=np.float64)
    return acc


def _rows_equal(stack: np.ndarray) -> bool:
    """Whether every row equals the first, compared one column block at a
    time up to the first block that differs."""
    for cols in column_blocks(stack.shape[1]):
        block = stack[:, cols]
        if not all(np.array_equal(block[0], row) for row in block[1:]):
            return False
    return True


#: Beyond this norm the squared norm, and so the solver's Gram matrix, overflows.
_MAX_NORM = math.sqrt(sys.float_info.max)


def _row_norms(stack: np.ndarray, norms: Sequence[float] | None = None) -> np.ndarray:
    """The rows' norms, or ``norms`` where the caller took them already with
    :func:`norm`, refused when one is not finite or its square overflows."""
    norms = np.array([norm(row) for row in stack] if norms is None else norms, dtype=np.float64)
    bad = np.flatnonzero(~(norms <= _MAX_NORM))  # NaN compares false
    if bad.size:
        raise NonFiniteError(
            f"source {int(bad[0])} has NaN/Inf entries or a squared norm beyond float64 range"
        )
    return norms


# -- merge rules -----------------------------------------------------------


def merge_lerp(
    tensors: Sequence[np.ndarray], weights: Sequence[float], *, out: np.ndarray | None = None
) -> np.ndarray:
    """Weighted Euclidean average, into ``out`` if given."""
    w = normalized_weights(weights, len(tensors))
    return weighted_sum(tensors, w, out)


def merge_slerp(
    a: np.ndarray,
    b: np.ndarray,
    t: float = 0.5,
    *,
    out: np.ndarray | None = None,
    norms: Sequence[float] | None = None,
) -> np.ndarray:
    """Geodesic interpolation of directions, norm interpolated linearly
    (into ``out``, if given, with ``a`` and ``b`` float64 rows normalized in
    place; else neither is modified).  ``norms``, if given, are their norms
    as :func:`norm` gives them.  Refused in this order: NaN/Inf entries, a
    norm beyond float64's range, a (near-)zero norm, an antipodal pair.
    """
    rows = stack_rows([a, b]) if out is None else (a, b)
    out = np.empty(rows[0].size) if out is None else out
    end = rows[0] if t == 0.0 or np.array_equal(*rows) else rows[1] if t == 1.0 else None
    if end is not None:
        np.copyto(out, end)
        return out
    lengths = [norm(row) for row in rows] if norms is None else list(norms)
    finite = [math.isfinite(length) for length in lengths]
    if not all(finite):
        if not all(np.isfinite(r).all() for r in rows):
            raise NonFiniteError("cannot normalize a vector with NaN/Inf entries")
        # a norm is finite when every entry is, unless it exceeds float64's range
        raise NonFiniteError(f"source {finite.index(False)} has a norm beyond float64 range")
    if min(lengths) < DEGENERATE_NORM:
        raise DegenerateError("slerp sources must have nonzero norm")
    for row, length in zip(rows, lengths):
        row /= length
    unit_slerp(*rows, t, out=out)
    return np.multiply(out, (1.0 - t) * lengths[0] + t * lengths[1], out=out)


def merge_multislerp(
    tensors: Sequence[np.ndarray],
    weights: Sequence[float],
    *,
    out: np.ndarray | None = None,
    norms: Sequence[float] | None = None,
) -> np.ndarray:
    """One tangent-space average of all source directions (into ``out``, if given).

    :func:`merge_karcher` stopped after its single unit step from the chord,
    with refusals of its own: a (near-)zero-norm source is refused, and a
    degenerate chord warns and falls back to lerp.  ``norms``, if given, are
    the sources' norms as :func:`norm` gives them, and are not taken again.
    """
    if len(tensors) < 2:
        raise ValueError("multislerp requires at least 2 tensors")
    w = normalized_weights(weights, len(tensors))
    stack = stack_rows(tensors)
    if not _rows_equal(stack):
        norms = _row_norms(stack, norms)
        zero = np.flatnonzero(norms < DEGENERATE_NORM)
        if zero.size:
            raise DegenerateError(f"multislerp source {int(zero[0])} has (near-)zero norm")
        if combined_norm(w / norms, stack) < DEGENERATE_NORM:
            logger.warning("multislerp basepoint degenerate (symmetric sources); using lerp")
            return weighted_sum(stack, w, out)
    # the smallest positive tol never stops the loop before its single step
    one_step = KarcherConfig(eta=1.0, tol=sys.float_info.min, max_iter=1)
    return merge_karcher(stack, weights, one_step, out=out, norms=norms)[0]


def merge_karcher(
    tensors: Sequence[np.ndarray],
    weights: Sequence[float],
    config: KarcherConfig | None = None,
    *,
    out: np.ndarray | None = None,
    norms: Sequence[float] | None = None,
) -> tuple[np.ndarray, SolverStats]:
    """Norm-preserving geodesic barycenter merge (into ``out``, if given).

    Sources of degenerate norm are left out of the spherical solve and their
    weight redistributed; if every source of nonzero weight is degenerate,
    the weighted Euclidean mean is returned.  The merged direction is
    rescaled by the weighted mean of all source norms.  ``norms``, if given,
    are the sources' norms as :func:`norm` gives them, and are not taken again.
    """
    w = normalized_weights(weights, len(tensors))
    stack = stack_rows(tensors)
    out = np.empty(stack.shape[1]) if out is None else out
    if _rows_equal(stack):
        np.copyto(out, stack[0])
        return out, SolverStats(0, 0.0, True)
    norms = _row_norms(stack, norms)
    live = norms >= DEGENERATE_NORM
    if not w[live].any():
        return weighted_sum(stack, w, out), SolverStats(0, 0.0, True)
    result = karcher_mean(stack if live.all() else stack[live], w[live], config, out)
    stats = SolverStats(result.iterations, result.residual, result.converged, result.stalled)
    return np.multiply(result.mean, float(w @ np.where(live, norms, 0.0)), out=out), stats


def merge_task_arithmetic(
    base: np.ndarray,
    experts: Sequence[np.ndarray],
    weights: Sequence[float],
    scaling: float = 1.0,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """base + scaling * weighted mean of expert deltas: :func:`merge_della`
    with nothing dropped, combined by lerp (so ``out`` acts as there)."""
    spec = SparsifySpec(drop_rate=0.0, window=0.0)
    return merge_della(base, experts, weights, spec, scaling=scaling, out=out)


def merge_ties(
    base: np.ndarray,
    experts: Sequence[np.ndarray],
    weights: Sequence[float],
    density: float = 0.5,
) -> np.ndarray:
    """Trim small delta entries, elect per-coordinate signs, average agreers:
    :func:`merge_della` with nothing dropped."""
    spec = SparsifySpec(density=density, drop_rate=0.0, window=0.0)
    return merge_della(base, experts, weights, spec, "ties")


def merge_dare(
    base: np.ndarray,
    experts: Sequence[np.ndarray],
    weights: Sequence[float],
    drop_rate: float,
    combine: str = "lerp",
    density: float = 0.5,
    seed: int = 0,
    tensor_name: str = "",
) -> np.ndarray:
    """Random drop-and-rescale of each delta, then lerp or ties combination:
    :func:`merge_della` with ``window=0``."""
    spec = SparsifySpec(density=density, drop_rate=drop_rate, window=0.0, seed=seed)
    return merge_della(base, experts, weights, spec, combine, tensor_name)


def merge_della(
    base: np.ndarray,
    experts: Sequence[np.ndarray],
    weights: Sequence[float],
    spec: SparsifySpec,
    combine: str = "lerp",
    tensor_name: str = "",
    *,
    scaling: float = 1.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Magnitude-aware drop-and-rescale, then lerp or ties combination,
    the combined delta scaled by ``scaling`` and added to the base.

    Each delta is dropped in place, all drops sharing one buffer of draws;
    the delta of expert ``i`` draws from the stream keyed by
    (``spec.seed``, ``tensor_name``, ``i``).  With ``drop_rate=0`` (hence
    ``window=0``) nothing is dropped and no random draw is made.  The ties
    combination makes, drops and trims each delta in its own row of one
    m x n stack, then elects signs and takes the disjoint mean over that
    same stack; the result buffer serves in turn as the draws, the trim's
    scratch and the signs.  The lerp combination sums each delta as it is
    made, so no list of all m deltas is held.

    ``out``, if given, is a float64 vector that receives the result, and
    the deltas are then made in the rows of ``experts`` itself when it is
    an m x n float64 array (as ``run_merge`` passes its workspace), whose
    values are lost.  Without ``out`` no argument is modified.
    """
    if combine not in ("lerp", "ties"):
        raise ConfigError(f"unknown combine mode {combine!r}; expected 'lerp' or 'ties'")
    b = np.ravel(base)
    w = normalized_weights(weights, len(experts))
    stack = None if out is None else stack_rows(experts)
    out = np.empty(b.size) if out is None else out

    def delta(expert: np.ndarray, idx: int, draws: np.ndarray, row: Any = None) -> np.ndarray:
        d = task_vector(expert, b, out=row)
        if spec.drop_rate > 0.0:
            rng = sparsify_stream(spec.seed, tensor_name, idx)
            della_drop(d, spec, rng, out=d, draws=draws)
        return d

    if combine == "lerp":
        # out holds the running sum, so the draws need a buffer of their own;
        # each delta is summed before the next is made, in its own row of
        # the given stack or else in one buffer that serves every delta
        draws = np.empty(b.size if spec.drop_rate > 0.0 else 0)
        rows = repeat(np.empty(b.size)) if stack is None else stack
        deltas = (delta(e, idx, draws, row) for idx, (e, row) in enumerate(zip(experts, rows)))
        weighted_sum(deltas, w, out)
    else:
        stack = np.empty((w.size, b.size)) if stack is None else stack
        for idx, (row, expert) in enumerate(zip(stack, experts)):
            delta(expert, idx, out, row)
            trim_topk(row, spec.density, out=row, scratch=out)
        disjoint_merge(stack, w, elect_signs(stack, w, out), out)
    if scaling != 1.0:  # a factor of 1 would change no bit, so skip its pass
        np.multiply(out, scaling, out=out)
    return np.add(b, out, out=out)


def merge_model_stock(
    base: np.ndarray, experts: Sequence[np.ndarray], *, out: np.ndarray | None = None
) -> np.ndarray:
    """Interpolate between the base and the expert mean by delta agreement.

    The ratio t = m*c / (1 + (m-1)*c) comes from the mean pairwise cosine c
    of the expert deltas: identical deltas (c=1) give the expert mean,
    orthogonal deltas (c=0) fall back to the base.  Zero-norm deltas count
    as cosine 1 with everything.

    Given ``out``, the result is written there and the deltas are made in
    the rows of ``experts``, as in :func:`merge_della`; else none is modified.
    """
    m = len(experts)
    if m < 2:
        raise ValueError(f"model_stock requires at least 2 experts, got {m}")
    b = np.ravel(base)
    rows = repeat(None) if out is None else stack_rows(experts)
    # the mean first, since the deltas may be made over the experts' rows
    out = weighted_sum(experts, normalized_weights(np.ones(m), m), out)
    deltas = [task_vector(e, b, out=row) for e, row in zip(experts, rows)]
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
    for cols in column_blocks(b.size):
        out[cols] *= t
        out[cols] += np.multiply(b[cols], 1.0 - t, dtype=np.float64)
    return out


# -- method registry -----------------------------------------------------------

#: A rule merges one tensor: (parameter lookup, tensor name, source flats,
#: base flat or None, normalized weights, out=None, norms=None) -> (merged
#: flat, SolverStats or None); only the barycenter solver gives stats.
#: Given ``out`` (as ``run_merge`` does), the flats are an m x n float64
#: stack that the rule may overwrite, and every rule writes its result
#: into ``out``.  ``norms``, if given, are the flats' norms from
#: :func:`norm`, which the spherical rules then do not take again; the
#: others ignore them.
Rule = Callable[..., tuple[np.ndarray, SolverStats | None]]


@dataclass(frozen=True)
class MethodSpec:
    """What one merge method reads and needs.

    ``reads`` names the parameters the rule uses; the summary reports them
    with their effective values.  ``weighted`` says whether the rule reads
    the model weights; a method whose rule reads none refuses unequal ones.
    The rules look the merge functions up by their module names at call
    time, so a wrapped or patched function is the one that runs.
    """

    reads: tuple[str, ...]
    rule: Rule
    needs_base: bool = False
    min_sources: int = 1
    max_sources: int | None = None
    weighted: bool = True


def _delta_method(*reads: str) -> MethodSpec:
    """task_arithmetic, ties, dare_* and della_*: :func:`merge_della` with
    the drop parameters the method reads, and 0 for those it does not; a
    method that reads ``density`` combines by TIES, and one that reads
    ``lambda`` scales the combined delta by it."""
    combine = "ties" if "density" in reads else "lerp"

    def rule(
        p: Callable[[str], Any],
        name: str,
        flats: Any,
        base: Any,
        w: np.ndarray,
        out: Any = None,
        **_: Any,
    ) -> Any:
        drop = {key: p(key) if key in reads else 0.0 for key in ("drop_rate", "window")}
        spec = SparsifySpec(density=p("density"), seed=p("seed"), **drop)
        scaling = p("lambda") if "lambda" in reads else 1.0
        return merge_della(base, flats, w, spec, combine, name, scaling=scaling, out=out), None

    return MethodSpec(reads, rule, needs_base=True)


METHODS: dict[str, MethodSpec] = {
    "karcher": MethodSpec(
        ("eta", "tol", "max_iter"),
        lambda p, name, flats, base, w, **kw: merge_karcher(
            flats, w, KarcherConfig(eta=p("eta"), tol=p("tol"), max_iter=p("max_iter")), **kw
        ),
    ),
    "lerp": MethodSpec(
        (), lambda p, name, flats, base, w, out=None, **_: (merge_lerp(flats, w, out=out), None)
    ),
    "slerp": MethodSpec(
        ("t",),
        lambda p, name, flats, base, w, **kw: (
            merge_slerp(flats[0], flats[1], p("t"), **kw), None
        ),
        min_sources=2,
        max_sources=2,
        weighted=False,
    ),
    "multislerp": MethodSpec(
        (), lambda p, name, flats, base, w, **kw: (merge_multislerp(flats, w, **kw), None),
        min_sources=2,
    ),
    "task_arithmetic": _delta_method("lambda"),
    "ties": _delta_method("density"),
    "dare_lerp": _delta_method("drop_rate", "seed"),
    "dare_ties": _delta_method("drop_rate", "density", "seed"),
    "della_lerp": _delta_method("drop_rate", "window", "seed"),
    "della_ties": _delta_method("drop_rate", "window", "density", "seed"),
    "model_stock": MethodSpec(
        (),
        lambda p, name, flats, base, w, out=None, **_: (
            merge_model_stock(base, flats, out=out), None
        ),
        needs_base=True,
        min_sources=2,
        weighted=False,
    ),
}


# -- streaming orchestrator --------------------------------------------------


@dataclass
class MergeJob:
    """One merge over aligned checkpoints."""

    sources: Sequence[CheckpointHandle]
    method: MergeMethod
    out_path: Path | str
    base: CheckpointHandle | None = None
    weights: Sequence[float] | None = None
    out_dtype: str = "f32"
    precision: str = "f32"
    strict: bool = True
    threads: int | None = None

    def __post_init__(self) -> None:
        dtypes.itemsize(self.out_dtype)  # validates the code before any merging
        if self.threads is not None and self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")


@dataclass
class TensorStats:
    name: str
    norm_in: list[float]
    norm_out: float
    #: the solver's :class:`SolverStats`; None for a rule that runs no solver
    iterations: int | None = None
    residual: float | None = None
    converged: bool | None = None
    #: the solver stopped on a stall rather than at max_iter; told in the log only
    stalled: bool = False


@dataclass
class MergeSummary:
    method: str
    parameters: dict[str, Any]
    tensors_merged: int
    tensors_skipped: list[str]
    per_tensor: list[TensorStats]
    wall_ms: float

    def to_dict(self) -> dict[str, Any]:
        summary = asdict(self)
        for tensor in summary["per_tensor"]:
            del tensor["stalled"]
        return summary


def _name_tensor(exc: Exception, name: str) -> None:
    """Put the tensor name into ``exc``'s message in place, keeping its type.

    A message that already starts with the name is left as it is.  A plain
    one-message exception gets the name prefixed to its message.  Others,
    such as ``UnicodeDecodeError`` whose message is built from five fields,
    cannot be rebuilt from a string and get the name as a note.
    """
    label = f"tensor {name!r}"
    if str(exc).startswith(label):
        return
    if len(exc.args) == 1 and str(exc) == exc.args[0]:
        exc.args = (f"{label}: {exc}",)
    else:  # what BaseException.add_note does, which needs Python 3.11
        exc.__notes__ = [*getattr(exc, "__notes__", ()), label]


def run_merge(job: MergeJob) -> MergeSummary:
    """Merge every aligned tensor of the job, streaming the output checkpoint.

    The plan comes from the source headers: the mergeable and skipped names
    and the output layout.  An output path that names a directory is
    refused before any payload is read.  The stream hands tensors to the
    worker pool in lexicographic name order, at most two per worker in
    flight; each worker merges its tensor, encodes it and writes it at its
    own offset, so peak memory follows the largest tensors, not the model,
    and the bytes are identical for any thread count.  The main thread
    collects each result, and logs for it, in name order.

    In strict mode any misalignment or per-tensor failure aborts with the
    tensor named; otherwise failing tensors are copied from the base (or the
    first source holding them) and reported as skipped.  Errors are reported
    as if the whole output were written at the end: a merge failure before a
    copy failure, a copy failure before a tensor the output dtype cannot
    hold, and among each kind the first in name order.  A failed run leaves
    no output file.
    """
    start = time.perf_counter()
    sources = list(job.sources)
    m = len(sources)
    method = job.method
    method.validate_sources(m, job.base is not None)
    method.validate_weights(job.weights)
    weights = normalized_weights(np.ones(m) if job.weights is None else job.weights, m)

    align_set: list[CheckpointHandle] = sources + ([job.base] if method.needs_base else [])
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

    skipped = sorted(set().union(*(h.names() for h in sources)).difference(mergeable))
    for name in skipped:
        logger.warning("tensor %r is not mergeable; copying from the first source", name)

    def merge_one(name: str, work: dtypes.Workspace) -> tuple[np.ndarray, TensorStats]:
        """The merged flat, which may be ``work``'s, and its stats.

        Each source, then the base, is decoded into its row of one float64
        stack in ``work``; the rule may overwrite the source rows and write
        its result into ``work``'s ``out`` vector.
        """
        count = math.prod(sources[0].shape(name))
        stack = work.take("stack", (len(align_set), count))
        for handle, row in zip(align_set, stack):
            handle.load_tensor(name, job.precision, strict=True, out=row)
        flats = stack[:m]
        base_flat = stack[-1] if method.needs_base else None
        # taken before the rule may turn the rows into deltas, checked after
        norm_in = [norm(f) for f in flats]
        # an overflow or invalid operation shows as a non-finite entry below
        with np.errstate(over="ignore", invalid="ignore"):
            merged, stats = method.spec.rule(
                method.param,
                name,
                flats,
                base_flat,
                weights,
                out=work.take("out", count),
                norms=norm_in,
            )
        tensor_stats = TensorStats(
            name=name, norm_in=norm_in, norm_out=norm(merged), **(asdict(stats) if stats else {})
        )
        # a norm is finite when every entry is, unless it exceeds float64's range
        if not all(map(math.isfinite, [*tensor_stats.norm_in, tensor_stats.norm_out])):
            if not np.isfinite(merged).all():
                raise NonFiniteError("merge produced NaN/Inf values")
            raise NonFiniteError("norm beyond float64 range")
        return merged, tensor_stats

    def donor(name: str, donors: Sequence[CheckpointHandle | None]) -> CheckpointHandle:
        # every output name is held by at least one source
        return next(h for h in donors if h is not None and name in h)

    def copy_from(name: str, donors: Sequence[CheckpointHandle | None]) -> np.ndarray:
        return donor(name, donors).load_tensor(name, job.precision, strict=False).data

    # The layout: a merged tensor has sources[0]'s shape and a copied one
    # its donor's.  Where a numeric fallback's donor, a base the method does
    # not read, holds the name in another shape, the shape depends on
    # whether the merge fails; such a tensor (non-strict runs only) is merged
    # once here to learn that, its result dropped, and again in its turn.
    shapes = {name: sources[0].shape(name) for name in mergeable}
    shapes.update({name: donor(name, sources).shape(name) for name in skipped})
    check_output_path(job.out_path)
    if not job.strict and job.base is not None:
        for name in mergeable:
            if name in job.base and job.base.shape(name) != shapes[name]:
                try:
                    merge_one(name, dtypes.Workspace())
                except Exception:  # reported when the tensor fails again in its turn
                    shapes[name] = job.base.shape(name)

    out = CheckpointWriter(job.out_path, shapes, output_dtype=job.out_dtype)
    # raised only once every merge and copy has run, the first in name order,
    # as when the whole output was written at the end
    write_errors: dict[str, Exception] = {}

    def put(name: str, data: np.ndarray) -> None:
        try:
            out.put(name, data)
        except Exception as exc:
            write_errors[name] = exc

    # each worker's buffers, reused from tensor to tensor and dropped with
    # the pool's threads
    work = dtypes.Workspace()

    def merge_and_put(name: str) -> TensorStats:
        merged, stats = merge_one(name, work)
        put(name, merged)
        return stats

    per_tensor: list[TensorStats] = []
    failed: list[str] = []
    max_workers = job.threads or dtypes.usable_cpus()
    with out:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            todo = iter(mergeable)
            window: deque[tuple[str, Future]] = deque()
            while True:
                for name in islice(todo, 2 * max_workers - len(window)):
                    window.append((name, pool.submit(merge_and_put, name)))
                if not window:
                    break
                name, future = window.popleft()
                try:
                    stats = future.result()
                except Exception as exc:
                    if job.strict:
                        for _, pending in window:
                            pending.cancel()
                        _name_tensor(exc, name)
                        raise
                    # a load error's message starts with the name the log gives
                    reason = str(exc).removeprefix(f"tensor {name!r} in ")
                    logger.warning("tensor %r failed (%s); copying fallback", name, reason)
                    failed.append(name)
                    continue
                if stats.stalled:
                    logger.warning(
                        "tensor %r: barycenter solver stalled, stopped at iteration %d"
                        " (residual %.3e)",
                        name, stats.iterations, stats.residual,
                    )
                elif stats.converged is False:
                    logger.warning(
                        "tensor %r: barycenter solver hit max_iter (residual %.3e)",
                        name, stats.residual,
                    )
                logger.debug(
                    "merged tensor %r (%s) norm %.6g", name,
                    "x".join(map(str, shapes[name])) or "scalar", stats.norm_out,
                )
                per_tensor.append(stats)

        # non-mergeable names come from the first source holding them;
        # numeric failures fall back to the base tensor
        for name in skipped:
            put(name, copy_from(name, sources))
        for name in failed:
            put(name, copy_from(name, [job.base, *sources]))
        if write_errors:
            raise write_errors[min(write_errors)]

    return MergeSummary(
        method=method.kind,
        # explicit settings are echoed even where the method does not read them
        parameters={**{k: method.param(k) for k in method.spec.reads}, **method.params},
        tensors_merged=len(per_tensor),
        tensors_skipped=sorted(skipped + failed),
        per_tensor=per_tensor,
        wall_ms=(time.perf_counter() - start) * 1000.0,
    )
