"""The streaming output path against the hold-everything one it replaced.

``run_merge`` lays the output out from the headers and has each worker write
its own tensor; ``oracles.run_merge_held`` holds every tensor until one
``write_checkpoint`` call at the end.  For every method, output dtype and
strictness, over three sets of tiny checkpoints, the streaming path with one
and with three threads must give the bytes, the summary (apart from
``wall_ms``) and the error of the held one.

- ``clean``: aligned, every value finite; ``big`` (1e5) overflows only f16.
- ``nan``: as ``clean`` with a NaN in source b's ``n``.  A strict run must
  report the NaN merge failure, not the overflow of ``big`` before it in name
  order; a non-strict one copies ``n`` from the base, then reports the
  overflow if the output is f16.
- ``faulty``: as ``nan``, and source b's ``d`` has another shape (not
  mergeable), and the base holds ``n`` in another shape than the sources, so
  a method that does not read the base still copies its ``n`` from there.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np
import pytest

from geomerge.errors import AlignmentError, DTypeOverflowError, NonFiniteError
from geomerge.merge_methods import METHODS, MergeJob, MergeMethod, run_merge
from geomerge.tensor_io import TensorRecord, open_checkpoint, write_checkpoint

from oracles import run_merge_held

SETS = ("clean", "nan", "faulty")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("oracle")
    rng = np.random.default_rng(23)
    for kind in SETS:
        base = {
            "w": rng.standard_normal((3, 4)),
            "d": rng.standard_normal(5),
            "n": rng.standard_normal(6 if kind == "faulty" else 5),
            "big": np.full(4, 1e5),
        }
        models = {}
        for tag in "abc":
            models[tag] = {k: v + 0.1 * rng.standard_normal(v.shape) for k, v in base.items()}
            models[tag]["n"] = rng.standard_normal(5)
            models[tag]["big"] = np.full(4, 1e5)
        if kind != "clean":
            models["b"]["n"][1] = np.nan
        if kind == "faulty":
            models["b"]["d"] = rng.standard_normal(7)
        for tag, tensors in [("base", base), *models.items()]:
            records = [TensorRecord(k, v) for k, v in tensors.items()]
            write_checkpoint(root / f"{kind}-{tag}.st", records)
    return root


def _strict_json(text: str) -> dict:
    def reject(constant: str):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _outcome(run, root, kind, method, out_dtype, threads, strict):
    """What one merge leaves: (bytes, summary) or (error type, text)."""
    out = root / f"out-{run.__name__}.st"
    models = "ab" if method == "slerp" else "abc"
    with contextlib.ExitStack() as stack:
        sources = [stack.enter_context(open_checkpoint(root / f"{kind}-{m}.st")) for m in models]
        job = MergeJob(
            sources=sources,
            base=stack.enter_context(open_checkpoint(root / f"{kind}-base.st")),
            method=MergeMethod(method),
            out_path=out,
            out_dtype=out_dtype,
            strict=strict,
            threads=threads,
        )
        try:
            summary = run(job).to_dict()
        except Exception as exc:
            assert not out.exists()
            return type(exc), str(exc), getattr(exc, "__notes__", None)
        finally:
            assert not list(root.glob("*.tmp"))
    summary.pop("wall_ms")
    summary = _strict_json(json.dumps(summary))
    with open_checkpoint(out) as written:  # parsing checks that the buffers tile the data
        assert written.names() == sorted(written.names())
    data = out.read_bytes()
    out.unlink()
    return data, summary


@pytest.mark.parametrize("kind", SETS)
@pytest.mark.parametrize("method", list(METHODS))
def test_streaming_matches_held(inputs, kind, method):
    outcomes = {}
    for out_dtype in ("f32", "bf16", "f16", "f64"):
        for strict in (True, False):
            held = _outcome(run_merge_held, inputs, kind, method, out_dtype, 2, strict)
            for threads in (1, 3):
                case = (kind, method, out_dtype, threads, strict)
                assert _outcome(run_merge, inputs, *case) == held, case
            outcomes[out_dtype, strict] = held

    # the cases cover what they are meant to
    strict_f16, _, _ = outcomes["f16", True]
    loose_f16, overflow, _ = outcomes["f16", False]
    assert loose_f16 is DTypeOverflowError and overflow.startswith("tensor 'big': ")
    if kind == "clean":
        assert strict_f16 is DTypeOverflowError
    elif kind == "nan":
        assert strict_f16 is NonFiniteError
    else:
        assert strict_f16 is AlignmentError
    data, summary = outcomes["f32", False]
    assert summary["tensors_skipped"] == {"clean": [], "nan": ["n"], "faulty": ["d", "n"]}[kind]
    if kind == "faulty":
        path = inputs / "written.st"
        path.write_bytes(data)
        with open_checkpoint(path) as written:
            # the base's n is (6,) and the sources' (5,): a base the method
            # reads makes n a shape conflict, copied from source a
            assert written.shape("n") == ((5,) if METHODS[method].needs_base else (6,))
