"""Benchmark of the geomerge CLI.

    python3 perfbench/run.py --workload karcher-far --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, tracing off

One run generates the workload's inputs from the seed (outside every timed
region), then drives the real CLI in a closed loop: one client, and each
``geomerge`` process starts only after the previous one exits, with
``--threads 2`` on merges.  Invocations continue until their wall times add
up to ``--seconds`` and at least three have run.  Every output is checked.

With ``--trace 0`` the result holds the end-to-end metrics, medians over the
run's invocations.  With ``--trace 1`` the run alternates untraced and
traced invocations and the result holds the per-layer metrics of the
median traced invocation (by wall time), plus the tracing overhead: median
traced wall minus median untraced wall.  Human-readable lines come
first; the last line on stdout is one JSON object.  The exit code is 0 only
if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# replace the script directory, so that no module here can shadow another
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spans  # noqa: E402
from perfbench.workloads import WORKLOADS, Inputs, Workload, output_digest  # noqa: E402

LAUNCHER = ROOT / "perfbench" / "launch.py"
THREADS = 2
MIN_TIMED = 3
INVOCATION_TIMEOUT_S = 150

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class Invocation:
    """One CLI process: what it cost and whether its output was right."""

    wall_s: float
    setup_s: float = float("nan")
    cpu_s: float = float("nan")
    peak_rss_mb: float = float("nan")
    info: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def invoke(argv: list[str], cwd: Path, trace_out: Path | None = None) -> Invocation:
    """Run one CLI process through the launcher and read its report line."""
    cmd = [sys.executable, str(LAUNCHER)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["--", *argv]
    start = spans.clock()
    try:
        proc = subprocess.run(
            cmd, cwd=cwd, capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return Invocation(spans.clock() - start, errors=[f"timed out after {INVOCATION_TIMEOUT_S} s"])
    wall = spans.clock() - start
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return Invocation(wall, errors=[f"exit code {proc.returncode}: {tail[0]}"])
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if info["first_read"] is None:
        return Invocation(wall, errors=["no tensor payload was read"])
    return Invocation(
        wall,
        setup_s=info["first_read"] - start,
        cpu_s=info["cpu_s"],
        peak_rss_mb=info["peak_rss_mb"],
        info=info,
    )


def checked(inv: Invocation, inputs: Inputs) -> Invocation:
    if not inv.errors:
        try:
            inv.errors = inputs.check()
        except (OSError, ValueError, KeyError) as exc:
            inv.errors = [f"output check could not run: {exc!r}"]
    return inv


def traced(inputs: Inputs, workdir: Path, index: int) -> Invocation:
    trace_file = workdir / f"spans-{index}.json"
    inv = checked(invoke(inputs.argv(THREADS), workdir, trace_file), inputs)
    if not inv.errors:
        recorded = spans.spans_from_json(json.loads(trace_file.read_text(encoding="utf-8")))
        summary_path = inputs.output.with_name(inputs.output.name + ".summary.json")
        summary = json.loads(summary_path.read_text(encoding="utf-8")) if inputs.merge else None
        inv.layers = spans.layer_metrics(recorded, THREADS, summary)
    trace_file.unlink(missing_ok=True)
    return inv


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, size: str) -> dict:
    workdir = ROOT / ".bench_work" / f"{wl.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        start = spans.clock()
        inputs = wl.generate(workdir, seed, size)
        generate_s = spans.clock() - start

        untimed: list[Invocation] = []
        if inputs.merge:
            # Warm-up, outside the timing: a single-threaded merge whose bytes
            # the first timed (two-thread) output must equal.
            single = checked(invoke(inputs.argv(1), workdir), inputs)
            untimed.append(single)
            single_digest = None if single.errors else output_digest(inputs.output)

        timed: list[Invocation] = []
        traced_runs: list[Invocation] = []
        measured = 0.0
        while measured < seconds or len(timed) < (1 if trace else MIN_TIMED):
            inv = checked(invoke(inputs.argv(THREADS), workdir), inputs)
            measured += inv.wall_s
            timed.append(inv)
            if inputs.merge and len(timed) == 1 and single_digest is not None and not inv.errors:
                if output_digest(inputs.output) != single_digest:
                    inv.errors.append("output differs between --threads 1 and --threads 2")
            if trace:
                inv = traced(inputs, workdir, len(traced_runs))
                measured += inv.wall_s
                traced_runs.append(inv)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = untimed + timed + traced_runs
    failed = sum(1 for inv in every if inv.errors)
    good = [inv for inv in timed if not inv.errors]
    result = {
        "workload": wl.name,
        "seed": seed,
        "generate_s": generate_s,
        "params": inputs.gen.params,
        "attempted": len(every),
        "failed": failed,
        "errors": [e for inv in every for e in inv.errors],
        "samples": len(good),
        "info": next((inv.info for inv in every if inv.info), {}),
        "e2e": {k: statistics.median(getattr(inv, k) for inv in good) for k in E2E_UNITS} if good else {},
        "throughput": (wl.throughput, wl.unit, inputs.work),
    }
    if trace:
        good_traced = [inv for inv in traced_runs if not inv.errors]
        layers: dict[str, float] = {}
        if good and good_traced:
            # One whole invocation, the median by wall time, so that its
            # metrics stay consistent with each other (self + children = total).
            middle = sorted(good_traced, key=lambda inv: inv.wall_s)[(len(good_traced) - 1) // 2]
            layers = dict(middle.layers)
            traced_wall = statistics.median(inv.wall_s for inv in good_traced)
            layers["trace.overhead_s"] = traced_wall - result["e2e"]["wall_s"]
        result["layers"] = layers
        result["traced_samples"] = len(good_traced)
    return result


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    name, unit, work = result["throughput"]
    e2e = result["e2e"]
    n = result["samples"]
    print(f"== {result['workload']} (seed {result['seed']}): {result['params'] / 1e6:.1f} Mparam of input "
          f"generated in {result['generate_s']:.2f} s, outside every timed region")
    if e2e:
        print(f"  {name:<20} {work / e2e['wall_s']:12.4f} {unit:<10} median of {n}")
        for key, metric_unit in E2E_UNITS.items():
            print(f"  {key:<20} {e2e[key]:12.4f} {metric_unit:<10} median of {n}")
    print(f"  {'ops_failed_frac':<20} {result['failed'] / result['attempted']:12.4f} {'ratio':<10} "
          f"{result['failed']} of {result['attempted']} invocations")
    info = result["info"]
    if info:
        threads = {k: v for k, v in info["blas_threads_env"].items() if v is not None} or "library default"
        print(f"  blas: {info['blas']}; thread setting: {threads}")
    for error in result["errors"][:10]:
        print(f"  FAILED: {error}")

    correct = result["failed"] == 0
    if trace:
        layers = result["layers"]
        print(f"  traced: the median of {result.get('traced_samples', 0)} traced invocations")
        for key, value in layers.items():
            print(f"  {key:<40} {value:16.6f} {spans.LAYER_METRICS[key][0]}")
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u} for k, (u, _) in spans.LAYER_METRICS.items()}
        correct = correct and set(layers) == set(spans.LAYER_METRICS)
    else:
        metrics = {k: {"value": e2e.get(k, 0.0), "unit": u} for k, u in E2E_UNITS.items()}
        correct = correct and bool(e2e)
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the geomerge CLI.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for smoke tests")
    args = parser.parse_args()
    if not (ROOT / "src" / "geomerge" / "cli.py").is_file():
        print(f"error: no geomerge sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.size)
        final = report(result, bool(args.trace))
        ok = ok and final["correct"]
        print(json.dumps(final), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
