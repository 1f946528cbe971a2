"""Paired runs of ``perfbench/run.py`` on two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workload diagnose-toy --pairs 10 --seed 31

Each pair runs the benchmark once in each checkout, with the same workload,
seed and run length; the side that runs first alternates from pair to pair.
Before each pair a control times the same hashing work on one thread and on
two: on a shared host two threads sometimes run no faster than one, and a
pair taken then cannot show a parallel gain.  Each pair's line gives the
control and every end-to-end metric of both sides.  The summary gives each
metric's median and quartiles on each side, and the pairs the change won:
every end-to-end metric is better lower, and a tie counts for neither side.
It ends with each side's failed and attempted invocations over all pairs.
A gain is claimed only where the change won at least nine pairs in ten and
the medians differ by more than the distance between the parent's
quartiles.

Each metric also gets a verdict against its ``bound`` in the repository's
``BENCHMARK.json`` (read, never written): ``REGRESSION`` where the change's
median is worse than the parent's by more than the bound, ``UNRESOLVED``
where the parent's quartile spread over its median exceeds the bound and
not every change run beats every parent run, and ``ok`` otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

_CONTROL_BYTES = bytes(8 << 20)
_CONTROL_ROUNDS = 4


def _hash_rounds() -> None:
    # hashlib lets go of the GIL while it hashes a large buffer
    for _ in range(_CONTROL_ROUNDS):
        hashlib.sha256(_CONTROL_BYTES).digest()


def control() -> tuple[float, float]:
    """Seconds for two jobs of hashing on one thread, then on two."""
    start = time.perf_counter()
    _hash_rounds()
    _hash_rounds()
    serial = time.perf_counter() - start
    threads = [threading.Thread(target=_hash_rounds) for _ in range(2)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return serial, time.perf_counter() - start


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The end-to-end metrics of one ``perfbench/run.py`` run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    return parse_result(proc.stdout)


def parse_result(stdout: str) -> dict[str, float]:
    """The metrics of a run's last stdout line, the benchmark's JSON object,
    plus ``failed`` and ``attempted`` (its invocations); a run that printed
    no such line counts as one failed invocation of one, and a run whose
    checks failed as failed."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"failed": 1.0, "attempted": 1.0}
    values = {name: result["metrics"][name]["value"] for name in METRICS}
    values["failed"] = float(result["failed"] if result["correct"] else max(result["failed"], 1))
    values["attempted"] = float(result["attempted"])
    return values


def failures(pairs: list[tuple[dict[str, float], dict[str, float]]]) -> dict[str, tuple[int, int]]:
    """Each side's failed and attempted invocations, summed over all pairs,
    the pairs :func:`summarize` leaves out too."""
    sums = {}
    for i, side in enumerate(("parent", "change")):
        runs = [pair[i] for pair in pairs]
        sums[side] = (int(sum(r["failed"] for r in runs)), int(sum(r["attempted"] for r in runs)))
    return sums


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def bounds() -> dict[str, float]:
    """Each end-to-end metric's relative bound, as ``BENCHMARK`` declares it."""
    return {m["name"]: float(m["bound"]) for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def verdict(parent: list[float], change: list[float], bound: float) -> str:
    """``REGRESSION``, ``UNRESOLVED`` or ``ok`` for one better-lower metric's
    runs on each side, against its relative ``bound``."""
    pq, cq = _quartiles(parent), _quartiles(change)
    if cq[1] > pq[1] * (1.0 + bound):
        return "REGRESSION"
    if pq[2] - pq[0] > bound * pq[1] and not max(change) < min(parent):
        return "UNRESOLVED"
    return "ok"


def summarize(pairs: list[tuple[dict[str, float], dict[str, float]]]) -> dict[str, dict]:
    """Per metric, each side's median and quartiles over the (parent,
    change) pairs, the pairs the change won (lower) and lost, whether a
    gain may be claimed, and the :func:`verdict` against its bound in
    :func:`bounds`.  Pairs where either side failed are left out."""
    limits = bounds()
    good = [(p, c) for p, c in pairs if not p["failed"] and not c["failed"]]
    summary: dict[str, dict] = {}
    for name in METRICS:
        parent = [p[name] for p, _ in good]
        change = [c[name] for _, c in good]
        if not good:
            summary[name] = {"pairs": 0}
            continue
        pq, cq = _quartiles(parent), _quartiles(change)
        wins = sum(c < p for p, c in zip(parent, change))
        losses = sum(c > p for p, c in zip(parent, change))
        summary[name] = {
            "pairs": len(good),
            "parent": pq,
            "change": cq,
            "wins": wins,
            "losses": losses,
            "relative": cq[1] / pq[1] - 1.0 if pq[1] else float("nan"),
            "gain": wins >= 0.9 * len(good) and pq[1] - cq[1] > pq[2] - pq[0],
            "verdict": verdict(parent, change, limits[name]),
        }
    return summary


def _row(values: dict[str, float]) -> str:
    if values["failed"]:
        return "FAILED"
    return " ".join(f"{name} {values[name]:.4f}" for name in METRICS)


def main() -> int:
    parser = argparse.ArgumentParser(description="Alternating paired perfbench runs of two checkouts.")
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    pairs = []
    for i in range(args.pairs):
        serial, parallel = control()
        sides = {}
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side] = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
        pairs.append((sides["parent"], sides["change"]))
        print(f"pair {i + 1} ({order[0]} first): control 1 thread {serial:.3f} s, 2 threads "
              f"{parallel:.3f} s ({parallel / serial:.2f})", flush=True)
        for side in ("parent", "change"):
            print(f"  {side:<6} {_row(sides[side])}", flush=True)

    summary = summarize(pairs)
    print(f"== {args.workload}, seed {args.seed}, {args.seconds:g} s runs: median [quartiles]")
    for name in METRICS:
        s = summary[name]
        if not s["pairs"]:
            print(f"  {name:<12} no pair without a failure")
            continue
        (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
        print(f"  {name:<12} parent {pm:.4f} [{p1:.4f}-{p3:.4f}]  change {cm:.4f} [{c1:.4f}-{c3:.4f}]"
              f"  {s['relative']:+.1%}  change lower in {s['wins']} of {s['pairs']} pairs"
              f" (higher in {s['losses']}){'  GAIN' if s['gain'] else ''}  {s['verdict']}")
    failed = sum(1 for p, c in pairs if p["failed"] or c["failed"])
    if failed:
        print(f"  {failed} pairs had a failed run and are left out")
    print("  failed invocations: " + ", ".join(
        f"{side} {n} of {of}" for side, (n, of) in failures(pairs).items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
