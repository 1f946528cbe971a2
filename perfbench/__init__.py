"""Benchmark of the geomerge CLI: seeded inputs, timed closed-loop runs,
output checks and a traced per-layer run.  Entry point: ``perfbench/run.py``."""
