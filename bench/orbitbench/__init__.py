"""Benchmark harness for orbitpick: workloads, exact-answer oracle,
layer tracing and metric reporting.  Entry point: ``bench/run.py``."""
