"""Benchmark of domdist: workloads, tracer and runner; see README.md."""
