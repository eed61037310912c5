"""Benchmark harness for qzeta; see README.md."""
