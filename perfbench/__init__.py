"""Benchmark harness for fockheis; see README.md."""
