"""Benchmark for the chromsg command; see bench/run.py."""
