"""Benchmark of the logrew package; run it as ``python3 perfbench/run.py``."""
