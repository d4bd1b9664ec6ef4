"""Benchmark harness for entchar; run it with ``python3 perfbench/run.py``."""
