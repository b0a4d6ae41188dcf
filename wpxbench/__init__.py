"""Benchmark of the `wpx` tool; run it with `python3 wpxbench/run.py`."""
