"""Benchmark for rowsplit: time to a verified least-squares answer.

Run it from the repository root with ``python3 rsbench/run.py --workload
NAME --seed N --seconds S --trace 0|1``; see ``rsbench/NOTES.md``.
"""
