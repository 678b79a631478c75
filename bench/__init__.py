"""The audit stack's benchmark: five workloads, end-to-end and per-layer metrics.

Run it with ``python3 bench/run.py`` from the repository root; see
``bench/README.md``.
"""
