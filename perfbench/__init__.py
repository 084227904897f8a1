"""Repository benchmark: ``python3 perfbench/run.py --workload NAME --seed N``.

See ``perfbench/README.md`` for the workloads, the metrics and the layers
they trace.
"""
