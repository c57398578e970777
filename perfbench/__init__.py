"""End-to-end benchmark of the serving stack and the estimators.

Run from the repository root::

    python3 perfbench/run.py --workload kv-cluster-rf3 --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how the
host-speed scaling works.
"""
