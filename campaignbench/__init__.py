"""End-to-end campaign benchmark for the Harpocrates reproduction.

Run one workload with ``python3 campaignbench/run.py --workload NAME
--seed N --seconds S --trace 0|1`` from the repository root; see
``campaignbench/README.md`` for the workloads, the metrics and how to
read them.
"""
