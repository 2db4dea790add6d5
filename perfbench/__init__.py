"""The repository's end-to-end benchmark.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints one JSON result line; see
``perfbench/README.md`` for the workloads, the metrics and how the
benchmark is kept steady.
"""
