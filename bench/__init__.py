"""The repo's one benchmark: six workloads, measured from outside.

``python3 -m bench`` runs every workload and prints every metric;
``BENCHMARK.json`` at the repo root is the machine-readable contract.
See ``bench/README.md`` for the glossary and the baseline.
"""
