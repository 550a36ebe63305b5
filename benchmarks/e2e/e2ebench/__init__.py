"""The repo's end-to-end benchmark harness (see ``benchmarks/e2e/README.md``).

``BENCHMARK.json`` at the repo root names the workloads and metrics;
this package measures them from outside the program, through the public
functions of each ``repro`` layer.  Nothing here is imported by
``src/``.
"""
