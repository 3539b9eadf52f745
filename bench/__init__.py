"""The repo benchmark: host-time workloads over the whole ``repro`` path.

``python3 -m bench --seed 0`` runs every workload declared in
``BENCHMARK.json`` with tracing off, checks the simulated outputs, and
prints every end-to-end metric; ``--trace`` adds a second, traced run
per workload that attributes the wall time to this repo's layers. See
``bench/README.md``.

Distinct from ``benchmarks/`` (the paper-artifact regenerators): this
package only *measures* the program and is not imported by it.
"""
