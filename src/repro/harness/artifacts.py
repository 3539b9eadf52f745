"""The artifact table: every table and figure the repo regenerates.

One row per artifact — who produces its data, who renders it, its one
title, and whether it runs through the resilient sweep engine. The CLI
(``repro table N`` / ``figure N`` / ``sweep`` / ``regenerate`` /
``report``), the served ``/sweeps`` targets and
``scripts/regenerate_all.py`` all read this table and nothing else, so
adding a table or figure is adding one row here. Readers look the table
up when they are called, never at import time.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import figures, report, tables


@dataclass(frozen=True)
class Artifact:
    """One regenerable artifact of the study."""

    #: ``() -> data``; a sweepable producer also takes ``sweep=`` and
    #: ``frameworks=`` (and ``algorithms=`` if ``takes_algorithms``).
    producer: object
    #: ``(data, title) -> text``.
    render: object
    title: str
    sweepable: bool = False
    takes_algorithms: bool = False

    def text(self, data) -> str:
        return self.render(data, self.title)


def sweep_targets() -> list:
    """Names ``repro sweep`` and ``POST /sweeps`` accept, in table order."""
    return [name for name, artifact in ARTIFACTS.items()
            if artifact.sweepable]


def _rows(*columns):
    return lambda data, title: report.render_rows(data, list(columns), title)


ARTIFACTS = {
    "table1": Artifact(
        tables.table1,
        _rows("algorithm", "graph_type", "vertex_property", "access_pattern",
              "message_bytes_per_edge", "vertex_active"),
        "Table 1: algorithm characteristics"),
    "table2": Artifact(
        tables.table2,
        _rows("framework", "programming_model", "multi_node", "language",
              "graph_partitioning", "communication_layer"),
        "Table 2: framework comparison"),
    "table3": Artifact(
        tables.table3,
        _rows("dataset", "paper_vertices", "paper_edges", "proxy_size",
              "proxy_edges"),
        "Table 3: datasets"),
    "table4": Artifact(
        tables.table4, report.render_table4,
        "Table 4: native efficiency vs hardware limits"),
    "table5": Artifact(
        tables.table5, report.render_slowdown_table,
        "Table 5: single-node slowdowns vs native (geomean)",
        sweepable=True, takes_algorithms=True),
    "table6": Artifact(
        tables.table6, report.render_slowdown_table,
        "Table 6: multi-node slowdowns vs native (geomean)",
        sweepable=True, takes_algorithms=True),
    "table7": Artifact(
        tables.table7, report.render_table7,
        "Table 7: SociaLite network optimization (4 nodes)"),
    "figure3": Artifact(
        figures.figure3, report.render_runtime_panels,
        "Figure 3: single-node runtimes (seconds)",
        sweepable=True, takes_algorithms=True),
    "figure4": Artifact(
        figures.figure4, report.render_scaling_curves,
        "Figure 4: weak scaling 1-64 nodes (seconds)",
        sweepable=True, takes_algorithms=True),
    "figure5": Artifact(
        figures.figure5, report.render_runtime_panels,
        "Figure 5: large real-world proxies, multi-node", sweepable=True),
    "figure6": Artifact(
        figures.figure6, report.render_figure6,
        "Figure 6: system metrics at 4 nodes (normalized to 100)"),
    "figure7": Artifact(
        figures.figure7, report.render_figure7,
        "Figure 7: native optimization waterfall (cumulative speedup)"),
    "sgd_vs_gd": Artifact(
        figures.sgd_vs_gd, report.render_sgd_vs_gd,
        "SGD vs GD convergence (Section 3.2):"),
}
