"""Text renderers: paper-style tables from the harness data structures.

Every artifact renderer is ``(data, title) -> text``; the titles (and
which renderer draws which artifact) live in
:data:`repro.harness.artifacts.ARTIFACTS`.
"""

from __future__ import annotations


def render_rows(rows: list, columns: list, title: str = "") -> str:
    """Generic fixed-width table from a list of row dicts."""
    widths = {
        col: max(len(col), *(len(str(row.get(col, ""))) for row in rows))
        for col in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(
            str(row.get(col, "")).ljust(widths[col]) for col in columns
        ))
    return "\n".join(lines)


def render_slowdown_table(data: dict, title: str) -> str:
    """Tables 5/6: rows = algorithms, columns = frameworks."""
    frameworks = list(next(iter(data.values())).keys())
    lines = [title]
    header = "algorithm".ljust(26) + "".join(f.rjust(12) for f in frameworks)
    lines.append(header)
    lines.append("-" * len(header))
    for algorithm, cells in data.items():
        row = algorithm.ljust(26)
        for framework in frameworks:
            cell = cells[framework]
            slowdown = cell["slowdown"]
            if slowdown != slowdown:  # NaN: nothing completed
                status = next((s for s in cell["statuses"] if s != "ok"),
                              "n/a")
                row += status[:11].rjust(12)
            else:
                row += f"{slowdown:.1f}".rjust(12)
        lines.append(row)
    return "\n".join(lines)


def render_table4(data: dict, title: str) -> str:
    lines = [title]
    header = ("algorithm".ljust(26) + "nodes".rjust(6)
              + "bound by".rjust(10) + "achieved".rjust(12)
              + "efficiency".rjust(12))
    lines.append(header)
    lines.append("-" * len(header))
    for algorithm, per_nodes in data.items():
        for nodes, cell in per_nodes.items():
            lines.append(
                algorithm.ljust(26) + str(nodes).rjust(6)
                + cell["bound_by"].rjust(10)
                + f"{cell['achieved_gbps']:.1f} GB/s".rjust(12)
                + f"{100 * cell['efficiency']:.0f}%".rjust(12)
            )
    return "\n".join(lines)


def render_table7(data: dict, title: str) -> str:
    lines = [title]
    header = ("algorithm".ljust(26) + "before".rjust(10) + "after".rjust(10)
              + "speedup".rjust(10))
    lines.append(header)
    lines.append("-" * len(header))
    for algorithm, cell in data.items():
        lines.append(
            algorithm.ljust(26)
            + f"{cell['before_s']:.2f}s".rjust(10)
            + f"{cell['after_s']:.2f}s".rjust(10)
            + f"{cell['speedup']:.1f}x".rjust(10)
        )
    return "\n".join(lines)


def render_runtime_panels(data: dict, title: str) -> str:
    """Figures 3/5-style: one block per algorithm, rows per dataset."""
    lines = [title]
    for algorithm, panel in data.items():
        lines.append(f"\n[{algorithm}]")
        if "runtimes" in panel:  # Figure 5 shape
            inner = {f"{panel['dataset']} ({panel['nodes']} nodes)":
                     panel["runtimes"]}
        else:
            inner = panel
        frameworks = list(next(iter(inner.values())).keys())
        header = "dataset".ljust(30) + "".join(f.rjust(12)
                                               for f in frameworks)
        lines.append(header)
        for dataset_name, cell in inner.items():
            row = dataset_name.ljust(30)
            for framework in frameworks:
                value = cell[framework]
                if isinstance(value, str):
                    row += value[:11].rjust(12)
                else:
                    row += f"{value:.3g}s".rjust(12)
            lines.append(row)
    return "\n".join(lines)


def render_scaling_curves(data: dict, title: str) -> str:
    """Figure 4: per algorithm, rows = frameworks, columns = node counts."""
    lines = [title]
    for algorithm, curves in data.items():
        lines.append(f"\n[{algorithm}] (seconds; flat rows = perfect scaling)")
        node_counts = list(next(iter(curves.values())).keys())
        header = "framework".ljust(14) + "".join(
            f"{n}n".rjust(11) for n in node_counts
        )
        lines.append(header)
        for framework, series in curves.items():
            row = framework.ljust(14)
            for nodes in node_counts:
                value = series[nodes]
                row += (value[:10].rjust(11) if isinstance(value, str)
                        else f"{value:.3g}".rjust(11))
            lines.append(row)
    return "\n".join(lines)


def render_figure6(data: dict, title: str) -> str:
    lines = [title]
    metrics = ("cpu_utilization", "peak_network_bw", "memory_footprint",
               "network_bytes_sent")
    for algorithm, panel in data.items():
        lines.append(f"\n[{algorithm}]")
        header = "framework".ljust(14) + "".join(m.rjust(20) for m in metrics)
        lines.append(header)
        for framework, cell in panel.items():
            row = framework.ljust(14)
            if cell is None:
                row += "did not complete".rjust(20)
            else:
                for metric in metrics:
                    row += f"{cell[metric]:.1f}".rjust(20)
            lines.append(row)
    return "\n".join(lines)


def render_sweep_completeness(report: dict) -> str:
    """The sweep's coverage + DNF taxonomy summary, paper-dash style."""
    statuses = report["statuses"]
    lines = [
        f"Sweep '{report['sweep']}': {report['cells']} cells, "
        f"{100 * report['coverage']:.0f}% ok "
        f"({report['executed']} executed, {report['replayed']} replayed "
        f"from journal, {report['retries']} retries)"
    ]
    taxonomy = ", ".join(f"{status}={count}"
                         for status, count in statuses.items() if count)
    lines.append(f"  statuses: {taxonomy if taxonomy else 'none'}")
    # Supervisor accounting: only worth a line when real faults happened
    # (keeps clean-run output identical to the pre-supervisor engine).
    restarts = report.get("worker_restarts", 0)
    wall = report.get("wall_timeouts", 0)
    if restarts or wall:
        lines.append(f"  supervisor: {restarts} worker restart(s), "
                     f"{wall} wall-clock timeout(s)")
    for entry in report["dnf"]:
        key = " ".join(f"{k}={v}" for k, v in entry["key"].items())
        lines.append(f"  DNF [{entry['status']:>13}] {key}"
                     + (f" — {entry['failure']}" if entry["failure"] else ""))
    for key in report["quarantined"]:
        flat = " ".join(f"{k}={v}" for k, v in key.items())
        lines.append(f"  quarantined: {flat}")
    return "\n".join(lines)


def render_figure7(data: dict, title: str) -> str:
    lines = [title]
    for algorithm, ladder in data.items():
        lines.append(f"\n[{algorithm}]")
        for label, speedup in ladder:
            bar = "#" * max(int(round(speedup)), 1)
            lines.append(f"  {label:<32} {speedup:5.1f}x  {bar}")
    return "\n".join(lines)


def render_sgd_vs_gd(data: dict, title: str) -> str:
    return "\n".join([
        title,
        f"  SGD: {data['sgd']} iterations to RMSE {data['target_rmse']:.4f}",
        f"  GD:  {data['gd']} iterations "
        f"({data['ratio']:.0f}x more; paper reports ~40x)",
    ])
