"""Text renderers for the perf subsystem (CLI and CI output)."""

from __future__ import annotations

from .attribution import ADVICE, classify


def render_roofline(table: dict, title: str = "Roofline") -> str:
    """Table-4-form achieved-vs-bound report."""
    lines = [title, "=" * len(title), "",
             f"{'workload':<26} {'nodes':>5} {'binding':<8} "
             f"{'bound':>10} {'achieved':>10} {'ratio':>7}"]
    for algorithm, per_nodes in table.items():
        for nodes, cell in per_nodes.items():
            if "ratio" not in cell:
                lines.append(f"{algorithm:<26} {nodes:>5} "
                             f"{cell.get('status', '?'):<8}")
                continue
            lines.append(
                f"{algorithm:<26} {nodes:>5} {cell['binding']:<8} "
                f"{cell['bound_s']:>8.4g} s {cell['achieved_s']:>8.4g} s "
                f"{cell['ratio']:>6.2f}x")
    lines.append("")
    lines.append("ratio = achieved time / speed-of-light bound "
                 "(paper's native kernels: 2-2.5x)")
    return "\n".join(lines)


def render_attribution(attribution) -> str:
    """The paper-style multiplicative gap breakdown."""
    a = attribution
    lines = [
        f"{a.framework} {a.algorithm} on {a.nodes} node(s): "
        f"{a.gap:.1f}x native",
        f"  framework: {a.framework_time_s:.4g} s ({a.binding}-bound)   "
        f"native: {a.native_time_s:.4g} s ({a.native_binding}-bound)",
        "",
        f"  {'factor':<20} {'x':>8}  detail",
    ]
    for factor in a.factors:
        detail = factor.detail
        if factor.name == "superstep-overhead":
            note = (f"{detail['framework_fixed_s']:.4g} s fixed over "
                    f"{detail['supersteps']} supersteps "
                    f"(vs {detail['native_fixed_s']:.4g} s native)")
        elif factor.name == "network":
            note = (f"{detail['wire_bytes_ratio']:.1f}x wire bytes, "
                    f"{100 * detail['framework_network_utilization']:.1f}% "
                    f"link utilization "
                    f"(native "
                    f"{100 * detail['native_network_utilization']:.1f}%)")
        else:
            note = (f"occupancy {detail['occupancy']:.1f}x, "
                    f"sw efficiency {detail['software_efficiency']:.1f}x, "
                    f"op inflation {detail['ops_inflation']:.1f}x")
        lines.append(f"  {factor.name:<20} {factor.factor:>7.2f}x  {note}")
    lines.append("")
    lines.append(f"  product of factors = {a.product():.1f}x "
                 f"(measured gap {a.gap:.1f}x; exact by construction)")
    return "\n".join(lines)


def render_timeline(metrics, width: int = 60, max_rows: int = 20) -> str:
    """ASCII per-superstep timeline, then where the run's time went.

    Each bar is one step's duration, split into '=' compute, '~' exposed
    communication and '.' overhead. The footer is the run's exact split
    (compute + exposed comm + fixed == total) under :func:`classify`'s
    label, and that label's advice.
    """
    steps = metrics.steps
    if not steps:
        return "(no supersteps recorded)"
    longest = max(step.time_s for step in steps)
    lines = [
        f"{len(steps)} supersteps, {metrics.total_time_s:.4g}s total "
        f"('=' compute, '~' exposed comm, '.' overhead; "
        f"bar = step duration)"
    ]
    for step in steps[:max_rows]:
        cells = max(round(width * step.time_s / longest), 1) \
            if longest > 0 else 1
        per_s = cells / step.time_s if step.time_s > 0 else 0.0
        compute = round(per_s * step.compute_s)
        busy = round(per_s * (step.time_s - step.overhead_s))
        bar = "=" * compute + "~" * (busy - compute) + "." * (cells - busy)
        lines.append(f"  step {step.index:>4} {step.time_s:>10.4g}s  {bar}")
    if len(steps) > max_rows:
        lines.append(f"  ... {len(steps) - max_rows} more steps")
    total = metrics.total_time_s or 1.0
    label = classify(metrics)
    lines.append(
        f"bound: {label} "
        f"(compute {100 * metrics.compute_time_s / total:.1f}% / "
        f"exposed comm {100 * metrics.exposed_comm_time_s / total:.1f}% / "
        f"fixed {100 * metrics.fixed_time_s / total:.1f}%)")
    lines.append(f"advice: {ADVICE[label]}")
    return "\n".join(lines)


def render_advice(advice_list, algorithm: str = "") -> str:
    """Ranked what-if table."""
    head = f"Optimization advisor{': ' + algorithm if algorithm else ''}"
    lines = [head, "-" * len(head),
             f"{'option':<14} {'speedup':>8}  rationale"]
    for advice in advice_list:
        lines.append(f"{advice.option:<14} {advice.speedup:>7.2f}x  "
                     f"{advice.rationale}")
    return "\n".join(lines)
