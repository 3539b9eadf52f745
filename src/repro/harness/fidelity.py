"""The fidelity table: every number of Satish et al. this repo models.

The one module in the repository's code that writes a paper value or an
acceptance band. :func:`evaluate` is pure over already regenerated
artifact data: the report prints it, the paper-shape suite asserts it
per artifact (:func:`assert_rows`) and ``scripts/calibrate.py`` prints
its Table 5/6 rows. EXPERIMENTS.md has the long form of every
``known_gap``.
"""

import math
from typing import NamedTuple

from ..errors import CELL_STATUSES, STATUS_OK, STATUS_OOM

#: The paper's own yardstick (Section 5.4): counted bytes / bandwidth
#: predicts a measured gap "within 2.5x".
TOLERANCE = 2.5


class Row(NamedTuple):
    id: str
    source: str
    #: Key of ``ARTIFACTS`` (or an extension study) whose data ``ours`` reads.
    artifact: str
    #: A number, or a name: a bound class, a DNF dash, a ranking's winner.
    paper: object
    #: ``artifact data -> number | name``.
    ours: object
    tolerance: float
    known_gap: str


def _number(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def log_ratio(ours, paper):
    """``ln(ours / paper)``, or ``None`` unless both are positive numbers."""
    if _number(ours) and _number(paper) and ours > 0 and paper > 0:
        return math.log(ours) - math.log(paper)
    return None


def _dash(cell) -> str:
    """The status most of a Table 5/6 cell's runs ended in."""
    return max(cell["statuses"], key=cell["statuses"].count)


def _slowdown(algorithm, framework):
    def ours(table):
        cell = table[algorithm][framework]
        # A geomean over nothing is nan (null once journaled): the dash.
        return cell["slowdown"] if _number(cell["slowdown"]) else _dash(cell)
    return ours


def _ranked(expected, pick, algorithms, slack=1.0, among=None):
    """``table -> expected`` while, on each of ``algorithms`` the table
    carries, its slowdown is within ``slack`` of the min / max finite one
    (native counts as 1.0); else the frameworks that are, '/'-joined."""
    def winner(cells):
        done = {"native": 1.0,
                **{name: cell["slowdown"] for name, cell in cells.items()
                   if _number(cell["slowdown"])}}
        done = {name: done[name] for name in among or done if name in done}
        best = pick(done, key=done.get)
        near = expected in done and abs(
            log_ratio(done[expected], done[best])) <= math.log(slack)
        return expected if near else best
    return lambda table: "/".join(sorted(
        {winner(table[a]) for a in algorithms if a in table}))


def _steps(ladder) -> dict:
    """Figure 7 label -> speed-up over the rung below it."""
    return {label: after / before
            for (_, before), (label, after) in zip(ladder, ladder[1:])}


_NON_GIRAPH = ("combblas", "graphlab", "socialite")
_FRAMEWORKS = _NON_GIRAPH + ("giraph", "galois")
_SPGEMM = ("the SpGEMM model charges accumulators, expansion and the A^2 "
           "product, not allocation / TLB cost at tens of GB")
_REPLICATION = ("the 1/256-scale proxy's vertex-cut replication factor, "
                "hence GraphLab's socket traffic, is below paper scale's")
_BORDERLINE = ("network is over a fifth of the 4-node critical path (the "
               "Table 4 bench asserts it) but compute still edges it out, so "
               "the cell reports DRAM, not link, GB/s")
_GAPS = {
    "table4/pagerank/4/bound": _BORDERLINE,
    "table4/pagerank/4/gbps": _BORDERLINE,
    "table4/triangle_counting/4/bound": _BORDERLINE,
    "table4/triangle_counting/4/gbps": _BORDERLINE,
    "table5/triangle_counting/combblas": _SPGEMM,
    "table5/triangle_counting/socialite":
        "one cpu_efficiency fits PageRank; the join's counted rows + 40 B "
        "per path under-price the published stack's nested-table lookups",
    "table5/triangle_counting/giraph":
        "per-message / per-byte constants fit PageRank's 8-byte messages; GC "
        "pressure under 100-way split neighbour-list buffers is not modelled",
    "table6/pagerank/graphlab": _REPLICATION,
    "table6/bfs/graphlab": _REPLICATION,
    "table6/triangle_counting/combblas": _SPGEMM,
    "sgd_vs_gd/ratio":
        "chunk-vectorized SGD (1,024-rating batches read stale factors) "
        "converges slower than per-rating SGD",
}
#: Narrower than the paper's 2.5x only where the replaced check already was.
_NARROWER = {"table4/pagerank/1/efficiency": 1.25,
             "table7/pagerank/speedup": 1.5,
             "table7/triangle_counting/speedup": 1.5,
             "related_work/gps-vs-giraph": 2.0,
             "related_work/graphx-vs-graphlab": 2.0}

# (bound class, achieved GB/s, % of that limit) on 1 and 4 nodes
_TABLE4 = {
    "pagerank": (("memory", 78.0, 92.0), ("network", 2.3, 42.0)),
    "bfs": (("memory", 64.0, 74.0), ("memory", 54.0, 63.0)),
    "collaborative_filtering": (("memory", 47.0, 54.0), ("memory", 35.0, 41.0)),
    "triangle_counting": (("memory", 45.0, 52.0), ("network", 2.2, 40.0))}
_TABLE4_READS = (("bound", lambda cell: cell["bound_by"]),
                 ("gbps", lambda cell: cell["achieved_gbps"]),
                 ("efficiency", lambda cell: 100 * cell["efficiency"]))
# columns: combblas graphlab socialite giraph [galois]
_TABLE5 = {"pagerank": (1.9, 3.6, 2.0, 39.0, 1.2),
           "bfs": (2.5, 9.3, 7.3, 567.8, 1.1),
           "collaborative_filtering": (3.5, 5.1, 5.8, 54.4, 1.1),
           "triangle_counting": (33.9, 3.2, 4.7, 484.3, 2.5)}
_TABLE6 = {"pagerank": (2.5, 12.1, 7.9, 74.4),
           "bfs": (7.1, 29.5, 18.9, 494.3),
           "collaborative_filtering": (3.5, 7.1, 7.0, 87.9),
           "triangle_counting": (13.1, 3.6, 1.5, 54.4)}
# Figure 6, % of the 5.5 GB/s link: MPI stacks "over 5 GBps", GraphLab's
# sockets 20-25 %, SociaLite ~2 GB/s after its fix, Giraph under 0.5 GB/s.
_PEAK_NETWORK = {"native": 91.0, "combblas": 91.0, "graphlab": 22.5,
                 "socialite": 36.0, "giraph": 9.0}


def _rows():
    def row(id, source, paper, ours):
        return Row(id, source, id.split("/")[0], paper, ours,
                   _NARROWER.get(id, TOLERANCE), _GAPS.get(id, ""))

    def slowdowns(name, grid):
        source = f"Table {name[-1]}"
        for algorithm, values in grid.items():
            for framework, paper in zip(_FRAMEWORKS, values):
                yield row(f"{name}/{algorithm}/{framework}", source, paper,
                          _slowdown(algorithm, framework))
        # Native is the reference: no geomean undercuts it by over 5 %.
        yield row(f"{name}/reference", source, "native",
                  _ranked("native", min, grid, 1.05))
        yield row(f"{name}/slowest", source, "giraph",
                  _ranked("giraph", max, grid))

    for algorithm, cells in _TABLE4.items():
        for nodes, papers in zip((1, 4), cells):
            for (name, read), paper in zip(_TABLE4_READS, papers):
                yield row(f"table4/{algorithm}/{nodes}/{name}", "Table 4",
                          paper, lambda t, a=algorithm, n=nodes, read=read:
                          read(t[a][n]))
    yield from slowdowns("table5", _TABLE5)
    # The ranking rows keep the slack their checks had: Galois within
    # 1.5x of the fastest framework, SociaLite within 1.25x of the best.
    yield row("table5/fastest", "Table 5", "galois",
              _ranked("galois", min, _TABLE5, 1.5, _FRAMEWORKS))
    yield row("table5/triangle_counting/combblas/real-world", "Section 5.2",
              STATUS_OOM, lambda t: _dash(t["triangle_counting"]["combblas"]))
    yield from slowdowns("table6", _TABLE6)
    tc = ("triangle_counting",)
    yield row("table6/triangle_counting/worst-non-giraph", "Table 6",
              "combblas", _ranked("combblas", max, tc, among=_NON_GIRAPH))
    yield row("table6/triangle_counting/best", "Table 6", "socialite",
              _ranked("socialite", min, tc, 1.25, _NON_GIRAPH))
    for algorithm, paper in (("pagerank", 2.4), ("triangle_counting", 1.6)):
        yield row(f"table7/{algorithm}/speedup", "Table 7", paper,
                  lambda t, a=algorithm: t[a]["speedup"])
    yield row("table7/gains-most", "Table 7", "pagerank",
              lambda t: max(t, key=lambda a: t[a]["speedup"]))
    yield row("figure5/triangle_counting/combblas", "Figure 5", STATUS_OOM,
              lambda f: f["triangle_counting"]["runtimes"]["combblas"])
    # Giraph runs 4 workers on 24 cores: a ~16 % cap on every workload.
    yield row("figure6/giraph/cpu_utilization", "Figure 6", 16.0,
              lambda f: max(panel["giraph"]["cpu_utilization"]
                            for panel in f.values()))
    for framework, paper in _PEAK_NETWORK.items():
        yield row(f"figure6/{framework}/peak_network_bw", "Figure 6", paper,
                  lambda f, w=framework: f["pagerank"][w]["peak_network_bw"])
    # Figure 7 tops out at 12-16x (PageRank) and ~10x (BFS); overlap is
    # worth 1.2-2x, BFS's bit-vector ~2x, prefetching is the first big jump.
    for algorithm, paper in (("pagerank", 14.0), ("bfs", 10.0)):
        yield row(f"figure7/{algorithm}/total", "Figure 7", paper,
                  lambda f, a=algorithm: f[a][-1][1])
        yield row(f"figure7/{algorithm}/overlap", "Figure 7", 1.5,
                  lambda f, a=algorithm:
                  _steps(f[a])["+ overlap comp. and comm."])
    yield row("figure7/bfs/data-structure", "Figure 7", 2.0,
              lambda f: _steps(f["bfs"])["+ data structure opt."])
    yield row("figure7/pagerank/largest-step", "Figure 7",
              "+ s/w prefetching", lambda f: max(
                  _steps(f["pagerank"]).items(), key=lambda step: step[1])[0])
    yield row("sgd_vs_gd/ratio", "Section 3.2", 40.0, lambda s: s["ratio"])
    yield row("related_work/gps-vs-giraph", "Section 7", 12.0,
              lambda r: r["giraph"] / r["gps"])
    yield row("related_work/graphx-vs-graphlab", "Section 7", 7.0,
              lambda r: r["graphx"] / r["graphlab"])


ROWS = tuple(_rows())


def evaluate(data: dict) -> list:
    """Score every row whose artifact is in ``data`` (``{name: data}``).

    Adds ``ours``, ``log_ratio`` and ``status`` to the row's fields:
    ``match`` / ``dnf:<status>`` (inside the tolerance; a DNF equal to
    the paper's own dash), ``gap`` (outside, reason given),
    ``unexplained`` (outside, none), ``stale`` (a reason, but inside).
    An artifact that is there must carry every cell its rows read.
    """
    scored = []
    for row in ROWS:
        if row.artifact not in data:
            continue
        ours = row.ours(data[row.artifact])
        ratio = log_ratio(ours, row.paper)
        if (ours == row.paper if ratio is None
                else abs(ratio) <= math.log(row.tolerance)):
            dnf = ours in CELL_STATUSES and ours != STATUS_OK
            status = ("stale" if row.known_gap
                      else f"dnf:{ours}" if dnf else "match")
        else:
            status = "gap" if row.known_gap else "unexplained"
        scored.append({**row._asdict(), "ours": ours, "log_ratio": ratio,
                       "status": status})
    return scored


def render(scored) -> str:
    """The scored rows as a markdown table, numbers as the tables print."""
    def cell(value):
        return f"{value:.1f}" if _number(value) else str(value)

    lines = ["| row | source | paper | ours | ln(ours/paper) | status |",
             "|---|---|---|---|---|---|"]
    for row in scored:
        ratio = ("" if row["log_ratio"] is None else
                 f"{row['log_ratio']:+.2f} of ±{math.log(row['tolerance']):.2f}")
        reason = f": {row['known_gap']}" if row["status"] == "gap" else ""
        lines.append(f"| {row['id']} | {row['source']} | {cell(row['paper'])} "
                     f"| {cell(row['ours'])} | {ratio} "
                     f"| {row['status']}{reason} |")
    return "\n".join(lines)


def assert_rows(artifact: str, data) -> list:
    """Score one regenerated artifact; no row may be unexplained or stale."""
    scored = evaluate({artifact: data})
    bad = [row for row in scored if row["status"] in ("unexplained", "stale")]
    if bad or not scored:
        raise AssertionError(render(bad) if bad else
                             f"no fidelity row reads {artifact!r}")
    return scored
