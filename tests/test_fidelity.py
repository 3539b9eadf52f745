"""The fidelity table: the paper's numbers, stated once and checked.

Row discipline (unique ids, real artifacts), every extractor on really
regenerated data, the status rules on synthetic rows, the algebra
(``log_ratio`` antisymmetric, ``evaluate`` order-free, journal replay ==
fresh), the committed report, and the one-statement guard CI's ``lint``
job repeats as a grep.
"""

import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import (
    ARTIFACTS,
    Sweep,
    fidelity,
    figure6,
    figure7,
    table4,
    table5,
    table6,
    table7,
)
from repro.harness.fidelity import (
    ROWS,
    TOLERANCE,
    Row,
    assert_rows,
    evaluate,
    log_ratio,
    render,
)

REPO = Path(__file__).resolve().parent.parent
#: Rows outside the artifact table: asserted by benchmarks/bench_related_work.
EXTENSION_STUDIES = {"related_work"}
SUBSET = ("pagerank", "bfs")


def ids(scored):
    return [row["id"] for row in scored]


def rows_of(artifact):
    return [row.id for row in ROWS if row.artifact == artifact]


def evaluate_rows(rows, data):
    """``evaluate`` with ``rows`` as the table (it reads ``fidelity.ROWS``)."""
    with mock.patch.object(fidelity, "ROWS", tuple(rows)):
        return evaluate(data)


def on_subset(artifact):
    """The rows a ``SUBSET``-narrowed Table 5/6 can answer: its algorithms'
    cells and the per-workload rankings (which read what the table has)."""
    return [row for row in ROWS if row.artifact == artifact
            and row.id.split("/")[1] in SUBSET + ("reference", "slowest",
                                                  "fastest")]


class TestTable:
    def test_ids_are_unique_and_artifacts_exist(self):
        assert len({row.id for row in ROWS}) == len(ROWS)
        for row in ROWS:
            assert row.artifact in set(ARTIFACTS) | EXTENSION_STUDIES, row.id
            assert row.id.startswith(row.artifact + "/")
            assert row.tolerance <= TOLERANCE     # narrower only
        # A reason or a factor keyed by a mistyped id would apply to nothing.
        assert set(fidelity._GAPS) | set(fidelity._NARROWER) <= \
            {row.id for row in ROWS}

    def test_the_table_covers_what_the_paper_prints(self):
        assert len(rows_of("table5")) == 20 + 4 and len(rows_of("table6")) == 16 + 4
        assert len(rows_of("table4")) == 8 * 3
        assert 75 <= len(ROWS) <= 90

    @pytest.mark.parametrize("producer", [table4, table7, figure6, figure7])
    def test_every_extractor_runs_on_regenerated_data(self, producer):
        name = producer.__name__
        scored = assert_rows(name, producer())
        assert ids(scored) == rows_of(name)

    def test_table5_and_table6_extractors_run_on_a_two_algorithm_subset(self):
        for producer in (table5, table6):
            name = producer.__name__
            rows = on_subset(name)
            scored = evaluate_rows(rows, {name: producer(algorithms=SUBSET)})
            assert ids(scored) == [row.id for row in rows]
            assert {row["status"] for row in scored} <= {"match", "gap"}

    def test_a_missing_artifact_is_skipped_a_missing_cell_is_an_error(self):
        assert evaluate({}) == []
        # A renamed field or label must not silently drop its row.
        with pytest.raises(KeyError):
            evaluate({"table7": {"pagerank": {"speed_up": 2.4}}})
        with pytest.raises(KeyError):
            evaluate({"table5": {"pagerank": {}}})


def one(paper, ours, known_gap="", tolerance=TOLERANCE):
    row = Row("t/x", "Table 0", "t", paper, lambda data: data["ours"],
              tolerance, known_gap)
    (scored,) = evaluate_rows([row], {"t": {"ours": ours}})
    return scored


class TestStatusDiscipline:
    def test_inside_and_outside_with_and_without_a_reason(self):
        assert one(10.0, 24.9)["status"] == "match"
        assert one(10.0, 4.1)["status"] == "match"
        assert one(10.0, 25.1)["status"] == "unexplained"
        assert one(10.0, 25.1, "why")["status"] == "gap"
        assert one(10.0, 12.0, "why")["status"] == "stale"
        assert one(2.4, 3.7, tolerance=1.5)["status"] == "unexplained"
        assert one("memory", "memory")["status"] == "match"
        assert one("network", "memory", "why")["status"] == "gap"

    def test_a_dnf_is_compared_with_the_papers_own_dash(self):
        assert one("out-of-memory", "out-of-memory")["status"] == \
            "dnf:out-of-memory"
        assert one("out-of-memory", 3.9)["status"] == "unexplained"
        assert one(4.7, "unsupported")["status"] == "unexplained"
        assert one(4.7, "unsupported", "not expressible")["status"] == "gap"

    @pytest.mark.parametrize("empty", [float("nan"), None, float("inf")])
    def test_an_empty_geomean_reads_as_the_cells_dash(self, empty):
        # Journal-replayed and saved data carry null where fresh data
        # carries nan; neither may raise.
        table = {a: {f: {"slowdown": 2.0, "statuses": ["ok"]}
                     for f in ("combblas", "graphlab", "socialite", "giraph",
                               "galois")}
                 for a in SUBSET + ("collaborative_filtering",
                                    "triangle_counting")}
        table["bfs"]["socialite"] = {"slowdown": empty,
                                     "statuses": ["unsupported"] * 4}
        table["bfs"]["giraph"]["slowdown"] = 400.0
        table["pagerank"]["giraph"]["slowdown"] = 40.0
        scored = {row["id"]: row for row in evaluate({"table5": table})}
        cell = scored["table5/bfs/socialite"]
        assert (cell["ours"], cell["log_ratio"]) == ("unsupported", None)
        assert cell["status"] == "unexplained"
        assert scored["table5/slowest"]["ours"] == "giraph"
        assert "unsupported" in render(scored.values())

    def test_rankings_keep_the_slack_their_checks_had(self):
        def table(**tc):
            cells = {f: {"slowdown": s, "statuses": ["ok"]}
                     for f, s in {"combblas": 3.0, "graphlab": 2.0,
                                  "socialite": 1.5, "giraph": 40.0,
                                  "galois": 1.5, **tc}.items()}
            return {a: cells for a in ("pagerank", "bfs", "triangle_counting",
                                       "collaborative_filtering")}

        def ours(id, data):
            row = next(row for row in ROWS if row.id == id)
            return row.ours(data)

        # An exact tie, or the paper's winner a few percent behind, is
        # still the paper's winner; beyond the slack it is not.
        assert ours("table5/fastest", table()) == "galois"
        assert ours("table5/fastest", table(galois=1.6)) == "galois"
        assert ours("table5/fastest", table(galois=2.9)) == "socialite"
        assert ours("table6/triangle_counting/best",
                    table(graphlab=1.4)) == "socialite"
        assert ours("table6/triangle_counting/best",
                    table(graphlab=1.0)) == "graphlab"
        assert ours("table6/triangle_counting/worst-non-giraph",
                    table(graphlab=3.1)) == "graphlab"
        # Native is the reference: nothing undercuts it by over 5 %.
        assert ours("table5/reference", table(galois=0.97)) == "native"
        assert ours("table5/reference", table(galois=0.44)) == "galois"
        # Second-generation workloads are not the paper's to rank.
        assert ours("table5/slowest", {**table(), "wcc": {
            "galois": {"slowdown": 900.0, "statuses": ["ok"]}}}) == "giraph"

    def test_assert_rows_fails_on_unexplained_and_on_nothing(self):
        with pytest.raises(AssertionError, match="table7/pagerank/speedup"):
            assert_rows("table7", {"pagerank": {"speedup": 9.0},
                                   "triangle_counting": {"speedup": 1.6}})
        with pytest.raises(AssertionError):
            assert_rows("tabel7", {"pagerank": {"speedup": 2.4}})


positive = st.floats(min_value=1e-6, max_value=1e6)


class TestAlgebra:
    @given(positive, positive)
    def test_log_ratio_is_antisymmetric(self, a, b):
        assert log_ratio(a, b) == -log_ratio(b, a)
        assert log_ratio(a, a) == 0.0

    @given(st.sampled_from([None, float("nan"), "out-of-memory", 0.0, -1.0]),
           positive)
    def test_log_ratio_of_a_non_number_is_none(self, odd, b):
        assert log_ratio(odd, b) is None and log_ratio(b, odd) is None

    @settings(max_examples=20, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_evaluate_is_independent_of_row_order(self, regenerated, rng):
        rows = list(ROWS)
        rng.shuffle(rows)
        shuffled = evaluate_rows(rows, regenerated)
        assert sorted(shuffled, key=lambda r: r["id"]) == \
            sorted(evaluate(regenerated), key=lambda r: r["id"])

    def test_rows_from_a_journal_replay_equal_the_fresh_ones(self, tmp_path):
        journal = tmp_path / "table6.jsonl"
        fresh = table6(algorithms=SUBSET, sweep=Sweep("t6", journal=journal))
        resumed = Sweep("t6", journal=journal, resume=True)
        replayed = table6(algorithms=SUBSET, sweep=resumed)
        assert resumed.last.executed == 0
        rows = on_subset("table6")
        assert evaluate_rows(rows, {"table6": replayed}) == \
            evaluate_rows(rows, {"table6": fresh})


@pytest.fixture(scope="module")
def regenerated():
    return {"table4": table4(), "table7": table7(), "figure7": figure7()}


class TestCommittedReport:
    """reproduction_report.md is the diffable record (CI ``cmp``s it)."""

    def rows(self):
        text = (REPO / "reproduction_report.md").read_text()
        return text, {line.split(" | ")[0][2:]: line
                      for line in text.splitlines()
                      if re.match(r"\| (table|figure|sgd)", line)}

    def test_every_regenerated_row_is_in_it_and_none_is_unexplained(self):
        text, rows = self.rows()
        assert list(rows) == [row.id for row in ROWS
                              if row.artifact in ARTIFACTS]
        assert "Generated" not in text
        gaps = sum("| gap: " in line for line in rows.values())
        assert (f"\n## Fidelity to the paper: {len(rows) - gaps} of {len(rows)} "
                f"within tolerance · {gaps} documented gaps · 0 unexplained "
                "· 0 stale\n") in text

    def test_tables_5_and_6_six_cells_outside_each_with_a_reason(self):
        _, rows = self.rows()
        outside = {id: line for id, line in rows.items()
                   if id.startswith(("table5/", "table6/"))
                   and "| gap: " in line}
        assert sorted(outside) == [
            "table5/triangle_counting/combblas",
            "table5/triangle_counting/giraph",
            "table5/triangle_counting/socialite",
            "table6/bfs/graphlab", "table6/pagerank/graphlab",
            "table6/triangle_counting/combblas"]
        assert "dnf:out-of-memory" in \
            rows["table5/triangle_counting/combblas/real-world"]
        assert "dnf:out-of-memory" in \
            rows["figure5/triangle_counting/combblas"]


class TestOneStatement:
    """The paper's numbers live in one file (CI ``lint`` greps the same)."""

    #: Literals no cost model produces by accident.
    DISTINCTIVE = ("567.8", "494.3", "484.3", "33.9", "87.9", "12.1")
    #: A slowdown, speed-up or bandwidth against a bare number.
    BARE = re.compile(r"(slowdown|speedup|gbps|_bw|bandwidth)"
                      r"[^=<>\n]*(<=?|>=?|==)\s*[0-9]")

    def sources(self):
        return [path for top in ("src", "scripts", "benchmarks")
                for path in sorted((REPO / top).rglob("*.py"))]

    def test_distinctive_paper_literals_occur_in_one_file(self):
        for literal in self.DISTINCTIVE:
            holders = [str(path.relative_to(REPO)) for path in self.sources()
                       if re.search(rf"(?<![\d.]){re.escape(literal)}(?!\d)",
                                    path.read_text())]
            assert holders == ["src/repro/harness/fidelity.py"], literal

    def test_artifact_benchmarks_compare_nothing_to_a_bare_literal(self):
        for path in sorted((REPO / "benchmarks").glob("bench_*.py")):
            if not path.name.startswith(("bench_table", "bench_figure")):
                continue
            for number, line in enumerate(path.read_text().splitlines(), 1):
                assert not self.BARE.search(line), f"{path.name}:{number}"

    def test_the_guard_sees_what_it_is_for(self):
        assert self.BARE.search('assert slowdown("pagerank", "giraph") > 20')
        assert self.BARE.search('assert 1.6 <= data["x"]["speedup"] <= 3.2')
        assert self.BARE.search('assert giraph["peak_network_bw"] < 10.0')
        assert not self.BARE.search("assert after >= before * 0.99")
