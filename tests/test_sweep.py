"""The resilient sweep engine: isolation, deadlines, retry/quarantine,
durable journals and exact resume.

The synthetic-executor tests pin the engine's failure-handling contract
cheaply; the table5-subset tests assert the headline durability
guarantee end to end: a sweep interrupted at an arbitrary cell and
resumed from its journal produces byte-identical artifact data with
zero completed cells recomputed.
"""

import dataclasses
import json
import os

import pytest

from repro.errors import (
    CapacityError,
    DeadlineExceeded,
    ExpressibilityError,
    NodeFailure,
    ReproError,
)
from repro.harness import ExperimentSpec, RunResult, Sweep, run, save_artifact
from repro.harness.report import render_sweep_completeness
from repro.harness.sweep import CellOutcome, SweepJournal, cell_id
from repro.harness.tables import table5
from repro.observability import Tracer


def keys(n):
    return [{"cell": i} for i in range(n)]


def ok_executor(key, budget_s=None):
    return {"x": key["cell"] * 10}


class TestEngine:
    def test_happy_path_records_everything(self):
        result = Sweep("s").run(keys(4), ok_executor)
        assert [r.value["x"] for r in result] == [0, 10, 20, 30]
        assert all(r.ok and r.attempts == 1 for r in result)
        report = result.completeness()
        assert report["cells"] == 4 and report["coverage"] == 1.0
        assert report["executed"] == 4 and report["replayed"] == 0

    @pytest.mark.parametrize("error,status", [
        (CapacityError(0, 10, 5), "out-of-memory"),
        (ExpressibilityError("no SGD"), "unsupported"),
        (DeadlineExceeded(1.0, 2.0), "timeout"),
        (NodeFailure(1, 3), "failed"),
    ])
    def test_typed_failures_become_cell_records(self, error, status):
        def execute(key, budget_s=None):
            if key["cell"] == 1:
                raise error
            return {"x": 1}

        result = Sweep("s").run(keys(3), execute)
        record = result.get(cell=1)
        assert record.status == status
        assert not record.quarantined          # typed != transient
        assert record.attempts == 1            # deterministic: no retry
        assert str(error) in record.failure
        # Isolation: the failure never escapes, neighbors complete.
        assert result.get(cell=0).ok and result.get(cell=2).ok
        assert result.completeness()["statuses"][status] == 1

    def test_transient_failure_retried_with_backoff(self):
        calls = []

        def flaky(key, budget_s=None):
            calls.append(key["cell"])
            if key["cell"] == 1 and len(calls) < 3:
                raise RuntimeError("transient glitch")
            return {"x": 1}

        engine = Sweep("s", max_retries=3, backoff_base_s=0.5,
                       backoff_cap_s=0.6)
        result = engine.run([{"cell": 1}], flaky)
        record = result.get(cell=1)
        assert record.ok and record.attempts == 3
        assert record.backoff_s == [0.5, 0.6]   # exponential, capped

    def test_quarantine_after_max_retries_isolates_the_cell(self):
        tracer = Tracer()

        def execute(key, budget_s=None):
            if key["cell"] == 1:
                raise ValueError("always broken")
            return {"x": key["cell"]}

        result = Sweep("s", max_retries=2, tracer=tracer).run(keys(3),
                                                              execute)
        record = result.get(cell=1)
        assert record.status == "failed" and record.quarantined
        assert record.attempts == 3             # 1 try + 2 retries
        assert "ValueError: always broken" in record.failure
        # Every other cell still completed.
        assert result.get(cell=0).ok and result.get(cell=2).ok
        report = result.completeness()
        assert report["quarantined"] == [{"cell": 1}]
        assert report["retries"] == 2
        # The flight recorder explains the DNF.
        assert len(tracer.spans_named("cell-retry")) == 2
        assert len(tracer.spans_named("cell-quarantined")) == 1
        rendered = render_sweep_completeness(report)
        assert "quarantined" in rendered and "failed" in rendered

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ReproError, match="duplicate"):
            Sweep("s").run([{"cell": 1}, {"cell": 1}], ok_executor)

    def test_cell_outcome_passthrough(self):
        def execute(key, budget_s=None):
            return CellOutcome("timeout", failure="over budget")

        record = Sweep("s").run([{"cell": 0}], execute).get(cell=0)
        assert record.status == "timeout" and record.failure == "over budget"


class TestJournal:
    def test_existing_journal_requires_resume(self, tmp_path):
        journal = tmp_path / "s.jsonl"
        Sweep("s", journal=journal).run(keys(2), ok_executor)
        with pytest.raises(ReproError, match="resume"):
            Sweep("s", journal=journal).run(keys(2), ok_executor)

    def test_journal_name_mismatch_rejected(self, tmp_path):
        journal = tmp_path / "s.jsonl"
        Sweep("table5", journal=journal).run(keys(1), ok_executor)
        with pytest.raises(ReproError, match="table5"):
            Sweep("table6", journal=journal, resume=True).run(keys(1),
                                                              ok_executor)

    @pytest.mark.parametrize("index, line", [
        (2, "{garbage"),
        (2, "7"), (2, "null"), (2, "[1]"),
        (0, "7"), (0, "null"), (0, "[1]"),
        (-1, "7"),
        (2, '{"key": [1], "status": "ok"}'),
        (2, '{"key": {"cell": 1}, "status": "ok", "attempts": "x"}'),
        (2, '{"key": {"cell": 1}, "status": "ok", "backoff_s": 3}'),
    ], ids=["garbage", "int", "null", "list", "header-int", "header-null",
            "header-list", "last-int", "key-list", "attempts-str",
            "backoff-int"])
    def test_corrupt_mid_journal_rejected(self, tmp_path, index, line):
        """A line that is not a record is a typed refusal wherever it
        sits; only an unparseable last line is a torn tail."""
        journal = tmp_path / "s.jsonl"
        Sweep("s", journal=journal).run(keys(3), ok_executor)
        lines = journal.read_text().splitlines()
        lines[index] = line
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReproError, match="corrupt"):
            SweepJournal(journal).load("s")

    def test_cli_refuses_a_non_record_line_in_one_line(self, tmp_path,
                                                       capsys):
        from repro.cli import main

        journal = tmp_path / "t.jsonl"
        args = ["sweep", "table5", "--algorithms", "bfs", "--frameworks",
                "native", "--journal", str(journal)]
        assert main(args) == 0
        lines = journal.read_text().splitlines()
        lines[1] = "7"
        journal.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(args + ["--resume"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") \
            and "corrupt mid-journal" in err[0]

    def test_one_write_per_record_and_fsync_for_sweeps_only(
            self, tmp_path, monkeypatch):
        """One appender, two durability values: a sweep record is one
        write + fsync, a job-registry entry one write and no fsync."""
        from repro.serve import JobRegistry

        calls = []

        def counted(name, call):
            def wrapper(*args):
                calls.append(name)
                return call(*args)
            return wrapper

        monkeypatch.setattr(os, "write", counted("write", os.write))
        monkeypatch.setattr(os, "fsync", counted("fsync", os.fsync))
        Sweep("s", journal=tmp_path / "s.jsonl").run(keys(3), ok_executor)
        # The header is one atomic replace (its temp file is fsynced).
        assert calls == ["fsync"] + ["write", "fsync"] * 3
        calls.clear()
        registry = JobRegistry(tmp_path / "state")
        registry.transition(registry.create("gate", {}), "running")
        registry.close()
        assert calls == ["write", "write"]

    def test_torn_final_line_dropped(self, tmp_path):
        journal = tmp_path / "s.jsonl"
        Sweep("s", journal=journal).run(keys(3), ok_executor)
        text = journal.read_text()
        # Kill mid-append: the last record is half-written.
        journal.write_text(text[:text.rindex('{"attempts"') + 17])
        records = SweepJournal(journal).load("s")
        assert set(records) == {cell_id({"cell": 0}), cell_id({"cell": 1})}

    def test_torn_record_mid_burst_repaired_on_resume(self, tmp_path):
        """A crash mid-burst tears only the final record of the burst.

        The parallel executor drains merged records in a burst of
        O_APPEND writes; killing it mid-append leaves intact records
        plus half of the one being written. Resume must keep every
        intact record, drop the torn one, and rebuild the journal
        byte-identically.
        """
        journal = tmp_path / "s.jsonl"
        Sweep("s", jobs=4, journal=journal).run(keys(8), ok_executor)
        original = journal.read_bytes()
        lines = journal.read_text().splitlines()
        # 5 intact records survive the burst; the 6th is half-written.
        journal.write_text("\n".join(lines[:6]) + "\n" + lines[6][:11])

        loaded = SweepJournal(journal).load("s")
        assert set(loaded) == {cell_id({"cell": i}) for i in range(5)}

        resumed = Sweep("s", jobs=4, journal=journal, resume=True).run(
            keys(8), ok_executor)
        assert resumed.replayed == 5 and resumed.executed == 3
        assert journal.read_bytes() == original

    def test_lost_final_newline_repaired_on_resume(self, tmp_path):
        """Torn exactly at the newline: the record is whole, but the
        next append must still start on a fresh line."""
        journal = tmp_path / "s.jsonl"
        Sweep("s", journal=journal).run(keys(4), ok_executor)
        original = journal.read_bytes()
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:3]))

        resumed = Sweep("s", journal=journal, resume=True).run(
            keys(4), ok_executor)
        assert resumed.replayed == 2 and resumed.executed == 2
        assert journal.read_bytes() == original

    def test_resume_replays_and_never_recomputes(self, tmp_path):
        journal = tmp_path / "s.jsonl"
        direct = Sweep("s", journal=journal).run(keys(6), ok_executor)

        # Interrupt after 3 cells: truncate the journal mid-write.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:4]) + "\n" + lines[4][:9])

        executed = []

        def counting(key, budget_s=None):
            executed.append(key["cell"])
            return ok_executor(key)

        resumed = Sweep("s", journal=journal, resume=True)
        result = resumed.run(keys(6), counting)
        assert executed == [3, 4, 5]            # cells 0-2 replayed
        assert result.replayed == 3 and result.executed == 3
        assert [r.value for r in result] == [r.value for r in direct]
        assert all(result.get(cell=i).replayed for i in range(3))

        # A second resume replays everything.
        again = Sweep("s", journal=journal, resume=True).run(keys(6),
                                                             counting)
        assert executed == [3, 4, 5] and again.replayed == 6

    def test_stale_journal_cells_ignored(self, tmp_path):
        journal = tmp_path / "s.jsonl"
        Sweep("s", journal=journal).run(keys(4), ok_executor)
        # Narrow the frontier between runs: extra journal cells are fine.
        result = Sweep("s", journal=journal, resume=True).run(
            keys(2), ok_executor)
        assert result.replayed == 2 and result.executed == 0


class TestDeadline:
    def test_run_deadline_yields_timeout_and_span(self):
        from repro.datagen import dataset

        tracer = Tracer()
        cell = run(ExperimentSpec("pagerank", "native", dataset("rmat_mini"),
                                  deadline_s=1e-9), trace=tracer)
        assert cell.status == "timeout"
        assert "deadline exceeded" in cell.failure
        assert tracer.spans_named("deadline-exceeded")

    def test_deadline_is_a_cell_record_not_an_escape(self):
        """Slow cells DNF as 'timeout'; fast cells still complete."""
        from repro.datagen import dataset

        data = dataset("rmat_mini")
        native_s = run(ExperimentSpec("pagerank", "native", data)) \
            .metrics().total_time_s

        def execute(key, budget_s=None):
            from repro.harness.sweep import outcome_of

            return outcome_of(run(ExperimentSpec("pagerank", key["framework"],
                                                 data, deadline_s=budget_s)))

        tracer = Tracer()
        engine = Sweep("deadlines", deadline_s=3 * native_s, tracer=tracer)
        result = engine.run([{"framework": "native"},
                             {"framework": "giraph"}], execute)
        assert result.get(framework="native").ok
        giraph = result.get(framework="giraph")   # >20x native: over budget
        assert giraph.status == "timeout"
        report = result.completeness()
        assert report["statuses"]["timeout"] == 1
        assert report["dnf"][0]["key"] == {"framework": "giraph"}
        assert tracer.spans_named("cell-deadline")
        assert "timeout" in render_sweep_completeness(report)


class TestTable5EndToEnd:
    SUBSET = dict(algorithms=("pagerank",), frameworks=("galois",))

    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path,
                                                      monkeypatch):
        journal = tmp_path / "table5.jsonl"
        direct = table5(sweep=Sweep("table5", journal=journal),
                        **self.SUBSET)
        baseline_bytes = json.dumps(direct, sort_keys=True)

        # Interrupt at an arbitrary cell: keep the header + 3 records
        # and a torn fourth — the on-disk state of a kill mid-append.
        lines = journal.read_text().splitlines()
        assert len(lines) == 9                  # header + 8 cells
        journal.write_text("\n".join(lines[:4]) + "\n" + lines[4][:23])

        import repro.harness.sweep as sweep_module

        real = sweep_module.run_cell
        counter = []
        monkeypatch.setattr(sweep_module, "run_cell",
                            lambda *a, **k: counter.append(a) or
                            real(*a, **k))

        resumed_engine = Sweep("table5", journal=journal, resume=True)
        resumed = table5(sweep=resumed_engine, **self.SUBSET)

        # Byte-identical artifact data, zero completed cells recomputed.
        assert json.dumps(resumed, sort_keys=True) == baseline_bytes
        assert len(counter) == 5                # 8 cells - 3 intact
        assert resumed_engine.last.replayed == 3
        assert resumed_engine.last.executed == 5

    def test_sweep_and_direct_regeneration_agree(self):
        assert table5(**self.SUBSET) == \
            table5(sweep=Sweep("table5"), **self.SUBSET)


class TestSatellites:
    def test_save_artifact_maps_infinities_to_null(self, tmp_path):
        path = save_artifact(tmp_path / "a.json", "t",
                             {"nan": float("nan"), "inf": float("inf"),
                              "ninf": float("-inf"), "x": 1.5})
        data = json.loads(path.read_text())["data"]
        assert data == {"nan": None, "inf": None, "ninf": None, "x": 1.5}

    def test_save_artifact_is_atomic(self, tmp_path):
        path = tmp_path / "a.json"
        save_artifact(path, "t", {"x": 1})
        before = path.read_text()
        with pytest.raises(TypeError):
            save_artifact(path, "t", {"bad": object()})
        # The failed save neither corrupted the artifact nor littered.
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_runresult_declares_trace_and_recovery_fields(self):
        names = [f.name for f in dataclasses.fields(RunResult)]
        assert "trace" in names and "recovery" in names
        result = RunResult("pagerank", "native", 1, "failed",
                           failure="boom")
        assert result.trace is None and result.recovery is None
        assert result.to_dict()["recovery"] is None

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["run", "pagerank", "native",
                     "--deadline", "1e-9"]) == 6
        journal = str(tmp_path / "t5.jsonl")
        args = ["sweep", "table5", "--algorithms", "pagerank",
                "--frameworks", "galois", "--journal", journal]
        assert main(args) == 0
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "replayed from journal" in out

    def test_cli_refuses_unresumed_existing_journal(self, tmp_path):
        from repro.cli import main

        journal = str(tmp_path / "t5.jsonl")
        args = ["sweep", "table5", "--algorithms", "pagerank",
                "--frameworks", "galois", "--journal", journal]
        assert main(args) == 0
        assert main(args) == 1                  # no --resume: refuse

    def test_cli_help_documents_exit_codes(self):
        from repro.cli import build_parser

        text = build_parser().format_help()
        assert "exit codes" in text
        assert "deadline exceeded" in text or "timeout" in text
