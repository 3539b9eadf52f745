"""Parallel sweep executor: byte-identical journals across worker counts.

The synthetic tests pin the scheduling-independence contract cheaply
(same records, same journal bytes, same retry/quarantine taxonomy for
any ``jobs``); the table5-subset test asserts it end to end on real
experiment cells. Cross-mode resume tests prove journals written
serially and in parallel are interchangeable.
"""

import os
import pickle

import pytest

from repro.errors import CapacityError, ReproError
from repro.harness import Sweep
from repro.harness.supervisor import _looks_like_pickling_error
from repro.harness.sweep import cell_id
from repro.harness.tables import table5
from repro.observability import Tracer


def keys(n):
    return [{"cell": i} for i in range(n)]


# Module-level executors: picklable, so these tests also pass on spawn
# platforms where closures cannot cross the process boundary.

def ok_executor(key, budget_s=None):
    return {"x": key["cell"] * 10}


def mixed_executor(key, budget_s=None):
    if key["cell"] == 1:
        raise CapacityError(0, 10, 5)
    if key["cell"] == 2:
        raise ValueError("always broken")
    return {"x": key["cell"]}


def attribute_error_executor(key, budget_s=None):
    raise AttributeError("'NoneType' object has no attribute 'edges'")


class TestParallelEngine:
    def test_jobs4_records_match_serial_exactly(self):
        serial = Sweep("s").run(keys(8), ok_executor)
        parallel = Sweep("s", jobs=4).run(keys(8), ok_executor)
        assert parallel.to_dict() == serial.to_dict()
        assert [r.value["x"] for r in parallel] == \
            [r.value["x"] for r in serial]

    def test_journals_byte_identical_across_worker_counts(self, tmp_path):
        journals = {}
        for jobs in (1, 2, 4):
            journals[jobs] = tmp_path / f"jobs{jobs}.jsonl"
            Sweep("s", journal=journals[jobs], jobs=jobs).run(
                keys(8), ok_executor)
        assert journals[2].read_bytes() == journals[1].read_bytes()
        assert journals[4].read_bytes() == journals[1].read_bytes()

    def test_failure_taxonomy_survives_the_pool(self):
        serial = Sweep("s", max_retries=2).run(keys(4), mixed_executor)
        parallel = Sweep("s", max_retries=2, jobs=4).run(
            keys(4), mixed_executor)
        assert parallel.to_dict() == serial.to_dict()
        oom = parallel.get(cell=1)
        assert oom.status == "out-of-memory" and not oom.quarantined
        bad = parallel.get(cell=2)
        assert bad.status == "failed" and bad.quarantined
        assert bad.attempts == 3                # 1 try + 2 retries
        assert bad.backoff_s == [0.5, 1.0]      # policy crossed the pool
        report = parallel.completeness()
        assert report["statuses"]["ok"] == 2 and report["retries"] == 2

    def test_merged_trace_stamps_workers(self):
        tracer = Tracer()
        Sweep("s", jobs=2, tracer=tracer).run(keys(4), ok_executor)
        cells = tracer.spans_named("cell")
        assert len(cells) == 4
        workers = {span.attrs["worker"] for span in cells}
        assert all(workers)                     # every span says who ran it
        sweep_span = tracer.spans_named("sweep")[0]
        assert sweep_span.attrs["jobs"] == 2
        # Grafted under the sweep span, not floating at the root.
        assert all(span.parent is not None and span.depth == 1
                   for span in cells)

    def test_parallel_journal_resumes_serially(self, tmp_path):
        journal = tmp_path / "s.jsonl"
        direct = Sweep("s", jobs=4, journal=journal).run(keys(6),
                                                         ok_executor)
        original = journal.read_bytes()
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:4]) + "\n")  # header + 3 cells

        resumed = Sweep("s", journal=journal, resume=True).run(
            keys(6), ok_executor)
        assert resumed.replayed == 3 and resumed.executed == 3
        assert resumed.to_dict()["records"] == direct.to_dict()["records"]
        assert journal.read_bytes() == original

    def test_serial_journal_resumes_in_parallel(self, tmp_path):
        journal = tmp_path / "s.jsonl"
        direct = Sweep("s", journal=journal).run(keys(6), ok_executor)
        original = journal.read_bytes()
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:3]) + "\n")  # header + 2 cells

        resumed = Sweep("s", jobs=4, journal=journal, resume=True).run(
            keys(6), ok_executor)
        assert resumed.replayed == 2 and resumed.executed == 4
        assert resumed.to_dict()["records"] == direct.to_dict()["records"]
        assert journal.read_bytes() == original

    def test_effective_jobs_resolution(self):
        assert Sweep("s").effective_jobs() == 1
        assert Sweep("s", jobs=1).effective_jobs() == 1
        assert Sweep("s", jobs=3).effective_jobs() == 3
        assert Sweep("s", jobs=0).effective_jobs() == (os.cpu_count() or 1)
        with pytest.raises(ReproError, match="jobs"):
            Sweep("s", jobs=-1)

    def test_run_cells_parallel_yields_in_enumeration_order(self):
        merged, tracer = [], Tracer()
        result = Sweep("s", jobs=3, tracer=tracer,
                       on_cell=merged.append).run(keys(6), ok_executor)
        assert [record.key for record in merged] == keys(6)
        assert list(result.records) == [cell_id(key) for key in keys(6)]
        assert all(record.ok for record in merged)
        cells = tracer.spans_named("cell")
        assert len(cells) == 6 and all(span.attrs["worker"] for span in cells)


class TestPicklingErrorDetection:
    """The serialization-hint translation must not swallow real bugs."""

    def test_only_serialization_failures_qualify(self):
        assert _looks_like_pickling_error(
            pickle.PicklingError("Can't pickle <function <lambda>>"))
        assert _looks_like_pickling_error(
            TypeError("cannot pickle '_thread.lock' object"))
        # A worker-side AttributeError is a bug in the executor, not a
        # transport problem — it must never earn the "run with jobs=1"
        # hint (the old any-AttributeError match did exactly that).
        assert not _looks_like_pickling_error(
            AttributeError("'NoneType' object has no attribute 'edges'"))
        assert not _looks_like_pickling_error(
            RuntimeError("failed while loading pickle fixtures"))
        assert not _looks_like_pickling_error(
            TypeError("unsupported operand type(s)"))

    def test_worker_attribute_error_propagates_untranslated(self):
        result = Sweep("s", jobs=2, max_retries=0).run(
            keys(3), attribute_error_executor)
        for record in result:
            assert record.status == "failed" and record.quarantined
            assert record.failure.startswith("AttributeError")
            assert "jobs=1" not in record.failure


class TestTable5Parallel:
    SUBSET = dict(algorithms=("pagerank",), frameworks=("galois",))

    def test_parallel_table5_journal_byte_identical(self, tmp_path):
        serial_journal = tmp_path / "serial.jsonl"
        parallel_journal = tmp_path / "parallel.jsonl"
        serial = table5(sweep=Sweep("table5", journal=serial_journal),
                        **self.SUBSET)
        parallel = table5(
            sweep=Sweep("table5", journal=parallel_journal, jobs=4),
            **self.SUBSET)
        assert parallel == serial
        assert parallel_journal.read_bytes() == serial_journal.read_bytes()
