"""Supervised worker pool: surviving real process faults.

These tests inject *actual* faults — SIGKILLed workers, hung cells,
memory balloons, killed parents — through :mod:`repro.chaos.real` and
assert the supervisor's contract: the sweep always completes (or drains
cleanly), faults land in the DNF taxonomy (``crashed``, wall-clock
``timeout``, ``out-of-memory``), and journals of the *surviving* cells
stay byte-identical to a clean serial run at any worker count,
including across a no-chaos ``--resume``.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.chaos import (
    BalloonMemory,
    HangCell,
    KillWorker,
    RealFaultPlan,
    resolve_real_chaos,
)
from repro.errors import ReproError, SimulationError, SweepInterrupted
from repro.harness import STATUS_CRASHED, Sweep
from repro.observability import Tracer

SRC = str(Path(__file__).resolve().parent.parent / "src")


def keys(n):
    return [{"i": i} for i in range(n)]


def ok_executor(key, budget_s=None):
    return {"x": key["i"] * 10}


class TestRealFaultPlan:
    def test_spec_roundtrip(self):
        spec = ("kill(cell=3); kill(cell=5, times=99); "
                "hang(cell=7, seconds=300); oom(cell=2, mb=512)")
        plan = RealFaultPlan.from_spec(spec)
        assert len(plan) == 4
        assert plan.faults == (
            KillWorker(cell=3), KillWorker(cell=5, times=99),
            HangCell(cell=7, seconds=300.0), BalloonMemory(cell=2, mb=512))
        assert RealFaultPlan.from_spec(plan.spec()) == plan

    def test_defaults(self):
        plan = RealFaultPlan.from_spec("hang(cell=1); oom(cell=2)")
        assert plan.faults[0].seconds == 3600.0
        assert plan.faults[1].mb == 1024

    def test_parse_errors(self):
        for bad in ("explode(cell=1)", "kill(1)", "kill(cell=-1)",
                    "kill(cell=1, bogus=2)", "kill cell 1",
                    "kill(cell=1, times=0)", "hang(cell=1, seconds=0)"):
            with pytest.raises(SimulationError):
                RealFaultPlan.from_spec(bad)

    def test_env_resolution(self, monkeypatch, tmp_path, capsys):
        """``$REPRO_CHAOS_REAL`` is the default of ``repro sweep
        --real-chaos``; nothing below the CLI reads it."""
        from repro.cli import main
        from tests.test_serve import _LiveServer

        def restarts(*flags):
            assert main(["sweep", "table5", "--algorithms", "pagerank",
                         "--frameworks", "native", "--json", *flags]) == 0
            report = json.loads(capsys.readouterr().out)["completeness"]
            assert report["coverage"] == 1.0
            return report["worker_restarts"]

        monkeypatch.setenv("REPRO_CHAOS_REAL", "kill(cell=1)")
        assert restarts() == 1                      # env, no flag: applied
        assert restarts("--real-chaos", "") == 0    # the flag wins
        assert restarts("--real-chaos", "kill(cell=0); kill(cell=2)") == 2

        assert resolve_real_chaos(None) is None
        assert Sweep("s").real_chaos is None
        with _LiveServer(tmp_path / "state", warm=False) as live:
            status, job = live.call("POST", "/sweeps", {
                "target": "table5", "algorithms": ["pagerank"],
                "frameworks": ["native"], "wait": True})
        assert status == 200 and job["state"] == "done"
        assert job["result"]["completeness"]["coverage"] == 1.0
        assert job["result"]["completeness"]["worker_restarts"] == 0

    def test_validate_rejects_out_of_range_and_uncapped_balloons(self):
        plan = RealFaultPlan.from_spec("kill(cell=9)")
        with pytest.raises(SimulationError, match="cells 0..5"):
            plan.validate(6, memory_limited=False)
        balloon = RealFaultPlan.from_spec("oom(cell=1)")
        with pytest.raises(SimulationError, match="memory.limit"):
            balloon.validate(6, memory_limited=False)
        balloon.validate(6, memory_limited=True)

    def test_kill_now_counts_dispatches(self):
        plan = RealFaultPlan.from_spec("kill(cell=4, times=2)")
        assert plan.kill_now(4, crashes=0)
        assert plan.kill_now(4, crashes=1)
        assert not plan.kill_now(4, crashes=2)
        assert not plan.kill_now(3, crashes=0)


class TestSupervisedFaults:
    def test_killed_worker_is_restarted_and_cell_survives(self, tmp_path):
        chaos_journal = tmp_path / "chaos.jsonl"
        clean_journal = tmp_path / "clean.jsonl"
        tracer = Tracer()
        result = Sweep("s", journal=chaos_journal, jobs=2,
                       real_chaos="kill(cell=2)", tracer=tracer).run(
            keys(6), ok_executor)
        assert all(record.ok for record in result)
        assert result.worker_restarts == 1
        assert result.completeness()["worker_restarts"] == 1
        assert tracer.spans_named("worker-restart")

        Sweep("s", journal=clean_journal).run(keys(6), ok_executor)
        assert chaos_journal.read_bytes() == clean_journal.read_bytes()

    def test_chaos_journals_byte_identical_across_worker_counts(
            self, tmp_path):
        journals = {}
        for jobs in (1, 2, 4):
            journals[jobs] = tmp_path / f"jobs{jobs}.jsonl"
            Sweep("s", journal=journals[jobs], jobs=jobs,
                  real_chaos="kill(cell=1); kill(cell=4)").run(
                keys(6), ok_executor)
        assert journals[2].read_bytes() == journals[1].read_bytes()
        assert journals[4].read_bytes() == journals[1].read_bytes()

    def test_poison_cell_is_quarantined_as_crashed(self, tmp_path):
        journal = tmp_path / "s.jsonl"
        tracer = Tracer()
        result = Sweep("s", journal=journal, jobs=2, max_crashes=2,
                       real_chaos="kill(cell=1, times=99)",
                       tracer=tracer).run(keys(5), ok_executor)
        record = result.get(i=1)
        assert record.status == STATUS_CRASHED
        assert record.quarantined and record.attempts == 2
        assert "SIGKILL" in record.failure
        assert all(r.ok for r in result if r.key["i"] != 1)
        assert result.completeness()["statuses"]["crashed"] == 1
        assert tracer.spans_named("poison-quarantine")
        # The quarantine is durable: the journal line says crashed.
        lines = [json.loads(line) for line
                 in journal.read_text().splitlines()[1:]]
        assert [p["status"] for p in lines if p["key"]["i"] == 1] \
            == ["crashed"]

    def test_hung_cell_hits_the_wall_clock_deadline(self):
        result = Sweep("s", jobs=2, wall_deadline_s=1.0,
                       real_chaos="hang(cell=2, seconds=60)").run(
            keys(5), ok_executor)
        record = result.get(i=2)
        assert record.status == "timeout" and record.wall_clock
        assert "wall-clock" in record.failure
        assert record.to_dict()["wall_clock"] is True
        assert result.wall_timeouts == 1
        assert all(r.ok for r in result if r.key["i"] != 2)

    def test_memory_balloon_becomes_out_of_memory(self):
        result = Sweep("s", jobs=2, memory_limit_mb=192,
                       real_chaos="oom(cell=0, mb=2048)").run(
            keys(4), ok_executor)
        record = result.get(i=0)
        assert record.status == "out-of-memory"
        assert "address-space cap" in record.failure
        assert all(r.ok for r in result if r.key["i"] != 0)

    def test_resume_after_chaos_converges_to_clean_journal(self, tmp_path):
        chaos_journal = tmp_path / "chaos.jsonl"
        clean_journal = tmp_path / "clean.jsonl"
        Sweep("s", journal=chaos_journal, jobs=2, max_crashes=1,
              wall_deadline_s=1.0,
              real_chaos="kill(cell=1, times=99); "
                         "hang(cell=3, seconds=60)").run(
            keys(6), ok_executor)
        tracer = Tracer()
        resumed = Sweep("s", journal=chaos_journal, resume=True,
                        tracer=tracer).run(keys(6), ok_executor)
        assert all(record.ok for record in resumed)
        # Only the clean prefix (cell 0) replays; the crashed cell, the
        # hung cell and everything after the first fault re-execute.
        assert resumed.replayed == 1 and resumed.executed == 5
        assert len(tracer.spans_named("cell-refaulted")) == 2

        Sweep("s", journal=clean_journal).run(keys(6), ok_executor)
        assert chaos_journal.read_bytes() == clean_journal.read_bytes()

    def test_real_chaos_requires_valid_cells(self):
        with pytest.raises(SimulationError, match="cells 0..3"):
            Sweep("s", jobs=2, real_chaos="kill(cell=7)").run(
                keys(4), ok_executor)

    def test_supervision_knob_validation(self):
        with pytest.raises(ReproError, match="wall_deadline_s"):
            Sweep("s", wall_deadline_s=0)
        with pytest.raises(ReproError, match="max_crashes"):
            Sweep("s", max_crashes=0)
        with pytest.raises(ReproError, match="memory_limit_mb"):
            Sweep("s", memory_limit_mb=-1)
        with pytest.raises(SimulationError, match="RealFaultPlan"):
            Sweep("s", real_chaos=42)

    def test_supervised_routing(self):
        assert not Sweep("s").supervised()
        assert not Sweep("s", jobs=4).supervised()
        assert Sweep("s", wall_deadline_s=5).supervised()
        assert Sweep("s", memory_limit_mb=64).supervised()
        assert Sweep("s", real_chaos="kill(cell=0)").supervised()
        assert not Sweep("s", real_chaos="").supervised()

    def test_exit_code_mapping(self):
        from repro.errors import EXIT_INTERRUPTED, failure_class

        assert EXIT_INTERRUPTED == 8
        error = SweepInterrupted(signal.SIGTERM, 3)
        assert failure_class(error).exit_code == 8
        assert "SIGTERM" in str(error) and "--resume" in str(error)


# ---------------------------------------------------------------------------
# Subprocess durability: drain on SIGTERM, survive parent SIGKILL.
# ---------------------------------------------------------------------------

#: A sweep driver run as a child process. Its executor computes the
#: same records as :func:`ok_executor` (plus a real-time stall so the
#: test can interrupt mid-run), so journals written by the child and by
#: the in-process resume must be byte-identical.
_DRIVER = textwrap.dedent("""\
    import sys, time
    sys.path.insert(0, {src!r})
    from repro.errors import SweepInterrupted
    from repro.harness import Sweep

    def executor(key, budget_s=None):
        time.sleep(0.2)
        return {{"x": key["i"] * 10}}

    cells = [{{"i": i}} for i in range(8)]
    try:
        Sweep("s", journal={journal!r}, jobs={jobs},
              wall_deadline_s=30).run(cells, executor)
    except SweepInterrupted:
        sys.exit(8)
    sys.exit(0)
""")


def _stalling_executor(key, budget_s=None):
    time.sleep(0.2)
    return {"x": key["i"] * 10}


def _launch(journal, jobs):
    script = _DRIVER.format(src=SRC, journal=str(journal), jobs=jobs)
    return subprocess.Popen([sys.executable, "-c", script],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _wait_for_records(journal, n, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if journal.exists() \
                and len(journal.read_text().splitlines()) >= 1 + n:
            return
        time.sleep(0.02)
    raise AssertionError(f"journal never reached {n} records")


class TestProcessDurability:
    def _clean_reference(self, tmp_path):
        reference = tmp_path / "reference.jsonl"
        Sweep("s", journal=reference).run(keys(8), _stalling_executor)
        return reference.read_bytes()

    def test_sigterm_drains_and_resume_finishes(self, tmp_path):
        journal = tmp_path / "drained.jsonl"
        child = _launch(journal, jobs=2)
        try:
            _wait_for_records(journal, 1)
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=30) == 8
        finally:
            if child.poll() is None:
                child.kill()
        # The drained journal is a valid prefix; resume finishes it.
        resumed = Sweep("s", journal=journal, resume=True).run(
            keys(8), _stalling_executor)
        assert all(record.ok for record in resumed)
        assert resumed.replayed >= 1
        assert journal.read_bytes() == self._clean_reference(tmp_path)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_sigkilled_parent_resumes_byte_identical(self, tmp_path, jobs):
        journal = tmp_path / "killed.jsonl"
        child = _launch(journal, jobs=jobs)
        try:
            _wait_for_records(journal, 2)
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
        resumed = Sweep("s", journal=journal, resume=True).run(
            keys(8), _stalling_executor)
        assert all(record.ok for record in resumed)
        assert resumed.replayed >= 2
        assert journal.read_bytes() == self._clean_reference(tmp_path)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads worker pids from /proc")
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_workers_die_with_a_sigkilled_parent(self, tmp_path, jobs):
        journal = tmp_path / "orphans.jsonl"
        child = _launch(journal, jobs=jobs)
        workers = []
        try:
            _wait_for_records(journal, 1)
            workers = _children(child.pid)
            assert len(workers) == jobs
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
            deadline = time.monotonic() + 10.0
            while any(map(_running, workers)) \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _running(pid)]
        finally:
            if child.poll() is None:
                child.kill()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


def _children(pid) -> list:
    """Pids of ``pid``'s live children (its supervised workers)."""
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _stat_fields(int(entry.name))
            if stat and int(stat[1]) == pid and stat[0] != "Z":
                children.append(int(entry.name))
    return children


def _stat_fields(pid) -> list:
    """``/proc/<pid>/stat`` after the command name (state, ppid, ...);
    empty once the process is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return []


def _running(pid) -> bool:
    """Is ``pid`` a live process (gone or a zombie counts as dead)?"""
    stat = _stat_fields(pid)
    return bool(stat) and stat[0] != "Z"


def _pid_executor(key, budget_s=None):
    return {"pid": os.getpid()}


class TestSupervisorPoolReuse:
    """PR-9: one warm pool serves back-to-back sweeps (and the server)."""

    def test_back_to_back_sweeps_byte_identical_to_fresh_pools(
            self, tmp_path):
        from repro.harness import SupervisorPool

        fresh_a = tmp_path / "fresh_a.jsonl"
        fresh_b = tmp_path / "fresh_b.jsonl"
        Sweep("a", journal=fresh_a, jobs=2).run(keys(6), ok_executor)
        Sweep("b", journal=fresh_b, jobs=2).run(keys(4), ok_executor)

        warm_a = tmp_path / "warm_a.jsonl"
        warm_b = tmp_path / "warm_b.jsonl"
        pool = SupervisorPool(jobs=2).start()
        try:
            result_a = Sweep("a", journal=warm_a, pool=pool).run(
                keys(6), ok_executor)
            result_b = Sweep("b", journal=warm_b, pool=pool).run(
                keys(4), ok_executor)
        finally:
            pool.close()
        assert all(record.ok for record in result_a)
        assert all(record.ok for record in result_b)
        assert warm_a.read_bytes() == fresh_a.read_bytes()
        assert warm_b.read_bytes() == fresh_b.read_bytes()

    def test_workers_stay_warm_across_sweeps(self, tmp_path):
        from repro.harness import SupervisorPool

        pool = SupervisorPool(jobs=2).start()
        try:
            first = Sweep("p1", pool=pool).run(keys(4), _pid_executor)
            second = Sweep("p2", pool=pool).run(keys(4), _pid_executor)
        finally:
            pool.close()
        pids_first = {record.value["pid"] for record in first}
        pids_second = {record.value["pid"] for record in second}
        # The second sweep ran on the same worker processes: no forks
        # between runs.
        assert pids_second <= pids_first

    def test_submit_drain_close_lifecycle(self):
        from repro.harness import CellPolicy, SupervisorPool

        pool = SupervisorPool(jobs=2).start()
        tickets = [
            pool.submit({"i": i}, f"cell-{i}", ok_executor, CellPolicy(),
                        index=i)
            for i in range(5)
        ]
        assert pool.drain(timeout=30.0)
        cells = [ticket.wait(timeout=10.0) for ticket in tickets]
        assert [cell.record.key for cell in cells] == keys(5)
        assert all(cell.record.ok for cell in cells)
        assert pool.outstanding() == 0
        pool.close()
        with pytest.raises(ReproError):
            pool.submit({"i": 9}, "late", ok_executor, CellPolicy())

    def test_per_task_wall_deadline_on_a_default_pool(self):
        from repro.harness import CellPolicy, SupervisorPool

        pool = SupervisorPool(jobs=1).start()
        try:
            # A pool has no deadline of its own: each task brings one.
            ticket = pool.submit(
                {"i": 0}, "hung", _stalling_sleep_executor, CellPolicy(),
                wall_deadline_s=0.5)
            cell = ticket.wait(timeout=30.0)
            assert cell.record.status == "timeout"
            assert cell.record.wall_clock
            # The pool survives the kill: a follow-up task completes.
            follow = pool.submit({"i": 1}, "after", ok_executor,
                                 CellPolicy())
            assert follow.wait(timeout=30.0).record.ok
        finally:
            pool.close()


def _stalling_sleep_executor(key, budget_s=None):
    time.sleep(3600)
    return {"x": 0}
