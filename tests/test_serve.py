"""The serving layer: wire contract, admission, jobs, live server, drain.

Coverage map:

* ``TestApiParsing`` — the typed request parsers and error taxonomy
  (every rejection is a 400 ``ApiError`` before any work is admitted).
* ``TestAdmission`` — bounded queue, wall-deadline cap, memory budget,
  drain refusals; all against the controller alone.
* ``TestJobRegistry`` — journal-backed job state: restart recovery,
  stale-job folding, duplicate in-flight journal conflicts.
* ``TestLiveServer`` — a real :class:`ExperimentService` on an
  ephemeral port, driven through :class:`ServeClient`: routes, gate
  experiments with pinned-cache-hit accounting, synchronous sweeps,
  the concurrent duplicate-journal 409, and the NDJSON event stream.
* ``TestServeDrain`` — the ``repro serve`` subprocess: SIGTERM
  mid-sweep exits 8 and leaves the job resumable; a restarted server
  resumes it to a journal byte-identical to an uninterrupted run;
  idle SIGTERM exits 0.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.harness.sweep import Sweep
from repro.harness.tables import table5
from repro.serve import (
    STATE_DONE,
    STATE_INTERRUPTED,
    AdmissionController,
    AdmissionPolicy,
    ApiError,
    ExperimentService,
    JobConflict,
    JobRegistry,
    ServeClient,
)
from repro.serve.api import (
    parse_body,
    parse_experiment_request,
    parse_perf_request,
    parse_sweep_request,
)
from repro.serve.app import MAX_BODY_BYTES
from repro.serve.loadgen import build_plan

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _raises_api(fn, *args, status=400, code=None):
    with pytest.raises(ApiError) as excinfo:
        fn(*args)
    assert excinfo.value.status == status
    if code is not None:
        assert excinfo.value.code == code
    return excinfo.value


class TestApiParsing:
    def test_body_must_be_a_json_object(self):
        assert parse_body(b"") == {}
        _raises_api(parse_body, b"not json")
        _raises_api(parse_body, b"[1, 2]")

    def test_experiment_needs_exactly_one_of_spec_or_gate(self):
        _raises_api(parse_experiment_request, {})
        _raises_api(parse_experiment_request, {
            "spec": {"algorithm": "bfs", "framework": "native",
                     "dataset": "rmat_mini"},
            "gate": {"algorithm": "bfs", "framework": "native"}})

    def test_gate_cell_is_validated(self):
        parsed = parse_experiment_request(
            {"gate": {"algorithm": "pagerank", "framework": "native"}})
        assert parsed["kind"] == "gate"
        assert parsed["gate"] == {"algorithm": "pagerank",
                                  "framework": "native", "nodes": 1}
        assert parsed["wait"] is True
        _raises_api(parse_experiment_request,
                    {"gate": {"algorithm": "nope", "framework": "native"}})
        _raises_api(parse_experiment_request,
                    {"gate": {"algorithm": "bfs", "framework": "nope"}})
        _raises_api(parse_experiment_request,
                    {"gate": {"algorithm": "bfs", "framework": "native",
                              "nodes": 0}})

    def test_spec_form_requires_catalog_dataset(self):
        parsed = parse_experiment_request(
            {"spec": {"algorithm": "bfs", "framework": "native",
                      "dataset": "rmat_mini"}})
        assert parsed["kind"] == "experiment"
        assert parsed["spec"]["dataset"] == "rmat_mini"
        _raises_api(parse_experiment_request,
                    {"spec": {"algorithm": "bfs", "framework": "nope",
                              "dataset": "rmat_mini"}})
        for algorithm, dataset in (("bfs", "nosuch"), ("bfs", "netflix"),
                                   ("collaborative_filtering", "facebook")):
            error = _raises_api(parse_experiment_request, {
                "spec": {"algorithm": algorithm, "framework": "native",
                         "dataset": dataset}}, code="bad-request")
            assert f"got {dataset!r}; known: " in str(error)

    def test_sweep_request_validation(self):
        parsed = parse_sweep_request({"target": "table5"})
        assert parsed["wait"] is False       # sweeps are async by default
        assert parsed["max_retries"] == 2
        _raises_api(parse_sweep_request, {"target": "table99"})
        _raises_api(parse_sweep_request,
                    {"target": "table5", "max_retries": -1})

    def test_perf_request_validation(self):
        parsed = parse_perf_request({})
        assert parsed["framework"] == "native"
        assert parsed["node_counts"] == [1]
        _raises_api(parse_perf_request, {"framework": "nope"})
        _raises_api(parse_perf_request, {"node_counts": [0]})
        _raises_api(parse_perf_request, {"node_counts": "4"})

    def test_typed_fields_reject_wrong_types(self):
        _raises_api(parse_sweep_request,
                    {"target": "table5", "wait": "yes"})
        _raises_api(parse_sweep_request,
                    {"target": "table5", "algorithms": "pagerank"})

    def test_error_payload_shape(self):
        error = ApiError(409, "conflict", "busy", journal="/tmp/j.jsonl")
        assert error.payload() == {
            "error": "conflict", "message": "busy",
            "detail": {"journal": "/tmp/j.jsonl"}}


class TestAdmission:
    def test_bounded_queue_overflows_to_503(self):
        controller = AdmissionController(AdmissionPolicy(max_jobs=1))
        slot = controller.admit(None, None)
        error = _raises_api(controller.admit, None, None,
                            status=503, code="overloaded")
        assert "queue" in str(error) or "capacity" in str(error)
        slot.release()
        controller.admit(None, None).release()
        assert controller.stats()["rejected"]["overloaded"] == 1

    def test_deadline_above_cap_is_a_400_timeout(self):
        controller = AdmissionController(AdmissionPolicy(max_deadline_s=10))
        _raises_api(controller.admit, 11, None, status=400, code="timeout")
        _raises_api(controller.admit, 0, None, status=400)
        controller.admit(10, None).release()

    def test_memory_budget(self):
        controller = AdmissionController(
            AdmissionPolicy(memory_budget_mb=100))
        # Can never fit: a 400, not a retryable 503.
        _raises_api(controller.admit, None, 101,
                    status=400, code="out-of-memory")
        held = controller.admit(None, 80)
        _raises_api(controller.admit, None, 40,
                    status=503, code="out-of-memory")
        held.release()
        controller.admit(None, 40).release()

    def test_draining_refuses_new_work(self):
        controller = AdmissionController()
        controller.start_drain()
        _raises_api(controller.admit, None, None,
                    status=503, code="overloaded")

    def test_slot_release_is_idempotent(self):
        controller = AdmissionController()
        with controller.admit(None, None) as slot:
            pass
        slot.release()
        assert controller.stats()["active"] == 0


class TestJobRegistry:
    def test_jobs_survive_a_registry_restart(self, tmp_path):
        registry = JobRegistry(tmp_path)
        job = registry.create("gate", {"algorithm": "bfs"})
        registry.transition(job, "running")
        registry.transition(job, STATE_DONE, result={"status": "ok"})
        registry.close()

        reloaded = JobRegistry(tmp_path)
        reloaded.load()
        copy = reloaded.get(job.id)
        assert copy.state == STATE_DONE
        assert copy.result == {"status": "ok"}
        assert copy.request == {"algorithm": "bfs"}
        reloaded.close()

    def test_stale_active_jobs_fold_to_interrupted(self, tmp_path):
        registry = JobRegistry(tmp_path)
        journal = tmp_path / "sweep.jsonl"
        job = registry.create("sweep", {"target": "table5"},
                              journal=journal)
        registry.transition(job, "running")
        registry.close()                      # process "dies" mid-run

        reloaded = JobRegistry(tmp_path)
        reloaded.load()
        copy = reloaded.get(job.id)
        assert copy.state == STATE_INTERRUPTED
        assert copy.error["code"] == "interrupted"
        assert [stale.id for stale in reloaded.resumable_sweeps()] \
            == [job.id]
        reloaded.close()

    def test_duplicate_in_flight_journal_conflicts(self, tmp_path):
        registry = JobRegistry(tmp_path)
        journal = tmp_path / "shared.jsonl"
        first = registry.create("sweep", {}, journal=journal)
        with pytest.raises(JobConflict) as excinfo:
            registry.create("sweep", {}, journal=journal)
        assert excinfo.value.holder == first.id
        # A terminal transition frees the path for the next submission.
        registry.transition(first, STATE_DONE, result={})
        registry.create("sweep", {}, journal=journal)
        registry.close()

    def test_new_ids_continue_past_recovered_ones(self, tmp_path):
        registry = JobRegistry(tmp_path)
        first = registry.create("gate", {})
        registry.close()
        reloaded = JobRegistry(tmp_path)
        reloaded.load()
        assert reloaded.create("gate", {}).id > first.id
        reloaded.close()

    @pytest.mark.parametrize("tail", [
        '{"event": "created", "job": "job-0000',
        '{"event": "journal", "job": "job-000001"}',
    ], ids=["cut-mid-record", "newline-lost"])
    def test_a_torn_tail_does_not_eat_the_next_job(self, tmp_path, tail):
        """The next append must start on a fresh line, not on the
        fragment a mid-write crash left behind."""
        def finish_one_job():
            registry = JobRegistry(tmp_path)
            registry.load()
            job = registry.create("gate", {})
            registry.transition(job, STATE_DONE, result={"status": "ok"})
            registry.close()
            return job.id

        first = finish_one_job()
        journal = tmp_path / "jobs.jsonl"
        with open(journal, "a") as handle:
            handle.write(tail)
        second = finish_one_job()
        assert second > first

        reloaded = JobRegistry(tmp_path)
        assert reloaded.load() == 2
        assert reloaded.get(second).state == STATE_DONE
        reloaded.close()
        lines = journal.read_text().splitlines()
        assert len(lines) >= 4 and all(json.loads(line) for line in lines)

    @pytest.mark.parametrize("line, first", [
        ("{garbage", True), ("5", True), ("[1]", True), ("null", True),
        ("5", False),
    ], ids=["garbage", "int", "list", "null", "last-int"])
    def test_garbage_mid_journal_is_a_typed_error(self, tmp_path, line,
                                                   first):
        registry = JobRegistry(tmp_path)
        registry.create("gate", {})
        registry.close()
        journal = tmp_path / "jobs.jsonl"
        text = journal.read_text()
        journal.write_text(line + "\n" + text if first
                           else text + line + "\n")
        with pytest.raises(ReproError, match="corrupt mid-journal"):
            JobRegistry(tmp_path).load()

    @pytest.mark.parametrize("line", [
        {"event": "created", "job": ["x"], "t": 1},
        {"event": "state", "job": "JOB", "state": [1], "t": 1},
    ], ids=["list-job", "list-state"])
    def test_a_mistyped_field_is_a_typed_error(self, tmp_path, line):
        # Unrefused, the first raised a raw TypeError in load() and the
        # second one in counts(), behind /stats.
        registry = JobRegistry(tmp_path)
        job = registry.create("gate", {})
        registry.close()
        entry = {**line, "job": job.id} if line["job"] == "JOB" else line
        with (tmp_path / "jobs.jsonl").open("a") as handle:
            handle.write(json.dumps(entry) + "\n")
        with pytest.raises(ReproError, match="corrupt"):
            JobRegistry(tmp_path).load()


# ---------------------------------------------------------------------------
# Live in-process server
# ---------------------------------------------------------------------------


class _LiveServer:
    """An :class:`ExperimentService` on port 0 in a daemon thread."""

    def __init__(self, state_dir, **kwargs):
        kwargs.setdefault("jobs", 1)
        kwargs.setdefault("warm_node_counts", (1,))
        self.service = ExperimentService(port=0, state_dir=state_dir,
                                         **kwargs)
        self.ready = threading.Event()
        self.exit_code = None
        self.service.on_ready = lambda _host, _port: self.ready.set()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.exit_code = asyncio.run(self.service.run())

    def __enter__(self):
        self.thread.start()
        assert self.ready.wait(timeout=60), "server did not come up"
        return self

    def __exit__(self, *exc):
        if self.thread.is_alive():
            self.service._loop.call_soon_threadsafe(
                self.service._initiate_drain, int(signal.SIGTERM))
            self.thread.join(timeout=60)
        assert not self.thread.is_alive(), "server did not drain"

    def call(self, method, path, body=None):
        async def _one():
            client = ServeClient(self.service.host, self.service.port,
                                 timeout_s=60)
            try:
                return await client.request(method, path, body)
            finally:
                await client.close()

        return asyncio.run(_one())


@pytest.fixture(scope="class")
def server(request, tmp_path_factory):
    with _LiveServer(tmp_path_factory.mktemp("serve-state")) as live:
        request.cls.server = live
        yield live


@pytest.mark.usefixtures("server")
class TestLiveServer:
    def test_healthz_and_stats(self):
        status, health = self.server.call("GET", "/healthz")
        assert (status, health["status"]) == (200, "ok")
        status, stats = self.server.call("GET", "/stats")
        assert status == 200
        # Warm-up pinned the nodes=1 weak-scaling datasets before the
        # pool forked; the pins (and their keys) are visible here.
        assert stats["cache"]["pinned"]
        assert stats["cache"]["warmed"]
        assert stats["pool"]["jobs"] == 1

    def test_gate_experiment_hits_the_pinned_cache(self):
        before = self.server.call("GET", "/stats")[1]["cache"]["hits"]
        status, job = self.server.call("POST", "/experiments", {
            "gate": {"algorithm": "pagerank", "framework": "native",
                     "nodes": 1}})
        assert status == 200
        assert job["state"] == STATE_DONE
        assert job["result"]["status"] == "ok"
        assert job["result"]["value"]["runtime_s"] > 0
        after = self.server.call("GET", "/stats")[1]["cache"]["hits"]
        # The worker's dataset-cache-hit tracer instant (pinned=True)
        # travelled back in the cell spans and was counted.
        assert after["pinned"] > before["pinned"]

    def test_spec_experiment_and_perf_analyze(self):
        status, job = self.server.call("POST", "/experiments", {
            "spec": {"algorithm": "bfs", "framework": "native",
                     "dataset": "rmat_mini"}})
        assert status == 200 and job["result"]["status"] == "ok"
        status, job = self.server.call("POST", "/perf/analyze", {
            "framework": "giraph", "algorithms": ["pagerank"],
            "node_counts": [1]})
        assert status == 200 and job["state"] == STATE_DONE
        assert job["result"]["value"]["attributions"]

    def test_perf_analyze_is_one_payload_on_both_routes(self, capsys):
        # `repro perf analyze --json` and the served job are both
        # perf.analyze(...).to_dict(): same keys, same numbers.
        import json

        from repro.cli import main

        status, job = self.server.call("POST", "/perf/analyze", {
            "framework": "giraph", "algorithms": ["pagerank", "bfs"],
            "node_counts": [1, 4]})
        assert status == 200 and job["state"] == STATE_DONE
        assert main(["perf", "analyze", "--framework", "giraph",
                     "--algorithms", "pagerank,bfs", "--nodes", "1,4",
                     "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert job["result"]["value"] == printed
        assert len(printed["attributions"]) == 4
        assert set(printed["roofline"]["bfs"]) == {"1", "4"}

    def test_out_of_range_parameter_is_a_400(self):
        # Range checks run when the spec is parsed, so a bad value is
        # rejected typed (400 bad-request) before any job is queued.
        for params in ({"iterations": 0}, {"damping": 1.5}):
            status, payload = self.server.call("POST", "/experiments", {
                "spec": {"algorithm": "pagerank", "framework": "galois",
                         "dataset": "rmat_mini", "params": params}})
            assert (status, payload["error"]) == (400, "bad-request")
        status, payload = self.server.call("POST", "/experiments", {
            "spec": {"algorithm": "bfs", "framework": "native",
                     "dataset": "rmat_mini", "params": {"source": -1}}})
        assert (status, payload["error"]) == (400, "bad-request")
        assert "source -1 out of range" in payload["message"]

    def test_a_spec_that_cannot_run_is_a_400_and_no_job(self):
        before = len(self.server.call("GET", "/jobs")[1]["jobs"])
        for dataset in ("nosuch", "netflix"):
            status, payload = self.server.call("POST", "/experiments", {
                "spec": {"algorithm": "bfs", "framework": "native",
                         "dataset": dataset}})
            assert (status, payload["error"]) == (400, "bad-request")
        assert len(self.server.call("GET", "/jobs")[1]["jobs"]) == before

    def test_the_request_grammar_probes_are_400s_and_no_job(self):
        """Each of these used to close the connection with no answer
        (and an unhandled exception in the daemon) or be journaled."""
        unhandled = []
        loop = self.server.service._loop
        loop.call_soon_threadsafe(
            loop.set_exception_handler,
            lambda _loop, context: unhandled.append(context))
        spec = {"algorithm": "bfs", "framework": "native",
                "dataset": "rmat_mini"}
        before = len(self.server.call("GET", "/jobs")[1]["jobs"])
        for path, body in (
                ("/experiments", {"spec": {**spec, "scale_factor": "x"}}),
                ("/experiments", {"spec": {**spec, "faults": 5}}),
                ("/experiments", {"spec": {**spec, "nodes": True}}),
                ("/experiments", {"spec": {**spec, "fault_seed": "x"}}),
                ("/sweeps", {"target": "table5", "algorithms": ["nosuch"]}),
                ("/perf/analyze", {"node_counts": [0]})):
            status, payload = self.server.call("POST", path, body)
            assert (status, payload["error"]) == (400, "bad-request"), body
        assert len(self.server.call("GET", "/jobs")[1]["jobs"]) == before
        assert not unhandled

    def _raw(self, head: bytes, body: bytes = b"") -> bytes:
        """Everything the server answers to one hand-written request."""
        with socket.create_connection(
                (self.server.service.host, self.server.service.port),
                timeout=60) as conn:
            conn.sendall(head + body)
            chunks = []
            while not b"".join(chunks).endswith(b"}\n"):
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    def test_an_unusable_content_length_is_a_400_and_a_close(self):
        for value in ("abc", "-5", str(MAX_BODY_BYTES + 1)):
            answer = self._raw(
                f"POST /experiments HTTP/1.1\r\nContent-Length: {value}"
                "\r\n\r\n".encode())
            assert answer.startswith(b"HTTP/1.1 400 "), (value, answer)
            assert b"Connection: close" in answer
            assert b'"error": "bad-request"' in answer

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.integers(-3, 300).map(str),
        st.text(st.characters(min_codepoint=32, max_codepoint=255),
                max_size=8)))
    def test_any_content_length_is_a_400_or_a_served_request(self, value):
        unhandled = []
        loop = self.server.service._loop
        loop.call_soon_threadsafe(
            loop.set_exception_handler,
            lambda _loop, context: unhandled.append(context))
        try:
            length = int(value.strip() or 0)
        except ValueError:
            length = -1
        served = 0 <= length <= MAX_BODY_BYTES
        answer = self._raw(
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
            b"Content-Length: " + value.encode("latin-1") + b"\r\n\r\n",
            b"x" * length if served else b"")
        assert answer.startswith(
            b"HTTP/1.1 200 " if served else b"HTTP/1.1 400 "), (value, answer)
        assert not unhandled

    def test_dnf_outcome_is_a_result_not_an_error(self):
        status, job = self.server.call("POST", "/experiments", {
            "spec": {"algorithm": "pagerank", "framework": "giraph",
                     "dataset": "rmat_mini", "deadline_s": 1e-9}})
        assert status == 200
        assert job["state"] == STATE_DONE
        assert job["result"]["status"] == "timeout"

    def test_synchronous_sweep_completes(self):
        status, job = self.server.call("POST", "/sweeps", {
            "target": "table5", "algorithms": ["pagerank"],
            "frameworks": ["native"], "wait": True})
        assert status == 200
        assert job["state"] == STATE_DONE
        report = job["result"]["completeness"]
        assert report["coverage"] == 1.0
        status, fetched = self.server.call("GET", f"/jobs/{job['job']}")
        assert status == 200 and fetched["state"] == STATE_DONE

    def test_sweeps_with_algorithms_on_figure5_are_rejected(self):
        status, payload = self.server.call("POST", "/sweeps", {
            "target": "figure5", "algorithms": ["pagerank"]})
        assert (status, payload["error"]) == (400, "bad-request")

    def test_concurrent_duplicate_journal_is_a_409(self, tmp_path):
        journal = str(tmp_path / "dup.jsonl")
        body = {"target": "table5", "algorithms": ["bfs"],
                "frameworks": ["native"], "journal": journal,
                "wait": False}

        async def _both():
            first = ServeClient(self.server.service.host,
                                self.server.service.port, timeout_s=60)
            second = ServeClient(self.server.service.host,
                                 self.server.service.port, timeout_s=60)
            try:
                return await asyncio.gather(
                    first.request("POST", "/sweeps", body),
                    second.request("POST", "/sweeps", body))
            finally:
                await first.close()
                await second.close()

        outcomes = sorted(asyncio.run(_both()), key=lambda out: out[0])
        assert [status for status, _ in outcomes] == [202, 409]
        accepted, refused = outcomes[0][1], outcomes[1][1]
        assert refused["error"] == "conflict"
        assert refused["detail"]["holder"] == accepted["job"]
        # The winner still runs to completion.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            _status, job = self.server.call("GET",
                                            f"/jobs/{accepted['job']}")
            if job["state"] == STATE_DONE:
                break
            time.sleep(0.05)
        assert job["state"] == STATE_DONE

    def test_event_stream_replays_history_and_follows(self):
        status, job = self.server.call("POST", "/sweeps", {
            "target": "table5", "algorithms": ["wcc"],
            "frameworks": ["native"], "wait": True})
        assert status == 200

        async def _collect():
            client = ServeClient(self.server.service.host,
                                 self.server.service.port, timeout_s=60)
            try:
                return [event async for event
                        in client.stream_events(job["job"])]
            finally:
                await client.close()

        events = asyncio.run(_collect())
        assert any(event.get("event") == "cell" for event in events)
        assert events[-1]["state"] == STATE_DONE

    def test_unknown_routes_and_methods(self):
        assert self.server.call("GET", "/nope")[0] == 404
        assert self.server.call("DELETE", "/stats")[0] == 405
        assert self.server.call("GET", "/jobs/job-999999")[0] == 404
        status, payload = self.server.call("POST", "/experiments",
                                           {"gate": {"algorithm": "bfs"}})
        assert (status, payload["error"]) == (400, "bad-request")

    def test_loadgen_plan_is_deterministic(self):
        assert build_plan(3, 40) == build_plan(3, 40)
        assert build_plan(3, 40) != build_plan(4, 40)
        kinds = {kind for kind, _path, _body in build_plan(0, 200)}
        assert kinds == {"gate", "perf-analyze", "sweep"}


def test_a_closed_connection_reaches_eof(tmp_path):
    """A worker forked while a connection is open must not hold it: the
    client of a ``Connection: close`` request reads to EOF."""
    body = json.dumps({"gate": {"algorithm": "bfs",
                                "framework": "native"}}).encode()
    with _LiveServer(tmp_path / "state", warm=False) as live:
        with socket.create_connection(
                (live.service.host, live.service.port), timeout=10) as conn:
            conn.sendall(b"POST /experiments HTTP/1.1\r\n"
                         b"Connection: close\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body) + body)
            answer = b""
            while True:
                chunk = conn.recv(65536)     # socket.timeout fails the test
                if not chunk:
                    break
                answer += chunk
    assert answer.startswith(b"HTTP/1.1 200 ") and answer.endswith(b"}\n")


class TestLiveServerAdmission:
    def test_overloaded_and_draining_rejections_over_http(self, tmp_path):
        policy = AdmissionPolicy(max_jobs=1)
        with _LiveServer(tmp_path / "state", policy=policy,
                         warm=False) as live:
            status, job = live.call("POST", "/sweeps", {
                "target": "table5", "wait": False})
            assert status == 202
            status, payload = live.call("POST", "/experiments", {
                "gate": {"algorithm": "bfs", "framework": "native"}})
            assert (status, payload["error"]) == (503, "overloaded")
            live.service._loop.call_soon_threadsafe(
                live.service._initiate_drain, int(signal.SIGTERM))
            live.thread.join(timeout=60)
            # Drain interrupted the running sweep: exit code 8, and the
            # journal-backed job is marked resumable for the restart.
            assert live.exit_code == 8
        registry = JobRegistry(tmp_path / "state")
        registry.load()
        assert [stale.id for stale in registry.resumable_sweeps()] \
            == [job["job"]]
        registry.close()


# ---------------------------------------------------------------------------
# Subprocess drain + resume (the satellite-3 contract)
# ---------------------------------------------------------------------------


def _spawn_server(state_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--jobs", "1", "--state-dir", str(state_dir)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    announce = child.stdout.readline()
    assert "repro-serve listening" in announce, announce
    port = int(announce.split("http://", 1)[1].split(" ")[0]
               .rsplit(":", 1)[1])
    return child, port


def _call(port, method, path, body=None):
    async def _one():
        client = ServeClient("127.0.0.1", port, timeout_s=60)
        try:
            return await client.request(method, path, body)
        finally:
            await client.close()

    return asyncio.run(_one())


def _wait_for_state(port, job_id, states, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, job = _call(port, "GET", f"/jobs/{job_id}")
        assert status == 200
        if job["state"] in states:
            return job
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} never reached {states}")


_SWEEP = {"target": "table5", "wait": False}      # full table5: ~100 cells


class TestServeDrain:
    def test_idle_sigterm_drains_clean(self, tmp_path):
        child, _port = _spawn_server(tmp_path / "state")
        try:
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=60) == 0
        finally:
            if child.poll() is None:
                child.kill()

    def test_sigterm_mid_sweep_exits_8_and_restart_resumes(self, tmp_path):
        state = tmp_path / "state"
        child, port = _spawn_server(state)
        try:
            status, job = _call(port, "POST", "/sweeps", dict(_SWEEP))
            assert status == 202
            journal = Path(job["journal"])
            # Let a prefix of cells land in the journal, then SIGTERM.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if journal.exists() \
                        and len(journal.read_text().splitlines()) >= 3:
                    break
                time.sleep(0.05)
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=60) == 8
        finally:
            if child.poll() is None:
                child.kill()
        interrupted = journal.read_bytes()
        assert interrupted                       # a non-empty prefix

        # The restarted server reports the job interrupted and resumes
        # it automatically; the finished journal must be byte-identical
        # to an uninterrupted in-process run of the same sweep.
        child, port = _spawn_server(state)
        try:
            job = _wait_for_state(port, job["job"],
                                  (STATE_DONE, STATE_INTERRUPTED))
            resumed_id = None
            for entry in _call(port, "GET", "/jobs")[1]["jobs"]:
                if entry["request"].get("resumed_from") == job["job"]:
                    resumed_id = entry["job"]
            assert job["state"] == STATE_INTERRUPTED
            assert resumed_id is not None
            finished = _wait_for_state(port, resumed_id, (STATE_DONE,))
            # Full table5 legitimately contains DNF cells (coverage
            # < 1); completeness means every cell was accounted for.
            report = finished["result"]["completeness"]
            assert report["executed"] + report["replayed"] \
                == report["cells"]
            assert not report["quarantined"]
            assert finished["result"]["data"]
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=60) == 0
        finally:
            if child.poll() is None:
                child.kill()

        reference = tmp_path / "reference.jsonl"
        table5(sweep=Sweep("table5", journal=reference))
        assert journal.read_bytes() == reference.read_bytes()
        assert len(journal.read_bytes()) > len(interrupted)
