"""The five workloads (why each exists is in ``BENCHMARK.json``).

Each workload generates its inputs from ``--seed`` through
:func:`repro.rng.derive` and hands the program only those inputs. The
same layers are exercised in opposite ways on purpose: ``cold_*`` is
almost all ``datagen`` + ``graph`` construction, ``hot_cells`` has none;
``table5_sweep`` is thousands of tiny supersteps on one partition,
``hot_cells`` is few large ones on four; ``serve_mixed`` runs the same
tiny cells behind HTTP, admission, the job journal and the pool.

Program entry points are called through their module (``harness.run``,
not a name imported here) so the traced run's wrappers, which replace
module attributes, see every call.
"""

from __future__ import annotations

import asyncio
import functools
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext

from repro import datagen, harness, serve
from repro.algorithms.registry import ALGORITHMS
from repro.harness.datasets import UNDIRECTED_ALGORITHMS, clear_proxy_caches
from repro.harness.sweep import cell_id
from repro.perf.baselines import GATE_FRAMEWORKS, GATE_NODE_COUNTS
from repro.rng import derive

from . import check, env
from .measure import Measurement, root_span


def _seed_of(seed: int, *labels) -> int:
    return int(derive(seed, "bench", *labels).integers(1 << 31))


class Workload:
    """Set-up, identical units, verification, tear-down."""

    name = None

    def __init__(self, seed: int, private, in_process: bool = False):
        self.seed = seed
        self.private = private
        #: The traced run keeps every cell in this process (worker spans
        #: cannot cross a fork); only ``table5_sweep`` cares.
        self.in_process = in_process
        #: Set for the traced measurement: the span recorder, and its
        #: instant hook for entry points whose own ``tracer=`` would
        #: shadow the module-level one.
        self.recorder = None
        self.hook = None

    def plan(self) -> dict:
        """The generated inputs, JSON-safe: identical for equal seeds."""
        raise NotImplementedError

    def expected_key(self) -> str:
        return str(self.seed)

    def setup(self):
        raise NotImplementedError

    def prepare_unit(self, state, index) -> None:
        """Untimed work between units."""

    def unit(self, state, index, m) -> None:
        raise NotImplementedError

    def unit_span(self):
        return root_span(self.recorder, "bench.unit")

    def run_units(self, state, seconds, min_units, m, probe) -> None:
        started = time.perf_counter()
        index = 0
        while index < min_units or time.perf_counter() - started < seconds:
            self.prepare_unit(state, index)
            before = probe()
            with self.unit_span():
                unit_started = time.perf_counter()
                self.unit(state, index, m)
                raw = time.perf_counter() - unit_started
            m.close_unit(raw, before, probe())
            index += 1

    def verify(self, state, m) -> None:
        """Checks beyond the per-op ones (run once, after the units)."""

    def teardown(self, state) -> None:
        pass

    def probes(self, traced) -> dict:
        """Per-layer figures no unit exercises, measured untraced after
        the traced run (``traced`` is its :class:`Measurement`)."""
        return {}


# ---------------------------------------------------------------------------
# cold_dense / cold_sharded
# ---------------------------------------------------------------------------


class ColdDense(Workload):
    """Empty cache -> R-MAT scale 16 -> bfs, wcc, pagerank on native@4."""

    name = "cold_dense"
    SCALE, EDGE_FACTOR, NODES = 16, 16, 4
    ALGORITHMS = ("bfs", "wcc", "pagerank")
    #: Distinct graphs cycled through, so every run (>= 3 units) sees the
    #: same cell set and repeats prove determinism.
    SLOTS = 3

    def plan(self) -> dict:
        # Shared with cold_sharded on purpose: same graphs, so the two
        # workloads' simulated outcomes must be identical.
        return {"scale": self.SCALE, "edge_factor": self.EDGE_FACTOR,
                "nodes": self.NODES, "algorithms": list(self.ALGORITHMS),
                "graph_seeds": [_seed_of(self.seed, "cold", slot)
                                for slot in range(self.SLOTS)]}

    def setup(self):
        # All a one-shot user pays before the first call: a fresh
        # interpreter importing the program. (Nothing else can be
        # prepared — every unit starts from an empty cache.)
        subprocess.run([sys.executable, "-c",
                        "import sys; sys.path.insert(0, sys.argv[1]); "
                        "import repro.harness, repro.datagen", str(env.SRC)],
                       check=True)
        return {"graph_seeds": self.plan()["graph_seeds"]}

    def prepare_unit(self, state, index) -> None:
        env.empty_cache(self.private)

    def build(self, graph_seed):
        return datagen.rmat_graph(self.SCALE, self.EDGE_FACTOR,
                                  seed=graph_seed, directed=False)

    def unit(self, state, index, m) -> None:
        slot = index % self.SLOTS
        started = time.perf_counter()
        graph = self.build(state["graph_seeds"][slot])
        m.op(f"build#g{slot}", time.perf_counter() - started, cell=False,
             timing_id="build")
        for algorithm in self.ALGORITHMS:
            spec = harness.ExperimentSpec(algorithm, "native", graph,
                                          nodes=self.NODES)
            started = time.perf_counter()
            result = harness.run(spec)
            key = f"{algorithm}/native@{self.NODES}"
            m.op(f"{key}#g{slot}", time.perf_counter() - started,
                 check.run_tuple(result), expect="ok", timing_id=key)


class ColdSharded(ColdDense):
    """The same spec streamed to an on-disk sharded CSR and read back
    under an LRU a quarter the size of the graph's target bytes."""

    name = "cold_sharded"

    def build(self, graph_seed):
        graph = datagen.rmat_graph_sharded(self.SCALE, self.EDGE_FACTOR,
                                           seed=graph_seed, directed=False)
        graph.memory_budget_mb = graph.num_edges * 8 / 4 / 2 ** 20
        return graph


# ---------------------------------------------------------------------------
# hot_cells
# ---------------------------------------------------------------------------


class HotCells(Workload):
    """Resident graphs; all algorithms x one framework per engine family."""

    name = "hot_cells"
    SCALE = 14
    FRAMEWORKS = (("native", 4), ("graphlab", 4), ("giraph", 4),
                  ("combblas", 4), ("socialite", 4), ("galois", 1))
    #: Typed expressibility failures (PR 7): results, not errors.
    UNSUPPORTED = {("k_core", "socialite"),
                   ("label_propagation", "socialite")}

    def plan(self) -> dict:
        return {"scale": self.SCALE,
                "graph_seed": _seed_of(self.seed, "hot"),
                "cells": [f"{algorithm}/{framework}@{nodes}"
                          for algorithm in ALGORITHMS
                          for framework, nodes in self.FRAMEWORKS]}

    def setup(self):
        seed, scale = self.plan()["graph_seed"], self.SCALE
        undirected = datagen.rmat_graph(scale, 16, seed=seed, directed=False)
        datasets = {
            "pagerank": datagen.rmat_graph(scale, 16, seed=seed),
            "triangle_counting":
                datagen.rmat_triangle_graph(scale - 1, 16, seed=seed),
            "collaborative_filtering":
                datagen.netflix_like_ratings(scale - 1, num_items=290,
                                             seed=seed),
        }
        datasets.update({algorithm: undirected
                         for algorithm in UNDIRECTED_ALGORITHMS})
        return {"datasets": datasets, "last": {}}

    def unit(self, state, index, m, trace_factory=None) -> None:
        for algorithm in ALGORITHMS:
            dataset = state["datasets"][algorithm]
            for framework, nodes in self.FRAMEWORKS:
                spec = harness.ExperimentSpec(algorithm, framework, dataset,
                                              nodes=nodes)
                trace = trace_factory() if trace_factory else None
                started = time.perf_counter()
                result = harness.run(spec, trace=trace)
                elapsed = time.perf_counter() - started
                unsupported = (algorithm, framework) in self.UNSUPPORTED
                key = f"{algorithm}/{framework}@{nodes}"
                # Unsupported cells return before any work: they count as
                # ops but would only add noise to the latency figures.
                m.op(key, None if unsupported else elapsed,
                     check.run_tuple(result),
                     expect="unsupported" if unsupported else "ok")
                if unsupported:
                    m.extras.setdefault("fixed_s", []).append(elapsed)
                state["last"][(algorithm, framework)] = result

    def verify(self, state, m) -> None:
        """Every framework's values against the golden references."""
        curves = {}
        for algorithm in ALGORITHMS:
            dataset = state["datasets"][algorithm]
            reference = None
            for framework, nodes in self.FRAMEWORKS:
                result = state["last"].get((algorithm, framework))
                if result is None or not result.ok:
                    continue
                key = f"{algorithm}/{framework}@{nodes}"
                if algorithm == "collaborative_filtering":
                    curves[framework] = \
                        list(result.result.extras["rmse_curve"])
                    continue
                if reference is None:
                    reference = check.reference_values(
                        algorithm, dataset,
                        harness.default_params(algorithm, dataset))
                if not check.values_agree(algorithm, result.result.values,
                                          reference):
                    m.failures.append(f"{key}: values differ from the "
                                      "repro.algorithms reference")
        for framework in check.cf_disagreements(curves):
            m.failures.append(f"collaborative_filtering/{framework}: RMSE "
                              "curve does not descend or disagrees with "
                              "the other gradient-descent ports")

    def probes(self, traced) -> dict:
        """Cost of the program's own recorder, and of perf analysis."""
        from repro import perf
        from repro.observability import Tracer

        state = self.setup()
        passes = {}
        for label, factory in (("off", None), ("on", Tracer)):
            started = time.perf_counter()
            self.unit(state, 0, Measurement(), trace_factory=factory)
            passes[label] = time.perf_counter() - started
        started = time.perf_counter()
        perf.roofline_table(framework="native", node_counts=(1,))
        perf.attribute_cell("pagerank", "native", nodes=1)
        analyze_s = time.perf_counter() - started
        return {"observability.tracer_on_ratio": passes["on"] / passes["off"],
                "perf.analyze_s": analyze_s}


# ---------------------------------------------------------------------------
# table5_sweep
# ---------------------------------------------------------------------------


def _noop_cell(key, budget_s=None):
    """Pool probe executor (module-level: it ships pickled to workers)."""
    return key["i"]


class Table5Sweep(Workload):
    """The paper's Table 5 through the supervised pool and the journal.

    144 of its 180 cells: triangle counting and CF are left out — they
    are kernel-bound, ``hot_cells`` already measures them, and without
    them three passes fit the run budget while the cells that remain are
    the superstep-heavy ones this workload exists for. The inputs are
    the fixed catalog proxies, so ``--seed`` changes nothing here and
    one expected entry serves every seed.
    """

    name = "table5_sweep"
    JOBS = 2
    ALGORITHMS = ("pagerank", "bfs", "wcc", "sssp", "k_core",
                  "label_propagation")

    def plan(self) -> dict:
        return {"target": "table5", "algorithms": list(self.ALGORITHMS),
                "jobs": self.jobs()}

    def expected_key(self) -> str:
        return check.ANY_SEED

    def jobs(self) -> int:
        return 1 if self.in_process else self.JOBS

    def setup(self):
        # The native column from an empty cache touches every dataset
        # variant the sweep needs, through the public entry point — no
        # list of proxies to keep in step with harness.tables. (The
        # in-process traced run must not find them memoized.)
        clear_proxy_caches()
        harness.table5(frameworks=(), algorithms=self.ALGORITHMS,
                       sweep=self._sweep(None))
        journals = self.private / "journals"
        journals.mkdir(exist_ok=True)
        return {"journals": journals}

    def _sweep(self, journal, resume=False):
        return harness.Sweep("table5", journal=journal, resume=resume,
                             jobs=self.jobs(), tracer=self.hook)

    def unit(self, state, index, m) -> None:
        journal = state["journals"] / f"pass-{time.time_ns()}.jsonl"
        sweep = self._sweep(journal)
        started = time.perf_counter()
        harness.table5(algorithms=self.ALGORITHMS, sweep=sweep)
        m.op("table5", time.perf_counter() - started, cell=False)
        for record in sweep.last:
            m.op(cell_id(record.key), None,
                 check.record_tuple(record.status, record.value))
        summary = sweep.last.completeness()
        m.extras["journal"] = journal
        m.extras["journal_bytes"] = journal.stat().st_size
        m.extras["cell_retries"] = \
            m.extras.get("cell_retries", 0) + summary["retries"]
        m.extras["pool_restarts"] = \
            m.extras.get("pool_restarts", 0) + summary["worker_restarts"]

    def probes(self, traced) -> dict:
        """Journal replay and bare pool costs (no experiment work)."""
        from repro.harness.sweep import CellPolicy

        started = time.perf_counter()
        replay = self._sweep(traced.extras["journal"], resume=True)
        harness.table5(algorithms=self.ALGORITHMS, sweep=replay)
        replay_s = time.perf_counter() - started
        if replay.last.replayed != len(replay.last.keys):
            raise RuntimeError("journal replay re-executed cells")

        policy = CellPolicy(max_retries=0)
        pool = harness.SupervisorPool(self.JOBS)
        started = time.perf_counter()
        try:
            pool.start()
            pool.submit({"i": -1}, "warm", _noop_cell, policy).wait(60)
            start_s = time.perf_counter() - started
            laps = []
            for i in range(200):
                lap = time.perf_counter()
                pool.submit({"i": i}, str(i), _noop_cell, policy).wait(60)
                laps.append(time.perf_counter() - lap)
        finally:
            pool.close()
        laps.sort()
        return {"harness.journal_replay_s": replay_s,
                "harness.pool_start_s": start_s,
                "harness.pool_noop_cell_ms": 1e3 * laps[len(laps) // 2],
                "harness.pool_restarts": pool.stats.restarts}


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


class ServeMixed(Workload):
    """Closed loop, two keep-alive clients against an in-process daemon.

    One *round* is every request template once — 48 perf-gate cells
    (84 %), 6 full-spec experiments on ``rmat_mini`` (11 %), 2 ``/stats``
    and 1 ``/healthz`` (5 %) — in an order drawn from the seed. Every
    round holds the same requests, so latency percentiles compare across
    seeds. A unit is eight rounds back to back: each client pulls the
    next request as soon as its previous one returns.

    The gate cells leave out CF and k-core: at 40-400 ms they are not
    the tiny pinned cells this workload is about, and as an eighth of
    the mix each they would put the 90th percentile on the boundary
    between two classes of request, where it does not repeat.
    """

    name = "serve_mixed"
    CLIENTS = 2
    JOBS = 2
    #: A unit is this many rounds (~3 s): long enough that its wall time
    #: is a throughput sample, short enough for three in a run.
    ROUNDS_PER_UNIT = 8
    GATE_ALGORITHMS = ("pagerank", "bfs", "triangle_counting", "wcc",
                       "sssp", "label_propagation")
    SPEC_ALGORITHMS = ("pagerank", "bfs", "wcc")
    SPEC_FRAMEWORKS = ("socialite", "galois")

    @functools.cached_property
    def templates(self) -> list:
        """``(op id, kind, method, path, body)`` for one round."""
        out = []
        for algorithm in self.GATE_ALGORITHMS:
            for framework in GATE_FRAMEWORKS:
                for nodes in GATE_NODE_COUNTS:
                    out.append((f"gate:{algorithm}/{framework}@{nodes}",
                                "gate", "POST", "/experiments",
                                {"gate": {"algorithm": algorithm,
                                          "framework": framework,
                                          "nodes": int(nodes)},
                                 "wait": True}))
        for algorithm in self.SPEC_ALGORITHMS:
            for framework in self.SPEC_FRAMEWORKS:
                out.append((f"spec:{algorithm}/{framework}@1", "spec",
                            "POST", "/experiments",
                            {"spec": {"algorithm": algorithm,
                                      "framework": framework,
                                      "dataset": "rmat_mini", "nodes": 1},
                             "wait": True}))
        out.append(("stats#0", "stats", "GET", "/stats", None))
        out.append(("stats#1", "stats", "GET", "/stats", None))
        out.append(("healthz", "healthz", "GET", "/healthz", None))
        return out

    def expected_key(self) -> str:
        # The seed only orders the requests; the cells are fixed.
        return check.ANY_SEED

    def round_order(self, index: int) -> list:
        return [int(i) for i in derive(self.seed, "bench", "serve", index)
                .permutation(len(self.templates))]

    def plan(self) -> dict:
        return {"clients": self.CLIENTS, "jobs": self.JOBS,
                "rounds_per_unit": self.ROUNDS_PER_UNIT,
                "templates": [list(t[:4]) for t in self.templates],
                "first_rounds": [self.round_order(i) for i in range(3)]}

    # -- service lifecycle ----------------------------------------------

    def setup(self):
        state_dir = self.private / f"state-{time.time_ns()}"
        service = serve.ExperimentService(port=0, jobs=self.JOBS,
                                          state_dir=state_dir)
        ready = threading.Event()
        service.on_ready = lambda _host, _port: ready.set()
        thread = threading.Thread(target=lambda: asyncio.run(service.run()),
                                  name="bench-serve", daemon=True)
        state = {"service": service, "thread": thread,
                 "templates": self.templates}
        recorder = self.recorder
        with recorder.span("serve.boot") if recorder else nullcontext():
            thread.start()
            if not ready.wait(timeout=120):
                raise RuntimeError("serve_mixed: the service did not come up")
        # Untimed warm-up: one pass over the templates forks the pool
        # workers and fills their per-process memos.
        warm = Measurement()
        with recorder.span("serve.warmup") if recorder else nullcontext():
            asyncio.run(self._drive(state, warm, None, range(1)))
        if warm.failures:
            raise RuntimeError(f"serve_mixed warm-up failed: "
                               f"{warm.failures[:3]}")
        return state

    def teardown(self, state) -> None:
        service, thread = state["service"], state["thread"]
        if thread.is_alive():
            # What the SIGTERM handler does in a real deployment; signal
            # handlers cannot be installed off the main thread.
            service._loop.call_soon_threadsafe(
                service._initiate_drain, int(signal.SIGTERM))
            thread.join(timeout=120)
        if thread.is_alive():
            raise RuntimeError("serve_mixed: the service did not drain")

    # -- load -------------------------------------------------------------

    def unit_span(self):
        # Each client lane is its own root span (they overlap in time).
        return nullcontext()

    def unit(self, state, index, m) -> None:
        first = index * self.ROUNDS_PER_UNIT
        asyncio.run(self._drive(state, m, self.recorder,
                                range(first, first + self.ROUNDS_PER_UNIT)))

    async def _drive(self, state, m, recorder, rounds) -> None:
        """The given rounds, back to back, over ``CLIENTS`` connections."""
        templates = state["templates"]
        plan = (templates[i] for index in rounds
                for i in self.round_order(index))
        port = state["service"].port

        async def lane():
            client = serve.ServeClient("127.0.0.1", port, timeout_s=120)
            try:
                with root_span(recorder, "bench.unit"):
                    for template in plan:     # shared: whoever is free
                        await self._request(client, template, m, recorder)
            finally:
                await client.close()

        await asyncio.gather(*(lane() for _ in range(self.CLIENTS)))

    async def _request(self, client, template, m, recorder) -> None:
        op_id, kind, method, path, body = template
        span = recorder.open(f"serve.request.{kind}", label=kind) \
            if recorder else None
        started = time.perf_counter()
        try:
            status, payload = await client.request(method, path, body)
        except Exception as error:  # a dropped connection is a failed op
            return m.fail(op_id, f"{type(error).__name__}: {error}")
        finally:
            elapsed = time.perf_counter() - started
            if span is not None:
                recorder.close(span)
        if status != 200:
            return m.fail(op_id, f"HTTP {status}: {payload.get('error')}")
        if method == "GET":
            return m.op(op_id, elapsed, cell=False)
        if payload.get("state") != "done":
            return m.fail(op_id, f"job state {payload.get('state')!r}")
        result = payload["result"]
        m.op(op_id, elapsed,
             check.record_tuple(result["status"], result.get("value")),
             expect="ok", gate=kind == "gate")

    def verify(self, state, m) -> None:
        m.extras["stats"] = asyncio.run(self._stats(state))

    async def _stats(self, state) -> dict:
        client = serve.ServeClient("127.0.0.1", state["service"].port)
        try:
            _status, payload = await client.request("GET", "/stats")
            return payload
        finally:
            await client.close()

    def probes(self, traced) -> dict:
        """The gate cells in-process: what HTTP + pool add on top."""
        from repro.harness.datasets import weak_scaling_dataset

        laps = []
        for op_id, kind, _method, _path, body in self.templates:
            if kind != "gate":
                continue
            gate = body["gate"]
            data, factor = weak_scaling_dataset(gate["algorithm"],
                                                gate["nodes"])
            spec = harness.ExperimentSpec(gate["algorithm"],
                                          gate["framework"], data,
                                          nodes=gate["nodes"],
                                          scale_factor=factor)
            harness.run(spec)     # warm the memos, as the service does
            started = time.perf_counter()
            harness.run(spec)
            laps.append(time.perf_counter() - started)
        laps.sort()
        return {"in_process_gate_p50_ms": 1e3 * laps[len(laps) // 2]}


WORKLOADS = {cls.name: cls for cls in (ColdDense, ColdSharded, HotCells,
                                       Table5Sweep, ServeMixed)}
