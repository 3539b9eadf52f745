"""Supervised pool: overhead vs a raw multiprocessing.Pool, and recovery.

Two claims ride on this file:

* supervision is (nearly) free — a clean warm-cache table5 subset
  through ``Sweep(jobs=4)`` and its supervised pool costs within ~10%
  of the same cells through a bare ``multiprocessing.Pool`` (the PR-5
  executor, reconstructed here as the reference); asserted only on
  machines with >=4 cores, advisory elsewhere;
* recovery is fast — a single injected SIGKILL costs one worker
  restart and re-dispatch, measured as the wall-clock delta between a
  clean and a one-kill run of the same sweep.

Both timings are printed, not recorded; the pool's host time is the
``table5_sweep`` workload of ``python3 -m bench``.
"""

import multiprocessing
import os
import time

from repro.harness.sweep import CellPolicy, Sweep, execute_cell
from repro.harness.tables import table5

SUBSET = {"algorithms": ("pagerank", "bfs"), "frameworks": ("galois",)}

_RAW_STATE = None


def _raw_init(execute, policy):
    global _RAW_STATE
    _RAW_STATE = (execute, policy)


def _raw_run_one(item):
    index, key, cid = item
    execute, policy = _RAW_STATE
    return index, cid, execute_cell(key, execute, policy)


def _raw_pool_run(pending, execute, policy, jobs):
    """The PR-5 executor, minimally: bare Pool + ordered imap."""
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    pool = context.Pool(processes=jobs, initializer=_raw_init,
                        initargs=(execute, policy))
    try:
        return list(pool.imap(_raw_run_one, pending, chunksize=1))
    finally:
        pool.close()
        pool.join()


def _table5_executor():
    """The subset's cell keys + the picklable table5 executor."""
    from repro.harness.sweep import sweep_cell
    from repro.harness.tables import single_node_cells

    return single_node_cells(SUBSET["algorithms"],
                             ("native",) + SUBSET["frameworks"]), sweep_cell


def test_supervised_pool_overhead_vs_raw_pool(regenerate):
    """Clean-run cost of supervision stays within ~10% of a bare Pool."""
    table5(sweep=Sweep("table5"), **SUBSET)          # warm both caches

    keys, execute = _table5_executor()
    pending = [(index, key, f"cell{index}")
               for index, key in enumerate(keys)]
    policy = CellPolicy()

    start = time.perf_counter()
    raw = _raw_pool_run(pending, execute, policy, jobs=4)
    raw_s = time.perf_counter() - start

    start = time.perf_counter()
    supervised = regenerate(
        lambda: Sweep("table5", jobs=4).run(keys, execute))
    supervised_s = time.perf_counter() - start

    assert [record.status for record in supervised] \
        == [r.status for _i, _c, r in raw]
    assert [record.key for record in supervised] == \
        [keys[i] for i, _c, _r in raw]

    overhead = supervised_s / max(raw_s, 1e-9) - 1.0
    print(f"\nsupervised pool: raw {raw_s:.2f} s, "
          f"supervised {supervised_s:.2f} s "
          f"({100 * overhead:+.1f}% overhead, {os.cpu_count()} cores)")
    if (os.cpu_count() or 1) >= 4:
        # 10% + a small fixed allowance so sub-second runs don't gate
        # on scheduler noise.
        assert supervised_s <= 1.10 * raw_s + 0.25, (supervised_s, raw_s)


def test_recovery_cost_of_one_worker_kill(tmp_path):
    """One injected SIGKILL costs one restart, measured not asserted."""
    table5(sweep=Sweep("table5"), **SUBSET)          # warm both caches

    clean_journal = tmp_path / "clean.jsonl"
    start = time.perf_counter()
    clean = table5(sweep=Sweep("table5", journal=clean_journal, jobs=2),
                   **SUBSET)
    clean_s = time.perf_counter() - start

    chaos_journal = tmp_path / "chaos.jsonl"
    start = time.perf_counter()
    engine = Sweep("table5", journal=chaos_journal, jobs=2,
                   real_chaos="kill(cell=1)")
    chaos = table5(sweep=engine, **SUBSET)
    chaos_s = time.perf_counter() - start

    assert chaos == clean
    assert chaos_journal.read_bytes() == clean_journal.read_bytes()
    assert engine.last.worker_restarts == 1
    print(f"\nrecovery: clean {clean_s:.2f} s, one-kill {chaos_s:.2f} s "
          f"(+{max(chaos_s - clean_s, 0):.2f} s for restart + re-dispatch)")
