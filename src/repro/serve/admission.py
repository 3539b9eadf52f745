"""Admission control: bounded queue, wall deadlines, memory budgets.

A long-lived service dies by accepting everything. The controller
decides *before* a request becomes a job whether the server can honor
it, and rejects with a typed :class:`~repro.serve.api.ApiError` whose
code reuses the PR-3 DNF vocabulary:

* ``overloaded`` (503) — ``max_jobs`` jobs already in flight (running
  or queued), or the server is draining after SIGTERM.
* ``out-of-memory`` — the request's memory budget does not fit the
  currently reserved headroom (503: retry later) or can *never* fit
  the server budget (400: don't bother retrying).
* ``timeout`` (400) — the requested wall deadline exceeds the cap the
  server is willing to hold a slot for.

Accepted requests get a :class:`Slot` that reserves queue space and
memory until released; ``with controller.admit(...)`` scopes the
reservation to the request's lifetime.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from ..errors import SpecError
from .api import ApiError

#: What a request that names no ``deadline_s`` / ``memory_mb`` reserves.
DEFAULT_DEADLINE_S = 60.0
DEFAULT_MEMORY_MB = 256.0


@dataclass(frozen=True)
class AdmissionPolicy:
    """Capacity knobs; defaults sized for a small shared box."""

    max_jobs: int = 72            # jobs in flight, running or queued
    max_deadline_s: float = 600.0
    memory_budget_mb: float = 4096.0

    def __post_init__(self):
        if self.max_jobs < 1:
            raise SpecError(f"max_jobs must be >= 1, got {self.max_jobs}")
        for name in ("max_deadline_s", "memory_budget_mb"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise SpecError(f"{name} must be a finite number > 0, "
                                f"got {value}")


class Slot:
    """One admitted request's reservation; release exactly once."""

    def __init__(self, controller: "AdmissionController",
                 deadline_s: float, memory_mb: float):
        self.controller = controller
        self.deadline_s = deadline_s
        self.memory_mb = memory_mb
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.controller._release(self)

    def __enter__(self) -> "Slot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class AdmissionController:
    """Thread-safe gate in front of the job registry."""

    def __init__(self, policy: AdmissionPolicy = None):
        self.policy = policy if policy is not None else AdmissionPolicy()
        self._lock = threading.Lock()
        self._active = 0
        self._reserved_mb = 0.0
        self._baseline_mb = 0.0
        self._draining = False
        self.admitted = 0
        self.rejected = {}        # code -> count

    # -- lifecycle ----------------------------------------------------

    def start_drain(self) -> None:
        """Stop admitting; in-flight reservations finish normally."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    def reserve_baseline(self, memory_mb: float) -> None:
        """Permanently reserve headroom for the warm pinned set.

        Called once at startup with the warm set's **resident** bytes
        (:func:`repro.datagen.pinned_memory`), not its virtual size:
        mmap-backed pinned graphs keep their pages reclaimable, so
        counting ``nbytes`` would double-charge the budget for memory
        the kernel can take back under pressure.
        """
        with self._lock:
            self._baseline_mb += max(float(memory_mb), 0.0)

    # -- admission ----------------------------------------------------

    def admit(self, deadline_s=None, memory_mb=None) -> Slot:
        """Reserve capacity or raise a typed rejection."""
        policy = self.policy
        if deadline_s is None:
            deadline_s = DEFAULT_DEADLINE_S
        if memory_mb is None:
            memory_mb = DEFAULT_MEMORY_MB
        if deadline_s <= 0:
            raise self._reject(ApiError(
                400, "bad-request",
                "'deadline_s' must be positive"))
        if deadline_s > policy.max_deadline_s:
            raise self._reject(ApiError(
                400, "timeout",
                f"requested deadline {deadline_s:.0f}s exceeds the "
                f"server cap of {policy.max_deadline_s:.0f}s",
                deadline_s=deadline_s,
                max_deadline_s=policy.max_deadline_s))
        if memory_mb <= 0:
            raise self._reject(ApiError(
                400, "bad-request", "'memory_mb' must be positive"))
        if memory_mb > policy.memory_budget_mb:
            raise self._reject(ApiError(
                400, "out-of-memory",
                f"requested budget {memory_mb:.0f} MB exceeds the "
                f"server's total budget of "
                f"{policy.memory_budget_mb:.0f} MB",
                memory_mb=memory_mb,
                budget_mb=policy.memory_budget_mb))
        with self._lock:
            if self._draining:
                raise self._reject_locked(ApiError(
                    503, "overloaded",
                    "server is draining; retry against a fresh "
                    "instance"))
            capacity = policy.max_jobs
            if self._active >= capacity:
                raise self._reject_locked(ApiError(
                    503, "overloaded",
                    f"admission queue is full ({self._active} jobs "
                    f"in flight, capacity {capacity}); retry later",
                    active=self._active, capacity=capacity))
            reserved = self._baseline_mb + self._reserved_mb
            if reserved + memory_mb > policy.memory_budget_mb:
                raise self._reject_locked(ApiError(
                    503, "out-of-memory",
                    f"memory budget exhausted "
                    f"({reserved:.0f} of "
                    f"{policy.memory_budget_mb:.0f} MB reserved, "
                    f"{memory_mb:.0f} MB requested); retry later",
                    reserved_mb=reserved,
                    requested_mb=memory_mb,
                    budget_mb=policy.memory_budget_mb))
            self._active += 1
            self._reserved_mb += memory_mb
            self.admitted += 1
            return Slot(self, deadline_s, memory_mb)

    def _reject(self, error: ApiError) -> ApiError:
        with self._lock:
            return self._reject_locked(error)

    def _reject_locked(self, error: ApiError) -> ApiError:
        self.rejected[error.code] = self.rejected.get(error.code, 0) + 1
        return error

    def _release(self, slot: Slot) -> None:
        with self._lock:
            self._active -= 1
            self._reserved_mb -= slot.memory_mb

    # -- reporting ----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "active": self._active,
                "capacity": self.policy.max_jobs,
                "reserved_mb": self._reserved_mb,
                "baseline_mb": self._baseline_mb,
                "budget_mb": self.policy.memory_budget_mb,
                "draining": self._draining,
                "admitted": self.admitted,
                "rejected": dict(sorted(self.rejected.items())),
            }
