"""Typed experiment specification: the harness's front-door value object.

An :class:`ExperimentSpec` captures everything that defines one cell of
the study — algorithm, framework, dataset, cluster shape, chaos and
deadline settings, kernel backend, and algorithm parameters — as a
frozen dataclass validated at construction time. It is the only
argument of :func:`repro.harness.runner.run` — every cell of the study,
from the CLI, a sweep, the daemon or a test, is ``run(ExperimentSpec)``
— and gives them all a single serializable description to pass around.

Validation is strict: unknown algorithms, frameworks, kernel backends,
dataset names of the wrong kind, out-of-range parameter values and — the historical foot-gun —
misspelled ``params`` keys all raise :class:`~repro.errors.SpecError`
naming the valid choices, instead of silently flowing into a runner's
``**kwargs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..algorithms.registry import (
    ALGORITHMS,
    FRAMEWORKS,
    accepted_params,
    valid_params,
)
from ..datagen import CATALOG
from ..errors import SpecError
from ..frameworks.rounds import check_params
from ..kernels.backend import BACKENDS


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-specified experiment cell.

    ``dataset`` is either a catalog name (string — serializable) or an
    in-memory :class:`~repro.graph.CSRGraph` / RatingsMatrix. ``faults``
    is a chaos spec string or a FaultSchedule. ``kernels`` optionally
    pins the kernel backend (``"vectorized"`` / ``"interpreted"``) for
    this run; ``None`` defers to ``REPRO_KERNELS`` / the default.
    ``params`` holds algorithm parameters and is validated against
    :func:`valid_params`.
    """

    algorithm: str
    framework: str
    dataset: object
    nodes: int = 1
    scale_factor: float = 1.0
    enforce_memory: bool = True
    faults: object = None
    fault_seed: int = 0
    recovery: object = None
    deadline_s: float = None
    kernels: str = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise SpecError(
                f"unknown algorithm {self.algorithm!r}; "
                f"known: {', '.join(ALGORITHMS)}"
            )
        if self.framework not in FRAMEWORKS:
            raise SpecError(
                f"unknown framework {self.framework!r}; "
                f"known: {', '.join(FRAMEWORKS)}"
            )
        if not isinstance(self.nodes, int) or self.nodes < 1:
            raise SpecError(f"nodes must be a positive int, got {self.nodes!r}")
        if not self.scale_factor > 0:
            raise SpecError(
                f"scale_factor must be > 0, got {self.scale_factor!r}"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise SpecError(
                f"deadline_s must be > 0 or None, got {self.deadline_s!r}"
            )
        if self.kernels is not None and self.kernels not in BACKENDS:
            raise SpecError(
                f"unknown kernel backend {self.kernels!r}; "
                f"known: {', '.join(BACKENDS)}"
            )
        object.__setattr__(self, "params", dict(self.params))
        known = valid_params(self.algorithm)
        unknown = sorted(set(self.params) - set(known))
        if unknown:
            raise SpecError(
                f"unknown parameter(s) {', '.join(map(repr, unknown))} for "
                f"{self.algorithm}; valid: {', '.join(known)}"
            )
        accepted = accepted_params(self.algorithm, self.framework)
        refused = sorted(set(self.params) - set(accepted))
        if refused:
            raise SpecError(
                f"{self.framework}'s {self.algorithm} does not take "
                f"{', '.join(map(repr, refused))}; it accepts: "
                f"{', '.join(accepted) or 'no parameters'}"
            )
        check_params(**self.params)
        if isinstance(self.dataset, str):
            wanted = "ratings" \
                if self.algorithm == "collaborative_filtering" else "graph"
            entry = CATALOG.get(self.dataset)
            if entry is None or entry.kind != wanted:
                names = sorted(name for name, entry in CATALOG.items()
                               if entry.kind == wanted)
                raise SpecError(
                    f"{self.algorithm} needs a {wanted} dataset, got "
                    f"{self.dataset!r}; known: {', '.join(names)}"
                )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form; requires a catalog-name dataset."""
        if not isinstance(self.dataset, str):
            raise SpecError(
                "only specs with a catalog-name dataset serialize; got an "
                f"in-memory {type(self.dataset).__name__}"
            )
        if self.recovery is not None:
            raise SpecError(
                "specs with a recovery-policy override do not serialize; "
                "leave recovery=None to use the framework's own policy"
            )
        faults = self.faults
        if faults is not None and not isinstance(faults, str):
            faults = faults.spec()
        return {
            "algorithm": self.algorithm,
            "framework": self.framework,
            "dataset": self.dataset,
            "nodes": self.nodes,
            "scale_factor": self.scale_factor,
            "enforce_memory": self.enforce_memory,
            "faults": faults,
            "fault_seed": self.fault_seed,
            "deadline_s": self.deadline_s,
            "kernels": self.kernels,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SpecError(
                f"unknown spec field(s) {', '.join(map(repr, unknown))}; "
                f"valid: {', '.join(sorted(known))}"
            )
        return cls(**payload)
