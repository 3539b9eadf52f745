"""Typed requests: the values both front ends accept, declared once.

An :class:`ExperimentSpec` captures everything that defines one cell of
the study — algorithm, framework, dataset, cluster shape, chaos and
deadline settings, kernel backend, and algorithm parameters — as a
frozen dataclass validated at construction time. It is the only
argument of :func:`repro.harness.runner.run` — every cell of the study,
from the CLI, a sweep, the daemon or a test, is ``run(ExperimentSpec)``
— and gives them all a single serializable description to pass around.

It is one of the three :class:`Request` values ``repro`` and ``repro
serve`` both accept (with :class:`~repro.harness.sweep.SweepRequest` and
:class:`~repro.perf.AnalysisRequest`), whose field declarations are the
grammar of both front ends: the constructor type-checks every field from
its annotation, :meth:`Request.from_dict` turns any JSON object into the
value or a :class:`~repro.errors.SpecError`, and the CLI's flags come
from each field's :func:`declare` metadata.

Validation is strict: unknown algorithms, frameworks, kernel backends,
dataset names of the wrong kind, wrongly typed or out-of-range
parameter values and — the historical foot-gun — misspelled ``params``
keys all raise :class:`~repro.errors.SpecError` naming the valid
choices, instead of silently flowing into a runner's ``**kwargs``.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from ..algorithms.registry import (
    ALGORITHMS,
    FRAMEWORKS,
    PARAM_TYPES,
    accepted_params,
    check_names,
    valid_params,
)
from ..chaos import FaultSchedule, RecoveryPolicy
from ..datagen import CATALOG
from ..errors import SimulationError, SpecError
from ..frameworks.rounds import check_params
from ..kernels.backend import BACKENDS


#: The comparisons a declared ``bound`` may use.
_BOUNDS = {">": operator.gt, ">=": operator.ge}


def declare(default=MISSING, default_factory=MISSING, **wire):
    """A request field and how the front ends spell it: ``wire`` may
    give its ``bound`` (``(">", 0)``), ``flag`` (default ``--<name>``, or
    a positional when there is no default), ``help``, ``choices`` (a
    callable), ``cli_default``, and for ``params`` the parameters offered
    as flags (``{name: help}``)."""
    return field(default=default, default_factory=default_factory,
                 metadata={"wire": wire})


def _describe(hint) -> str:
    """``Optional[Tuple[int, ...]]`` -> ``a list of int or None``."""
    args = get_args(hint)
    if get_origin(hint) is Union:
        return " or ".join(map(_describe, args))
    if get_origin(hint) is tuple:
        return f"a list of {_describe(args[0])}"
    return {dict: "an object", float: "a finite float",
            type(None): "None"}.get(hint, hint.__name__)


def _conforms(value, hint) -> bool:
    """Does ``value`` have the declared type ``hint``?"""
    if hint is object or type(value) is hint and hint is not float:
        return True
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return any(_conforms(value, arm) for arm in args)
    if origin is tuple:
        return isinstance(value, tuple) and \
            all(_conforms(item, args[0]) for item in value)
    if isinstance(value, (bool, np.bool_)):
        return hint is bool
    if hint is int:
        return isinstance(value, numbers.Integral)
    if hint is float:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    return isinstance(value, hint)


def _shown(value):
    return list(value) if isinstance(value, tuple) else value


def check_value(name: str, value, hint) -> None:
    """Raise :class:`SpecError` unless ``value`` has the type ``hint``."""
    if not _conforms(value, hint):
        raise SpecError(
            f"{name} must be {_describe(hint)}, got {_shown(value)!r}")


@functools.lru_cache(maxsize=None)
def _checks(cls) -> tuple:
    """``(name, type, bound)`` of every field of a request value."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.metadata.get("wire", {}).get(
        "bound", (">=", None))) for f in fields(cls))


def declared(cls) -> list:
    """``(field, type)`` of each field a front end spells; ``Optional``
    (and any later union arm) is dropped from the type."""
    hints = get_type_hints(cls)
    return [(f, get_args(hints[f.name])[0]
             if get_origin(hints[f.name]) is Union else hints[f.name])
            for f in fields(cls) if "wire" in f.metadata]


class Request:
    """A frozen request value whose field declarations are its grammar.

    A subclass is a frozen dataclass whose ``__post_init__`` calls
    :meth:`_check_fields`, then makes its range and name checks.
    """

    #: What a refusal calls the value.
    NOUN = "request"

    def _check_fields(self) -> None:
        """Type- and range-check every field from its declaration (a list
        becomes a tuple; a ``bound`` applies to each of its items)."""
        for name, hint, (op, limit) in _checks(type(self)):
            value = getattr(self, name)
            if isinstance(value, list):
                value = tuple(value)
                object.__setattr__(self, name, value)
            check_value(name, value, hint)
            items = value if isinstance(value, tuple) else (value,)
            if value is not None and limit is not None \
                    and not all(_BOUNDS[op](item, limit) for item in items):
                raise SpecError(
                    f"{name} must be {op} {limit}, got {_shown(value)!r}")

    @classmethod
    def from_dict(cls, payload) -> "Request":
        """The value a JSON object names, or a :class:`SpecError`."""
        if not isinstance(payload, dict):
            raise SpecError(f"a {cls.NOUN} must be an object, got "
                            f"{type(payload).__name__}")
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(payload) - set(known), key=str)
        if unknown:
            raise SpecError(
                f"unknown {cls.NOUN} field(s) {', '.join(map(repr, unknown))}"
                f"; valid: {', '.join(sorted(known))}")
        missing = [name for name, f in known.items() if name not in payload
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise SpecError(f"missing {cls.NOUN} field(s) "
                            f"{', '.join(map(repr, missing))}")
        return cls(**payload)


@dataclass(frozen=True)
class ExperimentSpec(Request):
    """One fully-specified experiment cell.

    ``dataset`` is either a catalog name (string — serializable) or an
    in-memory :class:`~repro.graph.CSRGraph` / RatingsMatrix. ``faults``
    is a chaos spec string or a FaultSchedule. ``kernels`` optionally
    pins the kernel backend (``"vectorized"`` / ``"interpreted"``) for
    this run; ``None`` defers to ``REPRO_KERNELS`` / the default.
    ``params`` holds algorithm parameters and is validated against
    :func:`valid_params` and their declared types
    (:data:`~repro.algorithms.registry.PARAM_TYPES`).
    """

    NOUN = "spec"

    algorithm: str = declare(choices=lambda: ALGORITHMS)
    framework: str = declare(choices=lambda: FRAMEWORKS)
    dataset: object = declare(cli_default="rmat_mini")
    nodes: int = declare(1, bound=(">=", 1))
    scale_factor: float = declare(1.0, bound=(">", 0))
    enforce_memory: bool = True
    faults: Optional[Union[str, FaultSchedule]] = declare(
        None, help="fault schedule spec, e.g. "
                   "'crash(node=2, superstep=3); drop(p=0.01)'")
    fault_seed: int = declare(0, bound=(">=", 0),
                              help="seed for probabilistic faults")
    recovery: Optional[RecoveryPolicy] = None
    deadline_s: Optional[float] = declare(
        None, bound=(">", 0), flag="--deadline",
        help="simulated-seconds budget; exceeding it is a 'timeout' "
             "result (exit 6)")
    kernels: Optional[str] = declare(
        None, choices=lambda: BACKENDS,
        help="kernel backend for this run (default: $REPRO_KERNELS or "
             "vectorized)")
    params: dict = declare(
        default_factory=dict,
        params={"iterations": "override the harness default",
                "hidden_dim": "CF hidden dimension (harness default: 32)"})

    def __post_init__(self):
        self._check_fields()
        check_names("algorithm", (self.algorithm,), ALGORITHMS)
        check_names("framework", (self.framework,), FRAMEWORKS)
        if self.kernels is not None:
            check_names("kernel backend", (self.kernels,), BACKENDS)
        object.__setattr__(self, "params", dict(self.params))
        known = valid_params(self.algorithm)
        unknown = sorted(set(self.params) - set(known), key=str)
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
        for name, value in self.params.items():
            check_value(f"params[{name!r}]", value,
                        Optional[PARAM_TYPES[name]])
        check_params(**self.params)
        try:
            faults = FaultSchedule.from_spec(self.faults) \
                if isinstance(self.faults, str) else self.faults
            if faults is not None:
                faults.validate(self.nodes)
        except SimulationError as error:
            raise SpecError(str(error)) from None
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

    def to_dict(self) -> dict:
        """JSON-safe form (every field but ``recovery``, in order);
        requires a catalog-name dataset."""
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
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "recovery"}
        if not isinstance(self.faults, (str, type(None))):
            out["faults"] = self.faults.spec()
        out["params"] = dict(self.params)
        return out
