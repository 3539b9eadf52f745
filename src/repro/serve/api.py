"""Typed JSON-over-HTTP shapes for the experiment service.

One module owns the wire contract: the HTTP envelope of a request
(``wait``, ``deadline_s``, ``memory_mb``, and ``spec`` xor ``gate``),
the HTTP error taxonomy, and the JSON renderings of jobs. The server
and the load generator both import from here, so the two cannot drift.

The request inside the envelope is one of the three values the CLI
builds too — :class:`~repro.harness.spec.ExperimentSpec`,
:class:`~repro.harness.sweep.SweepRequest`,
:class:`~repro.perf.AnalysisRequest` — made by their ``from_dict``, which
type-, range- and name-check every field. Their
:class:`~repro.errors.SpecError` becomes a 400 in one place, so a 400
is exactly what ``repro`` refuses, with the same message.

Error taxonomy — every rejection is a typed :class:`ApiError` whose
``code`` reuses the PR-3 DNF vocabulary where one applies:

=================  ======  ==========================================
code               status  meaning
=================  ======  ==========================================
``bad-request``    400     malformed body / unknown field / bad value
``not-found``      404     no such route or job
``conflict``       409     duplicate in-flight sweep journal path
``overloaded``     503     admission queue full (or draining)
``out-of-memory``  503     memory budget exhausted (400 if it can
                           *never* fit)
``timeout``        400     requested wall deadline above the cap
                           (504 when a queued request expires unrun)
=================  ======  ==========================================
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict
from typing import Optional

from ..errors import ReproError, SpecError
from ..harness.spec import ExperimentSpec, check_value
from ..harness.sweep import SweepRequest
from ..perf.attribution import AnalysisRequest

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class ApiError(ReproError):
    """A typed HTTP rejection: status code + machine-readable code."""

    def __init__(self, status: int, code: str, message: str, **detail):
        super().__init__(message)
        self.status = status
        self.code = code
        self.detail = detail

    def payload(self) -> dict:
        out = {"error": self.code, "message": str(self)}
        if self.detail:
            out["detail"] = {key: value for key, value
                             in sorted(self.detail.items())}
        return out


def bad_request(message: str, **detail) -> ApiError:
    return ApiError(400, "bad-request", message, **detail)


def reason(status: int) -> str:
    return _REASONS.get(status, "Unknown")


def parse_body(raw: bytes) -> dict:
    if not raw:
        return {}
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise bad_request(f"request body is not valid JSON: {error}") \
            from None
    if not isinstance(body, dict):
        raise bad_request("request body must be a JSON object")
    return body


#: The HTTP envelope: what every POST route takes besides its request.
#: ``wait=None`` is the route's default (wait, except for sweeps).
ENVELOPE = {"wait": Optional[bool], "deadline_s": Optional[float],
            "memory_mb": Optional[float]}


def _refusals_are_400s(parse):
    """The one place a :class:`SpecError` from a request value becomes
    a 400 ``bad-request`` carrying the message the CLI prints for it."""
    @functools.wraps(parse)
    def parse_or_400(body: dict) -> dict:
        try:
            return parse(body)
        except SpecError as error:
            raise bad_request(str(error)) from None
    return parse_or_400


def _envelope(body: dict, wait: bool) -> tuple:
    """``(the envelope's fields, the rest of the body)``."""
    out = {}
    for name, hint in ENVELOPE.items():
        check_value(name, body.get(name), hint)
        out[name] = body.get(name)
    if out["wait"] is None:
        out["wait"] = wait
    return out, {name: value for name, value in body.items()
                 if name not in ENVELOPE}


def _json(request) -> dict:
    """A request value's fields as the job echoes them (lists, not tuples)."""
    return {name: list(value) if isinstance(value, tuple) else value
            for name, value in asdict(request).items()}


#: A gate cell names these; its dataset is the weak-scaling placement.
_GATE = ("algorithm", "framework", "nodes")


@_refusals_are_400s
def parse_experiment_request(body: dict) -> dict:
    """``POST /experiments``: a full spec, or a perf-gate cell.

    ``{"spec": {...ExperimentSpec fields...}}`` runs one experiment
    through the typed spec facade; ``{"gate": {"algorithm", "framework",
    "nodes"}}`` runs one perf-gate cell (the weak-scaling
    :func:`~repro.harness.run_cell` the baseline gate measures) — the
    form the load generator and warm-latency proof use. Either way the
    request is valid iff the :class:`ExperimentSpec` it will run is.
    """
    out, rest = _envelope(body, wait=True)
    spec, gate = rest.pop("spec", None), rest.pop("gate", None)
    if (spec is None) == (gate is None) or rest:
        raise bad_request(
            "experiment request needs exactly one of 'spec' or 'gate' "
            f"(and optionally {', '.join(ENVELOPE)})")
    if spec is not None:
        out.update(kind="experiment",
                   spec=ExperimentSpec.from_dict(spec).to_dict())
        return out
    if not isinstance(gate, dict) or set(gate) - set(_GATE):
        raise bad_request(f"field 'gate' must be an object of "
                          f"{', '.join(_GATE)}")
    # The worker places the dataset; every other field is checked here.
    cell = ExperimentSpec.from_dict({"nodes": 1, **gate, "dataset": None})
    out.update(kind="gate",
               gate={name: getattr(cell, name) for name in _GATE})
    return out


@_refusals_are_400s
def parse_sweep_request(body: dict) -> dict:
    """``POST /sweeps``: a durable sweep job (async by default)."""
    out, rest = _envelope(body, wait=False)
    return {"kind": "sweep", **out, **_json(SweepRequest.from_dict(rest))}


@_refusals_are_400s
def parse_perf_request(body: dict) -> dict:
    """``POST /perf/analyze``: roofline + gap attribution for a framework."""
    out, rest = _envelope(body, wait=True)
    return {"kind": "perf-analyze", **out,
            **_json(AnalysisRequest.from_dict(rest))}
