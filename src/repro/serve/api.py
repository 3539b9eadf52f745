"""Typed JSON-over-HTTP shapes for the experiment service.

One module owns the wire contract: request parsing/validation, the
HTTP error taxonomy, and the JSON renderings of jobs. The server and
the load generator both import from here, so the two cannot drift.

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

import json

from ..errors import ReproError

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


def _field(body: dict, name: str, kind, default=None, required=False):
    if name not in body:
        if required:
            raise bad_request(f"missing required field {name!r}")
        return default
    value = body[name]
    if value is None and not required:
        return default
    if kind is float and isinstance(value, int) \
            and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) \
            and kind is not bool:
        raise bad_request(
            f"field {name!r} must be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}")
    return value


def _names(body: dict, name: str):
    value = body.get(name)
    if value is None:
        return None
    if not isinstance(value, list) \
            or not all(isinstance(item, str) for item in value):
        raise bad_request(f"field {name!r} must be a list of strings")
    return tuple(value)


#: Admission fields shared by every request kind.
def parse_admission_fields(body: dict) -> dict:
    return {
        "deadline_s": _field(body, "deadline_s", float),
        "memory_mb": _field(body, "memory_mb", float),
    }


def parse_experiment_request(body: dict) -> dict:
    """``POST /experiments``: a full spec, or a perf-gate cell.

    ``{"spec": {...ExperimentSpec fields...}}`` runs one experiment
    through the typed spec facade; ``{"gate": {"algorithm", "framework",
    "nodes"}}`` runs one perf-gate cell (the weak-scaling
    :func:`~repro.harness.run_cell` the baseline gate measures) — the
    form the load generator and warm-latency proof use. Either way the
    request is valid iff the :class:`ExperimentSpec` it will run is.
    """
    from ..harness.spec import ExperimentSpec

    spec = body.get("spec")
    gate = body.get("gate")
    if (spec is None) == (gate is None):
        raise bad_request(
            "experiment request needs exactly one of 'spec' or 'gate'")
    out = parse_admission_fields(body)
    out["wait"] = _field(body, "wait", bool, default=True)
    if spec is not None:
        if not isinstance(spec, dict):
            raise bad_request("field 'spec' must be an object")
        try:
            parsed = ExperimentSpec.from_dict(spec)
        except ReproError as error:
            raise bad_request(f"invalid experiment spec: {error}") from None
        if not isinstance(parsed.dataset, str):
            raise bad_request(
                "served experiments need a catalog dataset name")
        out["kind"] = "experiment"
        out["spec"] = parsed.to_dict()
        return out
    if not isinstance(gate, dict):
        raise bad_request("field 'gate' must be an object")
    cell = {
        "algorithm": _field(gate, "algorithm", str, required=True),
        "framework": _field(gate, "framework", str, required=True),
        "nodes": _field(gate, "nodes", int, default=1),
    }
    try:
        # The worker places the dataset; every other field is checked here.
        ExperimentSpec(dataset=None, **cell)
    except ReproError as error:
        raise bad_request(f"invalid gate cell: {error}") from None
    out["kind"] = "gate"
    out["gate"] = cell
    return out


def parse_sweep_request(body: dict) -> dict:
    """``POST /sweeps``: a durable sweep job (async by default)."""
    from ..harness.artifacts import ARTIFACTS, sweep_targets

    target = _field(body, "target", str, required=True)
    if target not in sweep_targets():
        raise bad_request(f"unknown sweep target {target!r}; valid: "
                          f"{', '.join(sweep_targets())}")
    out = parse_admission_fields(body)
    out.update({
        "kind": "sweep",
        "target": target,
        "algorithms": _names(body, "algorithms"),
        "frameworks": _names(body, "frameworks"),
        "journal": _field(body, "journal", str),
        "resume": _field(body, "resume", bool, default=False),
        "sim_deadline_s": _field(body, "sim_deadline_s", float),
        "max_retries": _field(body, "max_retries", int, default=2),
        "wait": _field(body, "wait", bool, default=False),
    })
    if out["algorithms"] and not ARTIFACTS[target].takes_algorithms:
        raise bad_request(f"{target} does not take 'algorithms'")
    if out["max_retries"] < 0:
        raise bad_request("'max_retries' must be >= 0")
    return out


def parse_perf_request(body: dict) -> dict:
    """``POST /perf/analyze``: roofline + gap attribution for a framework."""
    from ..algorithms.registry import FRAMEWORKS

    framework = _field(body, "framework", str, default="native")
    if framework not in FRAMEWORKS:
        raise bad_request(f"unknown framework {framework!r}; valid: "
                          f"{', '.join(FRAMEWORKS)}")
    nodes = body.get("node_counts", [1])
    if not isinstance(nodes, list) or not nodes \
            or not all(isinstance(n, int) and not isinstance(n, bool)
                       and n >= 1 for n in nodes):
        raise bad_request("'node_counts' must be a list of ints >= 1")
    out = parse_admission_fields(body)
    out.update({
        "kind": "perf-analyze",
        "framework": framework,
        "algorithms": _names(body, "algorithms"),
        "node_counts": list(nodes),
        "wait": _field(body, "wait", bool, default=True),
    })
    return out
