"""What a spec may name, per (algorithm, framework), pinned as literals.

``valid_params`` and ``accepted_params`` are what an ``ExperimentSpec``
(and so the CLI and ``repro serve``) checks ``params`` against; both are
read off the registry table. The literals below were recorded before the
table replaced the per-module runners, so any drift in what a framework
takes shows here as a diff, not as a request refused or run differently.
"""

import pytest

from repro.algorithms.registry import (
    ALGORITHMS,
    FRAMEWORKS,
    accepted_params,
    valid_params,
)
from repro.harness import run_cell

VALID = {
    "pagerank": (
        "damping", "iterations", "optimized", "options", "profile_override",
        "tolerance",
    ),
    "bfs": ("optimized", "options", "source"),
    "triangle_counting": ("optimized", "options", "superstep_splits"),
    "collaborative_filtering": (
        "gamma0", "hidden_dim", "iterations", "lambda_reg", "method",
        "optimized", "options", "seed", "step_decay", "superstep_splits",
    ),
    "wcc": ("optimized", "options"),
    "sssp": ("optimized", "options", "source"),
    "k_core": ("optimized", "options"),
    "label_propagation": ("iterations", "optimized", "options", "seed"),
}

#: Per algorithm, per framework in registry order: the parameters it takes.
ACCEPTED = {
    "pagerank": {
        "native": ("damping", "iterations", "options", "tolerance"),
        "combblas": ("damping", "iterations", "tolerance"),
        "graphlab": ("damping", "iterations", "tolerance"),
        "socialite": (
            "damping", "iterations", "optimized", "profile_override",
        ),
        "socialite-published": ("damping", "iterations", "profile_override"),
        "giraph": ("damping", "iterations", "tolerance"),
        "galois": ("damping", "iterations", "tolerance"),
        "gps": ("damping", "iterations", "tolerance"),
        "graphx": ("damping", "iterations", "tolerance"),
        "kdt": ("damping", "iterations", "tolerance"),
    },
    "bfs": {
        "native": ("options", "source"),
        "combblas": ("source",),
        "graphlab": ("source",),
        "socialite": ("optimized", "source"),
        "socialite-published": ("source",),
        "giraph": ("source",),
        "galois": ("source",),
        "gps": ("source",),
        "graphx": ("source",),
        "kdt": ("source",),
    },
    "triangle_counting": {
        "native": ("options",),
        "combblas": (),
        "graphlab": ("superstep_splits",),
        "socialite": ("optimized",),
        "socialite-published": (),
        "giraph": ("superstep_splits",),
        "galois": (),
        "gps": ("superstep_splits",),
        "graphx": ("superstep_splits",),
        "kdt": (),
    },
    "collaborative_filtering": {
        "native": (
            "gamma0", "hidden_dim", "iterations", "lambda_reg", "method",
            "options", "seed", "step_decay",
        ),
        "combblas": (
            "gamma0", "hidden_dim", "iterations", "lambda_reg", "seed",
            "step_decay",
        ),
        "graphlab": (
            "gamma0", "hidden_dim", "iterations", "lambda_reg", "seed",
            "step_decay", "superstep_splits",
        ),
        "socialite": (
            "gamma0", "hidden_dim", "iterations", "lambda_reg", "optimized",
            "seed", "step_decay",
        ),
        "socialite-published": (
            "gamma0", "hidden_dim", "iterations", "lambda_reg", "seed",
            "step_decay",
        ),
        "giraph": (
            "gamma0", "hidden_dim", "iterations", "lambda_reg", "seed",
            "step_decay", "superstep_splits",
        ),
        "galois": (
            "gamma0", "hidden_dim", "iterations", "lambda_reg", "options",
            "seed", "step_decay",
        ),
        "gps": (
            "gamma0", "hidden_dim", "iterations", "lambda_reg", "seed",
            "step_decay", "superstep_splits",
        ),
        "graphx": (
            "gamma0", "hidden_dim", "iterations", "lambda_reg", "seed",
            "step_decay", "superstep_splits",
        ),
        "kdt": (
            "gamma0", "hidden_dim", "iterations", "lambda_reg", "seed",
            "step_decay",
        ),
    },
    "wcc": {
        "native": ("options",),
        "combblas": (),
        "graphlab": (),
        "socialite": ("optimized",),
        "socialite-published": (),
        "giraph": (),
        "galois": (),
        "gps": (),
        "graphx": (),
        "kdt": (),
    },
    "sssp": {
        "native": ("options", "source"),
        "combblas": ("source",),
        "graphlab": ("source",),
        "socialite": ("optimized", "source"),
        "socialite-published": ("source",),
        "giraph": ("source",),
        "galois": ("source",),
        "gps": ("source",),
        "graphx": ("source",),
        "kdt": ("source",),
    },
    "k_core": {
        "native": ("options",),
        "combblas": (),
        "graphlab": (),
        "socialite": ("optimized",),
        "socialite-published": (),
        "giraph": (),
        "galois": (),
        "gps": (),
        "graphx": (),
        "kdt": (),
    },
    "label_propagation": {
        "native": ("iterations", "options", "seed"),
        "combblas": ("iterations", "seed"),
        "graphlab": ("iterations", "seed"),
        "socialite": ("iterations", "optimized", "seed"),
        "socialite-published": ("iterations", "seed"),
        "giraph": ("iterations", "seed"),
        "galois": ("iterations", "seed"),
        "gps": ("iterations", "seed"),
        "graphx": ("iterations", "seed"),
        "kdt": ("iterations", "seed"),
    },
}


def test_valid_params_per_algorithm():
    assert {algorithm: valid_params(algorithm)
            for algorithm in ALGORITHMS} == VALID


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_accepted_params_per_pair(algorithm):
    assert {framework: accepted_params(algorithm, framework)
            for framework in FRAMEWORKS} == ACCEPTED[algorithm]


def test_the_quirks_are_the_rows():
    # Spelled out, so a reader sees them without reading the literals.
    assert "options" in accepted_params("collaborative_filtering", "galois")
    assert "superstep_splits" in accepted_params("triangle_counting",
                                                 "graphlab")
    assert "use_cuckoo" not in valid_params("triangle_counting")
    assert "method" not in accepted_params("collaborative_filtering",
                                           "giraph")
    for algorithm in ALGORITHMS:
        assert "optimized" not in accepted_params(algorithm,
                                                  "socialite-published")


#: The cells SociaLite's rules cannot express (weak scaling, one node).
UNSUPPORTED = {"k_core": ["socialite", "socialite-published"],
               "label_propagation": ["socialite", "socialite-published"]}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_an_ok_run_reports_its_registry_name(algorithm):
    refused = []
    for framework in FRAMEWORKS:
        cell = run_cell({"algorithm": algorithm, "framework": framework})
        if not cell.ok:
            refused.append(framework)
            continue
        assert cell.result.framework == framework
    assert refused == UNSUPPORTED.get(algorithm, [])
