"""Tests for the typed ExperimentSpec facade and ``run``."""

import dataclasses

import numpy as np
import pytest

from repro.algorithms.registry import ALGORITHMS, FRAMEWORKS, accepted_params
from repro.datagen import netflix_like_ratings, rmat_graph, rmat_triangle_graph
from repro.errors import ReproError, SpecError
from repro.frameworks.native import NativeOptions
from repro.harness import (
    ExperimentSpec,
    RunResult,
    experiment_dataset,
    run,
    run_cell,
    valid_params,
)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=8, edge_factor=8, seed=11)


class TestValidation:
    def test_unknown_algorithm(self):
        # "ssps" is the classic typo for a now-valid algorithm: the
        # error must name the real one so the fix is obvious.
        with pytest.raises(SpecError, match="unknown algorithm") as info:
            ExperimentSpec(algorithm="ssps", framework="native",
                           dataset="rmat_mini")
        assert "sssp" in str(info.value)

    def test_unknown_framework(self):
        with pytest.raises(SpecError, match="unknown framework"):
            ExperimentSpec(algorithm="bfs", framework="spark",
                           dataset="rmat_mini")

    def test_unknown_param_names_valid_ones(self):
        with pytest.raises(SpecError) as info:
            ExperimentSpec(algorithm="pagerank", framework="native",
                           dataset="rmat_mini",
                           params={"iteratoins": 3})
        assert "'iteratoins'" in str(info.value)
        assert "iterations" in str(info.value)
        assert "damping" in str(info.value)

    def test_shim_rejects_typoed_kwargs(self, graph):
        # The historical bug: a misspelled parameter silently vanished
        # into the runner's keyword tail. Now it is a typed error.
        with pytest.raises(SpecError, match="valid:"):
            run(ExperimentSpec("pagerank", "native", graph,
                               params={"iteratoins": 3}))

    def test_bad_nodes_and_scale(self):
        with pytest.raises(SpecError, match="nodes"):
            ExperimentSpec(algorithm="bfs", framework="native",
                           dataset="rmat_mini", nodes=0)
        with pytest.raises(SpecError, match="scale_factor"):
            ExperimentSpec(algorithm="bfs", framework="native",
                           dataset="rmat_mini", scale_factor=0.0)

    def test_bad_kernels_backend(self):
        with pytest.raises(SpecError, match="kernel backend"):
            ExperimentSpec(algorithm="bfs", framework="native",
                           dataset="rmat_mini", kernels="simd")

    @pytest.mark.parametrize("algorithm,params", [
        ("pagerank", {"iterations": 0}),
        ("pagerank", {"damping": 0.0}),
        ("label_propagation", {"iterations": -3}),
        ("collaborative_filtering", {"hidden_dim": 0}),
        ("collaborative_filtering", {"method": "adam"}),
        ("sssp", {"source": -1}),
    ])
    def test_out_of_range_param_values(self, algorithm, params):
        with pytest.raises(SpecError, match=next(iter(params))):
            ExperimentSpec(algorithm=algorithm, framework="native",
                           dataset="rmat_mini", params=params)

    def test_source_is_checked_against_the_graph_at_start(self, graph):
        # Only the run knows the vertex count; still the typed error.
        with pytest.raises(SpecError, match="out of range"):
            run(ExperimentSpec("bfs", "graphlab", graph,
                               params={"source": graph.num_vertices}))

    def test_valid_params_union(self):
        params = valid_params("pagerank")
        assert "iterations" in params
        assert "damping" in params               # native + vertex engines
        assert "tolerance" in params             # native-only — union'd in
        cf = valid_params("collaborative_filtering")
        assert "hidden_dim" in cf and "method" in cf
        assert "superstep_splits" in cf          # giraph-only — union'd in

    def test_param_the_framework_does_not_take(self):
        # tolerance is PageRank's, but SociaLite's rules have none: a
        # typed refusal naming the framework and what it does accept.
        with pytest.raises(SpecError) as info:
            ExperimentSpec(algorithm="pagerank", framework="socialite",
                           dataset="rmat_mini", params={"tolerance": 1e-3})
        message = str(info.value)
        assert "socialite" in message and "'tolerance'" in message
        assert "damping, iterations, optimized" in message
        assert "tolerance" in accepted_params("pagerank", "native")
        assert "options" not in accepted_params("pagerank", "combblas")

    @pytest.mark.parametrize("framework", ["native", "combblas", "kdt",
                                           "graphlab", "galois"])
    def test_tolerance_belongs_to_the_program(self, graph, framework):
        # Every program-driven family stops PageRank at the same sweep.
        cell = run(ExperimentSpec("pagerank", framework, graph,
                                  params={"iterations": 50,
                                          "tolerance": 1e-3}))
        assert cell.result.iterations == 16

    def test_frozen(self):
        spec = ExperimentSpec(algorithm="bfs", framework="native",
                              dataset="rmat_mini")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.nodes = 4


#: One in-range value per name any ``valid_params`` can return.
PARAM_VALUES = {
    "damping": 0.2, "gamma0": 0.002, "hidden_dim": 4, "iterations": 2,
    "lambda_reg": 0.05, "method": "gd", "optimized": True,
    "options": NativeOptions(), "profile_override": None, "seed": 1,
    "source": 1, "step_decay": 0.9, "superstep_splits": 2,
    "tolerance": 1e-3,
}


class TestEveryValidParameterOnEveryFramework:
    """A spec-valid parameter yields a result or a typed error.

    ``valid_params`` is per algorithm and runners are per framework, so
    a name one framework takes used to reach another's runner and die
    there as a raw ``TypeError``.
    """

    @pytest.fixture(scope="class")
    def datasets(self):
        graph = rmat_graph(scale=6, edge_factor=4, seed=3, directed=False)
        return {
            "pagerank": rmat_graph(scale=6, edge_factor=4, seed=3),
            "triangle_counting": rmat_triangle_graph(scale=6, edge_factor=4,
                                                     seed=3),
            "collaborative_filtering": netflix_like_ratings(
                6, num_items=16, seed=3),
            **dict.fromkeys(("bfs", "wcc", "sssp", "k_core",
                             "label_propagation"), graph),
        }

    @pytest.mark.parametrize("framework", FRAMEWORKS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_run_result_or_repro_error(self, datasets, algorithm, framework):
        names = valid_params(algorithm)
        assert set(names) <= set(PARAM_VALUES)
        for name in names:
            taken = name in accepted_params(algorithm, framework)
            try:
                cell = run(ExperimentSpec(
                    algorithm, framework, datasets[algorithm],
                    enforce_memory=False,
                    params={name: PARAM_VALUES[name]}))
            except ReproError as error:
                assert isinstance(error, SpecError) and not taken, \
                    (name, error)
                assert framework in str(error)
            else:
                assert isinstance(cell, RunResult) and taken, name


class TestSerialization:
    def test_roundtrip(self):
        spec = ExperimentSpec(
            algorithm="pagerank", framework="giraph", dataset="facebook",
            nodes=4, scale_factor=2.5, deadline_s=10.0,
            kernels="vectorized", faults="drop(p=0.01)", fault_seed=3,
            params={"iterations": 2},
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_in_memory_dataset_does_not_serialize(self, graph):
        spec = ExperimentSpec(algorithm="bfs", framework="native",
                              dataset=graph)
        with pytest.raises(SpecError, match="catalog-name"):
            spec.to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecError, match="unknown spec field"):
            ExperimentSpec.from_dict({"algorithm": "bfs",
                                      "framework": "native",
                                      "dataset": "rmat_mini",
                                      "cluster": 4})


class TestRunEquivalence:
    def test_run_cell_equals_spec_run(self):
        # A cell key is the same front door: run_cell places the dataset
        # and builds exactly the spec a caller would write by hand.
        keyed = run_cell({"algorithm": "pagerank", "framework": "native",
                          "nodes": 2}, params={"iterations": 3})
        data, factor = experiment_dataset("pagerank", nodes=2)
        spec = ExperimentSpec(algorithm="pagerank", framework="native",
                              dataset=data, nodes=2, scale_factor=factor,
                              params={"iterations": 3})
        typed = run(spec)
        assert keyed.status == typed.status == "ok"
        assert np.array_equal(keyed.result.values, typed.result.values)
        assert keyed.runtime() == typed.runtime()
        assert keyed.config == typed.config

    def test_string_dataset_resolves_through_catalog(self):
        spec = ExperimentSpec(algorithm="bfs", framework="native",
                              dataset="rmat_mini")
        result = run(spec)
        assert result.ok
        assert result.runtime() > 0

    def test_spec_kernels_pins_backend(self, graph):
        by_backend = {}
        for backend in ("vectorized", "interpreted"):
            spec = ExperimentSpec(algorithm="pagerank", framework="native",
                                  dataset=graph, kernels=backend,
                                  params={"iterations": 2})
            by_backend[backend] = run(spec)
        vec, interp = by_backend["vectorized"], by_backend["interpreted"]
        assert np.array_equal(vec.result.values, interp.result.values)
        assert vec.runtime() == interp.runtime()

    def test_chaos_spec_still_runs(self, graph):
        spec = ExperimentSpec(algorithm="pagerank", framework="giraph",
                              dataset=graph, nodes=4,
                              faults="crash(node=2, superstep=1)",
                              params={"iterations": 3})
        result = run(spec)
        assert result.ok
        assert result.recovery is not None
        assert result.recovery.crashes == 1
