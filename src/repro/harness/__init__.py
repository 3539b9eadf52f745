"""Experiment harness: regenerate every table and figure of the paper."""

from . import report
from .artifacts import ARTIFACTS, Artifact
from .datasets import (
    HARNESS_HIDDEN_DIM,
    HARNESS_ITERATIONS,
    PAPER_EDGES_PER_NODE,
    experiment_dataset,
    single_node_graph,
    single_node_ratings,
    weak_scaling_dataset,
)
from .figures import figure3, figure4, figure5, figure6, figure7, sgd_vs_gd
from .graph500 import Graph500Result, graph500_protocol, run_graph500
from .outofcore import OutOfCoreCell, run_outofcore_demo
from .persistence import load_artifact, save_artifact
from ..errors import (
    CELL_STATUSES,
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_OOM,
    STATUS_TIMEOUT,
    STATUS_UNSUPPORTED,
)
from .runner import (
    RunResult,
    default_params,
    run,
    run_cell,
)
from .spec import ExperimentSpec, valid_params
from .supervisor import SupervisorPolicy, SupervisorPool, SupervisorStats
from .sweep import (
    CellOutcome,
    CellPolicy,
    CellRecord,
    Sweep,
    SweepResult,
    execute_cell,
    outcome_of,
    sweep_cell,
)
from .tables import table1, table2, table3, table4, table5, table6, table7

__all__ = [
    "ARTIFACTS",
    "Artifact",
    "CELL_STATUSES",
    "CellOutcome",
    "CellPolicy",
    "CellRecord",
    "ExperimentSpec",
    "execute_cell",
    "Graph500Result",
    "graph500_protocol",
    "OutOfCoreCell",
    "run_outofcore_demo",
    "STATUS_CRASHED",
    "STATUS_FAILED",
    "STATUS_TIMEOUT",
    "SupervisorPolicy",
    "SupervisorPool",
    "SupervisorStats",
    "Sweep",
    "SweepResult",
    "outcome_of",
    "load_artifact",
    "run_graph500",
    "save_artifact",
    "HARNESS_HIDDEN_DIM",
    "HARNESS_ITERATIONS",
    "PAPER_EDGES_PER_NODE",
    "RunResult",
    "STATUS_OK",
    "STATUS_OOM",
    "STATUS_UNSUPPORTED",
    "default_params",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "experiment_dataset",
    "report",
    "run",
    "run_cell",
    "sgd_vs_gd",
    "sweep_cell",
    "valid_params",
    "single_node_graph",
    "single_node_ratings",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "weak_scaling_dataset",
]
