"""Experiment harness: regenerate every table and figure of the paper.

Importing the package loads none of its submodules: each public name
below resolves, on first use, from the submodule that defines it
(PEP 562). The lookup is not cached into this module, so a name always
answers with its defining module's current binding.
"""

import importlib

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "ARTIFACTS": "artifacts",
    "Artifact": "artifacts",
    "experiment_dataset": "datasets",
    "figure3": "figures",
    "figure4": "figures",
    "figure5": "figures",
    "figure6": "figures",
    "figure7": "figures",
    "sgd_vs_gd": "figures",
    "save_artifact": "persistence",
    "RunResult": "runner",
    "default_params": "runner",
    "run": "runner",
    "run_cell": "runner",
    "ExperimentSpec": "spec",
    "SupervisorPool": "supervisor",
    "CellPolicy": "sweep",
    "Sweep": "sweep",
    "table1": "tables",
    "table2": "tables",
    "table3": "tables",
    "table4": "tables",
    "table5": "tables",
    "table6": "tables",
    "table7": "tables",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
