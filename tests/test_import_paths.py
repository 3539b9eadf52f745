"""One import path per name.

A package ``__init__`` re-exports only what code outside the package
imports through it, and only from inside the package; ``import
repro.harness`` loads none of its submodules until a name is used; the
names the benchmark reads through a package resolve to the objects
their defining modules hold.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Package name -> its directory.
PACKAGES = {".".join(init.parent.relative_to(SRC).parts): init.parent
            for init in sorted((SRC / "repro").rglob("__init__.py"))}

#: What ``bench/`` reads through a package: (package, name, defining
#: submodule).
BENCH_NAMES = [
    *(("repro.harness", name, module) for name, module in (
        ("run", "runner"), ("ExperimentSpec", "spec"),
        ("default_params", "runner"), ("table5", "tables"),
        ("Sweep", "sweep"), ("SupervisorPool", "supervisor"))),
    *(("repro.datagen", name, module) for name, module in (
        ("rmat_graph", "rmat"), ("rmat_graph_sharded", "rmat"),
        ("rmat_triangle_graph", "rmat"),
        ("netflix_like_ratings", "ratings"))),
    ("repro.serve", "ExperimentService", "app"),
    ("repro.serve", "ServeClient", "client"),
    ("repro.perf", "roofline_table", "model"),
    ("repro.perf", "attribute_cell", "attribution"),
    *(("repro.algorithms", name, module) for name, module in (
        ("pagerank_reference", "pagerank"), ("bfs_reference", "bfs"),
        ("sssp_reference", "sssp"), ("wcc_reference", "wcc"),
        ("kcore_reference", "kcore"),
        ("label_propagation_reference", "labelprop"),
        ("triangle_count_reference", "triangles"))),
    ("repro.observability", "Tracer", "tracer"),
    ("repro.observability", "NullTracer", "tracer"),
    ("repro.observability", "peak_rss_bytes", "memory"),
    ("repro.graph", "CSRGraph", "csr"),
]

#: Submodules ``bench/`` imports from a package.
BENCH_SUBMODULES = ["repro.datagen.cache", "repro.datagen.rmat",
                    "repro.datagen.stream", "repro.graph.partition",
                    "repro.graph.sharded"]


@pytest.mark.parametrize("package, name, module", BENCH_NAMES,
                         ids=[f"{p}.{n}" for p, n, _ in BENCH_NAMES])
def test_a_bench_name_is_its_defining_object(package, name, module):
    defining = importlib.import_module(f"{package}.{module}")
    assert getattr(importlib.import_module(package), name) \
        is getattr(defining, name)


@pytest.mark.parametrize("module", BENCH_SUBMODULES)
def test_a_bench_submodule_imports_through_its_package(module):
    package, _, name = module.rpartition(".")
    namespace = {}
    exec(f"from {package} import {name}", namespace)
    assert namespace[name] is importlib.import_module(module)


def test_importing_the_harness_loads_no_engine():
    code = ("import sys, repro.harness, repro.datagen; "
            "print('\\n'.join(sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True,
                            check=True).stdout.split()
    heavy = [name for name in loaded
             if name == "scipy" or name.startswith(
                 ("scipy.", "repro.frameworks", "repro.chaos",
                  "repro.harness.supervisor"))]
    assert heavy == []


def test_the_harness_resolves_each_use_and_caches_nothing(monkeypatch):
    import repro.harness
    from repro.harness import runner

    assert repro.harness.run is runner.run
    assert "run" not in vars(repro.harness)
    # A swapped definition is what the package answers with, and
    # restoring it leaves nothing behind.
    monkeypatch.setattr(runner, "run", len)
    assert repro.harness.run is len
    monkeypatch.undo()
    assert repro.harness.run is runner.run
    with pytest.raises(AttributeError, match="nosuch"):
        repro.harness.nosuch
    from repro.harness import report
    assert report is importlib.import_module("repro.harness.report")


# ---------------------------------------------------------------------------
# The static guard: every re-export has an outside importer.
# ---------------------------------------------------------------------------


def _is_submodule(package, name) -> bool:
    path = PACKAGES[package] / name
    return path.with_suffix(".py").exists() or \
        (path / "__init__.py").exists()


def _resolve(path, node) -> str:
    """The absolute module an ``ImportFrom`` in ``path`` names."""
    if not node.level:
        return node.module
    if SRC not in path.parents:
        return None
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    parts = parts[:len(parts) - node.level]
    return ".".join(parts + ([node.module] if node.module else []))


def _uses(tree, path):
    """(package, name) for each name ``tree`` reads through a package:
    ``from <package> import name`` and ``<package alias>.name``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = \
                    alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            module = _resolve(path, node)
            for alias in node.names:
                if f"{module}.{alias.name}" in PACKAGES:
                    aliases[alias.asname or alias.name] = \
                        f"{module}.{alias.name}"
                elif module in PACKAGES \
                        and not _is_submodule(module, alias.name):
                    yield module, alias.name
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) \
                or aliases.get(node.id) not in PACKAGES:
            continue
        package = aliases[node.id]
        for attribute in reversed(chain):
            if f"{package}.{attribute}" not in PACKAGES:
                if not _is_submodule(package, attribute):
                    yield package, attribute
                break
            package = f"{package}.{attribute}"


def _outside_uses() -> set:
    """(package, name) pairs read from outside the package: code under
    src/, tests/, bench/, benchmarks/, examples/ and scripts/, and the
    python blocks of README, DESIGN and docs/."""
    found = set()
    for top in ("src", "tests", "bench", "benchmarks", "examples",
                "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == Path(__file__).resolve():
                continue
            for package, name in _uses(ast.parse(path.read_text()), path):
                if PACKAGES[package] not in path.parents:
                    found.add((package, name))
    fence = re.compile(r"```(?:python)?\n(.*?)```", re.S)
    for doc in [ROOT / "README.md", ROOT / "DESIGN.md",
                *sorted((ROOT / "docs").glob("*.md"))]:
        for block in fence.findall(doc.read_text()):
            try:
                tree = ast.parse(block)
            except SyntaxError:
                continue           # a shell or text block
            found.update(_uses(tree, doc))
    return found


def _exports(package) -> dict:
    """Name -> the module it comes from, for every name ``package``'s
    ``__init__`` binds by import or lists in ``__all__``."""
    init = PACKAGES[package] / "__init__.py"
    names = {}
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            module = _resolve(init, node)
            for alias in node.names:
                if not (module == package
                        and _is_submodule(package, alias.name)):
                    names[alias.asname or alias.name] = module
    loaded = importlib.import_module(package)
    for name in getattr(loaded, "__all__", ()):
        value = getattr(loaded, name)
        names.setdefault(name, value.__name__
                         if isinstance(value, types.ModuleType)
                         else getattr(value, "__module__", package))
    return names


def test_every_reexport_is_imported_from_outside_its_package():
    used = _outside_uses()
    unused = sorted(f"{package}.{name}" for package in PACKAGES
                    for name in _exports(package)
                    if (package, name) not in used)
    assert unused == [], (
        "a package re-exports a name nothing outside it imports through "
        "it; import it from its defining module and drop the re-export")


def test_no_package_reexports_from_another_package():
    foreign = sorted(f"{package}.{name} <- {module}"
                     for package in PACKAGES
                     for name, module in _exports(package).items()
                     if module != package
                     and not module.startswith(package + "."))
    assert foreign == []
