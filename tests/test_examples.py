"""Smoke tests: the fast example scripts must run clean end-to-end."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: The examples quick enough for the unit suite. The longer ones are
#: only imported (below), which still catches a stale import.
FAST_EXAMPLES = ("quickstart.py", "custom_vertex_program.py",
                 "network_tuning.py", "bottleneck_analysis.py")


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


def test_quickstart_output_contains_verdict():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True, text=True, timeout=240,
    )
    assert "identical PageRank vectors" in result.stdout
    assert "slower than native" in result.stdout


def test_all_examples_exist_and_have_docstrings():
    scripts = sorted(EXAMPLES.glob("*.py"))
    assert len(scripts) >= 8
    for script in scripts:
        text = script.read_text()
        assert text.startswith('"""'), script.name
        assert "__main__" in text, script.name
        # Import without running main(): a stale import fails here.
        spec = importlib.util.spec_from_file_location(
            f"example_{script.stem}", script)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
