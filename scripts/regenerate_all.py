"""Regenerate every table and figure of the paper and print them.

    python scripts/regenerate_all.py > results.txt

The artifacts are the rows of ``repro.harness.artifacts.ARTIFACTS``;
this is ``python -m repro regenerate`` (a few minutes; timings on stderr).
"""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["regenerate"]))
