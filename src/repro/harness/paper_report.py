"""One-document reproduction report: the fidelity table + all artifacts.

``generate_report()`` regenerates every table and figure, scores them
against the paper (:mod:`repro.harness.fidelity`) and emits a single
markdown document — the artifact a reproducibility reviewer reads first.
Nothing in it depends on when or where it ran, so the committed
``reproduction_report.md`` can be ``cmp``'d. The CLI exposes it as
``python -m repro report``.
"""

from __future__ import annotations

from collections import Counter

from . import fidelity
from .artifacts import ARTIFACTS

#: Title of the first section; the headline follows the colon.
FIDELITY_SECTION = "## Fidelity to the paper: "


def generate_report() -> str:
    """Regenerate everything; return the markdown report."""
    data = {name: artifact.producer()
            for name, artifact in ARTIFACTS.items()}
    scored = fidelity.evaluate(data)
    count = Counter(row["status"] for row in scored)
    outside = count["gap"] + count["unexplained"] + count["stale"]
    lines = [
        "# Reproduction report",
        "",
        "Satish et al., SIGMOD 2014: every number of the paper this "
        "repository models, then every regenerated table and figure.",
        "",
        f"{FIDELITY_SECTION}{len(scored) - outside} of {len(scored)} within "
        f"tolerance · {count['gap']} documented gaps · "
        f"{count['unexplained']} unexplained · {count['stale']} stale",
        "",
        fidelity.render(scored),
        "",
    ]
    for name, artifact in ARTIFACTS.items():
        lines.extend([f"## {name}", "", "```", artifact.text(data[name]),
                      "```", ""])
    return "\n".join(lines)
