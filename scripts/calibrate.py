"""Calibration dashboard: measured slowdowns vs the paper's Tables 5/6.

Run after any cost-model change:  python scripts/calibrate.py
"""

import sys

from repro.harness import run_cell

PAPER_SINGLE = {   # Table 5
    "pagerank": {"combblas": 1.9, "graphlab": 3.6, "socialite": 2.0,
                 "giraph": 39.0, "galois": 1.2},
    "bfs": {"combblas": 2.5, "graphlab": 9.3, "socialite": 7.3,
            "giraph": 567.8, "galois": 1.1},
    "collaborative_filtering": {"combblas": 3.5, "graphlab": 5.1,
                                "socialite": 5.8, "giraph": 54.4,
                                "galois": 1.1},
    "triangle_counting": {"combblas": 33.9, "graphlab": 3.2,
                          "socialite": 4.7, "giraph": 484.3, "galois": 2.5},
}
PAPER_MULTI = {   # Table 6
    "pagerank": {"combblas": 2.5, "graphlab": 12.1, "socialite": 7.9,
                 "giraph": 74.4},
    "bfs": {"combblas": 7.1, "graphlab": 29.5, "socialite": 18.9,
            "giraph": 494.3},
    "collaborative_filtering": {"combblas": 3.5, "graphlab": 7.1,
                                "socialite": 7.0, "giraph": 87.9},
    "triangle_counting": {"combblas": 13.1, "graphlab": 3.6,
                          "socialite": 1.5, "giraph": 54.4},
}


def main():
    only = sys.argv[1] if len(sys.argv) > 1 else None
    for nodes, paper in ((1, PAPER_SINGLE), (4, PAPER_MULTI)):
        print(f"\n=== {nodes} node(s): measured (paper) ===")
        for algo, targets in paper.items():
            if only and only not in algo:
                continue
            key = {"algorithm": algo, "nodes": nodes}
            base = run_cell({**key, "framework": "native"}).runtime()
            line = f"{algo[:20]:22s} native={base:8.3f}s  "
            for fw, target in targets.items():
                r = run_cell({**key, "framework": fw}, enforce_memory=False)
                if r.ok:
                    line += f"{fw[:4]}={r.runtime() / base:7.1f} ({target:g}) "
                else:
                    line += f"{fw[:4]}={r.status[:6]} ({target:g}) "
            print(line)


if __name__ == "__main__":
    main()
