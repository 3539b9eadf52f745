"""Catalog of the paper's datasets and their laptop-scale proxies.

Table 3 of the paper lists six real-world datasets and two large
synthetics. The real datasets are not redistributable (and Twitter alone
is 30 GB), so per the reproduction plan each is replaced by a *proxy*: an
RMAT synthetic whose vertex/edge ratio matches the original and whose
size is scaled down by ``1/DOWNSCALE`` so every experiment runs in-memory
in seconds. The paper itself validates this substitution: "the trends on
the synthetic dataset are in line with real-world data" (Section 5.2).

Every proxy is deterministic given its seed, and the catalog keeps the
paper's original statistics alongside for Table 3 regeneration.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SpecError
from ..graph import CSRGraph
from .ratings import netflix_like_ratings
from .rmat import rmat_graph, rmat_triangle_graph

#: Linear downscale factor between the paper's dataset sizes and the
#: proxies generated here (vertex counts are divided by roughly this).
DOWNSCALE = 256


@dataclass(frozen=True)
class DatasetSpec:
    """One row of Table 3 plus the one recipe for its proxy.

    ``seed`` builds the directed proxy and its symmetrized variant,
    ``triangle_seed`` the id-oriented reduced-triangle variant; a graph
    entry has whichever it names. Ratings entries set ``num_items``.
    """

    name: str
    kind: str                      # "graph" or "ratings"
    paper_vertices: str
    paper_edges: int
    description: str
    algorithms: tuple
    scale: int
    edge_factor: int
    seed: int = None
    triangle_seed: int = None
    num_items: int = None

    def build(self):
        """Materialize the proxy dataset (deterministic)."""
        if self.kind == "ratings":
            return netflix_like_ratings(self.scale, self.num_items,
                                        edge_factor=self.edge_factor,
                                        seed=self.seed)
        if self.seed is None:
            return self.triangle_graph()
        return self.graph(directed=True)

    def graph(self, directed: bool) -> CSRGraph:
        if self.kind != "graph" or self.seed is None:
            raise SpecError(f"no graph variant configured for {self.name}")
        return rmat_graph(self.scale, edge_factor=self.edge_factor,
                          seed=self.seed, directed=directed)

    def triangle_graph(self) -> CSRGraph:
        if self.kind != "graph" or self.triangle_seed is None:
            raise SpecError(f"no triangle variant configured for {self.name}")
        return rmat_triangle_graph(self.scale, edge_factor=self.edge_factor,
                                   seed=self.triangle_seed)


# Edge factors approximate each real dataset's average degree:
# Facebook 14.3, Wikipedia 23.8, LiveJournal 17.7, Twitter 23.8.
CATALOG = {
    "facebook": DatasetSpec(
        name="facebook", kind="graph",
        paper_vertices="2,937,612", paper_edges=41_919_708,
        description="Facebook user interaction graph [34]",
        algorithms=("pagerank", "bfs", "triangle_counting"),
        scale=13, edge_factor=14, seed=101, triangle_seed=201,
    ),
    "wikipedia": DatasetSpec(
        name="wikipedia", kind="graph",
        paper_vertices="3,566,908", paper_edges=84_751_827,
        description="Wikipedia link graph [14]",
        algorithms=("pagerank", "bfs", "triangle_counting"),
        scale=13, edge_factor=24, seed=102, triangle_seed=202,
    ),
    "livejournal": DatasetSpec(
        name="livejournal", kind="graph",
        paper_vertices="4,847,571", paper_edges=85_702_475,
        description="LiveJournal follower graph [14]",
        algorithms=("pagerank", "bfs", "triangle_counting"),
        scale=14, edge_factor=18, seed=103, triangle_seed=203,
    ),
    "twitter": DatasetSpec(
        name="twitter", kind="graph",
        paper_vertices="61,578,415", paper_edges=1_468_365_182,
        description="Twitter follower graph [20] (multi-node dataset)",
        algorithms=("pagerank", "bfs", "triangle_counting"),
        scale=16, edge_factor=24, seed=104, triangle_seed=204,
    ),
    "netflix": DatasetSpec(
        name="netflix", kind="ratings",
        paper_vertices="480,189 users x 17,770 movies", paper_edges=99_072_112,
        description="Netflix Prize ratings [9]",
        algorithms=("collaborative_filtering",),
        scale=13, edge_factor=24, seed=105, num_items=290,
    ),
    "yahoo_music": DatasetSpec(
        name="yahoo_music", kind="ratings",
        paper_vertices="1,000,990 users x 624,961 items", paper_edges=252_800_275,
        description="Yahoo! KDDCup 2011 music ratings [7] (multi-node dataset)",
        algorithms=("collaborative_filtering",),
        scale=14, edge_factor=28, seed=106, num_items=2400,
    ),
    "synthetic_graph500": DatasetSpec(
        name="synthetic_graph500", kind="graph",
        paper_vertices="536,870,912", paper_edges=8_589_926_431,
        description="Graph500 RMAT, largest weak-scaling point (Section 4)",
        algorithms=("pagerank", "bfs"),
        scale=15, edge_factor=16, seed=107, triangle_seed=207,
    ),
    "synthetic_collaborative": DatasetSpec(
        name="synthetic_collaborative", kind="ratings",
        paper_vertices="63,367,472 users x 1,342,176 items",
        paper_edges=16_742_847_256,
        description="Synthetic power-law ratings, largest weak-scaling point",
        algorithms=("collaborative_filtering",),
        scale=15, edge_factor=24, seed=108, num_items=5000,
    ),
    # Small, fast datasets used by unit tests and Table 1 characterization.
    "rmat_mini": DatasetSpec(
        name="rmat_mini", kind="graph",
        paper_vertices="-", paper_edges=0,
        description="Tiny RMAT graph for tests and algorithm characterization",
        algorithms=("pagerank", "bfs"),
        scale=10, edge_factor=8, seed=1, triangle_seed=21,
    ),
    "rmat_mini_triangles": DatasetSpec(
        name="rmat_mini_triangles", kind="graph",
        paper_vertices="-", paper_edges=0,
        description="Tiny id-oriented RMAT graph for triangle counting",
        algorithms=("triangle_counting",),
        scale=10, edge_factor=8, triangle_seed=2,
    ),
}

#: Datasets used for the Figure 3 single-node panels, per the paper.
SINGLE_NODE_GRAPHS = ("livejournal", "facebook", "wikipedia")
SINGLE_NODE_RATINGS = ("netflix",)


def _spec(name: str) -> DatasetSpec:
    try:
        return CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise SpecError(f"unknown dataset {name!r}; known: {known}") from None


def dataset(name: str):
    """Build the named proxy dataset; unknown names are a ``SpecError``."""
    return _spec(name).build()


def triangle_variant(name: str) -> CSRGraph:
    """Triangle-counting version of a graph proxy: reduced-triangle RMAT
    parameters and id-orientation, as the paper prescribes."""
    return _spec(name).triangle_graph()


def bfs_variant(name: str) -> CSRGraph:
    """Undirected (symmetrized) version of a graph proxy for BFS."""
    return _spec(name).graph(directed=False)
