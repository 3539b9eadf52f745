"""Bipartite ratings graph for collaborative filtering.

The paper treats the ratings matrix ``R`` as "edge weights of a bipartite
graph" between users and items (Figure 1). :class:`RatingsMatrix` holds
it as flat COO triples; :func:`bipartite_graph` is the one CSR form, over
a shared user + item vertex universe, that the engines distributing the
graph (CombBLAS's matrix, the vertex family's BSP engine) place.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphFormatError
from .csr import CSRGraph
from .edgelist import EdgeList


class RatingsMatrix:
    """Sparse user x item ratings, the input to collaborative filtering."""

    def __init__(self, num_users, num_items, users, items, ratings):
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.users = np.asarray(users, dtype=np.int64)
        self.items = np.asarray(items, dtype=np.int64)
        self.ratings = np.asarray(ratings, dtype=np.float64)
        if not (self.users.shape == self.items.shape == self.ratings.shape):
            raise GraphFormatError("users, items, ratings must be aligned 1-D arrays")
        if self.users.size:
            if self.users.min() < 0 or self.users.max() >= self.num_users:
                raise GraphFormatError("user id out of range")
            if self.items.min() < 0 or self.items.max() >= self.num_items:
                raise GraphFormatError("item id out of range")

    @property
    def num_ratings(self) -> int:
        return int(self.ratings.size)

    def user_degrees(self) -> np.ndarray:
        return np.bincount(self.users, minlength=self.num_users).astype(np.int64)

    def item_degrees(self) -> np.ndarray:
        return np.bincount(self.items, minlength=self.num_items).astype(np.int64)

    def nbytes(self) -> int:
        return self.users.nbytes + self.items.nbytes + self.ratings.nbytes

    def resident_nbytes(self) -> int:
        """Bytes held as anonymous memory; mmap-backed arrays count zero."""
        from .csr import resident_nbytes_of

        return resident_nbytes_of(self.users, self.items, self.ratings)

    def __repr__(self) -> str:
        return (
            f"RatingsMatrix(num_users={self.num_users}, "
            f"num_items={self.num_items}, num_ratings={self.num_ratings})"
        )


def bipartite_graph(ratings: RatingsMatrix) -> CSRGraph:
    """Unified bipartite CSR over a hashed id space.

    Users and items share one vertex universe, relabeled by a fixed
    random permutation. This emulates the hash partitioning real engines
    apply: with contiguous ids the (few, high-degree) item vertices
    would all land in one range partition and destroy load balance —
    a proxy artifact, not a property of the frameworks.
    """
    n = ratings.num_users + ratings.num_items
    relabel = np.random.default_rng(0xB17A).permutation(n)
    users = relabel[ratings.users]
    items = relabel[ratings.items + ratings.num_users]
    src = np.concatenate([users, items])
    dst = np.concatenate([items, users])
    return CSRGraph.from_edges(EdgeList(n, src, dst))
