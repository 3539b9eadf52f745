"""Bipartite ratings graph for collaborative filtering.

The paper treats the ratings matrix ``R`` as "edge weights of a bipartite
graph" between users and items (Figure 1). This module stores that graph in
both orientations (by-user CSR and by-item CSR) because gradient descent
aggregates over both sides, plus a flat COO triple view for SGD's
random-order edge sweep.
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
        self._by_user = None
        self._by_item = None

    @property
    def num_ratings(self) -> int:
        return int(self.ratings.size)

    def by_user(self) -> CSRGraph:
        """CSR with one row per user; targets are item ids."""
        if self._by_user is None:
            # Users and items share no id space, so build a CSR over
            # max(num_users, num_items) rows; only user rows are populated.
            n = max(self.num_users, self.num_items)
            edges = EdgeList(n, self.users, self.items, self.ratings)
            self._by_user = CSRGraph.from_edges(edges)
        return self._by_user

    def by_item(self) -> CSRGraph:
        """CSR with one row per item; targets are user ids."""
        if self._by_item is None:
            n = max(self.num_users, self.num_items)
            edges = EdgeList(n, self.items, self.users, self.ratings)
            self._by_item = CSRGraph.from_edges(edges)
        return self._by_item

    def user_degrees(self) -> np.ndarray:
        return np.bincount(self.users, minlength=self.num_users).astype(np.int64)

    def item_degrees(self) -> np.ndarray:
        return np.bincount(self.items, minlength=self.num_items).astype(np.int64)

    def shuffled(self, rng: np.random.Generator) -> "RatingsMatrix":
        """Ratings in a uniformly random order (one SGD epoch's sweep)."""
        order = rng.permutation(self.num_ratings)
        return RatingsMatrix(
            self.num_users, self.num_items,
            self.users[order], self.items[order], self.ratings[order],
        )

    def split(self, rng: np.random.Generator, holdout_fraction: float = 0.1):
        """Train/validation split for measuring generalization RMSE."""
        if not 0.0 < holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")
        mask = rng.random(self.num_ratings) < holdout_fraction
        train = RatingsMatrix(
            self.num_users, self.num_items,
            self.users[~mask], self.items[~mask], self.ratings[~mask],
        )
        held = RatingsMatrix(
            self.num_users, self.num_items,
            self.users[mask], self.items[mask], self.ratings[mask],
        )
        return train, held

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
