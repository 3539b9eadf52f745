"""SociaLite tables: horizontally sharded tuple stores.

"In SociaLite, the graph and its meta data is stored in tables, and
declarative rules are written to implement graph algorithms. SociaLite
tables are horizontally partitioned, or sharded ... the runtime
partitions and distributes the tables accordingly" (Section 3). Two
table kinds cover the paper's programs:

* :class:`TupleTable` — a plain bag of rows (EDGE, OUTEDGE, INEDGE).
  Declared "tail-nested" tables are stored CSR-style: grouped and
  indexed by the first column, "effectively implementing a CSR format"
  (Section 3.1).
* :class:`AggregateTable` — a keyed table whose value column carries a
  lattice aggregation (``$SUM``, ``$MIN``, ``$INC``), e.g. ``RANK`` or
  ``BFS``. Stored densely over the key universe.
"""

from __future__ import annotations

import numpy as np

from ...errors import ReproError
from ...graph import partition_vertices_1d
from ...graph.csr import edge_slots
from ...kernels.segments import distinct


class TupleTable:
    """Immutable bag of rows; optionally indexed (tail-nested) on col 0."""

    def __init__(self, name: str, columns, num_shards: int = 1,
                 key_universe: int = None, tail_nested: bool = False):
        self.name = name
        self.columns = [np.asarray(col) for col in columns]
        if not self.columns:
            raise ReproError(f"table {name} needs at least one column")
        length = self.columns[0].shape[0]
        if any(col.shape != (length,) for col in self.columns):
            raise ReproError(f"table {name}: ragged columns")
        self.num_rows = length
        self.tail_nested = tail_nested
        if key_universe is None:
            key_universe = int(self.columns[0].max()) + 1 if length else 1
        self.key_universe = key_universe
        self.partition = partition_vertices_1d(key_universe, num_shards)
        self._index = None
        if tail_nested:
            self._build_index()

    def _build_index(self):
        order = np.argsort(self.columns[0], kind="stable")
        self.columns = [col[order] for col in self.columns]
        counts = np.bincount(self.columns[0], minlength=self.key_universe)
        self._index = np.zeros(self.key_universe + 1, dtype=np.int64)
        np.cumsum(counts, out=self._index[1:])

    @property
    def arity(self) -> int:
        return len(self.columns)

    def shard_of_rows(self) -> np.ndarray:
        """Owning shard of every row (by the first column)."""
        return self.partition.owner_of_many(self.columns[0])

    def rows_per_shard(self) -> np.ndarray:
        return np.bincount(self.shard_of_rows(),
                           minlength=self.partition.num_parts)

    def lookup(self, keys: np.ndarray):
        """Tail-nested probe: rows whose first column matches each key.

        Returns ``(row_indices, match_counts)`` with rows grouped per
        input key, like a CSR adjacency gather.
        """
        if self._index is None:
            raise ReproError(f"table {self.name} is not tail-nested")
        return edge_slots(self._index, keys)

    def nbytes(self) -> int:
        return int(sum(col.nbytes for col in self.columns))


class AggregateTable:
    """Dense keyed table with a lattice aggregation on its value column."""

    _AGGS = ("sum", "min", "count")

    def __init__(self, name: str, key_universe: int, agg: str,
                 num_shards: int = 1):
        if agg not in self._AGGS:
            raise ReproError(f"unknown aggregation {agg!r}; use {self._AGGS}")
        self.name = name
        self.agg = agg
        self.key_universe = int(key_universe)
        self.partition = partition_vertices_1d(self.key_universe, num_shards)
        identity = np.inf if agg == "min" else 0.0
        self.values = np.full(self.key_universe, identity)
        self.present = np.zeros(self.key_universe, dtype=bool)

    def combine(self, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Fold (key, value) pairs in; returns the keys whose value changed.

        ``$SUM`` accumulates, ``$MIN`` keeps minima (the monotone lattice
        that makes recursive BFS converge), ``$INC`` counts.
        """
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if keys.shape != values.shape:
            raise ReproError("keys and values must align")
        if keys.size == 0:
            return keys
        before = self.values[keys]
        if self.agg == "sum":
            np.add.at(self.values, keys, values)
        elif self.agg == "count":
            np.add.at(self.values, keys, 1.0)
        else:
            np.minimum.at(self.values, keys, values)
        self.present[keys] = True
        changed_mask = self.values[keys] != before
        return distinct(keys[changed_mask], self.key_universe)

    def reset(self) -> None:
        identity = np.inf if self.agg == "min" else 0.0
        self.values[:] = identity
        self.present[:] = False

    def defined_keys(self) -> np.ndarray:
        return np.nonzero(self.present)[0]

    def nbytes(self) -> int:
        return int(self.values.nbytes + self.present.nbytes)
