"""SociaLite tables: horizontally sharded tuple stores.

"In SociaLite, the graph and its meta data is stored in tables, and
declarative rules are written to implement graph algorithms. SociaLite
tables are horizontally partitioned, or sharded ... the runtime
partitions and distributes the tables accordingly" (Section 3). Two
table kinds cover the paper's programs:

* :class:`TupleTable` — a plain bag of rows (EDGE, OUTEDGE, INEDGE).
  Declared "tail-nested" tables are stored CSR-style: grouped and
  indexed by the first column, "effectively implementing a CSR format"
  (Section 3.1). A table over a graph (:meth:`TupleTable.of_graph`)
  *is* that CSR: its index is the graph's ``offsets`` and its columns
  the graph's own per-edge arrays, so nothing is sorted or copied.
* :class:`AggregateTable` — a keyed table whose value column carries a
  lattice aggregation (``$SUM``, ``$MIN``, ``$INC``), e.g. ``RANK`` or
  ``BFS``. Stored densely over the key universe.

A key outside its table's universe is a :class:`~repro.errors.
KeyRangeError`, never a wrapped-around index.
"""

from __future__ import annotations

import numpy as np

from ...errors import KeyRangeError, ReproError
from ...graph import partition_vertices_1d
from ...graph.csr import edge_slots
from ...kernels.segments import distinct, stable_order


def _check_keys(keys: np.ndarray, universe: int, table: str) -> None:
    """Refuse keys outside ``[0, universe)`` with one reduction.

    Viewed as ``uint64`` a negative id is huge, so one ``max`` finds
    both ends of the range.
    """
    if keys.size and int(keys.astype(np.int64, copy=False)
                         .view(np.uint64).max()) >= universe:
        bad = keys[(keys < 0) | (keys >= universe)][0]
        raise KeyRangeError(f"table {table}: key {int(bad)} outside "
                            f"[0, {universe})")


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
        #: Rows ascend by ``(col 0, col 1)``: a CSR graph's order.
        self.pairs_ascending = False
        self._index = None
        if tail_nested:
            keys = self.columns[0]
            _check_keys(keys, key_universe, name)
            order = stable_order(keys, key_universe)
            self.columns = [col[order] for col in self.columns]
            self._index = np.zeros(key_universe + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.columns[0], minlength=key_universe),
                      out=self._index[1:])

    @classmethod
    def of_graph(cls, name: str, graph, *extra_columns,
                 num_shards: int = 1) -> "TupleTable":
        """``graph`` as a tail-nested table: the graph is the table.

        Columns are the graph's per-edge sources and targets (plus any
        ``extra_columns`` aligned with them); the index is
        ``graph.offsets``. No sort, copy or count is made.
        """
        table = cls(name, [graph.sources(), graph.targets, *extra_columns],
                    num_shards, key_universe=graph.num_vertices)
        table.tail_nested = table.pairs_ascending = True
        table._index = graph.offsets
        return table

    @property
    def arity(self) -> int:
        return len(self.columns)

    def rows_per_shard(self) -> np.ndarray:
        """Rows owned by each shard (a row by its first column)."""
        return np.bincount(self.partition.owner_of_many(self.columns[0]),
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
        self.values = np.empty(self.key_universe)
        self.present = np.empty(self.key_universe, dtype=bool)
        self.reset()

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
        _check_keys(keys, self.key_universe, self.name)
        touched = distinct(keys, self.key_universe)
        before = self.values[touched]
        if self.agg == "sum":
            np.add.at(self.values, keys, values)
        elif self.agg == "count":
            np.add.at(self.values, keys, 1.0)
        else:
            np.minimum.at(self.values, keys, values)
        self.present[touched] = True
        return touched[self.values[touched] != before]

    def reset(self) -> None:
        identity = np.inf if self.agg == "min" else 0.0
        self.values[:] = identity
        self.present[:] = False

    def defined_keys(self) -> np.ndarray:
        return np.nonzero(self.present)[0]

    def nbytes(self) -> int:
        return int(self.values.nbytes + self.present.nbytes)
