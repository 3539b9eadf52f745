"""The SociaLite rule evaluator with distributed accounting.

Evaluation is left-to-right binding propagation, the standard strategy
for Datalog bodies:

* the first atom seeds the binding table (optionally restricted to a
  *delta* for semi-naive recursive evaluation, as in [31]);
* a tail-nested atom whose first term is bound expands the bindings
  (CSR-style lookup — SociaLite's join on a tail-nested table);
* an atom whose terms are all bound becomes a semi-join existence
  filter (the third EDGE atom of the triangle query);
* an aggregate-table atom with a bound key is a functional gather.

Every evaluation produces (key, value) head tuples that are folded into
the head's lattice aggregation, plus an :class:`EvalStats` with the
scanned bytes, join output size and the node-to-node tuple shipping the
sharding implies — which the SociaLite front-end charges to the cluster.

Supported subset: joins connect on a single shared variable (plus
arbitrary all-bound semi-joins); this covers every program in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import ReproError
from ...kernels.segments import distinct, pair_traffic
from ...observability import NULL_TRACER
from .rules import Head, Rule, Var
from .table import AggregateTable


@dataclass
class EvalStats:
    """Counted work of one rule evaluation."""

    scanned_bytes: float = 0.0
    join_output_rows: float = 0.0
    produced_tuples: float = 0.0
    ops: float = 0.0
    traffic: np.ndarray = None        # head-shipping bytes, (P, P)
    work_share: np.ndarray = None     # fraction of work per shard
    changed: np.ndarray = None        # head keys whose value changed


class SocialiteEngine:
    """Holds the database and evaluates rules over it."""

    def __init__(self, num_shards: int = 1, tuple_bytes: float = 16.0,
                 vertex_universe: int = 1, tracer=NULL_TRACER):
        self.num_shards = num_shards
        self.tuple_bytes = tuple_bytes
        self.tracer = tracer
        self.tables = {}
        from ...graph import partition_vertices_1d
        self.shard_partition = partition_vertices_1d(
            max(int(vertex_universe), 1), num_shards
        )

    # -- schema ----------------------------------------------------------

    def add(self, table) -> None:
        self.tables[table.name] = table

    def table(self, name: str):
        try:
            return self.tables[name]
        except KeyError:
            raise ReproError(f"unknown table {name!r}") from None

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, rule: Rule, delta_keys: np.ndarray = None) -> EvalStats:
        """Evaluate one rule; fold results into the head table.

        ``delta_keys`` restricts the *first* body atom to rows whose key
        is in the delta (semi-naive evaluation of recursive rules).
        Returns the work/traffic statistics; the set of changed head
        keys is stored in ``stats.changed`` for recursion drivers.
        """
        stats = EvalStats(traffic=np.zeros((self.num_shards, self.num_shards)))
        bindings = self._seed(rule.body[0], delta_keys, stats)
        for atom in rule.body[1:]:
            bindings = self._extend(atom, bindings, stats)

        for assign in rule.assigns:
            inputs = [bindings[name] for name in assign.inputs]
            bindings[assign.target] = np.asarray(assign.fn(*inputs),
                                                 dtype=np.float64)

        producers, stats.work_share = self._shard_accounting(rule, bindings)
        stats.changed = self._fold_head(rule, bindings, producers, stats)
        if self.tracer.enabled:
            self.tracer.count("tuples_produced", stats.produced_tuples)
            self.tracer.count("tuples_scanned_bytes", stats.scanned_bytes)
            self.tracer.instant("rule", head=rule.head.table,
                                produced=stats.produced_tuples,
                                join_rows=stats.join_output_rows)
        return stats

    def _shard_accounting(self, rule: Rule, bindings: dict):
        """Shard evaluating each binding, and the work share per shard.

        A binding is evaluated by its shard var's owner. With one shard,
        or the shard var unbound, there are no owners (``None``) and
        the share is even.
        """
        share = np.full(self.num_shards, 1.0 / self.num_shards)
        if self.num_shards == 1 or rule.shard_var not in bindings:
            return None, share
        values = np.asarray(bindings[rule.shard_var], dtype=np.int64)
        producers = self.shard_partition.owner_of_many(
            np.clip(values, 0, self.shard_partition.num_vertices - 1))
        if producers.size:
            counts = np.bincount(producers, minlength=self.num_shards)
            share = counts.astype(np.float64) / counts.sum()
        return producers, share

    # -- body handling ---------------------------------------------------------

    def _seed(self, atom, delta_keys, stats) -> dict:
        table = self.table(atom.table)
        if isinstance(table, AggregateTable):
            key_term, value_term = atom.terms
            keys = table.defined_keys() if delta_keys is None \
                else np.asarray(delta_keys, dtype=np.int64)
            stats.scanned_bytes += 16.0 * keys.size
            bindings = {key_term.name: keys}
            if isinstance(value_term, Var):
                bindings[value_term.name] = table.values[keys]
            return bindings

        rows = np.arange(table.num_rows)
        if delta_keys is not None:
            rows = rows[np.isin(table.columns[0], delta_keys)]
        stats.scanned_bytes += self.tuple_bytes * rows.size * table.arity / 2
        return self._read(table, atom.terms, 0, rows, {})

    @staticmethod
    def _read(table, terms, start: int, rows, bindings) -> dict:
        """Bind ``terms[start:]`` to ``table``'s columns at ``rows``.

        A new variable binds its column; a constant or an already bound
        variable filters the bindings and the rows later columns are
        read at.
        """
        for position, term in enumerate(terms[start:], start=start):
            column = table.columns[position][rows]
            if isinstance(term, Var) and term.name not in bindings:
                bindings[term.name] = column
                continue
            keep = column == (bindings[term.name]
                              if isinstance(term, Var) else term)
            bindings = {name: col[keep] for name, col in bindings.items()}
            rows = rows[keep]
        return bindings

    def _extend(self, atom, bindings, stats) -> dict:
        table = self.table(atom.table)
        terms = atom.terms
        bound = [isinstance(t, Var) and t.name in bindings or
                 not isinstance(t, Var) for t in terms]

        if isinstance(table, AggregateTable):
            key_term, value_term = terms
            if not bound[0]:
                raise ReproError(
                    f"aggregate atom {atom} needs its key bound"
                )
            keys = np.asarray(bindings[key_term.name], dtype=np.int64)
            present = table.present[keys]
            # Dense keyed array: one 8-byte value gather per probe.
            stats.scanned_bytes += 8.0 * keys.size
            if not present.all():
                bindings = {name: col[present]
                            for name, col in bindings.items()}
                keys = keys[present]
            if isinstance(value_term, Var):
                bindings = {**bindings, value_term.name: table.values[keys]}
            return bindings

        if all(bound):
            return self._semi_join(table, atom, bindings, stats)

        if not bound[0] or not isinstance(terms[0], Var):
            raise ReproError(
                f"atom {atom}: joins must bind the first column "
                "(tail-nested access)"
            )
        if not table.tail_nested:
            raise ReproError(
                f"table {table.name} must be tail-nested to join on"
            )
        keys = np.asarray(bindings[terms[0].name], dtype=np.int64)
        row_idx, match_counts = table.lookup(keys)
        stats.scanned_bytes += self.tuple_bytes * row_idx.size
        stats.join_output_rows += row_idx.size
        stats.ops += 4.0 * row_idx.size
        return self._read(table, terms, 1, row_idx, {
            name: np.repeat(col, match_counts) for name, col in bindings.items()
        })

    def _semi_join(self, table, atom, bindings, stats) -> dict:
        """Existence filter for an atom whose terms are all bound."""
        if table.arity != 2:
            raise ReproError("semi-joins support binary tables only")
        universe = np.int64(max(table.key_universe,
                                int(table.columns[1].max()) + 1
                                if table.num_rows else 1))
        have = (table.columns[0].astype(np.int64) * universe
                + table.columns[1].astype(np.int64))
        if not table.pairs_ascending:
            have.sort()

        def column_of(term):
            if isinstance(term, Var):
                return np.asarray(bindings[term.name], dtype=np.int64)
            first = next(iter(bindings.values()))
            return np.full(first.shape, term, dtype=np.int64)

        probe = column_of(atom.terms[0]) * universe + column_of(atom.terms[1])
        position = np.minimum(np.searchsorted(have, probe), have.size - 1)
        keep = have[position] == probe if have.size \
            else np.zeros(probe.shape, bool)
        stats.ops += 6.0 * probe.size
        stats.scanned_bytes += 8.0 * probe.size
        return {name: col[keep] for name, col in bindings.items()}

    # -- head -------------------------------------------------------------------

    def _fold_head(self, rule: Rule, bindings: dict, producers,
                   stats) -> np.ndarray:
        head: Head = rule.head
        table = self.table(head.table)
        if not isinstance(table, AggregateTable):
            raise ReproError("rule heads must target aggregate tables")
        if not bindings:
            return np.zeros(0, dtype=np.int64)
        first = next(iter(bindings.values()))
        if isinstance(head.key, Var):
            keys = np.asarray(bindings[head.key.name], dtype=np.int64)
        else:
            keys = np.full(first.shape, int(head.key), dtype=np.int64)
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        if head.value is None:
            values = np.ones(keys.shape)
        elif isinstance(head.value, Var):
            values = np.asarray(bindings[head.value.name], dtype=np.float64)
        else:
            values = np.full(keys.shape, float(head.value))

        stats.produced_tuples += keys.size
        stats.ops += 2.0 * keys.size
        changed = table.combine(keys, values)
        if self.num_shards == 1:
            return changed

        # Shipping: tuples travel from the shard evaluating the body (the
        # shard_var binding, mapped through the engine's vertex sharding)
        # to the shard owning the head key. Updates headed from one shard
        # to the same key are batched into one transfer ("merging
        # communication data for batch processing", Section 6.1.3).
        if producers is None:
            producers = np.zeros(keys.shape, dtype=np.int64)
        owner = table.partition.owner_of_many(keys)
        cross = producers != owner
        if cross.any():
            pair = (producers[cross] * np.int64(table.key_universe)
                    + keys[cross])
            unique_pairs = distinct(pair,
                                    self.num_shards * table.key_universe)
            pair_producer = unique_pairs // table.key_universe
            pair_key = unique_pairs % table.key_universe
            pair_owner = table.partition.owner_of_many(pair_key)
            # The rule's traffic is still all zeros here, so adding the
            # folded matrix equals folding into it.
            stats.traffic += pair_traffic(pair_producer, pair_owner,
                                          self.tuple_bytes, self.num_shards)
        return changed
