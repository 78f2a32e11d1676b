"""Associative grouped aggregation: partial-combine tree instead of a
keyed exchange.

Every grouped operation this engine needs (bucket representative = min,
keeper = min, counters = sum) is ASSOCIATIVE, so the plan is map-side
partial aggregation followed by a combine tree (the "pre-aggregate inside
map_batches before a small groupby" rule, SURVEY.md §4 / ray_guide
aggregation section):

  pass 1: pyarrow ``group_by`` per block (C-vectorized)
  pass k: coalesce blocks ``fanout``-to-1 (``repartition`` without
          shuffle moves no rows) and re-combine per merged block
  final:  one block holds one row per key.

The tree's root holds every key in one task, so the tree runs only when
the input fits one task (``joins.fits_one_task``): a materialized input is
measured itself, a lazy one on its materialized partials — which the tree
materializes anyway, so nothing runs twice.  Above it, the partials go
through one keyed exchange (``joins.keyed_map``), the topology for 10^9+
distinct keys.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_MERGE_FN = {"min": "min", "max": "max", "sum": "sum", "count": "sum"}


def _partials(ds, first):
    """``first`` per block of ``ds``, and the materialized dataset that
    measures the input: ``ds`` itself when materialized (the partials then
    chain lazily), else the partials, materialized here."""
    from ray.data.dataset import MaterializedDataset

    cur = ds.map_batches(first, batch_format="pyarrow", batch_size=None)
    if isinstance(ds, MaterializedDataset):
        return cur, ds
    cur = cur.materialize()
    return cur, cur


def _reduce(cur, nb: int, merge, fanout: int):
    # block counts are known without executing: per-block maps are 1:1 and
    # repartition(n) yields exactly n blocks — so the whole tree chains
    # LAZILY and executes in ONE streaming run (each intermediate
    # materialize() cost a full executor launch, ~0.4 s of pure
    # orchestration per round)
    while nb > 1:
        nb = max(1, nb // fanout)
        cur = cur.repartition(nb).map_batches(
            merge, batch_format="pyarrow", batch_size=None)
    return cur.materialize()


def combine_tree(ds, merge, *, first=None, fanout: int = 8):
    """Fanout-to-1 tree reduction shared by every associative partial/
    combine stage (grouped aggs, top-k, sketches): apply ``first`` (or
    ``merge``) per input block, then repeatedly coalesce blocks
    fanout-to-1 (``repartition`` without shuffle moves no rows) and
    re-apply ``merge`` until ONE block remains.  ``merge`` must be
    associative and idempotent on its own output."""
    cur, measured = _partials(ds, first or merge)
    return _reduce(cur, measured.num_blocks(), merge, fanout)


def tree_or_keyed(ds, keys: list[str], first, merge, *, fanout: int = 8):
    """``combine_tree`` when the input fits one task; else ``first`` per
    block, one keyed exchange on ``keys`` and ``merge`` per block (every
    key then lies whole in one block)."""
    from .joins import fits_one_task, keyed_map

    cur, measured = _partials(ds, first)
    if fits_one_task(measured):
        return _reduce(cur, measured.num_blocks(), merge, fanout)
    return keyed_map(cur, keys, merge)


def grouped_agg(ds, keys: list[str], specs: list[tuple[str, str, str]], *,
                fanout: int = 8):
    """Grouped aggregation of ``ds`` by ``keys``.

    specs: (input_col, fn, output_col) with fn in {min,max,sum,count}.
    Returns a Dataset with columns keys + output_cols (one row per key).

    Map-side partial aggregation, then the combine tree or, when the input
    does not fit one task, one keyed exchange and a per-block final
    combine (``tree_or_keyed``): every distinct key lands wholly in one
    block, so no task holds more than ~1/B of the key space for B blocks.
    """
    # a count over a key column is re-pointed at a synthetic ones column
    # (pyarrow can't aggregate a grouping key)
    needs_ones = any(fn == "count" and c in keys for c, fn, _ in specs)
    eff = [("__one" if (fn == "count" and c in keys) else c, fn, out)
           for c, fn, out in specs]
    first_specs = [(c, "count" if fn == "count" else fn) for c, fn, _ in eff]
    first_names = [f"{c}_{'count' if fn == 'count' else fn}"
                   for c, fn, _ in eff]
    out_cols = [out for _, _, out in eff]
    merge_specs = [(out, _MERGE_FN[fn]) for _, fn, out in eff]
    merge_names = [f"{out}_{_MERGE_FN[fn]}" for _, fn, out in eff]

    def partial(b: pa.Table) -> pa.Table:
        if needs_ones:
            b = b.append_column("__one", pa.array(
                np.ones(b.num_rows, dtype=np.int64)))
        agg = b.group_by(keys).aggregate(first_specs)
        cols = {k: agg[k] for k in keys}
        for name, out in zip(first_names, out_cols):
            cols[out] = agg[name]
        return pa.table(cols)

    def combine(b: pa.Table) -> pa.Table:
        agg = b.group_by(keys).aggregate(merge_specs)
        cols = {k: agg[k] for k in keys}
        for name, out in zip(merge_names, out_cols):
            cols[out] = agg[name]
        return pa.table(cols)

    return tree_or_keyed(ds, keys, partial, combine, fanout=fanout)


def grouped_concat(ds, keys: list[str], col: str, *, sep: str = ",",
                   out_col: str | None = None,
                   count_col: str | None = None):
    """Order-sensitive group-concat (SQL ``string_agg(col, sep ORDER BY
    col)``): one row per key tuple with the ``sep``-joined, ascending-
    sorted values of ``col`` — the posting-list / collect-list
    aggregation the {min,max,sum,count} combine tree can't express.

    Topology: value order makes map-side pre-aggregation impossible
    (partial strings from different blocks interleave), so this is a
    straight ONE keyed exchange on ``keys`` (``joins.keyed_map``) + a
    per-block vectorized sort + pandas group-join — every key lands
    wholly in one block, exchange volume is the (keys, col) projection.  String
    assembly is inherently object-dtype; everything before it
    (sort, grouping) is columnar.

    ``count_col``: optionally also emit the per-key value count.

    NULL values of ``col`` are skipped, matching ``string_agg`` /
    ``count(col)``; a group whose values are all NULL is omitted (SQL
    would emit it with a NULL aggregate — only-null groups needing
    presence should pre-fill a sentinel)."""
    import pyarrow.compute as pc

    out_col = out_col or f"{col}_list"
    from .joins import keyed_map

    narrow = ds.select_columns(keys + [col])

    def kernel(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b[col]))
        if b.num_rows == 0:        # typed empty (from_pandas would emit
            cols = {k: b[k] for k in keys}          # null-type columns)
            cols[out_col] = pa.array([], pa.string())
            if count_col is not None:
                cols[count_col] = pa.array([], pa.int64())
            return pa.table(cols)
        df = b.to_pandas().sort_values(keys + [col])
        g = df.groupby(keys, sort=True)[col]
        joined = g.agg(lambda v: sep.join(v.astype(str)))
        out = joined.reset_index().rename(columns={col: out_col})
        if count_col is not None:
            out[count_col] = g.size().reset_index(drop=True).astype("int64")
        # strip the pandas metadata blob from_pandas attaches — it makes
        # hash(pa.Schema) raise inside downstream exchanges
        return pa.Table.from_pandas(
            out, preserve_index=False).replace_schema_metadata(None)

    return keyed_map(narrow, keys, kernel)

