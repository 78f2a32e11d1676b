"""Associative grouped aggregation: per-block partials, then the one
size rule.

Every grouped operation this engine needs (bucket representative = min,
keeper = min, counters = sum) is ASSOCIATIVE, so the plan is map-side
partial aggregation before the keyed step (the "pre-aggregate inside
map_batches before a small groupby" rule, SURVEY.md §4 / ray_guide
aggregation section):

  pass 1: pyarrow ``group_by`` per block (C-vectorized), materialized
  pass 2: ``joins.kernel_by_key`` on the partials: merged once on the
          driver when they fit ``joins.SMALL_BYTES``, else one keyed
          exchange (``joins.keyed_map``) and a merge per block, every key
          then whole in one block -- the topology for 10^9+ distinct keys.

Keyless reductions (global top-k, Bloom filters, Misra-Gries) have no key
to exchange on; ``combine_tree`` merges their partials ``_FANOUT``-to-1,
which bounds what one task holds.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_MERGE_FN = {"min": "min", "max": "max", "sum": "sum", "count": "sum"}
#: blocks one ``combine_tree`` merge task reads
_FANOUT = 8


def combine_tree(ds, merge, *, first=None):
    """Keyless tree reduction (top-k, Bloom bits, Misra-Gries): apply
    ``first`` (or ``merge``) per input block, then repeatedly coalesce
    blocks ``_FANOUT``-to-1 (``repartition`` without shuffle moves no
    rows) and re-apply ``merge`` until ONE block remains.  ``merge`` must
    be associative and idempotent on its own output.

    Block counts are known without executing (per-block maps are 1:1 and
    ``repartition(n)`` yields n blocks), so over a materialized ``ds`` the
    whole tree runs in ONE streaming execution; a lazy ``ds`` has its
    partials materialized first to learn their count."""
    from ray.data.dataset import MaterializedDataset

    cur = ds.map_batches(first or merge, batch_format="pyarrow",
                         batch_size=None)
    if not isinstance(ds, MaterializedDataset):
        ds = cur = cur.materialize()
    nb = ds.num_blocks()
    while nb > 1:
        nb = max(1, nb // _FANOUT)
        cur = cur.repartition(nb).map_batches(
            merge, batch_format="pyarrow", batch_size=None)
    return cur.materialize()


def reduce_by_key(ds, keys: list[str], first, merge):
    """``first`` per block of ``ds``, materialized, then ``merge`` with
    every ``keys`` tuple whole in one call (``joins.kernel_by_key``: once
    on the driver when the partials fit one place, else per block of one
    keyed exchange), so ``merge`` sees each key's partials exactly once
    and may finish the result.  Ray calls no kernel on a zero-row input,
    so partials without a schema are replaced by ``merge`` of ``first`` of
    an empty batch of the input's columns: the typed empty result."""
    import ray.data as rd
    from .joins import kernel_by_key

    partials = ds.map_batches(first, batch_format="pyarrow",
                              batch_size=None).materialize()
    if partials.schema() is None and (schema := ds.schema()) is not None:
        return rd.from_arrow(merge(first(schema.base_schema.empty_table())))
    return kernel_by_key(partials, keys, merge)


def grouped_agg(ds, keys: list[str], specs: list[tuple[str, str, str]]):
    """Grouped aggregation of ``ds`` by ``keys``.

    specs: (input_col, fn, output_col) with fn in {min,max,sum,count}.
    Returns a Dataset with columns keys + output_cols (one row per key).

    Map-side partial aggregation, then one final combine of the partials
    (``reduce_by_key``): on the driver when they fit one place, else per
    block of one keyed exchange, where every distinct key lands wholly in
    one block, so no task holds more than ~1/B of the key space for B
    blocks.  A zero-row input gives the typed empty result.
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

    return reduce_by_key(ds, keys, partial, combine)


def grouped_concat(ds, keys: list[str], col: str, *, sep: str = ",",
                   out_col: str | None = None,
                   count_col: str | None = None):
    """Order-sensitive group-concat (SQL ``string_agg(col, sep ORDER BY
    col)``): one row per key tuple with the ``sep``-joined, ascending-
    sorted values of ``col`` — the posting-list / collect-list
    aggregation the {min,max,sum,count} partials can't express.

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

