"""Distributed exact top-k row selection (heavy hitters / ranked heads).

Top-k under a lexicographic sort order is ASSOCIATIVE: the global top-k is
contained in the union of per-block top-ks, so the scale-correct plan is a
per-block partial top-k merged again -- never a global ``ds.sort`` (an
all-to-all range shuffle of every row to rank k of them).

``topk_rows`` has no key to exchange on: its partials merge through
``agg.combine_tree``, where each merge task holds at most ``_FANOUT * k``
rows and the tree is ``log_fanout(blocks)`` deep.  ``topk_per_group``
follows the keyed-reduction size rule (``agg.reduce_by_key``).  Ties are
broken by the caller-supplied sort key list, which must be a TOTAL order
(include a unique id column last) for the result to be deterministic and
oracle-comparable.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def topk_rows(ds, sort_keys: list[tuple[str, str]], k: int):
    """Exact global top-k rows of ``ds`` under ``sort_keys``.

    sort_keys: [(column, "ascending"|"descending"), ...] — must totally
    order the rows (append a unique id) for deterministic output.
    Returns a Dataset with <= k rows, sorted by ``sort_keys``.
    """
    order = [(c, d) for c, d in sort_keys]

    def local(b: pa.Table) -> pa.Table:
        if b.schema.metadata:      # pandas blob makes hash(Schema) raise
            b = b.replace_schema_metadata(None)
        if b.num_rows == 0:
            return b
        idx = pc.sort_indices(b, sort_keys=order)
        return b.take(idx.slice(0, k))

    from .agg import combine_tree
    return combine_tree(ds, local)


def topk_per_group(ds, group_keys: list[str],
                   sort_keys: list[tuple[str, str]], k: int, *,
                   rank_col: str | None = None):
    """Exact top-k rows PER GROUP (the "best N documents per domain"
    operator): SQL's ``row_number() OVER (PARTITION BY ... ORDER BY ...)
    <= k`` without a global sort.

    Per-group top-k is associative like global top-k, so the plan is the
    same partial/combine shape: each block keeps its local top-k per group
    (one group-major vectorized sort + segmented rank, no per-group loop),
    then one final pass over the partials (``agg.reduce_by_key``): on the
    driver when they fit one place, else per block of ONE keyed exchange
    on ``group_keys``, where every group lands wholly in one block -- the
    10^9-groups topology.  A zero-row input gives the typed empty result.

    ``sort_keys`` must totally order rows within a group (append a unique
    id) for deterministic, oracle-comparable output.

    ``rank_col``: optionally stamp each surviving row's 1-based position
    within its group (SQL's ``row_number()``) under that column name.  The
    local kernel re-stamps in the final pass, which sees each group whole;
    the per-block stamps are recomputed, never trusted."""
    from .agg import reduce_by_key

    order = [(g, "ascending") for g in group_keys] + list(sort_keys)

    def local(b: pa.Table) -> pa.Table:
        if b.schema.metadata:      # pandas blob makes hash(Schema) raise
            b = b.replace_schema_metadata(None)
        n = b.num_rows
        if n == 0:
            # keep the schema stable across empty/non-empty blocks
            if rank_col is not None and rank_col not in b.column_names:
                b = b.append_column(rank_col, pa.array([], pa.int64()))
            return b
        if rank_col is not None and rank_col in b.column_names:
            b = b.drop_columns([rank_col])     # re-stamped below
        t = b.take(pc.sort_indices(b, sort_keys=order))
        change = np.zeros(n, dtype=bool)
        change[0] = True
        for c in group_keys:
            a = t[c].to_numpy(zero_copy_only=False)
            change[1:] |= a[1:] != a[:-1]
        gstart = np.flatnonzero(change)
        gid = np.cumsum(change) - 1
        pos = np.arange(n, dtype=np.int64) - gstart[gid]
        keep = pos < k
        t = t.filter(pa.array(keep))
        if rank_col is not None:
            t = t.append_column(rank_col, pa.array(pos[keep] + 1))
        return t

    return reduce_by_key(ds, group_keys, local, local)
