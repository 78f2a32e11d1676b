"""Exact distributed quantiles (type-1 / ``quantile_disc`` semantics).

No sort, no full collect: the narrow column is pinned once
(``materialize()`` — blocks stay in the object store, upstream transforms
never re-execute), then three cheap passes read it:

  0. (min, max, n) per block — tiny per-block rows summed on the driver.
  1. histogram pass: every block bincounts its values over a fixed grid
     between the global (min, max); the tiny per-block histograms sum on
     the driver.
  2. refinement pass: the global ranks of the requested quantiles locate
     their histogram buckets; ONLY values inside those buckets are pulled
     (a ~n/bins-row filter), and the exact order statistic is selected by
     rank within the bucket.

Wall cost is three passes over one pinned narrow column; driver memory
is O(bins + n/bins).  With heavy duplicate skew a bucket can be large —
``bins`` trades refinement size against histogram size (default 4096:
10^9 rows -> ~250k-row refinement collect).

``quantile_disc`` (SQL) returns the value whose 0-based rank is
``ceil(q * n) - 1`` for q in (0, 1] — matched exactly here, so the
DuckDB twin hashes bit-identically (values are COPIES of input values,
never interpolations).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def exact_quantiles(ds, col: str, qs: list[float], *, bins: int = 4096):
    """Dataset -> pa.Table (q:float64, value:float64) with the exact
    type-1 quantiles of ``ds[col]`` (null values excluded)."""

    narrow = ds.select_columns([col]).materialize()

    def hist(b: pa.Table) -> pa.Table:
        v = b[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        lo = float(v.min()) if v.size else np.inf
        hi = float(v.max()) if v.size else -np.inf
        return pa.table({"lo": pa.array([lo]), "hi": pa.array([hi]),
                         "n": pa.array([int(v.size)], pa.int64())})

    stats = narrow.map_batches(hist, batch_format="pyarrow").to_pandas()
    n = int(stats["n"].sum()) if len(stats) else 0
    if n == 0:
        return pa.table({"q": pa.array(qs, pa.float64()),
                         "value": pa.array([None] * len(qs), pa.float64())})
    lo, hi = float(stats["lo"].min()), float(stats["hi"].max())
    if hi <= lo:                       # constant column
        return pa.table({"q": pa.array(qs, pa.float64()),
                         "value": pa.array([lo] * len(qs), pa.float64())})
    width = (hi - lo) / bins

    def bucket_counts(b: pa.Table) -> pa.Table:
        v = b[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        idx = np.clip(((v - lo) / width).astype(np.int64), 0, bins - 1)
        return pa.table({"counts": pa.array(
            [np.bincount(idx, minlength=bins).astype(np.int64)])})

    parts = narrow.map_batches(bucket_counts,
                               batch_format="pyarrow").to_pandas()
    counts = np.sum(np.stack(parts["counts"].to_numpy()), axis=0)
    cum = np.cumsum(counts)

    # target 0-based ranks (quantile_disc): ceil(q*n) - 1, clipped
    ranks = np.clip(np.ceil(np.asarray(qs) * n).astype(np.int64) - 1, 0,
                    n - 1)
    need_buckets = np.unique(np.searchsorted(cum, ranks + 1))

    need_sorted = np.sort(need_buckets)

    def refine(b: pa.Table) -> pa.Table:
        v = b[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        # SAME bucket-index formula as the histogram pass — range
        # predicates recomputed from lo + b*width can disagree by 1 ulp
        # at bucket boundaries and desynchronize the two passes
        idx = np.clip(((v - lo) / width).astype(np.int64), 0, bins - 1)
        pos = np.clip(np.searchsorted(need_sorted, idx), 0,
                      need_sorted.size - 1)
        m = need_sorted[pos] == idx
        return pa.table({col: pa.array(v[m], pa.float64())})

    cand = np.sort(narrow.map_batches(refine, batch_format="pyarrow")
                   .to_pandas()[col].to_numpy())
    base = np.zeros(bins, dtype=np.int64)
    base[1:] = cum[:-1]
    out_vals = []
    for q, r in zip(qs, ranks):
        bi = int(np.searchsorted(cum, r + 1))
        # rank within the candidate array: candidates of earlier selected
        # buckets precede (cand is globally sorted across the few buckets)
        before = int(sum(counts[b] for b in need_buckets if b < bi))
        out_vals.append(float(cand[before + (r - base[bi])]))
    return pa.table({"q": pa.array(list(map(float, qs)), pa.float64()),
                     "value": pa.array(out_vals, pa.float64())})


def grouped_quantiles(ds, keys: list[str], col: str, qs: list[float]):
    """Exact per-GROUP quantiles (type-1 / ``quantile_disc`` semantics):
    ONE keyed exchange on ``keys`` (``joins.keyed_map``) + a per-block
    vectorized kernel (group-major sort, then rank selection on group
    offset arrays — no per-group Python loop).  Every key lands wholly in
    one block, so it is exact at any group count; a single group must fit
    one block (the usual keyed-exchange contract — for one giant group use
    the global ``exact_quantiles`` histogram plan instead).

    NULL values are ignored within each group and an all-NULL group
    yields NULL values — exactly SQL's aggregate-null semantics, so the
    quantile_disc twin holds on null-bearing columns too (NaN, like in
    DuckDB, is an ordinary largest-sorting double, not a null).

    Returns keys + (q:float64, value:float64), one row per group per q."""
    import pyarrow.compute as pc

    from .joins import keyed_map

    narrow = ds.select_columns(keys + [col])
    qarr = np.asarray(sorted(qs), dtype=np.float64)

    def kernel(b: pa.Table) -> pa.Table:
        if b.schema.metadata:
            b = b.replace_schema_metadata(None)
        if b.num_rows == 0:
            cols = {k: b[k] for k in keys}
            cols["q"] = pa.array([], pa.float64())
            cols["value"] = pa.array([], pa.float64())
            return pa.table(cols)
        order = [(k, "ascending") for k in keys] + [(col, "ascending")]
        # nulls sort to the END of each group (pyarrow default), so the
        # valid prefix of a group is contiguous and ranks select over it
        t = b.take(pc.sort_indices(b, sort_keys=order))
        n = t.num_rows
        change = np.zeros(n, dtype=bool)
        change[0] = True
        for k in keys:
            a = t[k].to_numpy(zero_copy_only=False)
            change[1:] |= a[1:] != a[:-1]
        gstart = np.flatnonzero(change)
        sizes = np.diff(np.append(gstart, n))
        gid = np.cumsum(change) - 1
        valid = ~pc.is_null(t[col]).to_numpy(zero_copy_only=False)
        n_valid = np.bincount(gid[valid], minlength=gstart.size)
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        # 0-based rank per (group, q) over the group's NON-NULL prefix:
        # ceil(q*n_valid) - 1, clipped — same formula as exact_quantiles /
        # quantile_disc (aggregates ignore nulls)
        ranks = np.clip(np.ceil(qarr[None, :] * n_valid[:, None])
                        .astype(np.int64) - 1, 0,
                        np.maximum(n_valid - 1, 0)[:, None])
        sel = (gstart[:, None] + ranks).ravel()
        vals = v[sel]
        # all-NULL groups -> NULL output (mask, NOT NaN: a genuine NaN
        # data value selected by rank must stay NaN, as in DuckDB)
        null_out = np.repeat(n_valid == 0, qarr.size)
        head = t.take(pa.array(np.repeat(gstart, qarr.size), pa.int64()))
        cols = {k: head[k] for k in keys}
        cols["q"] = pa.array(np.tile(qarr, gstart.size), pa.float64())
        cols["value"] = pa.array(vals, pa.float64(),
                                 mask=null_out if null_out.any() else None)
        return pa.table(cols)

    return keyed_map(narrow, keys, kernel)
