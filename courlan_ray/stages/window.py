"""Rolling (sliding) time-window aggregate per key + sessionization.

``SUM/COUNT OVER (PARTITION BY key ORDER BY t RANGE BETWEEN width
PRECEDING AND CURRENT ROW)`` — the streaming-window operator Ray Data
lacks (its groupby windows are tumbling only via key truncation, cf.
pipelines/queries.events_window).

Shape: ONE keyed exchange (``joins.keyed_map``) co-locates each key in
one block, then a per-block vectorized kernel sorts by (key, t) once
and computes every row's window with prefix sums + one ``searchsorted``
per key group (O(n log n) per block, no per-row Python).  An input that
fits one task skips the exchange: the same kernel runs once on the
driver over the collected input (``joins.kernel_by_key``).

Hot keys: by default one key's rows must fit a block (same
assumption as stages/asof.py).  Passing ``chunk_ns >= width_ns`` lifts
it — rows are split into time chunks of ``chunk_ns``, rows within
``width_ns`` of a chunk's end are REPLICATED into the next chunk (they
can fall inside next-chunk windows), and the exchange key becomes
(key, chunk), so a hot key spreads over ceil(span/chunk_ns) blocks.
Replicas contribute to sums but are not emitted; totals are exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .asof import _ts_i64


def _round6(x: np.ndarray) -> np.ndarray:
    """Half-up to 6 decimals — mirror of the SQL twin's
    ``floor(x*1e6 + 0.5)/1e6``; removes prefix-sum-vs-window-sum last-bit
    noise (inputs are 2-decimal values, so both sides land on the same
    grid point)."""
    return np.floor(x * 1_000_000 + 0.5) / 1_000_000


def _window_bounds(tss: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                   width: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row window bounds as GLOBAL indices into the (key, t)-sorted
    arrays: ``lo[i]`` = first index in row i's group with t >= t_i - width,
    ``hi[i]`` = first index with t > t_i (so the window is rows [lo, hi)).

    Fully segmented — ONE ``searchsorted`` over a composite coordinate
    instead of a Python loop over key groups (VERDICT round 2 next #2;
    segmented style modeled on stages/lsh._link_all).  The composite for a
    row in group g is ``base[g] + (t - t_min[g])`` with per-group bases
    spaced ``span + width + 2`` apart, so a query ``comp - width`` can
    never cross into the previous group's coordinate range and a query
    ``comp`` never into the next's.  Groups are processed in chunks whose
    cumulative base stays < 2^62 (int64-safe even for pathological spans);
    realistic partitions are one chunk."""
    lo = np.empty(tss.size, dtype=np.int64)
    hi = np.empty(tss.size, dtype=np.int64)
    n_groups = starts.size
    # float overestimate for the overflow guard (exact int math per chunk)
    step_f = (tss[ends - 1] - tss[starts]).astype(np.float64) \
        + float(width) + 2.0
    g0 = 0
    while g0 < n_groups:
        g1 = max(g0 + 1,
                 g0 + int(np.searchsorted(np.cumsum(step_f[g0:]), 2.0 ** 62)))
        sl = slice(starts[g0], ends[g1 - 1])
        st = starts[g0:g1] - starts[g0]
        en = ends[g0:g1] - starts[g0]
        t = tss[sl]
        gidx = np.repeat(np.arange(g1 - g0), en - st)
        step = (t[en - 1] - t[st]) + np.int64(width) + 2
        base = np.zeros(g1 - g0, dtype=np.int64)
        np.cumsum(step[:-1], out=base[1:])
        comp = base[gidx] + (t - t[st][gidx])
        lo[sl] = np.searchsorted(comp, comp - width, side="left") + starts[g0]
        hi[sl] = np.searchsorted(comp, comp, side="right") + starts[g0]
        g0 = g1
    return lo, hi


def rolling_window_agg(ds, *, on: str, by: str, value_col: str,
                       width_ns: int, keep_cols: list[str] | None = None,
                       chunk_ns: int | None = None):
    """Per row: count and sum of the same key's rows with
    ``t in [row.t - width, row.t]`` (inclusive both ends, matching SQL
    RANGE BETWEEN ... PRECEDING AND CURRENT ROW).  Emits ``keep_cols`` +
    ``by`` + ``on`` + ``n_window`` + ``sum_window``.

    ``chunk_ns``: optional hot-key time-splitting (see module docstring);
    must be >= ``width_ns``."""
    from .joins import kernel_by_key, safe_combine

    if chunk_ns is not None and chunk_ns < width_ns:
        raise ValueError("chunk_ns must be >= width_ns (a window may span "
                         "at most one chunk boundary)")
    keep = keep_cols or []
    chunked = chunk_ns is not None

    def explode(b: pa.Table) -> pa.Table:
        ts = _ts_i64(b[on])
        chunk = ts // chunk_ns
        main = b.append_column("__chunk", pa.array(chunk, pa.int64()))
        main = main.append_column("__main",
                                  pa.array(np.ones(b.num_rows, dtype=bool)))
        near_end = ts >= (chunk + 1) * chunk_ns - width_ns
        rep = b.filter(pa.array(near_end))
        rep = rep.append_column("__chunk",
                                pa.array(chunk[near_end] + 1, pa.int64()))
        rep = rep.append_column("__main",
                                pa.array(np.zeros(rep.num_rows, dtype=bool)))
        return pa.concat_tables([main, rep])

    def kernel(b: pa.Table) -> pa.Table:
        b = safe_combine(b)
        n = b.num_rows
        if n == 0:
            return pa.table({
                **{c: b[c] for c in keep + [by, on]},
                "n_window": pa.array([], pa.int64()),
                "sum_window": pa.array([], pa.float64())})
        keys = b[by].to_numpy(zero_copy_only=False)
        ts = _ts_i64(b[on])
        vals = b[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if chunked:
            # group on the EXACT (key, chunk) composite: several chunks of
            # one key can share a partition, and replicas must never mix
            # across chunks.  Dense int64 group ids from a lexsort +
            # pairwise-inequality boundaries — not a 64-bit hash identity,
            # whose collision would silently merge two groups (same fix as
            # stages/asof.py, ADVICE r3)
            chunkv = b["__chunk"].to_numpy(zero_copy_only=False)
            kcodes = np.unique(keys, return_inverse=True)[1]
            corder = np.lexsort((chunkv, kcodes))
            ks0, cs0 = kcodes[corder], chunkv[corder]
            new = np.empty(n, dtype=bool)
            new[0] = True
            new[1:] = (ks0[1:] != ks0[:-1]) | (cs0[1:] != cs0[:-1])
            gkey = np.empty(n, dtype=np.int64)
            gkey[corder] = np.cumsum(new) - 1
            is_main = b["__main"].to_numpy(zero_copy_only=False)
        else:
            gkey = keys
            is_main = np.ones(n, dtype=bool)

        order = np.lexsort((ts, gkey))
        ks, tss, vs = gkey[order], ts[order], vals[order]
        uk, starts = np.unique(ks, return_index=True)
        ends = np.append(starts[1:], n)
        # SQL RANGE frames include CURRENT ROW's PEERS (equal t), not just
        # rows at-or-before this row's sort position — hi is side="right"
        lo, hi = _window_bounds(tss, starts, ends, width_ns)
        # global prefix sum in extended precision: window sums are
        # differences of prefix values that can grow to the partition
        # total, and float64 cumsum noise there would exceed the _round6
        # grid; float80 keeps the error orders below it
        cum = np.zeros(n + 1, dtype=np.longdouble)
        np.cumsum(vs, dtype=np.longdouble, out=cum[1:])
        cnt = hi - lo
        sm = (cum[hi] - cum[lo]).astype(np.float64)

        emit = is_main[order]
        out = b.take(pa.array(order[emit], pa.int64()))
        cols = {c: out[c] for c in keep + [by, on]}
        cols["n_window"] = pa.array(cnt[emit], pa.int64())
        cols["sum_window"] = pa.array(_round6(sm[emit]), pa.float64())
        return pa.table(cols)

    pre = ds.map_batches(explode, batch_format="pyarrow") if chunked else ds
    return kernel_by_key(pre, [by, "__chunk"] if chunked else [by], kernel)


def sessionize(ds, *, on: str, by: str, gap_ns: int,
               keep_cols: list[str] | None = None):
    """Gap-based sessionization: per key (ordered by t), a new session
    starts when the gap to the previous row exceeds ``gap_ns``.  Emits
    ``keep_cols`` + ``by`` + ``on`` + ``session_num`` (1-based per key)
    + ``session_id`` (key-qualified string).  Same shape, partitioning
    assumption and one-task driver side as ``rolling_window_agg``."""
    from .joins import kernel_by_key, safe_combine

    keep = keep_cols or []

    def kernel(b: pa.Table) -> pa.Table:
        b = safe_combine(b)
        n = b.num_rows
        if n == 0:
            return pa.table({
                **{c: b[c] for c in keep + [by, on]},
                "session_num": pa.array([], pa.int64()),
                "session_id": pa.array([], pa.string())})
        keys = b[by].to_numpy(zero_copy_only=False)
        ts = _ts_i64(b[on])

        order = np.lexsort((ts, keys))
        ks, tss = keys[order], ts[order]
        new = np.ones(n, dtype=np.int64)
        if n > 1:
            same_key = ks[1:] == ks[:-1]
            small_gap = (tss[1:] - tss[:-1]) <= gap_ns
            new[1:] = (~(same_key & small_gap)).astype(np.int64)
        # per-key 1-based session ordinal: global cumsum minus the key's
        # offset (first row of each key restarts the count)
        cum = np.cumsum(new)
        first_of_key = np.ones(n, dtype=bool)
        if n > 1:
            first_of_key[1:] = ks[1:] != ks[:-1]
        key_base = np.maximum.accumulate(np.where(first_of_key, cum - 1, 0))
        sess = cum - key_base

        out = b.take(pa.array(order, pa.int64()))
        cols = {c: out[c] for c in keep + [by, on]}
        cols["session_num"] = pa.array(sess, pa.int64())
        cols["session_id"] = pa.array(
            [f"{k}#{s}" for k, s in zip(ks.tolist(), sess.tolist())],
            pa.string())
        return pa.table(cols)

    return kernel_by_key(ds, [by], kernel)
