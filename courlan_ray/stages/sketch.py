"""Distributed sketches: HyperLogLog distinct-count estimation and
Misra-Gries heavy hitters.

The sketch shape for streams too large for exact answers: every block
reduces to a small fixed-size summary, summaries merge associatively, and
only the final tiny summary leaves the pipeline.  At 10^12 rows the
exchange volume per block is the summary size, independent of row count.

HLL: 2^p-byte register array, elementwise-MAX merge (associative +
commutative + IDEMPOTENT, so re-execution/retries cannot double-count);
standard Flajolet et al. 2007 estimator with the small-range
linear-counting correction; relative error ~= 1.04 / sqrt(2^p)
(p=12 -> ~1.6%).

Misra-Gries: <= ``capacity`` (key, count) pairs per summary; the
Agarwal et al. 2013 mergeable-summaries merge (sum counts, then subtract
the (capacity+1)-th largest and drop non-positives) preserves the
deterministic guarantee  true_count - n/capacity <= estimate <=
true_count  regardless of merge order or tree shape — the scale
complement to the exact ``stages/topk`` tree, the way ``hll_distinct``
complements exact distinct-count."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.hashing import hash_strings

_U64 = np.uint64


def _registers(values, p: int, seed: int) -> np.ndarray:
    """Register maxima (uint8[2^p]) of one value batch."""
    m = 1 << p
    h = hash_strings(np.asarray(values, dtype=object), seed=seed)
    reg_idx = (h >> _U64(64 - p)).astype(np.int64)
    rest = (h << _U64(p)) | _U64((1 << p) - 1)   # pad tail bits with 1s
    # rank = leading zeros of the remaining 64-p bits, +1
    lz = np.full(h.size, 64 - p, dtype=np.int64)
    probe = np.zeros(h.size, dtype=bool)
    cur = np.zeros(h.size, dtype=np.int64)
    bit = _U64(1) << _U64(63)
    for i in range(64 - p):
        hit = (rest & (bit >> _U64(i))) != 0
        new = hit & ~probe
        lz[new] = i
        probe |= hit
    rank = (lz + 1).astype(np.uint8)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, reg_idx, rank)
    return regs


def _estimate(regs: np.ndarray) -> float:
    m = regs.size
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)          # linear counting
    return float(est)


def hll_distinct(ds, col: str, *, p: int = 12, seed: int = 17) -> float:
    """Approximate COUNT(DISTINCT col) over a Dataset: per-block register
    arrays, elementwise-max merge of the tiny partials, one estimate."""

    def kernel(b: pa.Table) -> pa.Table:
        vals = b[col].to_pylist()
        regs = _registers(vals, p, seed) if vals else \
            np.zeros(1 << p, dtype=np.uint8)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    parts = ds.select_columns([col]).map_batches(
        kernel, batch_format="pyarrow").to_pandas()
    regs = np.zeros(1 << p, dtype=np.uint8)
    for blob in parts["regs"]:
        regs = np.maximum(regs, np.frombuffer(blob, dtype=np.uint8))
    return _estimate(regs)


def hll_distinct_by_key(ds, key: str, col: str, *, p: int = 12,
                        seed: int = 17):
    """Per-KEY approximate COUNT(DISTINCT col): one 2^p-byte HLL register
    row per key per block, merged by (key, elementwise max) with the
    keyed-reduction size rule (``agg.reduce_by_key``): once on the driver
    when the partials fit one place, else per block of one keyed exchange
    on ``key`` -- exchange volume is keys x 2^p bytes per block,
    independent of row count, and the idempotent max-merge stays
    retry-safe.  Returns (key, approx_distinct:float64).

    The sketch companion to the exact map-side-dedup plan
    (``extras.events_distinct_types``) for key spaces where exact
    per-group dedup no longer fits."""
    from .agg import reduce_by_key

    m = 1 << p

    def partial(b: pa.Table) -> pa.Table:
        ks, regs = [], []
        if b.num_rows:
            kv = b[key].to_numpy(zero_copy_only=False)
            vv = np.asarray(b[col].to_pylist(), dtype=object)
            order = np.argsort(kv, kind="stable")
            kv, vv = kv[order], vv[order]
            change = np.ones(kv.size, dtype=bool)
            change[1:] = kv[1:] != kv[:-1]
            starts = np.flatnonzero(change)
            ends = np.append(starts[1:], kv.size)
            for s, e in zip(starts, ends):    # one iteration per KEY GROUP
                ks.append(kv[s])              # (not per row; bounded by
                regs.append(_registers(vv[s:e], p, seed)  # keys per block)
                            .tobytes())
        return pa.table({key: pa.array(ks, b[key].type),
                         "regs": pa.array(regs, pa.binary())})

    def estimate(b: pa.Table) -> pa.Table:    # once per key
        if b.num_rows == 0:
            return pa.table({key: b[key],
                             "approx_distinct": pa.array([], pa.float64())})
        kv = b[key].to_numpy(zero_copy_only=False)
        stack = np.frombuffer(b"".join(b["regs"].to_pylist()),
                              dtype=np.uint8).reshape(-1, m)
        order = np.argsort(kv, kind="stable")
        kv = kv[order]
        change = np.ones(kv.size, dtype=bool)
        change[1:] = kv[1:] != kv[:-1]
        starts = np.flatnonzero(change)
        merged = np.maximum.reduceat(stack[order], starts, axis=0)
        return pa.table({key: b[key].take(pa.array(order[starts])),
                         "approx_distinct": pa.array(
                             [_estimate(r) for r in merged], pa.float64())})

    return reduce_by_key(ds.select_columns([key, col]), [key], partial,
                         estimate)


def mg_topk(ds, col: str, *, capacity: int = 256, k: int = 20, pre=None):
    """Approximate top-k heavy hitters (Misra-Gries, mergeable-summaries
    merge).  Returns a Dataset of <= k rows (col, est) sorted by estimate
    descending; ``est`` is a LOWER bound with deterministic error
    true - n/capacity <= est <= true (n = total value count), so any key
    whose true frequency exceeds n/capacity is guaranteed present.

    Exchange volume: <= ``capacity`` rows per block regardless of input
    size — the scale path when the exact ``topk.topk_rows``-over-
    ``grouped_agg`` plan's key cardinality exceeds the driver/exchange
    budget.  ``pre``: optional per-block transform (e.g. token explode)
    fused into the partial kernel."""
    import pyarrow.compute as pc

    def _compress(t: pa.Table) -> pa.Table:
        if t.num_rows <= capacity:
            return t
        c = t["est"].to_numpy()
        sub = c[np.argsort(-c, kind="stable")[capacity]]
        t = t.filter(pa.array(c - sub > 0))
        return pa.table({col: t[col],
                         "est": pa.array(t["est"].to_numpy() - sub,
                                         pa.int64())})

    def partial(b: pa.Table) -> pa.Table:
        if pre is not None:
            b = pre(b)
        if b.num_rows == 0:
            return pa.table({col: pa.array([], b[col].type),
                             "est": pa.array([], pa.int64())})
        t = b.select([col]).append_column(
            "__one", pa.array(np.ones(b.num_rows, dtype=np.int64)))
        agg = t.group_by([col]).aggregate([("__one", "sum")])
        return _compress(pa.table({col: agg[col], "est": agg["__one_sum"]}))

    def combine(b: pa.Table) -> pa.Table:
        agg = b.group_by([col]).aggregate([("est", "sum")])
        return _compress(pa.table({col: agg[col], "est": agg["est_sum"]}))

    from .agg import combine_tree
    cur = combine_tree(ds, combine, first=partial)

    def head(b: pa.Table) -> pa.Table:
        idx = pc.sort_indices(b, sort_keys=[("est", "descending"),
                                            (col, "ascending")])
        return b.take(idx.slice(0, k))

    return cur.map_batches(head, batch_format="pyarrow", batch_size=None)
