"""Exact / variant-invariant deduplication.

Generalizes the reference's ``is_known_link`` variant-invariant membership
probe (/root/reference/courlan/urlutils.py:148-174: a URL and its
±trailing-slash / http↔https variants count as one) to content rows: the
dedup key is ``hash(caption_key) ^ mix(phash)`` — rows whose captions differ
only by scrubbed dirt or case, with identical perceptual content, collapse.

Scale shape: the ``groupby(exact_key)`` shuffle moves ONLY the narrow
``(exact_key, image_id)`` projection — the binary image payload never
crosses a shuffle (SURVEY.md §7.4).  Keeper = min image_id per group
(order-free determinism, unlike the reference's arrival-order deque
first-wins, urlstore.py:248-258).  The pipeline recovers survivor rows
with an anti-join on the (small) dropped-id set (``joins.filter_by_keys``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import DedupConfig
from ..functions.hashing import hash_strings, hash_u64_pair


def exact_keys(caption_keys: list, phash: np.ndarray, seed: int) -> np.ndarray:
    """The exact-dup key (int64): mix of the case-folded canonical caption
    hash and the uint64 perceptual hash."""
    return hash_u64_pair(hash_strings(caption_keys, seed=seed),
                         phash).view(np.int64)


def add_exact_key(ds, cfg: DedupConfig, key_col: str = "exact_key"):
    """Vectorized ``exact_keys`` column (the signature stage computes the
    same column in-line)."""
    def kernel(batch: pa.Table) -> pa.Table:
        ph = batch["phash"].to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
        key = exact_keys(batch["caption_key"].to_pylist(), ph, cfg.seed)
        return batch.append_column(key_col, pa.array(key, pa.int64()))
    return ds.map_batches(kernel, batch_format="pyarrow", batch_size=cfg.batch_size)


def _edges_from_block(tbl: pa.Table, key_col: str, id_col: str) -> pa.Table:
    """(key, id) rows wholly containing each key -> (keeper=min id, other)
    edges.  One Arrow C++ sort + numpy group boundaries; no per-group
    Python, no aggregate+join round trip."""
    empty = pa.table({"left_id": pa.array([], pa.string()),
                      "right_id": pa.array([], pa.string())})
    if tbl.num_rows == 0:
        return empty
    s = tbl.sort_by([(key_col, "ascending"),
                     (id_col, "ascending")]).combine_chunks()
    k = s[key_col].to_numpy(zero_copy_only=False)
    n = len(k)
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(k[1:], k[:-1], out=first[1:])
    if first.all():
        return empty
    gid = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    member = np.flatnonzero(~first)
    ids = s[id_col]
    return pa.table({
        "left_id": ids.take(pa.array(starts[gid[member]], pa.int64())),
        "right_id": ids.take(pa.array(member, pa.int64())),
    })


def exact_dup_edges(keyed_ds, cfg: DedupConfig, id_col: str = "image_id"):
    """(left_id=keeper, right_id=dropped) edges from the narrow projection.

    Size-adaptive (``joins.kernel_by_key``): a narrow table that fits one
    task and has at most ``cfg.verify_broadcast_max`` rows is linked in
    one vectorized driver pass; above it one keyed exchange lands every
    ``exact_key`` wholly in one block and the same block kernel runs per
    block — no driver materialization."""
    from .joins import kernel_by_key

    schema = keyed_ds.schema()
    if schema is None or "exact_key" not in schema.names:
        keyed_ds = add_exact_key(keyed_ds, cfg)
    return kernel_by_key(
        keyed_ds.select_columns(["exact_key", id_col]), ["exact_key"],
        lambda b: _edges_from_block(b, "exact_key", id_col),
        cfg.verify_broadcast_max)

