"""Exact / variant-invariant deduplication.

Generalizes the reference's ``is_known_link`` variant-invariant membership
probe (/root/reference/courlan/urlutils.py:148-174: a URL and its
±trailing-slash / http↔https variants count as one) to content rows: two
rows are exact duplicates when their ``(caption_key, phash)`` VALUES are
equal — captions that differ only by scrubbed dirt or case, with identical
perceptual content, collapse.  The text pipeline's rows carry a zero
``phash``, so there the key is the normalized text alone.  No hash decides
identity: hashes only place rows in blocks, and the kernel compares values.

Scale shape: the keyed exchange moves ONLY the narrow
``(caption_key, phash, image_id)`` projection — the binary image payload
never crosses a shuffle (SURVEY.md §7.4).  Keeper = min image_id per group
(order-free determinism, unlike the reference's arrival-order deque
first-wins, urlstore.py:248-258).  The pipeline recovers survivor rows
with an anti-join on the (small) dropped-id set (``joins.filter_by_keys``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DedupConfig

KEYS = ["caption_key", "phash"]


def _edges_from_block(tbl: pa.Table, id_col: str) -> pa.Table:
    """(caption_key, phash, id) rows wholly containing each key -> (keeper=
    min id, other) edges.  One Arrow C++ sort + vectorized group
    boundaries; no per-group Python, no aggregate+join round trip.  A null
    caption equals nothing, so it starts a group of its own."""
    empty = pa.table({"left_id": pa.array([], pa.string()),
                      "right_id": pa.array([], pa.string())})
    if tbl.num_rows == 0:
        return empty
    s = tbl.sort_by([(k, "ascending") for k in KEYS]
                    + [(id_col, "ascending")]).combine_chunks()
    first = np.zeros(s.num_rows, dtype=bool)
    first[0] = True
    for k in KEYS:
        col = s[k]
        first[1:] |= pc.fill_null(pc.not_equal(col[1:], col[:-1]),
                                  True).to_numpy(zero_copy_only=False)
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


def exact_dup_edges(sig_ds, cfg: DedupConfig, id_col: str = "image_id"):
    """(left_id=keeper, right_id=dropped) edges from the narrow projection.

    Size-adaptive (``joins.kernel_by_key``): a narrow table that fits one
    task and has at most ``cfg.verify_broadcast_max`` rows is linked in
    one vectorized driver pass; above it one keyed exchange lands every
    ``(caption_key, phash)`` wholly in one block and the same block kernel
    runs per block — no driver materialization."""
    from .joins import kernel_by_key

    return kernel_by_key(
        sig_ds.select_columns(KEYS + [id_col]), KEYS,
        lambda b: _edges_from_block(b, id_col), cfg.verify_broadcast_max)
