"""SimHash Hamming-ball near-dup pairs over documents.

Pigeonhole multi-index: split the 64-bit SimHash into ``max_ham + 1``
bands — any pair within Hamming distance ``max_ham`` agrees on at least
one whole band, so bucketing by (band index, band bits) finds EVERY such
pair; exact Hamming verification prunes band collisions.  This is the
standalone form of the flagship's pixel-SimHash channel
(stages/lsh.py CH_PHASH banding, same ``hamming_band_keys``) with a
per-pair exact verdict.

Narrow (band, id) postings go through ``lsh.bucket_pairs`` with the
all-pairs emit (exact — Hamming-ball buckets are small by construction):
one driver pass while the postings fit one task, one keyed exchange
above.
The distinct candidates are verified against the signature table via the
size-adaptive pair join."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.hashing import hamming_band_keys, hamming_u64


def simhash_hamming_pairs(sig_ds, *, max_ham: int = 3,
                          id_col: str = "doc_id", sim_col: str = "simhash"):
    """(id, simhash:int64) dataset -> every unordered pair with Hamming
    distance <= ``max_ham`` (exact, by pigeonhole over ``max_ham + 1``
    bands)."""
    from .joins import hash_join_pairs
    from .lsh import all_pairs, bucket_pairs

    n_bands = max_ham + 1
    sig_ds = sig_ds.select_columns([id_col, sim_col]).materialize()

    def postings(b: pa.Table) -> pa.Table:
        bk = hamming_band_keys(b[sim_col].to_numpy(zero_copy_only=False),
                               n_bands)
        ridx = np.repeat(np.arange(b.num_rows), n_bands)
        return pa.table({
            "band": pa.array(bk.ravel().view(np.int64), pa.int64()),
            "id": b[id_col].take(pa.array(ridx)),
        })

    pairs = bucket_pairs(sig_ds.map_batches(postings, batch_format="pyarrow"),
                         lambda t: all_pairs(t, "band", "id"), key="band")
    joined = hash_join_pairs(pairs, sig_ds, id_col=id_col,
                             payload_cols=[sim_col])

    def verify(b: pa.Table) -> pa.Table:
        ham = hamming_u64(b[sim_col + "_l"].to_numpy(zero_copy_only=False),
                          b[sim_col + "_r"].to_numpy(zero_copy_only=False))
        keep = pa.array(ham <= max_ham)
        return pa.table({
            "left_id": b["left_id"].filter(keep),
            "right_id": b["right_id"].filter(keep),
            "hamming": pa.array(ham, pa.int64()).filter(keep)})

    return joined.map_batches(verify, batch_format="pyarrow")
