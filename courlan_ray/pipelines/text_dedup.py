"""Text near-duplicate pipeline: the dedup engine applied to a documents
table (doc_id, text) — MinHash+LSH over character shingles, winnowing
substring fingerprints, connected components, representatives.

Only the sigtable is its own; the rest is the image pipeline's
``dedup_sigtable`` minus the pixel channel (exact key: the normalized text
and the zero ``phash``).  This demonstrates the engine is payload-agnostic
(the courlan contract over any record stream).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..config import DedupConfig
from ..stages.signatures import sigtable_map, text_sigtable
from .image_dedup import _stage, dedup_sigtable
# not called here: perfbench/spans.py looks these up on this module by name
from ..stages.lsh import candidate_pairs  # noqa: F401
from ..stages.components import cluster_assignments  # noqa: F401


def text_signatures(ds, cfg: DedupConfig, *, id_col="doc_id", text_col="text"):
    """documents -> sigtable: whitespace-collapsed, trimmed, lower-cased
    text through the image pipeline's caption kernel."""
    def kernel(batch: pa.Table) -> pa.Table:
        norm = pc.utf8_lower(pc.utf8_trim_whitespace(
            pc.replace_substring_regex(batch[text_col], r"\s+", " ")))
        # engine-wide id column name
        ids = pc.cast(batch[id_col], pa.string())
        return text_sigtable(ids, norm, cfg)

    # Stateless task stage, like the image signature stage
    # (signatures.sigtable_map).  batch_size=None (one batch per block): a
    # fixed batch_size makes Ray RE-BUNDLE blocks into exact-size batches
    # across block boundaries, which serialized a 64-block input and
    # tripled stage wall time (measured 0.84 s -> 0.27 s at sf0.1); the
    # kernel is pure vectorized hashing with no per-batch state, so
    # block-sized batches are right at any scale (blocks are already
    # bounded by target_max_block_size)
    return sigtable_map(ds, kernel, batch_size=None)


def text_dedup_pipeline(ds, cfg: DedupConfig | None = None, *,
                        id_col="doc_id", text_col="text",
                        checkpoint=None) -> dict:
    """documents -> clusters, scored pairs and signatures over the
    text-only channels (MinHash + winnowing fingerprints); ``checkpoint``
    as in ``image_dedup.dedup_pipeline``."""
    import dataclasses

    cfg = cfg or DedupConfig()
    if "phash" in cfg.channels:
        cfg = dataclasses.replace(cfg, channels=("minhash", "fingerprint"))
    sigs = _stage(checkpoint, "sigtable", lambda: text_signatures(
        ds, cfg, id_col=id_col, text_col=text_col))
    clusters, pairs, sigs = dedup_sigtable(sigs, cfg, checkpoint=checkpoint)
    return {"clusters": clusters, "pairs": pairs, "signatures": sigs}
