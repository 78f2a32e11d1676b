"""Flagship pipeline: normalize -> filter -> dedup -> cluster -> sample.

The end-to-end generalization of the reference's contract
(normalize→filter→dedup→sample, /root/reference/courlan/cli.py:112-132 +
urlstore.py:171-275 + sampling.py:15-68) over image+caption tables:

  read -> [canonicalize ∘ signatures]  (ONE map-task traversal of the
          wide byte payload: gates as columns + decode + phash + MinHash +
          SimHash + winnowing, fused — the "sigtable")
       -> exact dedup  (equal (caption_key, phash) values over the
                        narrow sigtable)
       -> LSH banding  (block-local salted star reduction + size-adaptive
                        cross-block link, 3 candidate channels)
       -> verify       (banded Jaccard + Hamming + LCS)
       -> components   (union-find / star contraction)
       -> assign + representatives (one-per-cluster draw)

The text pipeline runs everything after the sigtable (``dedup_sigtable``).

Design for scale (SURVEY.md §7.3/§7.4 + VERDICT round 1):

- the wide binary payload is read from storage EXACTLY ONCE; it is
  consumed inside the signature tasks and never crosses a shuffle or a
  second scan.  Every downstream stage reads the materialized narrow
  sigtable (ids, hashes, signature lists — ~100 bytes/row + minhash).
- exact-dup rows still get signatures (their decode is the price of the
  single traversal — cheaper than a second full scan to pre-filter them),
  but they are dropped before LSH so they add no candidate volume.
- no stage collects the corpus on the driver unconditionally: the LSH
  cross-block link and pair verification switch to keyed exchanges /
  partitioned joins once their one-place side no longer fits the
  ``stages/joins.fits_one_task`` byte budget.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import DedupConfig, DEFAULT_CONFIG
from ..stages.canonicalize import reject_counters
from ..stages.exact_dedup import exact_dup_edges
from ..stages.signatures import compute_signatures
from ..stages.lsh import candidate_pairs
from ..stages.verify import _EMPTY_OUT, verify_pairs
from ..stages.components import EMPTY_CLUSTERS, cluster_assignments


def _stage(checkpoint, name: str, make):
    """``make()`` materialized, or run through ``checkpoint.run`` (durable,
    skipped on resume; state.manifest.Checkpoint)."""
    if checkpoint is None:
        return make().materialize()
    return checkpoint.run(name, make)


def dedup_pipeline(ds, cfg: DedupConfig = DEFAULT_CONFIG, *,
                   checkpoint=None) -> dict:
    """Full near-duplicate detection + clustering.

    Returns dict of Datasets:
      clusters: (image_id, cluster_id, is_representative, cluster_size)
      rejected: canonicalized rows with reject_reason != ''
      verified_pairs: scored pair table (lineage)
      counters: reject_reason counts

    The valid rows of the gated sigtable go through ``dedup_sigtable``,
    which the text pipeline runs too; ``checkpoint`` makes each stage
    durable and resumable.
    """
    # ONE traversal of the wide payload: gates + all signatures fused into
    # one map stage; output is the narrow per-row signature table
    sigtable = _stage(checkpoint, "sigtable",
                      lambda: compute_signatures(ds, cfg, with_gates=True))
    valid = sigtable.filter(expr="valid == True").materialize()
    clusters, scored, _ = dedup_sigtable(valid, cfg, checkpoint=checkpoint)
    return {"clusters": clusters,
            "rejected": sigtable.filter(expr="valid == False"),
            "verified_pairs": scored, "counters": reject_counters(sigtable)}


def dedup_sigtable(sigs, cfg: DedupConfig, *, checkpoint=None) -> tuple:
    """The dedup chain over a materialized sigtable of valid rows, image or
    text: exact edges -> survivors -> LSH candidates -> verify -> edge
    union -> components.  Returns the Datasets (clusters, scored pairs,
    ``sigs`` typed even when empty)."""
    import ray.data as rd
    from ..stages.joins import filter_by_keys

    if sigs.count() == 0:           # no row: typed empty outputs
        return (rd.from_arrow(EMPTY_CLUSTERS), rd.from_arrow(_EMPTY_OUT),
                sigs)

    keyed_edges = _stage(checkpoint, "exact_edges",
                         lambda: exact_dup_edges(sigs, cfg))
    survivors = filter_by_keys(sigs, keyed_edges,
                               "image_id", keep=False, keys_col="right_id")
    cands = _stage(checkpoint, "candidates",
                   lambda: candidate_pairs(survivors, cfg))
    scored = _stage(checkpoint, "verified_pairs",
                    lambda: verify_pairs(cands, sigs, cfg))
    verified = scored.filter(expr="verified == True")

    edges = verified.select_columns(["left_id", "right_id"]).union(
        keyed_edges.select_columns(["left_id", "right_id"]))
    all_ids = sigs.select_columns(["image_id"])
    return cluster_assignments(edges, all_ids, cfg), scored, sigs


def pair_recall(clusters_tbl: pa.Table, truth_pairs: pa.Table) -> float:
    """Fraction of planted truth pairs whose two ids share a final cluster
    (the dup-pair recall >= 0.99 criterion, BASELINE.json)."""
    cdf = clusters_tbl.to_pandas().set_index("image_id")["cluster_id"]
    tp = truth_pairs.to_pandas()
    l = tp["left_id"].map(cdf)
    r = tp["right_id"].map(cdf)
    ok = (l.notna()) & (r.notna()) & (l == r)
    return float(ok.mean()) if len(tp) else 1.0
