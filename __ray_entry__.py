"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at sf=0.01
and compares it against the matching ``oracle_sql()[name]`` via DuckDB
(row-count + schema + order-insensitive value-hash -> CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in courlan_ray) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline: near-duplicate detection + clustering on the
    deterministic synthetic image+caption table (input_hint shape) at
    sf0.001 scale; returns the cluster assignment Dataset."""
    from courlan_ray.pipelines.extras import image_dedup_clusters
    return image_dedup_clusters("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2 (and
    the training-data ops): SQL-oracled queries + rows-only extras.

    Ordering matters: the driver's correctness run caps at the FIRST 50
    entries.  The window is composed as 47 DuckDB-oracled queries (full
    row-count + schema + value-hash check) + the 3 highest-value rows-only
    pipelines (the flagship cluster assignment, the text near-dup
    clusters, and the embedding near-dup — the LSH/verify/cluster stages
    these exercise have NO SQL twin, and the oracled counters query only
    covers the gate chain, so a rows-only driver row is the only per-round
    driver evidence those stages run).  The 6 oracled-but-redundant
    diagnostics pushed past the window (each a recombination of operators
    that ARE oracled in-window) stay exactly verified every round by
    tests/test_oracles.py, which runs the IDENTICAL Ray-vs-DuckDB
    comparison under pytest at the driver's sf."""
    from courlan_ray.pipelines.queries import QUERIES, ORACLES
    from courlan_ray.pipelines.extras import EXTRAS, EXTRA_ORACLES

    merged = {**QUERIES, **EXTRAS}
    oracled = {**ORACLES, **EXTRA_ORACLES}
    # Oracled-but-redundant diagnostics, least valuable LAST (cut first):
    # doc_quality_band = banding of oracled doc_quality via the same exact
    # quantiles as events_value_quantiles_by_type; doc_top_term = argmax
    # of oracled doc_top_tokens' tf-idf; doc_sample_uniform = the trivial
    # case of oracled doc_group_sample's segmented-rank sampler;
    # events_distinct_types = trivial distinct (doc_distinct_sorted is the
    # oracled distinct+sort); orders_price_quantiles = global case of the
    # oracled per-group quantiles; doc_repetition = per-doc top-token
    # argmax, machinery shared with doc_top_term/doc_quality.  All six
    # remain pytest-oracled.
    oracled_tail = ["doc_repetition", "orders_price_quantiles",
                    "events_distinct_types", "doc_sample_uniform",
                    "doc_quality_band", "doc_top_term"]
    # Rows-only entries, most valuable first (top 3 enter the window).
    rows_only_priority = [
        "image_dedup_clusters",   # flagship cluster assignments
        "doc_minhash_clusters",   # text near-dup clusters
        "emb_neardup",            # embedding LSH near-dup (recall-pinned)
        "emb_ann_lsh",
        "emb_ann_ivf",
        "doc_training_prep",
        "events_hll_users_by_type",
        "events_hll_users",
        "doc_top_tokens_approx",
        "doc_simhash",
        "doc_fingerprints",
        "audio_decode_stats",
        "video_frame_stats",
    ]
    out = {n: merged[n] for n in merged
           if n in oracled and n not in oracled_tail}
    for n in rows_only_priority[:3]:
        if n in merged and n not in out:
            out[n] = merged[n]
    for n in oracled_tail:
        if n in merged and n in oracled:
            out[n] = merged[n]
    for n in rows_only_priority:
        if n in merged and n not in out:
            out[n] = merged[n]
    for n in merged:  # safety net: never drop an entry
        if n not in out:
            out[n] = merged[n]
    return out


def oracle_sql() -> dict[str, str]:
    """DuckDB equivalents for the SQL-expressible queries, including the
    SQL-expressible extras (langid, quality, batched kNN, BPE-ish token
    counts, the flagship's gate counters).  The remaining extras are
    intentionally omitted (MinHash/LSH/ANN/union-find are not ANSI-SQL
    expressible) -> driver records rows-only checks."""
    from courlan_ray.pipelines.queries import ORACLES
    from courlan_ray.pipelines.extras import EXTRA_ORACLES, ensure_oracle_inputs
    # image_dedup_counters' SQL scans the flagship's synthetic input by
    # path; generate it now so the DuckDB side works in any run order
    ensure_oracle_inputs()
    return {**ORACLES, **EXTRA_ORACLES}
