"""courlan_ray: a Ray-Data-native data-processing engine with the query
surface of adbar/courlan, generalized to near-duplicate detection and
clustering over image+caption tables.

Public API parity with the reference's exports
(/root/reference/courlan/__init__.py:35-57) plus the dedup engine.
"""

def _enable_hash_shuffle() -> None:
    """Switch Ray Data to the hash-shuffle strategy.

    The engine's wide operations (keyed ``repartition(keys=...)`` in the LSH
    cross-block link, the shuffle path of ``stages.agg.grouped_agg``, and
    ``Dataset.join``) need hash-based key exchange; Ray 2.49 gates keyed
    repartitioning behind ``DataContext.shuffle_strategy = HASH_SHUFFLE``.
    Safe to set eagerly: contexts are per-process and the strategy only
    changes the physical plan of all-to-all operators."""
    try:
        from ray.data.context import DataContext, ShuffleStrategy

        ctx = DataContext.get_current()
        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
        # defaults are sized for large clusters (parallelism 200, 64
        # aggregator actors at 1 CPU each) and DEADLOCK a small local
        # session: aggregators can't schedule and the executor waits
        # min_hash_shuffle_aggregator_wait_time (300 s).  Cap the implicit
        # parallelism and make aggregators nearly CPU-free — they are
        # merge/IO-bound; explicit repartition/join calls still pass their
        # own partition counts.
        # 0.025 CPU x partition: a shuffle pool reserves 0.025 x P total
        # (spread over <=16 aggregator actors).  The flagship DAG runs 2-3
        # keyed shuffles CONCURRENTLY (LSH bucket link, pair distinct,
        # components grouped_agg), so pools STACK — with the old 0.05 and
        # P = 8 x CPUs two pools reserved 3.2 of 4 CPUs and the upstream
        # 1-CPU map tasks never scheduled (observed live: 84% idle host,
        # 32 aggregators idling, round 2).  Invariant with 0.025 and the
        # P <= 4 x CPUs clamp (joins.keyed_shuffle_partitions): 3 pools
        # reserve <= 0.3 x cluster.
        ctx.default_hash_shuffle_parallelism = 16
        ctx.max_hash_shuffle_aggregators = 16
        ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0.025
        ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override = 0.025
    except Exception:           # pragma: no cover - older/newer ray
        pass


_enable_hash_shuffle()


def _silence_schema_hash_noise() -> None:
    """Drop Ray's per-task "Failed to hash the schemas (for deduplication)"
    warning: parquet files written via pandas carry a ``b'pandas'`` schema
    metadata blob that makes ``hash(pa.Schema)`` raise inside Ray's
    ``unify_schemas`` early-exit — harmless (it falls through to the full
    unify) but emitted once per read/aggregator task.  Our own shuffles
    strip the metadata (joins.keyed_repartition); this filter covers the
    read tasks Ray fuses before any engine stage runs.  Best-effort: it
    applies in every process that imports courlan_ray (driver + reused
    workers)."""
    import logging

    class _F(logging.Filter):
        def filter(self, record):   # pragma: no cover - log plumbing
            return "Failed to hash the schemas" not in record.getMessage()

    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow").addFilter(_F())

    # Executor-side sibling: a map stage downstream of a keyed hash
    # shuffle passes EMPTY partitions through without invoking the UDF,
    # producing schema-less RefBundles next to the kernel's typed ones.
    # Expected whenever distinct keys < shuffle partitions (grouped
    # quantiles/concat over a handful of groups); the bundles are
    # genuinely empty, not a schema bug.
    class _B(logging.Filter):
        def filter(self, record):   # pragma: no cover - log plumbing
            msg = record.getMessage()
            if "RefBundle with a different schema" not in msg:
                return True
            # suppress ONLY when one side is the EMPTY schema (renders
            # as nothing before the delimiter) — a genuine mismatch
            # between two non-empty schemas must stay visible
            return not ("new schema: ." in msg
                        or "Previous schema: ," in msg)

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_B())


_silence_schema_hash_noise()

from .config import DedupConfig, DEFAULT_CONFIG
from .functions.urls import (
    basic_filter, check_url, clean_url, decode_punycode, extension_filter,
    extract_domain, extract_links, filter_links, filter_urls,
    fix_relative_urls, get_base_url, get_host_and_path, get_hostinfo,
    get_tldinfo, is_external, is_known_link, is_navigation_page,
    is_not_crawlable, is_valid_url, lang_filter, normalize_url, scrub_url,
    validate_url, check_url as check_url_strict_api,
)
from .meta import clear_caches
from .pipelines.url_pipeline import sample_urls
from .state.urltable import RayUrlStore, RayUrlStore as UrlStore, load_store
from .pipelines.image_dedup import dedup_pipeline, pair_recall
from .pipelines.text_dedup import text_dedup_pipeline
from .stages.ann import ann_ivf, ann_lsh, cosine_pairs_exact, knn_bruteforce
from .stages.asof import asof_join
from .stages.ngram_jaccard import ngram_jaccard_pairs
from .stages.rangejoin import range_join_broadcast
from .stages.quantiles import exact_quantiles
from .stages.simhash_pairs import simhash_hamming_pairs
from .stages.sketch import hll_distinct
from .stages.window import rolling_window_agg, sessionize

__version__ = "0.1.0"

__all__ = [
    "DedupConfig", "DEFAULT_CONFIG",
    # courlan API parity
    "basic_filter", "check_url", "clean_url", "decode_punycode",
    "extension_filter", "extract_domain", "extract_links", "filter_links",
    "filter_urls", "fix_relative_urls", "get_base_url", "get_host_and_path",
    "get_hostinfo", "get_tldinfo", "is_external", "is_known_link",
    "clear_caches",
    "is_navigation_page", "is_not_crawlable", "is_valid_url", "lang_filter",
    "normalize_url", "sample_urls", "scrub_url", "validate_url",
    "RayUrlStore", "UrlStore", "load_store",
    # engine
    "dedup_pipeline", "pair_recall", "text_dedup_pipeline",
    # operator library
    "ann_ivf", "ann_lsh", "asof_join", "cosine_pairs_exact",
    "exact_quantiles", "hll_distinct", "knn_bruteforce",
    "ngram_jaccard_pairs", "range_join_broadcast", "rolling_window_agg",
    "sessionize", "simhash_hamming_pairs",
]
