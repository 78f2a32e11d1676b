"""courlan_ray: a Ray-Data-native data-processing engine with the query
surface of adbar/courlan, generalized to near-duplicate detection and
clustering over image+caption tables.

Public API parity with the reference's exports
(/root/reference/courlan/__init__.py:35-57) plus the dedup engine.
"""

def _silence_schema_hash_noise() -> None:
    """Drop Ray's per-task "Failed to hash the schemas (for deduplication)"
    warning: parquet files written via pandas carry a ``b'pandas'`` schema
    metadata blob that makes ``hash(pa.Schema)`` raise inside Ray's
    ``unify_schemas`` early-exit — harmless (it falls through to the full
    unify) but emitted once per read/sort task.  Our own keyed exchanges
    strip the metadata (joins.keyed_map); this filter covers the read
    tasks Ray fuses before any engine stage runs.  Best-effort: it
    applies in every process that imports courlan_ray (driver + reused
    workers)."""
    import logging

    class _F(logging.Filter):
        def filter(self, record):   # pragma: no cover - log plumbing
            return "Failed to hash the schemas" not in record.getMessage()

    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow").addFilter(_F())

    # Executor-side sibling: a map stage downstream of a keyed exchange
    # passes EMPTY blocks through without invoking the UDF, producing
    # schema-less RefBundles next to the kernel's typed ones.  Expected
    # whenever distinct keys < blocks (grouped quantiles/concat over a
    # handful of groups); the bundles are genuinely empty, not a schema
    # bug.
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
