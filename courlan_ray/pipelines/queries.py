"""Driver-contract query pipelines over /root/testdata tables.

``QUERIES`` is the one table of every driver-contract query, in driver
order: the core queries defined here and the rest from ``extras``.  Each
function takes ``sf_dir`` and returns a Dataset / DataFrame / Table;
``ORACLES`` holds the DuckDB-equivalent SQL of every oracled query (the
core strings here plus ``extras.EXTRA_ORACLES``) with IDENTICAL output
column names (the driver hash-compares values after sorting columns by
name).

These exercise the SURVEY.md §2 operator families on SQL-checkable data:
normalization kernels (§2.2), gates with reject reasons (check_url),
exact dedup (is_known_link), per-group sampling (sample_urls), grouped
counters (get_all_counts), per-group first draw (get_url), scheduling
(establish_download_schedule), anti/semi joins (_search_urls), top-k,
windowed aggregation, and vector similarity.  Floating aggregates are
rounded on BOTH sides so value hashes match.

The dedup and similarity pipelines live in ``extras``; SQL-checkable ones
such as ``doc_simhash_pairs`` have ``EXTRA_ORACLES`` entries.  The rest
(MinHash/LSH clustering, the SimHash and fingerprint signatures, ANN) get
rows-only driver checks.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.readers import read_sf_table as _read
from . import extras


def _sql_round(col, digits: int) -> pa.Array:
    """DuckDB's ``round(x, digits)``: ``std::round(x * 10^digits) /
    10^digits``, half away from zero.  Arrow's ``pc.round`` rounds half to
    even and can differ in the last bit (3415.4500000000003 vs 3415.45)."""
    scale = 10.0 ** digits
    v = np.asarray(col.to_numpy(zero_copy_only=False), np.float64) * scale
    whole = np.floor(np.abs(v))
    away = np.copysign(whole + (np.abs(v) - whole >= 0.5), v)
    return pa.array(away / scale, pa.float64())


def _norm_expr(col):
    """lower(trim(collapse_ws(x))) — shared Ray-side normal form."""
    s = pc.replace_substring_regex(col, r"\s+", " ")
    return pc.utf8_lower(pc.utf8_trim_whitespace(s))


# ---------------------------------------------------------------- documents

def doc_normalize(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda b: pa.table({"doc_id": b["doc_id"],
                            "text_norm": _norm_expr(b["text"])}),
        batch_format="pyarrow")


def doc_gates(sf_dir: str):
    """Gate chain with reject_reason columns (check_url analogue)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def gates(b: pa.Table) -> pa.Table:
        n = b.num_rows
        ln = pc.utf8_length(_norm_expr(b["text"])).to_numpy(zero_copy_only=False)
        reason = np.full(n, "", dtype=object)
        reason[ln >= 400] = "too_long"
        reason[ln < 100] = "too_short"
        return pa.table({"reject_reason": pa.array(reason, pa.string()),
                         "n": pa.array(np.ones(n, dtype=np.int64))})

    from ..stages.agg import grouped_agg
    return grouped_agg(ds.map_batches(gates, batch_format="pyarrow"),
                       ["reject_reason"], [("n", "sum", "n")])


def doc_exact_dedup(sf_dir: str):
    """Variant-invariant dedup on a coarse key (first 40 normalized chars);
    keeper = min doc_id (order-free first-wins)."""
    from ..stages.agg import grouped_agg
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def key(b: pa.Table) -> pa.Table:
        k = pc.utf8_slice_codeunits(_norm_expr(b["text"]), 0, 40)
        return pa.table({"k": k, "doc_id": b["doc_id"]})

    return grouped_agg(ds.map_batches(key, batch_format="pyarrow"),
                       ["k"], [("doc_id", "min", "keeper_id"),
                               ("doc_id", "count", "n_rows")])


def doc_group_sample(sf_dir: str):
    """Per-language deterministic sample of 5 (sample_urls semantics):
    rank by the SQL-expressible multiplicative hash (fully vectorized —
    VERDICT round 3 next #4 retired the per-row md5 loop) and take the
    5 smallest per group via the per-group partial top-k
    (stages/topk.py) — no sort-based groupby shuffle."""
    from ..functions.hashing import mul_hash_priority
    from ..stages.topk import topk_per_group
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def ranked(b: pa.Table) -> pa.Table:
        r = mul_hash_priority(b["doc_id"].to_numpy(zero_copy_only=False))
        return pa.table({"doc_id": b["doc_id"], "lang": b["lang"],
                         "r": pa.array(r.astype(np.int64))})

    picked = topk_per_group(ds.map_batches(ranked, batch_format="pyarrow"),
                            ["lang"], [("r", "ascending"),
                                       ("doc_id", "ascending")], 5)
    return picked.drop_columns(["r"])


def doc_distinct_sorted(sf_dir: str):
    """Distinct (lang, source) sorted — the filter_urls sorted-set output
    (/root/reference/courlan/urlutils.py:123-134)."""
    from ..stages.agg import grouped_agg
    ds = _read(sf_dir, "documents", ["lang", "source"])
    return grouped_agg(ds, ["lang", "source"],
                       [("lang", "count", "n")]).sort(["lang", "source"])


def doc_token_stats(sf_dir: str):
    """Token counting per language (whitespace tokens)."""
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def toks(b: pa.Table) -> pa.Table:
        t = pc.count_substring_regex(pc.utf8_trim_whitespace(b["text"]), r"\S+")
        return pa.table({"lang": b["lang"],
                         "n_tokens": pc.cast(t, pa.int64())})

    from ..stages.agg import grouped_agg
    return grouped_agg(ds.map_batches(toks, batch_format="pyarrow"),
                       ["lang"], [("lang", "count", "n_docs"),
                                  ("n_tokens", "sum", "total_tokens")])


# ------------------------------------------------------------------- events

def events_counters(sf_dir: str):
    """Grouped counters (get_all_counts / total_url_number analogue)."""
    from ..stages.agg import grouped_agg
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def rounder(b: pa.Table) -> pa.Table:
        return b.set_column(b.schema.get_field_index("sum_value"), "sum_value",
                            _sql_round(b["sum_value"], 2))

    return grouped_agg(ds, ["event_type"],
                       [("event_type", "count", "n"),
                        ("value", "sum", "sum_value")]) \
        .map_batches(rounder, batch_format="pyarrow")


def events_first_per_user(sf_dir: str):
    """Per-group ordered head: the UrlStore get_url draw
    (/root/reference/courlan/urlstore.py:409-430) as a dataflow —
    first event per user by (ts, event_id)."""
    from ..stages.agg import grouped_agg
    from ..stages.joins import attach_by_key
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    first_ts = grouped_agg(ds, ["user_id"], [("ts", "min", "min_ts")])
    at_min = attach_by_key(ds, first_ts, ["user_id"]).map_batches(
        lambda b: b.filter(pc.equal(b["ts"], b["min_ts"])),
        batch_format="pyarrow")
    out = grouped_agg(at_min, ["user_id"], [("event_id", "min", "event_id")])
    withts = attach_by_key(out, first_ts, ["user_id"])
    return withts.map_batches(
        lambda b: pa.table({"user_id": b["user_id"], "event_id": b["event_id"],
                            "ts": b["min_ts"]}), batch_format="pyarrow")


def events_schedule(sf_dir: str):
    """establish_download_schedule analogue
    (/root/reference/courlan/urlstore.py:455-505): fair share of 2 slots per
    user by event time, slot index stamped per user."""
    from ..stages.topk import topk_per_group
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    return topk_per_group(ds, ["user_id"],
                          [("ts", "ascending"), ("event_id", "ascending")],
                          2, rank_col="slot")


def events_window(sf_dir: str):
    """Tumbling 1-day window per event_type (streaming-shaped aggregate)."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def day(b: pa.Table) -> pa.Table:
        d = pc.floor_temporal(b["ts"], unit="day")
        return pa.table({"event_type": b["event_type"], "day": d,
                         "value": b["value"]})

    def rounder(b: pa.Table) -> pa.Table:
        return b.set_column(b.schema.get_field_index("sum_value"), "sum_value",
                            _sql_round(b["sum_value"], 2))

    from ..stages.agg import grouped_agg
    return grouped_agg(ds.map_batches(day, batch_format="pyarrow"),
                       ["event_type", "day"],
                       [("event_type", "count", "n"),
                        ("value", "sum", "sum_value")]) \
        .map_batches(rounder, batch_format="pyarrow")


# ------------------------------------------------- lineitem / orders joins

def q1_lineitem(sf_dir: str):
    """TPC-H Q1-shaped vectorized aggregate (pruned read, map-side compute)."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount"])

    def revenue(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), b["l_discount"]))
        return pa.table({"l_returnflag": b["l_returnflag"],
                         "l_linestatus": b["l_linestatus"],
                         "l_quantity": b["l_quantity"], "revenue": rev})

    def rounder(b: pa.Table) -> pa.Table:
        b = b.set_column(b.schema.get_field_index("sum_qty"), "sum_qty",
                         _sql_round(b["sum_qty"], 2))
        return b.set_column(b.schema.get_field_index("sum_rev"), "sum_rev",
                            _sql_round(b["sum_rev"], 2))

    from ..stages.agg import grouped_agg
    return grouped_agg(ds.map_batches(revenue, batch_format="pyarrow"),
                       ["l_returnflag", "l_linestatus"],
                       [("l_quantity", "sum", "sum_qty"),
                        ("revenue", "sum", "sum_rev"),
                        ("l_returnflag", "count", "n")]) \
        .map_batches(rounder, batch_format="pyarrow")


def orders_top_customers(sf_dir: str):
    """Broadcast dimension join + grouped sum + deterministic top-10."""
    from ..stages.agg import grouped_agg
    from ..stages.joins import attach_by_key
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    tot = grouped_agg(orders, ["o_custkey"],
                      [("o_totalprice", "sum", "total")])
    named = attach_by_key(
        tot.map_batches(lambda b: pa.table(
            {"c_custkey": b["o_custkey"], "total": _sql_round(b["total"], 2)}),
            batch_format="pyarrow"),
        cust, ["c_custkey"])
    return named.sort(["total", "c_custkey"], descending=[True, False]).limit(10)


def anti_join_customers(sf_dir: str):
    """Left anti join (_search_urls filter_unknown_urls shape,
    /root/reference/courlan/urlstore.py:277-295): customers with no orders."""
    from ..stages.joins import filter_by_keys
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    orders = _read(sf_dir, "orders", ["o_custkey"])
    out = filter_by_keys(cust, orders, "c_custkey", keep=False,
                         keys_col="o_custkey").to_pandas()
    if out.empty:   # an all-filtered Dataset loses its schema; pin it
        out = pd.DataFrame({"c_custkey": pd.Series(dtype="int64"),
                            "c_name": pd.Series(dtype=object)})
    return out


def semi_join_lineitems(sf_dir: str):
    """Semi join + global count: lineitems of open orders."""
    from ..stages.joins import filter_by_keys
    li = _read(sf_dir, "lineitem", ["l_orderkey"])
    open_orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"]) \
        .filter(expr="o_orderstatus == 'O'")
    kept = filter_by_keys(li, open_orders, "l_orderkey", keep=True,
                          keys_col="o_orderkey")
    return pa.table({"n": pa.array([kept.count()], pa.int64())})


# --------------------------------------------------------------- embeddings

def emb_knn(sf_dir: str):
    """Brute-force cosine top-5 for the vec_id=0 query vector: the ANN
    baseline (broadcast query, vectorized matmul per batch)."""
    import ray
    from ..stages.joins import cached_get
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = None
    for b in ds.filter(expr="vec_id == 0").take(1):
        q = np.asarray(b["embedding"], dtype=np.float64)
    qn = q / np.linalg.norm(q)
    qref = ray.put(qn)

    def score(b: pa.Table) -> pa.Table:
        vecs = np.asarray(b["embedding"].combine_chunks().flatten()
                          .to_numpy(zero_copy_only=False),
                          dtype=np.float64).reshape(b.num_rows, -1)
        norms = np.linalg.norm(vecs, axis=1)
        sim = (vecs @ cached_get(qref)) / np.where(norms == 0, 1, norms)
        return pa.table({"vec_id": b["vec_id"],
                         "cos_sim": pa.array(sim, pa.float64())})

    def round_out(b: pa.Table) -> pa.Table:
        # round AFTER the top-k selection: the oracle orders by the
        # UNROUNDED similarity, so sorting on rounded values could pick a
        # different boundary row; half-up mirrors DuckDB round()
        sims = b["cos_sim"].to_numpy(zero_copy_only=False)
        return b.set_column(b.schema.get_field_index("cos_sim"), "cos_sim",
                            pa.array(np.floor(sims * 10000 + 0.5) / 10000))

    scored = ds.map_batches(score, batch_format="pyarrow") \
               .filter(expr="vec_id != 0")
    return (scored.sort(["cos_sim", "vec_id"], descending=[True, False])
            .limit(5).map_batches(round_out, batch_format="pyarrow"))


def emb_label_stats(sf_dir: str):
    """Per-label count + mean squared norm (vector aggregate)."""
    from ..stages.agg import grouped_agg
    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def sq(b: pa.Table) -> pa.Table:
        vecs = np.asarray(b["embedding"].combine_chunks().flatten()
                          .to_numpy(zero_copy_only=False),
                          dtype=np.float64).reshape(b.num_rows, -1)
        return pa.table({"label": b["label"],
                         "sq": pa.array((vecs ** 2).sum(axis=1), pa.float64())})

    def finish(b: pa.Table) -> pa.Table:
        avg = _sql_round(
            pc.divide(b["sum_sq"], pc.cast(b["n"], pa.float64())), 4)
        return pa.table({"label": b["label"], "n": b["n"], "avg_sq_norm": avg})

    return grouped_agg(ds.map_batches(sq, batch_format="pyarrow"),
                        ["label"], [("label", "count", "n"),
                                    ("sq", "sum", "sum_sq")]) \
        .map_batches(finish, batch_format="pyarrow")


ORACLES: dict[str, str] = {
    "doc_normalize": """
        SELECT doc_id,
               lower(trim(regexp_replace(text, '\\s+', ' ', 'g'))) AS text_norm
        FROM documents""",
    "doc_gates": """
        SELECT CASE
                 WHEN length(lower(trim(regexp_replace(text,'\\s+',' ','g')))) < 100 THEN 'too_short'
                 WHEN length(lower(trim(regexp_replace(text,'\\s+',' ','g')))) >= 400 THEN 'too_long'
                 ELSE '' END AS reject_reason,
               count(*) AS n
        FROM documents GROUP BY 1""",
    "doc_exact_dedup": """
        SELECT substr(lower(trim(regexp_replace(text,'\\s+',' ','g'))), 1, 40) AS k,
               min(doc_id) AS keeper_id, count(*) AS n_rows
        FROM documents GROUP BY 1""",
    "doc_group_sample": """
        SELECT doc_id, lang FROM (
          SELECT doc_id, lang,
                 row_number() OVER (
                   PARTITION BY lang
                   ORDER BY (doc_id * 2654435761) % 4294967296, doc_id) AS rn
          FROM documents) WHERE rn <= 5""",
    "doc_distinct_sorted": """
        SELECT lang, source, count(*) AS n FROM documents
        GROUP BY lang, source ORDER BY lang, source""",
    "doc_token_stats": """
        SELECT lang, count(*) AS n_docs,
               cast(sum(CASE WHEN trim(text) = '' THEN 0
                        ELSE len(string_split_regex(trim(text), '\\s+'))
                        END) AS bigint) AS total_tokens
        FROM documents GROUP BY lang""",
    "events_counters": """
        SELECT event_type, count(*) AS n, round(sum(value), 2) AS sum_value
        FROM events GROUP BY event_type""",
    "events_first_per_user": """
        SELECT user_id, event_id, ts FROM (
          SELECT user_id, event_id, ts,
                 row_number() OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id) AS rn
          FROM events) WHERE rn = 1""",
    "events_schedule": """
        SELECT event_id, user_id, ts, slot FROM (
          SELECT event_id, user_id, ts,
                 row_number() OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id) AS slot
          FROM events) WHERE slot <= 2""",
    "events_window": """
        SELECT event_type, date_trunc('day', ts) AS day, count(*) AS n,
               round(sum(value), 2) AS sum_value
        FROM events GROUP BY 1, 2""",
    "q1_lineitem": """
        SELECT l_returnflag, l_linestatus,
               round(sum(l_quantity), 2) AS sum_qty,
               round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_rev,
               count(*) AS n
        FROM lineitem GROUP BY 1, 2""",
    "orders_top_customers": """
        SELECT c_custkey, round(total, 2) AS total, c_name FROM (
          SELECT o_custkey AS c_custkey, sum(o_totalprice) AS total
          FROM orders GROUP BY 1) t
        JOIN customer USING (c_custkey)
        ORDER BY total DESC, c_custkey LIMIT 10""",
    "anti_join_customers": """
        SELECT c_custkey, c_name FROM customer
        WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)
        ORDER BY c_custkey""",
    "semi_join_lineitems": """
        SELECT count(*) AS n FROM lineitem
        WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                             WHERE o_orderstatus = 'O')""",
    "emb_knn": """
        WITH q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0)
        SELECT vec_id,
               round(cast(list_cosine_similarity(embedding, (SELECT qe FROM q))
                          AS double), 4) AS cos_sim
        FROM embeddings WHERE vec_id != 0
        ORDER BY list_cosine_similarity(embedding, (SELECT qe FROM q)) DESC,
                 vec_id LIMIT 5""",
    "emb_label_stats": """
        SELECT label, count(*) AS n,
               round(sum(list_sum(list_transform(embedding,
                     x -> cast(x AS double) * cast(x AS double)))) / count(*), 4)
                 AS avg_sq_norm
        FROM embeddings GROUP BY label""",
    **extras.EXTRA_ORACLES,
}

# Every driver-contract query, in the order the driver runs them.  The
# driver's correctness run checks only the first 50 entries, so the order
# is the priority: the 47 DuckDB-oracled queries (the core 16 first), then
# the three cluster pipelines whose LSH/verify/cluster stages have no SQL
# twin, then six oracled diagnostics that only recombine operators oracled
# inside the window (tests/test_oracles.py checks them), then the other
# rows-only entries.  A query is oracled iff its name is in ORACLES.
QUERIES = {
    "doc_normalize": doc_normalize,
    "doc_gates": doc_gates,
    "doc_exact_dedup": doc_exact_dedup,
    "doc_group_sample": doc_group_sample,
    "doc_distinct_sorted": doc_distinct_sorted,
    "doc_token_stats": doc_token_stats,
    "events_counters": events_counters,
    "events_first_per_user": events_first_per_user,
    "events_schedule": events_schedule,
    "events_window": events_window,
    "q1_lineitem": q1_lineitem,
    "orders_top_customers": orders_top_customers,
    "anti_join_customers": anti_join_customers,
    "semi_join_lineitems": semi_join_lineitems,
    "emb_knn": emb_knn,
    "emb_label_stats": emb_label_stats,
    "doc_simhash_pairs": extras.doc_simhash_pairs,
    "doc_token_counts_bpe": extras.doc_token_counts_bpe,
    "doc_langid": extras.doc_langid,
    "doc_quality": extras.doc_quality,
    "doc_ngram_jaccard": extras.doc_ngram_jaccard,
    "doc_substring_pairs": extras.doc_substring_pairs,
    "doc_substring_lcs": extras.doc_substring_lcs,
    "doc_top_tokens": extras.doc_top_tokens,
    "doc_train_split": extras.doc_train_split,
    "doc_decontaminate": extras.doc_decontaminate,
    "events_top3_per_user": extras.events_top3_per_user,
    "events_value_quantiles_by_type": extras.events_value_quantiles_by_type,
    "orders_bloom_semi_negbal": extras.orders_bloom_semi_negbal,
    "doc_token_postings": extras.doc_token_postings,
    "doc_pack_assign": extras.doc_pack_assign,
    "events_asof_prev_click": extras.events_asof_prev_click,
    "events_rolling_1h_shuffle": extras.events_rolling_1h_shuffle,
    "events_sessionize_shuffle": extras.events_sessionize_shuffle,
    "events_asof_prev_click_shuffle": extras.events_asof_prev_click_shuffle,
    "orders_price_bands": extras.orders_price_bands,
    "q3_shipping": extras.q3_shipping,
    "events_rolling_1h": extras.events_rolling_1h,
    "events_sessionize": extras.events_sessionize,
    "emb_knn_batch": extras.emb_knn_batch,
    "emb_neardup_exact": extras.emb_neardup_exact,
    "html_extract_links": extras.html_extract_links,
    "image_dedup_counters": extras.image_dedup_counters,
    "audio_dedup_pairs": extras.audio_dedup_pairs,
    "audio_durations": extras.audio_durations,
    "video_dedup_pairs": extras.video_dedup_pairs,
    "video_frame_index": extras.video_frame_index,
    # rows-only cluster pipelines: the last three in the window
    "image_dedup_clusters": extras.image_dedup_clusters,
    "doc_minhash_clusters": extras.doc_minhash_clusters,
    "emb_neardup": extras.emb_neardup,
    # past the window: doc_repetition and doc_top_term are argmaxes over
    # doc_top_tokens' machinery, orders_price_quantiles and
    # doc_quality_band reuse the exact quantiles, events_distinct_types
    # and doc_sample_uniform are trivial cases of doc_distinct_sorted and
    # doc_group_sample; then the other rows-only entries
    "doc_repetition": extras.doc_repetition,
    "orders_price_quantiles": extras.orders_price_quantiles,
    "events_distinct_types": extras.events_distinct_types,
    "doc_sample_uniform": extras.doc_sample_uniform,
    "doc_quality_band": extras.doc_quality_band,
    "doc_top_term": extras.doc_top_term,
    "emb_ann_lsh": extras.emb_ann_lsh,
    "emb_ann_ivf": extras.emb_ann_ivf,
    "doc_training_prep": extras.doc_training_prep,
    "events_hll_users_by_type": extras.events_hll_users_by_type,
    "events_hll_users": extras.events_hll_users,
    "doc_top_tokens_approx": extras.doc_top_tokens_approx,
    "doc_simhash": extras.doc_simhash,
    "doc_fingerprints": extras.doc_fingerprints,
    "audio_decode_stats": extras.audio_decode_stats,
    "video_frame_stats": extras.video_frame_stats,
}
