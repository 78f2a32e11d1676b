"""Query pipelines beyond the core SQL set (the non-core entries of
``queries.QUERIES``).

DuckDB-oracled (``EXTRA_ORACLES``): language-ID, quality scoring, batched
kNN, BPE-ish token counts (RE2-safe pretokenizer), exact n-gram Jaccard,
window/asof/range/quantile queries, and the flagship pipeline's
reject-reason counters (the gate chain recomputed independently in SQL
over the same synthetic parquet).  Float rounding is half-up via
``_round4`` on BOTH sides; numpy's default half-even diverges from DuckDB's
half-away on exact .00005 boundaries, measured 4-8 docs per 500 at sf0.01.

The rest (MinHash/LSH clustering, SimHash, winnowing fingerprints, LSH ANN,
embedding near-dup, the flagship's cluster assignments) are not ANSI-SQL
expressible -> the driver records rows-only checks.  All deterministic, so
row counts and values are stable across driver runs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import DedupConfig
from ..sources.readers import read_sf_table as _read
from ..stages.joins import exchanges_only

_SF_ROWS = {"0.001": 2000, "0.01": 6000, "0.1": 20000}


def _round4(x: np.ndarray) -> np.ndarray:
    """Round half-up to 4 decimals — bit-identical to the SQL twin
    ``floor(x * 10000 + 0.5) / 10000`` (IEEE ops in the same order)."""
    return np.floor(np.asarray(x, dtype=np.float64) * 10000 + 0.5) / 10000


def _sf_of(sf_dir: str) -> str:
    for k in _SF_ROWS:
        if sf_dir.rstrip("/").endswith("sf" + k):
            return k
    return "0.001"


from ..functions.hashing import mul_hash_priority as _hash_priority  # noqa: E402


def _split_labels(ids: np.ndarray) -> np.ndarray:
    """Deterministic 90/5/5 train/val/test labels from _hash_priority."""
    bucket = _hash_priority(ids) % np.uint64(100)
    return np.where(bucket < 90, "train",
                    np.where(bucket < 95, "val", "test")).astype(object)


def _bench_slice(is_bench: bool):
    """Per-block filter selecting (or excluding) the held-out benchmark
    slice doc_id % 50 == 0 — shared by doc_decontaminate and
    doc_training_prep so the slice definition cannot drift from the
    decontamination oracle's WHERE doc_id % 50 = 0."""
    def f(b: pa.Table) -> pa.Table:
        m = (b["doc_id"].to_numpy(zero_copy_only=False) % 50) == 0
        return b.filter(pa.array(m if is_bench else ~m))
    return f


def doc_minhash_clusters(sf_dir: str):
    """Full text near-dup pipeline over documents."""
    from .text_dedup import text_dedup_pipeline
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = text_dedup_pipeline(ds, DedupConfig())
    return out["clusters"]


def doc_simhash(sf_dir: str):
    """Per-doc 64-bit SimHash (hex) + shingle count."""
    from ..functions.hashing import char_shingle_hashes, simhash64
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def kernel(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        norm = pc.utf8_lower(pc.utf8_trim_whitespace(
            pc.replace_substring_regex(b["text"], r"\s+", " ")))
        h, c = char_shingle_hashes(norm.to_pylist(), 5, seed=11)
        s = simhash64(h, c)
        return pa.table({"doc_id": b["doc_id"],
                         "simhash": pa.array([f"{v:016x}" for v in s]),
                         "shingles": pa.array(c.astype(np.int64))})

    return ds.map_batches(kernel, batch_format="pyarrow")


def doc_langid(sf_dir: str):
    """Heuristic language-ID over documents — stopword-mask scoring, so an
    exact SQL twin exists (EXTRA_ORACLES['doc_langid'])."""
    from ..functions.textstats import detect_language
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def kernel(b: pa.Table) -> pa.Table:
        langs, conf = detect_language(b["text"].to_pylist())
        return pa.table({"doc_id": b["doc_id"], "lang_label": b["lang"],
                         "lang_pred": pa.array(list(langs), pa.string()),
                         "conf": pa.array(_round4(conf), pa.float64())})

    return ds.map_batches(kernel, batch_format="pyarrow")


def doc_quality(sf_dir: str):
    """Quality-score features per doc (length/punct/stopword ratios)."""
    from ..functions.textstats import quality_scores
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def kernel(b: pa.Table) -> pa.Table:
        q = quality_scores(b["text"].to_pylist())
        return pa.table({"doc_id": b["doc_id"],
                         "n_tokens": pa.array(q["n_tokens"]),
                         "stop_ratio": pa.array(_round4(q["stop_ratio"])),
                         "unique_ratio": pa.array(_round4(q["unique_ratio"])),
                         "quality": pa.array(_round4(q["quality"]))})

    return ds.map_batches(kernel, batch_format="pyarrow")


def _doc_simhash_i64(sf_dir: str):
    """(doc_id, simhash:int64) signature table — the pair stage's input
    AND (materialized by ensure_oracle_inputs) the doc_simhash_pairs
    oracle's brute-force input."""
    sig = doc_simhash(sf_dir).drop_columns(["shingles"])

    def to_i64(b: pa.Table) -> pa.Table:
        vals = np.array([int(s, 16) for s in b["simhash"].to_pylist()],
                        dtype=np.uint64)
        return pa.table({"doc_id": b["doc_id"],
                         "simhash": pa.array(vals.view(np.int64), pa.int64())})

    return sig.map_batches(to_i64, batch_format="pyarrow")


def doc_simhash_pairs(sf_dir: str):
    """SimHash Hamming-ball near-dup pairs (<= 3 bits) — exact by
    pigeonhole banding + per-pair Hamming verify (stages/simhash_pairs.py).
    Full DuckDB oracle (EXTRA_ORACLES['doc_simhash_pairs']): the SQL twin
    brute-forces the O(n^2) self-join over the materialized signature
    parquet with bit_count(xor(...)) <= 3 — an independent check of the
    banding/pairing/verify machinery (the signature kernel itself is
    pinned by planted-truth brute-force tests in
    tests/test_simhash_pairs.py)."""
    from ..stages.simhash_pairs import simhash_hamming_pairs
    return simhash_hamming_pairs(_doc_simhash_i64(sf_dir), max_ham=3)


def doc_token_counts_bpe(sf_dir: str):
    """Per-doc whitespace vs BPE-ish (GPT-2-style pretokenizer) token
    counts.  Uses the RE2-expressible pretokenizer variant
    (textstats.BPEISH_RE2 — plain trailing `\\s+` instead of the lookahead
    `\\s+(?!\\S)`; identical token COUNTS, different whitespace-run
    segmentation) so a full DuckDB oracle exists
    (EXTRA_ORACLES['doc_token_counts_bpe'])."""
    from ..functions.textstats import token_counts
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def kernel(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        return pa.table({
            "doc_id": b["doc_id"],
            "n_ws": pa.array(token_counts(texts, "whitespace")),
            "n_bpeish": pa.array(token_counts(texts, "bpeish_re2"))})

    return ds.map_batches(kernel, batch_format="pyarrow")


def doc_fingerprints(sf_dir: str):
    """Winnowing document fingerprints (rolling-hash selection)."""
    from ..functions.hashing import winnowing_fingerprints
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def kernel(b: pa.Table) -> pa.Table:
        fps, cnt = winnowing_fingerprints(b["text"].to_pylist(), 8, 4, seed=13)
        off = np.zeros(b.num_rows + 1, dtype=np.int32)
        np.cumsum(cnt, out=off[1:])
        return pa.table({"doc_id": b["doc_id"],
                         "n_fingerprints": pa.array(cnt.astype(np.int64)),
                         "fp_min": pa.array(
                             [f"{fps[off[i]:off[i+1]].min():016x}" if cnt[i] else ""
                              for i in range(b.num_rows)])})

    return ds.map_batches(kernel, batch_format="pyarrow")


def doc_ngram_jaccard(sf_dir: str):
    """EXACT word-3-gram Jaccard near-dup pairs (>= 0.5) — the auditable
    dedup tier.  PPJoin prefix-filtered candidate generation, so it is
    lossless AND avoids the all-pairs blowup; full DuckDB oracle
    (EXTRA_ORACLES['doc_ngram_jaccard'])."""
    from ..stages.ngram_jaccard import ngram_jaccard_pairs
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ngram_jaccard_pairs(ds, n=3, threshold=0.5, seed=29)


def doc_substring_pairs(sf_dir: str):
    """EXACT shared-substring pairs: every doc pair sharing a 32-byte
    verbatim substring, with the shared-gram count — the suffix-array
    family's exact seeding tier (lossless: pair set == {LCS >= 32}).
    Full DuckDB oracle (EXTRA_ORACLES['doc_substring_pairs'])."""
    from ..stages.substring import substring_pairs
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return substring_pairs(ds, width=32, seed=37)


def doc_substring_lcs(sf_dir: str):
    """Exact longest-common-substring length for every pair sharing a
    32-byte substring, via the generalized suffix array
    (functions/suffixarray.lcs_len).  Full DuckDB oracle
    (EXTRA_ORACLES['doc_substring_lcs']): LCS >= 32 is recomputable in
    SQL as 31 + the longest DIAGONAL RUN of matching 32-grams — grams
    with positions self-joined on equality, runs found with the
    gaps-and-islands window trick (pos - row_number per (pair, pos_l -
    pos_r) diagonal).  Byte/char equivalence holds because the documents
    table is ASCII (asserted for the suite in tests/test_substring.py);
    DP-parity also pinned there."""
    from ..stages.substring import substring_lcs
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return substring_lcs(ds, width=32, seed=37)


def doc_top_tokens(sf_dir: str, k: int = 20):
    """Exact global top-k most frequent tokens (vocabulary heavy hitters):
    per-block partial counts -> one merge of the partials (on the driver
    when they fit one place, else a keyed exchange; stages/agg.py) ->
    distributed top-k (stages/topk.py) — never a global sort.  Full
    DuckDB oracle (EXTRA_ORACLES['doc_top_tokens']); the bounded-memory
    alternative is the mg_topk sketch."""
    from ..functions.textstats import _explode_tokens
    from ..stages.agg import grouped_agg
    from ..stages.topk import topk_rows
    ds = _read(sf_dir, "documents", ["text"])

    def counts(b: pa.Table) -> pa.Table:
        flat, _ = _explode_tokens(pd.Series(b["text"].to_pylist()))
        if len(flat) == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        vc = flat.value_counts()
        return pa.table({"token": pa.array(vc.index.to_numpy(dtype=object)),
                         "n": pa.array(vc.to_numpy(dtype=np.int64))})

    tot = grouped_agg(ds.map_batches(counts, batch_format="pyarrow",
                                     batch_size=None),
                      ["token"], [("n", "sum", "n")])
    return topk_rows(tot, [("n", "descending"), ("token", "ascending")], k)


def doc_sample_uniform(sf_dir: str, k: int = 50):
    """Deterministic uniform k-sample without a global sort: every row
    gets a multiplicative-hash priority (Knuth 2654435761 mod 2^32 — SQL-
    expressible, so the oracle is exact), and the k smallest priorities
    win via the distributed top-k tree.  The distributed equivalent of
    reservoir sampling, but deterministic and rerun-stable (retry-safe:
    recomputing a block yields identical priorities).  Full DuckDB oracle
    (EXTRA_ORACLES['doc_sample_uniform'])."""
    from ..stages.topk import topk_rows
    ds = _read(sf_dir, "documents", ["doc_id"])

    def prio(b: pa.Table) -> pa.Table:
        p = _hash_priority(b["doc_id"].to_numpy(zero_copy_only=False))
        return pa.table({"doc_id": b["doc_id"],
                         "priority": pa.array(p.astype(np.int64))})

    return topk_rows(ds.map_batches(prio, batch_format="pyarrow",
                                    batch_size=None),
                     [("priority", "ascending"), ("doc_id", "ascending")], k)


def doc_decontaminate(sf_dir: str, n: int = 8):
    """Benchmark decontamination: per training doc, the number of distinct
    word-8-grams shared with the benchmark corpus (docs with
    doc_id % 50 == 0 stand in as the held-out benchmark).  Broadcast
    gram-set membership — one streaming pass, no shuffle
    (stages/decontam.py).  Full DuckDB oracle
    (EXTRA_ORACLES['doc_decontaminate'])."""
    from ..stages.decontam import (benchmark_gram_hashes,
                                   contamination_counts)
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    grams = benchmark_gram_hashes(ds, "text", n=n, seed=41,
                                  pre=_bench_slice(True))
    return contamination_counts(ds, grams, "doc_id", "text", n=n, seed=41,
                                pre=_bench_slice(False))


def doc_token_postings(sf_dir: str):
    """Inverted index build: per token, the comma-joined ascending list of
    documents containing it plus the document frequency — the posting-list
    aggregation (SQL string_agg / collect_list) via ONE keyed shuffle
    (stages/agg.grouped_concat).  Full DuckDB oracle
    (EXTRA_ORACLES['doc_token_postings'])."""
    from ..functions.textstats import _explode_tokens
    from ..stages.agg import grouped_concat
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def explode(b: pa.Table) -> pa.Table:
        flat, doc = _explode_tokens(pd.Series(b["text"].to_pylist()))
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"token": flat.to_numpy(dtype=object),
                           "doc_id": ids[doc]}).drop_duplicates()
        return pa.table({"token": pa.array(df["token"].to_numpy(dtype=object),
                                           pa.string()),
                         "doc_id": pa.array(df["doc_id"].to_numpy(),
                                            pa.int64())})

    pairs = ds.map_batches(explode, batch_format="pyarrow", batch_size=None)
    return grouped_concat(pairs, ["token"], "doc_id", out_col="postings",
                          count_col="df")


def doc_quality_band(sf_dir: str):
    """Quantile-band filter: keep documents whose quality score lies
    within the global [p05, p95] — outlier trimming composed from the
    exact distributed quantiles (stages/quantiles) + a broadcast-scalar
    filter pass.  The narrow (doc_id, quality) projection is materialized
    once because three passes consume it (two quantile passes + the
    filter).  Full DuckDB oracle (quantile_disc twin)."""
    import pyarrow.compute as pc

    from ..stages.quantiles import exact_quantiles
    dq = (doc_quality(sf_dir).select_columns(["doc_id", "quality"])
          .materialize())
    qt = exact_quantiles(dq, "quality", [0.05, 0.95])
    lo, hi = qt["value"].to_pylist()

    def band(b: pa.Table) -> pa.Table:
        v = b["quality"]
        return b.filter(pc.and_(pc.greater_equal(v, lo),
                                pc.less_equal(v, hi)))

    return dq.map_batches(band, batch_format="pyarrow", batch_size=None)


def doc_train_split(sf_dir: str):
    """Deterministic train/val/test assignment (90/5/5) by multiplicative
    hash of doc_id — the standard training-prep splitter: stateless,
    rerun/retry-stable, no shuffle, and any worker can compute any row's
    split independently (the property that matters when 10^12 rows are
    split across a resumable run).  Full DuckDB oracle (the hash is
    SQL-expressible; EXTRA_ORACLES['doc_train_split'])."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def assign(b: pa.Table) -> pa.Table:
        split = _split_labels(b["doc_id"].to_numpy(zero_copy_only=False))
        return pa.table({"doc_id": b["doc_id"],
                         "split": pa.array(split, pa.string())})

    return ds.map_batches(assign, batch_format="pyarrow", batch_size=None)


def doc_top_term(sf_dir: str):
    """Most distinctive token per document by a log-free tf-idf weight
    score = tf * N / df (identical float op order on both sides, so the
    oracle is bit-exact — ln() would be libm-dependent).  Composition:
    per-block exact tf (a document lives in one row, so per-block
    group_by is globally exact) -> df via grouped_agg ->
    size-adaptive broadcast join -> per-group top-1
    (stages/topk.topk_per_group).  Full DuckDB oracle
    (EXTRA_ORACLES['doc_top_term'])."""
    import pyarrow.parquet as pq

    from ..functions.textstats import _explode_tokens
    from ..stages.agg import grouped_agg
    from ..stages.joins import attach_by_key
    from ..stages.topk import topk_per_group
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows

    def tf_kernel(b: pa.Table) -> pa.Table:
        flat, doc = _explode_tokens(pd.Series(b["text"].to_pylist()))
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        df = (pd.DataFrame({"doc_id": ids[doc],
                            "token": flat.to_numpy(dtype=object)})
              .groupby(["doc_id", "token"], sort=False).size()
              .reset_index(name="tf"))
        return pa.table({"doc_id": pa.array(df["doc_id"].to_numpy(),
                                            pa.int64()),
                         "token": pa.array(df["token"].to_numpy(dtype=object),
                                           pa.string()),
                         "tf": pa.array(df["tf"].to_numpy(dtype=np.int64))})

    tf = ds.map_batches(tf_kernel, batch_format="pyarrow",
                        batch_size=None).materialize()
    df_tbl = grouped_agg(tf, ["token"], [("token", "count", "df")])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        s = (b["tf"].to_numpy(dtype=np.float64) * n_docs) / \
            b["df"].to_numpy(dtype=np.float64)
        out = b[["doc_id", "token"]].copy()
        out["score"] = _round4(s)
        return out

    scored = attach_by_key(tf, df_tbl, ["token"]).map_batches(
        score, batch_format="pandas", batch_size=None)
    return topk_per_group(scored, ["doc_id"],
                          [("score", "descending"), ("token", "ascending")],
                          1)


def doc_repetition(sf_dir: str):
    """Gopher-style repetition quality signal (Rae et al. 2021, "Scaling
    Language Models: ... Gopher", §A1.1 repetition filters): per document,
    the fraction of tokens taken by the single most frequent token
    (``top_frac`` — boilerplate/keyword-stuffed pages score high) plus the
    token itself (smallest lexicographically among ties, deterministic),
    and the duplicate word-bigram fraction (``dup_bigram_frac`` =
    1 - distinct/total consecutive-token 2-grams — near-1 on looped text).
    Complements doc_quality's ``unique_ratio`` (distinct/total): a doc can
    have middling unique_ratio but one token covering 40% of it.  One
    row-local ``map_batches`` pass — a document lives in one row, so
    per-doc counts never shuffle, the shape that holds at 10^12 rows.
    Full DuckDB oracle (EXTRA_ORACLES['doc_repetition'])."""
    from ..functions.textstats import _explode_tokens
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def kernel(b: pa.Table) -> pa.Table:
        texts = pd.Series(b["text"].to_pylist())
        flat, doc = _explode_tokens(texts)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        n = len(texts)
        n_tokens = np.zeros(n, dtype=np.int64)
        top_n = np.zeros(n, dtype=np.int64)
        top_tok = np.full(n, "", dtype=object)
        n_bi = np.zeros(n, dtype=np.int64)
        n_di = np.zeros(n, dtype=np.int64)
        if len(flat):
            c = (pd.DataFrame({"d": doc, "t": flat.to_numpy(dtype=object)})
                 .groupby(["d", "t"], sort=False).size().reset_index(name="n"))
            tot = c.groupby("d", sort=False)["n"].sum()
            n_tokens[tot.index.to_numpy()] = tot.to_numpy()
            # (count desc, token asc) per doc; stable sort -> first wins
            c = c.sort_values(["d", "n", "t"], ascending=[True, False, True],
                              kind="mergesort").drop_duplicates("d")
            top_n[c["d"].to_numpy()] = c["n"].to_numpy(dtype=np.int64)
            top_tok[c["d"].to_numpy()] = c["t"].to_numpy(dtype=object)
            # consecutive-token bigrams within each doc (object-dtype
            # elementwise concat is vectorized over the flattened run)
            arr = flat.to_numpy(dtype=object)
            same = doc[1:] == doc[:-1]
            if same.any():
                grams = arr[:-1][same] + " " + arr[1:][same]
                gb = (pd.DataFrame({"d": doc[:-1][same], "g": grams})
                      .groupby("d", sort=False)["g"]
                      .agg(["count", "nunique"]))
                n_bi[gb.index.to_numpy()] = gb["count"].to_numpy()
                n_di[gb.index.to_numpy()] = gb["nunique"].to_numpy()
        frac = np.where(n_tokens > 0,
                        _round4(top_n / np.maximum(n_tokens, 1)), 0.0)
        dup = np.where(n_bi > 0,
                       _round4(1.0 - (n_di / np.maximum(n_bi, 1))), 0.0)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_tokens": pa.array(n_tokens),
                         "top_token": pa.array(top_tok, pa.string()),
                         "top_frac": pa.array(frac, pa.float64()),
                         "n_bigrams": pa.array(n_bi),
                         "dup_bigram_frac": pa.array(dup, pa.float64())})

    return ds.map_batches(kernel, batch_format="pyarrow", batch_size=None)


def doc_pack_assign(sf_dir: str, budget: int = 512):
    """Sequence packing: assign documents (in doc_id order) to fixed
    token-budget training packs by bucketing the exclusive running token
    total — pack_id = floor(tokens_before / budget), the streaming
    bucket-fill strategy whose global scan is the distributed ordered
    prefix sum (stages/scan.ordered_prefix_sum: per-block partials, O(
    blocks) driver offsets, second streaming pass — NO shuffle).  Full
    DuckDB oracle (window SUM ... ROWS UNBOUNDED PRECEDING twin)."""
    from ..functions.textstats import token_counts
    from ..stages.scan import ordered_prefix_sum
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def counts(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"],
                         "n_tokens": pa.array(token_counts(
                             b["text"].to_pylist(), "whitespace"))})

    toks = ds.map_batches(counts, batch_format="pyarrow", batch_size=None)
    run = ordered_prefix_sum(toks, "doc_id", "n_tokens",
                             out_col="prior", inclusive=False)

    def packs(b: pa.Table) -> pa.Table:
        pid = b["prior"].to_numpy() // budget
        return pa.table({"doc_id": b["doc_id"], "n_tokens": b["n_tokens"],
                         "pack_id": pa.array(pid.astype(np.int64))})

    return run.map_batches(packs, batch_format="pyarrow", batch_size=None)


def events_value_quantiles_by_type(sf_dir: str):
    """Exact per-group quantiles (p25/p50/p75 of value per event type) —
    one keyed shuffle + vectorized group-offset rank selection
    (stages/quantiles.grouped_quantiles).  Full DuckDB oracle (grouped
    quantile_disc twin)."""
    from ..stages.quantiles import grouped_quantiles
    ds = _read(sf_dir, "events", ["event_type", "value"])
    return grouped_quantiles(ds, ["event_type"], "value",
                             [0.25, 0.5, 0.75])


def events_hll_users_by_type(sf_dir: str):
    """Per-event-type approximate distinct users (grouped HLL sketch,
    stages/sketch.hll_distinct_by_key) — the constant-exchange companion
    to the exact events_distinct_types.  Rows-only driver check
    (estimates aren't SQL-reproducible); accuracy vs exact distinct is
    pinned in tests/test_topk_decontam.py."""
    from ..stages.sketch import hll_distinct_by_key
    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return hll_distinct_by_key(ds, "event_type", "user_id")


def orders_bloom_semi_negbal(sf_dir: str):
    """Bloom-accelerated EXACT semi join: orders of customers with
    negative account balance.  The broadcast bit-array probe drops
    non-members map-side (no false negatives), the exact tier verifies
    only the survivors (stages/bloom.py) — result identical to the plain
    semi join, so the DuckDB IN-subquery twin is a full oracle."""
    import pyarrow.compute as pc

    from ..stages.bloom import bloom_semi_filter
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    neg = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"]).map_batches(
        lambda b: b.filter(pc.less(b["c_acctbal"], 0.0))
                   .select(["c_custkey"]),
        batch_format="pyarrow", batch_size=None)
    keyed = neg.map_batches(
        lambda b: b.rename_columns(["o_custkey"]),
        batch_format="pyarrow", batch_size=None)
    return bloom_semi_filter(orders, keyed, "o_custkey", keep=True)


def events_top3_per_user(sf_dir: str):
    """Exact top-3 events per user by value (the "best N per group"
    operator — SQL's row_number window, computed as per-block segmented
    top-k + one merge per user; stages/topk.topk_per_group).  Full DuckDB
    oracle (EXTRA_ORACLES['events_top3_per_user'])."""
    from ..stages.topk import topk_per_group
    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    return topk_per_group(ds, ["user_id"],
                          [("value", "descending"),
                           ("event_id", "ascending")], 3)


def doc_top_tokens_approx(sf_dir: str, k: int = 20):
    """Misra-Gries approximate heavy hitters over document tokens — the
    constant-exchange scale path beside the exact doc_top_tokens tree
    (stages/sketch.mg_topk).  Rows-only driver check (lower-bound
    estimates aren't SQL-reproducible); the deterministic error bound and
    exact-top-k set recovery are pinned in tests/test_topk_decontam.py."""
    from ..functions.textstats import _explode_tokens
    from ..stages.sketch import mg_topk
    ds = _read(sf_dir, "documents", ["text"])

    def explode(b: pa.Table) -> pa.Table:
        flat, _ = _explode_tokens(pd.Series(b["text"].to_pylist()))
        return pa.table({"token": pa.array(flat.to_numpy(dtype=object),
                                           pa.string())})

    return mg_topk(ds, "token", capacity=4096, k=k, pre=explode)


def emb_ann_lsh(sf_dir: str):
    """LSH-bucketed approximate top-5 for 4 fixed query vectors, compared
    against the brute-force baseline schema."""
    from ..stages.ann import ann_lsh
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qs = []
    for r in ds.take(4):
        qs.append(np.asarray(r["embedding"], dtype=np.float64))
    return ann_lsh(ds, np.stack(qs), 5, bits=8, n_probes=3, seed=97)


def emb_ann_ivf(sf_dir: str):
    """IVF (sampled spherical k-means) approximate top-5 for the same 4
    query vectors as emb_ann_lsh — the second ANN scale path."""
    from ..stages.ann import ann_ivf
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qs = []
    for r in ds.take(4):
        qs.append(np.asarray(r["embedding"], dtype=np.float64))
    return ann_ivf(ds, np.stack(qs), 5, n_centroids=16, n_probe=4, seed=131)


def emb_knn_batch(sf_dir: str):
    """Brute-force cosine top-5 for query vectors vec_id 0..3 (exact
    baseline; query_idx = the query's vec_id, so the SQL twin is a cross
    join against ``WHERE vec_id < 4``)."""
    from ..stages.ann import knn_bruteforce
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    rows = sorted(ds.filter(expr="vec_id < 4").take(8),
                  key=lambda r: r["vec_id"])[:4]
    qs = [np.asarray(r["embedding"], dtype=np.float64) for r in rows]
    out = knn_bruteforce(ds, np.stack(qs), 5)
    df = out.to_pandas()
    df["query_idx"] = np.asarray([rows[i]["vec_id"] for i in df["query_idx"]])
    df["cos_sim"] = _round4(df["cos_sim"].to_numpy())
    return pa.Table.from_pandas(df, preserve_index=False)


_PRICE_BANDS = [  # (lo, hi, band) — half-open [lo, hi); overlap-capable
    (0.0, 100_000.0, "low"),
    (100_000.0, 250_000.0, "mid"),
    (250_000.0, 600_000.0, "high"),
    (400_000.0, 600_000.0, "premium"),   # overlaps "high" deliberately
]


def q3_shipping(sf_dir: str):
    """TPC-H Q3 shape (customer ⋈ orders ⋈ lineitem): BUILDING-segment
    revenue per order, top 10.  Broadcast semi-join + map-side partial
    aggregation before the only exchange; full DuckDB oracle."""
    import datetime
    import pyarrow.compute as pc
    from ..stages.agg import grouped_agg
    from ..stages.joins import attach_by_key, filter_by_keys

    cutoff = datetime.datetime(1998, 6, 1)

    cust = (_read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
            .filter(expr="c_mktsegment == 'BUILDING'")
            .select_columns(["c_custkey"]))
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate",
                    "o_orderpriority"])
    orders = orders.map_batches(
        lambda b: b.filter(pc.less(b["o_orderdate"], pa.scalar(cutoff))),
        batch_format="pyarrow")
    orders = filter_by_keys(orders, cust, "o_custkey", keep=True,
                            keys_col="c_custkey")

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def rev_parts(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b["l_shipdate"], pa.scalar(cutoff)))
        rev = pc.multiply(b["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), b["l_discount"]))
        return pa.table({"o_orderkey": b["l_orderkey"], "rev": rev})

    rev = grouped_agg(li.map_batches(rev_parts, batch_format="pyarrow"),
                      ["o_orderkey"], [("rev", "sum", "revenue")])
    joined = attach_by_key(rev, orders, ["o_orderkey"])

    def round_rev(b: pa.Table) -> pa.Table:
        i = b.schema.get_field_index("revenue")
        return b.set_column(i, "revenue", pa.array(
            _round4(b["revenue"].to_numpy(zero_copy_only=False))))

    out = (joined.map_batches(round_rev, batch_format="pyarrow")
           .sort(["revenue", "o_orderdate", "o_orderkey"],
                 descending=[True, False, False])
           .limit(10)
           .select_columns(["o_orderkey", "revenue", "o_orderdate",
                            "o_orderpriority"]))
    return out


def events_hll_users(sf_dir: str):
    """HyperLogLog distinct-user estimate (stages/sketch.py) — the sketch
    tier next to the exact events_distinct_types.  Deterministic (seeded
    hash), rows-only driver check; accuracy asserted in
    tests/test_sketch.py (<5 percent at p=12)."""
    from ..stages.sketch import hll_distinct
    ds = _read(sf_dir, "events", ["user_id"])
    est = hll_distinct(ds, "user_id", p=12)
    return pa.table({"metric": pa.array(["distinct_users_hll"]),
                     "estimate": pa.array([round(est, 1)], pa.float64())})


def events_distinct_types(sf_dir: str):
    """Exact COUNT(DISTINCT event_type) per user via two-level
    pre-aggregation: map-side (user, type) distinct inside each batch,
    one keyed groupby over the already-tiny pair table, then a count per
    user — the canonical shuffle-minimizing pattern (never ships
    duplicate rows into the exchange).  Full DuckDB oracle."""
    from ..stages.agg import grouped_agg
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def local_distinct(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return b.group_by(["user_id", "event_type"]).aggregate([])

    pairs = ds.map_batches(local_distinct, batch_format="pyarrow")
    pairs = grouped_agg(pairs, ["user_id", "event_type"], [])  # distinct
    return grouped_agg(pairs, ["user_id"],
                       [("event_type", "count", "n_types")])


def orders_price_quantiles(sf_dir: str):
    """Exact distributed quantiles of o_totalprice (two streaming passes:
    histogram + candidate-bucket refinement; stages/quantiles.py).  Full
    DuckDB oracle (quantile_disc — type-1, value copies, bit-exact)."""
    from ..stages.quantiles import exact_quantiles
    ds = _read(sf_dir, "orders", ["o_totalprice"])
    return exact_quantiles(ds, "o_totalprice",
                           [0.01, 0.25, 0.5, 0.75, 0.99])


def orders_price_bands(sf_dir: str):
    """Range join (custom operator, stages/rangejoin.py): orders against a
    broadcast price-interval table — overlapping bands duplicate the row
    (inner-join semantics).  Full DuckDB oracle (BETWEEN-style join)."""
    from ..stages.rangejoin import range_join_broadcast
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    iv = pa.table({"lo": pa.array([b[0] for b in _PRICE_BANDS]),
                   "hi": pa.array([b[1] for b in _PRICE_BANDS]),
                   "band": pa.array([b[2] for b in _PRICE_BANDS])})
    return range_join_broadcast(ds, iv, "o_totalprice", closed="left")


def events_rolling_1h(sf_dir: str):
    """Rolling 1-hour window per user (custom operator, stages/window.py):
    count + sum of the user's events in [ts - 1h, ts].  Full DuckDB oracle
    (RANGE BETWEEN window frame)."""
    from ..stages.window import rolling_window_agg
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    # events ts is timestamp[us] -> width in microseconds
    return rolling_window_agg(ds, on="ts", by="user_id", value_col="value",
                              width_ns=3_600_000_000,
                              keep_cols=["event_id"])


def events_sessionize(sf_dir: str):
    """Gap-based sessionization (custom operator, stages/window.py):
    a new session per user when the inter-event gap exceeds 30 minutes.
    Full DuckDB oracle (lag + running-sum window)."""
    from ..stages.window import sessionize
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    return sessionize(ds, on="ts", by="user_id",
                      gap_ns=1_800_000_000,        # ts is timestamp[us]
                      keep_cols=["event_id"])


def events_asof_prev_click(sf_dir: str):
    """AS-OF join (custom operator, stages/asof.py): each event joined to
    the same user's most recent STRICTLY-prior click.  Full DuckDB oracle
    (native ASOF JOIN)."""
    from ..stages.asof import asof_join
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type", "value"])
    clicks = ev.filter(expr="event_type == 'click'")

    def mk(b: pa.Table) -> pa.Table:
        return pa.table({"user_id": b["user_id"], "ts": b["ts"],
                         "prev_click_ts": b["ts"],
                         "prev_click_value": b["value"]})

    clicks = clicks.map_batches(mk, batch_format="pyarrow")
    ev = ev.select_columns(["event_id", "ts", "user_id"])
    return asof_join(ev, clicks, on="ts", by="user_id",
                     left_cols=["event_id"],
                     right_cols=["prev_click_ts", "prev_click_value"],
                     strict=True, right_suffix="")


def events_rolling_1h_shuffle(sf_dir: str):
    """events_rolling_1h on its keyed-exchange side (``exchanges_only``):
    the topology the 100 TB run uses runs under the DuckDB oracle at every
    scale (VERDICT round 3 next #5).  Same oracle SQL as
    events_rolling_1h."""
    with exchanges_only():
        return events_rolling_1h(sf_dir)


def events_sessionize_shuffle(sf_dir: str):
    """events_sessionize on its keyed-exchange side (``exchanges_only``)."""
    with exchanges_only():
        return events_sessionize(sf_dir)


def events_asof_prev_click_shuffle(sf_dir: str):
    """events_asof_prev_click on its keyed-exchange side
    (``exchanges_only``) — the partitioned as-of join under the oracle."""
    with exchanges_only():
        return events_asof_prev_click(sf_dir)


def emb_neardup_exact(sf_dir: str):
    """EXACT all-pairs cosine near-dup (>= 0.25) — block-nested-loop
    matmul over object-store blocks, no driver materialization; full
    DuckDB oracle (EXTRA_ORACLES['emb_neardup_exact'])."""
    from ..stages.ann import cosine_pairs_exact
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return cosine_pairs_exact(ds, 0.25)


def emb_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs (hyperplane buckets + verify)."""
    from ..stages.ann import embedding_neardup_pairs
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # the testdata embeddings are random (max pairwise cos ~0.4); a low
    # threshold keeps the pair path exercised end-to-end
    return embedding_neardup_pairs(ds, DedupConfig(), threshold=0.25, bits=6)


def doc_training_prep(sf_dir: str):
    """END-TO-END training-data prep over documents — the composition a
    real corpus pipeline runs, chained from the engine's own stages:

      language/quality gates -> benchmark decontamination (docs sharing a
      word-8-gram with the held-out doc_id%50==0 slice dropped, benchmark
      docs excluded; stages/decontam.py) -> text near-dup clustering
      (MinHash-LSH + fingerprints, pipelines/text_dedup.py) -> one
      representative per cluster -> deterministic train/val/test split ->
      token stats on the survivors.

    Output: one row per KEPT doc (clean cluster representative passing
    gates) with lang_pred, quality, n_tokens, cluster_size, split.
    Deterministic; rows-only driver check (clustering is not
    SQL-expressible)."""
    from ..functions.textstats import detect_language, quality_scores
    from ..stages.decontam import benchmark_gram_hashes, decontaminated
    from .text_dedup import text_dedup_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def gate(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        langs, conf = detect_language(texts)
        q = quality_scores(texts)
        keep = (conf >= 0.05) & (q["quality"] >= 0.3) & (q["n_tokens"] >= 10)
        t = pa.table({
            "doc_id": b["doc_id"], "text": b["text"],
            "lang_pred": pa.array(list(langs), pa.string()),
            "quality": pa.array(_round4(q["quality"])),
            "n_tokens": pa.array(q["n_tokens"]),
        })
        return t.filter(pa.array(keep))

    gated = ds.map_batches(gate, batch_format="pyarrow")
    grams = benchmark_gram_hashes(ds, "text", n=8, seed=41,
                                  pre=_bench_slice(True))
    gated = decontaminated(gated, grams, "text", n=8, seed=41,
                           pre=_bench_slice(False)).materialize()
    out = text_dedup_pipeline(gated.select_columns(["doc_id", "text"]),
                              DedupConfig())
    reps = (out["clusters"]
            .filter(expr="is_representative == True")
            .select_columns(["image_id", "cluster_size"]))
    from ..stages.joins import attach_by_key

    def add_key(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return b.append_column("image_id", pc.cast(b["doc_id"], pa.string()))

    keyed = gated.drop_columns(["text"]).map_batches(add_key,
                                                     batch_format="pyarrow")
    joined = attach_by_key(keyed, reps, ["image_id"])   # inner: reps only

    def add_split(b: pa.Table) -> pa.Table:
        split = _split_labels(b["doc_id"].to_numpy(zero_copy_only=False))
        return b.append_column("split", pa.array(split, pa.string()))

    return (joined.drop_columns(["image_id"])
            .map_batches(add_split, batch_format="pyarrow", batch_size=None))


_IMG_MEMO: dict[str, dict] = {}


def _image_pipeline(sf_dir: str) -> dict:
    """Run (once per sf per process) the flagship pipeline on the synthetic
    table; clusters/counters queries share the result."""
    key = _sf_of(sf_dir)
    if key not in _IMG_MEMO:
        import ray.data as rd
        from ..sources.synth import synth_parquet
        from .image_dedup import dedup_pipeline
        path = synth_parquet(_SF_ROWS[key], 42)
        out = dedup_pipeline(rd.read_parquet(path), DedupConfig())
        out["clusters"] = out["clusters"].materialize()
        out["counters"] = out["counters"].materialize()
        _IMG_MEMO[key] = out
    return _IMG_MEMO[key]


_AUDIO_ROWS = {"0.001": 300, "0.01": 900, "0.1": 3000}


def _audio_ds(sf_dir: str):
    """Cached synthetic WAV table for this sf (parquet under /tmp)."""
    import ray.data as rd
    from ..sources.audiosynth import synth_audio_parquet
    return rd.read_parquet(synth_audio_parquet(_AUDIO_ROWS[_sf_of(sf_dir)],
                                               42))


def audio_dedup_pairs(sf_dir: str):
    """Audio near-dup pairs over the deterministic synthetic WAV table
    (sources/audiosynth.py): WAV decode + 64-bit spectral fingerprint in
    a map stage, Hamming-ball candidates + profile-L2 verify.
    Full DuckDB oracle (EXTRA_ORACLES['audio_dedup_pairs']): the SQL twin
    brute-forces the O(n^2) self-join over the materialized feature
    parquet — bit_count(xor(simhash)) <= 8 AND list_distance(features)
    <= 0.5 — independently checking the pigeonhole banding, pair join and
    verify tiers (the decode/fingerprint kernel is pinned by planted-truth
    recall/precision tests in tests/test_audio.py)."""
    from ..stages.multimodal import audio_dedup_pairs as pairs
    return pairs(_audio_ds(sf_dir), DedupConfig())


def audio_decode_stats(sf_dir: str):
    """Per-track decode/feature stats from the audio map stage —
    decode_ok rate, duration, rms (rows-only; deterministic)."""
    from ..stages.multimodal import audio_features
    out = audio_features(_audio_ds(sf_dir), DedupConfig())
    return out.drop_columns(["features"])


def audio_durations(sf_dir: str):
    """(audio_id, decode_ok, duration_sec) from the REAL WAV decode in the
    map stage; the DuckDB oracle recomputes both via independent RIFF
    header arithmetic over the same parquet (magic bytes + octet_length)
    — a value-verified check on the audio channel's decode gating."""
    from ..stages.multimodal import audio_features
    out = audio_features(_audio_ds(sf_dir), DedupConfig())
    return out.select_columns(["audio_id", "decode_ok", "duration_sec"])


_VIDEO_ROWS = {"0.001": 150, "0.01": 400, "0.1": 1200}


def _video_ds(sf_dir: str):
    """Cached synthetic FVID table for this sf (parquet under /tmp)."""
    import ray.data as rd
    from ..sources.videosynth import synth_video_parquet
    return rd.read_parquet(synth_video_parquet(_VIDEO_ROWS[_sf_of(sf_dir)],
                                               42))


def video_dedup_pairs(sf_dir: str):
    """Video near-dup pairs over the deterministic synthetic FVID table
    (sources/videosynth.py): frame-sampled phash majority fingerprint in
    a map stage, pigeonhole Hamming-ball candidates, slot-wise frame
    verification.  Full DuckDB oracle (EXTRA_ORACLES['video_dedup_pairs']):
    the SQL twin brute-forces the O(n^2) self-join over the materialized
    signature parquet — bit_count(xor(vhash)) <= 3 AND per-slot
    list_max(bit_count(xor(frame_phashes[i]))) <= 3 — independently
    checking banding, pair join and the slot-verify kernel (the frame
    decode/phash kernel is pinned by planted-truth tests in
    tests/test_video.py)."""
    from ..stages.multimodal import video_dedup_pairs as pairs
    return pairs(_video_ds(sf_dir), DedupConfig())


def video_frame_stats(sf_dir: str):
    """Per-sampled-frame decode stats from the frame-sample map stage
    (one row per video x frame; rows-only, deterministic)."""
    from ..stages.multimodal import sample_video_frames
    return sample_video_frames(_video_ds(sf_dir), DedupConfig(), n_frames=3)


def video_frame_index(sf_dir: str):
    """(video_id, frame_idx, decode_ok, w, h) from the REAL frame-sample
    stage (container parse + per-frame decode); the DuckDB oracle
    recomputes the sampling layout and decode gating via independent
    header arithmetic (fmt + octet_length + the evenly-spaced index
    formula) over the same parquet."""
    import pyarrow.compute as pc
    from ..stages.multimodal import sample_video_frames
    out = sample_video_frames(_video_ds(sf_dir), DedupConfig(), n_frames=3)

    def widen(b: pa.Table) -> pa.Table:
        return pa.table({
            "video_id": b["video_id"],
            "frame_idx": pc.cast(b["frame_idx"], pa.int64()),
            "decode_ok": b["decode_ok"],
            "w": pc.cast(b["w"], pa.int64()),
            "h": pc.cast(b["h"], pa.int64())})

    return out.map_batches(widen, batch_format="pyarrow")


_HTML_ROWS = {"0.001": 300, "0.01": 1000, "0.1": 3000}


def _html_ds(sf_dir: str):
    """Cached synthetic HTML page table for this sf (parquet under /tmp)."""
    import ray.data as rd
    from ..sources.htmlsynth import synth_html_parquet
    return rd.read_parquet(synth_html_parquet(_HTML_ROWS[_sf_of(sf_dir)], 42))


def html_extract_links(sf_dir: str):
    """The reference's third entry point as a Dataset pipeline (reference
    core.py:132-227, tests unit_tests.py:968-1164): HTML pages ->
    flat-map link harvest with the REAL ``extract_links`` kernel (regex
    <a>-tag scan, nofollow skip, relative-URL resolution, full
    check_url canonicalization, internal/external split) -> per-(page,
    url) dedup -> grouped count -> global sort.  One output row per
    distinct canonical outlink with the number of pages linking to it.

    Full DuckDB oracle (EXTRA_ORACLES['html_extract_links']): the SQL twin
    re-harvests with regexp_extract_all and reproduces the resolve +
    canonicalize chain for the controlled link shapes the synthetic corpus
    contains (sources/htmlsynth.py documents the shape constraints); the
    full kernel's exotic branches stay pinned by the reference-parity
    golden tests (tests/test_urls.py, test_reference_sweep.py)."""
    from ..functions.urls import extract_links
    from ..stages.agg import grouped_agg
    ds = _html_ds(sf_dir)

    def harvest(b: pa.Table) -> pa.Table:
        pids: list[str] = []
        urls: list[str] = []
        for pid, base, html in zip(b["page_id"].to_pylist(),
                                   b["base_url"].to_pylist(),
                                   b["html"].to_pylist()):
            links = extract_links(html, url=base, external_bool=False,
                                  strict=False, with_nav=True)
            urls.extend(sorted(links))
            pids.extend([pid] * len(links))
        return pa.table({"page_id": pa.array(pids, pa.string()),
                         "url": pa.array(urls, pa.string())})

    links = ds.map_batches(harvest, batch_format="pyarrow")
    return grouped_agg(links, ["url"], [("url", "count", "n_pages")])


def image_dedup_clusters(sf_dir: str):
    """Flagship pipeline on the deterministic synthetic image+caption table
    sized by sf (cached parquet under /tmp)."""
    return _image_pipeline(sf_dir)["clusters"]


def image_dedup_counters(sf_dir: str):
    """Reject-reason lineage counters of the flagship pipeline."""
    return _image_pipeline(sf_dir)["counters"]


def synth_inputs(sf_dir: str) -> None:
    """Generate (or find cached) this sf's synthetic image, audio, video and
    HTML tables, so a timed query measures the query, not the synthesis;
    the image_dedup_counters oracle SQL scans the image table by path."""
    from ..sources import audiosynth, htmlsynth, synth, videosynth
    key = _sf_of(sf_dir)
    synth.synth_parquet(_SF_ROWS[key], 42)
    audiosynth.synth_audio_parquet(_AUDIO_ROWS[key], 42)
    videosynth.synth_video_parquet(_VIDEO_ROWS[key], 42)
    htmlsynth.synth_html_parquet(_HTML_ROWS[key], 42)


#: root for the per-query signature/feature parquets the pair-verify
#: oracles brute-force over (deterministic, cached once per process tree)
_ORACLE_SIG_ROOT = "/tmp/courlan_ray_oracle_sigs"

#: the driver's correctness run always compares at sf=0.01
_ORACLE_SF_DIR = "/root/testdata/sf0.01"


_KERNEL_FP: list[str] = []


def _kernel_fingerprint() -> str:
    """Hash of the signature-producing kernel sources + config defaults.
    Keys the oracle-side parquet cache so a kernel or DedupConfig change
    can never feed a STALE signature table to the pair-verify oracles
    (the sibling synth caches key on (n, seed); these tables' content is a
    pure function of the kernel code, so the code itself is the key)."""
    if not _KERNEL_FP:
        import hashlib
        import inspect

        import sys

        from .. import config as _cfg
        from ..functions import audiocodec, hashing, videocodec
        from ..stages import multimodal
        h = hashlib.sha256()
        mods = (multimodal, audiocodec, videocodec, hashing, _cfg,
                sys.modules[__name__])   # extras itself: _doc_simhash_i64
        for mod in mods:
            h.update(inspect.getsource(mod).encode())
        _KERNEL_FP.append(h.hexdigest()[:12])
    return _KERNEL_FP[0]


def _materialize_oracle_parquet(tag: str, make_ds) -> str:
    """Write (once) a deterministic signature/feature table to parquet so
    the DuckDB oracle can recompute every pair verdict independently
    (brute-force self-join) from the same signatures the Ray pipeline
    bands + verifies.  Returns the parquet glob the SQL scans.  The
    _SUCCESS marker stores the kernel fingerprint: editing any signature
    kernel or config default rebuilds the cache instead of letting a
    STALE table feed the oracle (the path itself stays fixed because the
    oracle SQL strings embed it)."""
    import os

    from ..sources.cache import cached_parquet

    out = cached_parquet(os.path.join(_ORACLE_SIG_ROOT, tag), make_ds,
                         rows_per_file=512, marker=_kernel_fingerprint())
    return os.path.join(out, "*.parquet")


def ensure_oracle_inputs() -> None:
    """Materialize side inputs the oracle SQL strings reference by path.
    Called by __ray_entry__.oracle_sql() so the driver's DuckDB run finds
    the synthetic tables (and the pair-verify signature parquets)
    regardless of query/oracle run order."""
    from ..stages.multimodal import audio_features, video_signatures
    synth_inputs("sf0.01")   # the driver compares at sf=0.01
    _materialize_oracle_parquet(
        "audio_feats-sf0.01",
        lambda: audio_features(_audio_ds("sf0.01"), DedupConfig()))
    _materialize_oracle_parquet(
        "video_sigs-sf0.01",
        lambda: video_signatures(_video_ds("sf0.01"), DedupConfig(),
                                 n_frames=4))
    _materialize_oracle_parquet(
        "doc_simhash-sf0.01",
        lambda: _doc_simhash_i64(_ORACLE_SF_DIR))


def _image_counters_sql(parquet_glob: str) -> str:
    """DuckDB twin of the flagship's reject-reason counters: the
    canonicalization gate chain (stages/canonicalize.py — basic length ->
    format allowlist -> dimension sanity -> payload magic -> spam) computed
    independently in SQL over the same synthetic input parquet.  The scrub
    chain mirrors functions/caption.scrub_captions step by step; constants
    mirror DedupConfig defaults (min/max caption len 10/500, formats
    jpeg+png, dims [8, 65536], magics FPNG/FJPG = hex 46504E47/464A5047).
    DEFAULT_CONFIG.language is None, so there is no language gate."""
    return f"""
    WITH norm AS (
      SELECT bytes, w, h, fmt,
        trim(regexp_replace(
          regexp_replace(
            regexp_replace(
              replace(replace(replace(replace(replace(replace(replace(
                regexp_replace(
                  regexp_replace(caption,
                    '(?s)<!\\[CDATA\\[(.*?)\\]\\]>', '\\1', 'g'),
                  '<[^<>]*>', ' ', 'g'),
              '&amp;','&'),'&lt;','<'),'&gt;','>'),'&quot;','"'),
              '&#39;',chr(39)),'&apos;',chr(39)),'&nbsp;',' '),
            '[\\x00-\\x1f\\x7f]+', ' ', 'g'),
          '[?&]?\\butm_[a-z_]+=?\\S*', ' ', 'g'),
        '\\s+', ' ', 'g')) AS cap
      FROM read_parquet('{parquet_glob}')),
    g AS (
      SELECT CASE
        WHEN length(cap) < 10 THEN 'caption_too_short'
        WHEN length(cap) >= 500 THEN 'caption_too_long'
        WHEN fmt NOT IN ('jpeg','png') THEN 'bad_fmt'
        WHEN w < 8 OR h < 8 OR w > 65536 OR h > 65536 THEN 'bad_dims'
        WHEN NOT (hex(bytes)[1:8] IN ('46504E47','464A5047'))
             OR octet_length(bytes) < 12 THEN 'bad_image'
        WHEN regexp_matches(cap,
          '(?i)\\b(?:casino|viagra|xxx|porn|free money|click here)\\b|https?://\\S+')
          THEN 'spam'
        ELSE '' END AS reject_reason
      FROM norm)
    SELECT reject_reason, CAST(count(*) AS BIGINT) AS n
    FROM g GROUP BY 1 ORDER BY 1"""


def _sql_word_list(words) -> str:
    """A DuckDB list literal from a stopword set (single source of truth:
    textstats._STOPWORDS)."""
    return "[" + ",".join(
        "'" + w.replace("'", "''") + "'" for w in sorted(words)) + "]"


def _build_extra_oracles() -> dict[str, str]:
    """DuckDB twins for the SQL-expressible extras.

    Tokenizer note: the Python kernels and every SQL twin tokenize
    lowercased text with the same ``[^\\W\\d_]+`` class, but they agree
    only on ASCII: RE2's ``\\W`` is ASCII-only, so DuckDB splits a word at
    every non-ASCII letter that Python keeps.  The synthetic documents
    table the driver compares against is ASCII, so the twins are exact
    there.
    Rounding is half-up (``floor(x*10000 + 0.5)/10000``) to mirror
    ``_round4`` bit-for-bit; see module docstring."""
    from ..functions.textstats import _LANGS, _STOPWORDS

    all_stops = _sql_word_list(set().union(*_STOPWORDS.values()))
    score_cols = ",\n                 ".join(
        f"len(list_filter(toks, x -> list_contains("
        f"{_sql_word_list(_STOPWORDS[lg])}, x))) AS s_{lg}"
        for lg in _LANGS)
    best_expr = "greatest(" + ", ".join(f"s_{lg}" for lg in _LANGS) + ")"
    pred_case = ("CASE WHEN best = 0 THEN '' "
                 + " ".join(f"WHEN s_{lg} = best THEN '{lg}'"
                            for lg in _LANGS) + " END")

    # the driver compares at sf=0.01 -> the flagship's synthetic input is
    # the n6000 cache (ensure_oracle_inputs() generates it before DuckDB
    # runs); the same builder is tested at other n in tests/test_oracles.py
    synth_001 = f"/tmp/courlan_ray_synth/n{_SF_ROWS['0.01']}-s42/*.parquet"

    audio_001 = (f"/tmp/courlan_ray_synth_audio/"
                 f"n{_AUDIO_ROWS['0.01']}-s42/*.parquet")
    video_001 = (f"/tmp/courlan_ray_synth_video/"
                 f"n{_VIDEO_ROWS['0.01']}-s42/*.parquet")
    _html_glob = (f"/tmp/courlan_ray_synth_html/"
                  f"n{_HTML_ROWS['0.01']}-s42/*.parquet")

    oracles = {
        "image_dedup_counters": _image_counters_sql(synth_001),
        # REAL WAV decode (Ray side) vs independent RIFF header arithmetic
        # (SQL side): RIFF magic = hex 52494646 at bytes 1-4, WAVE at 9-12;
        # duration = data bytes / 2 (16-bit) / rate; payload = 44-byte
        # canonical header + data (sources/audiosynth writes exactly that)
        "audio_durations": f"""
        SELECT audio_id,
               (fmt = 'wav' AND octet_length(bytes) >= 46
                AND hex(bytes)[1:8] = '52494646'
                AND hex(bytes)[17:24] = '57415645') AS decode_ok,
               CASE WHEN fmt = 'wav' AND octet_length(bytes) >= 46
                         AND hex(bytes)[1:8] = '52494646'
                         AND hex(bytes)[17:24] = '57415645'
                    THEN (octet_length(bytes) - 44) / 2.0 / rate
                    ELSE 0.0 END AS duration_sec
        FROM read_parquet('{audio_001}')
        ORDER BY audio_id""",
        # REAL FVID parse + frame decode (Ray side) vs header arithmetic
        # (SQL side): decodable = fmt fvid with a complete header
        # (10 + 4*n_frames bytes); sampled indices = the evenly-spaced
        # formula unique((i * n_frames) // k), k=3
        "video_frame_index": f"""
        WITH v AS (
          SELECT video_id, n_frames, w, h,
                 (fmt = 'fvid'
                  AND octet_length(bytes) >= 10 + 4 * n_frames) AS good
          FROM read_parquet('{video_001}')),
        good_rows AS (
          SELECT video_id,
                 unnest(list_distinct(list_transform(
                     generate_series(0, 2),
                     i -> CAST((i * n_frames) // 3 AS BIGINT))))
                   AS frame_idx,
                 TRUE AS decode_ok,
                 CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h
          FROM v WHERE good),
        bad_rows AS (
          SELECT video_id, CAST(-1 AS BIGINT) AS frame_idx,
                 FALSE AS decode_ok, CAST(0 AS BIGINT) AS w,
                 CAST(0 AS BIGINT) AS h
          FROM v WHERE NOT good)
        SELECT * FROM good_rows UNION ALL SELECT * FROM bad_rows
        ORDER BY video_id, frame_idx""",
        # pair-verify twins: brute-force O(n^2) self-joins over the
        # materialized signature parquets (_materialize_oracle_parquet) —
        # every threshold recomputed in SQL, checking the pigeonhole
        # banding + pair join + verify tiers independently.  The emitted
        # columns are exact integers (hamming distances), so the value
        # hash is bit-reproducible; the audio profile-L2 gate is a FILTER
        # whose 10x dup/cross margin makes float ULP drift irrelevant.
        "audio_dedup_pairs": f"""
        SELECT a.audio_id AS left_id, b.audio_id AS right_id,
               CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS ham
        FROM read_parquet('{_ORACLE_SIG_ROOT}/audio_feats-sf0.01/*.parquet') a
        JOIN read_parquet('{_ORACLE_SIG_ROOT}/audio_feats-sf0.01/*.parquet') b
          ON a.audio_id < b.audio_id
        WHERE bit_count(xor(a.simhash, b.simhash)) <= 8
          AND list_distance(a.features::DOUBLE[], b.features::DOUBLE[])
              <= 0.5
        ORDER BY 1, 2""",
        "video_dedup_pairs": f"""
        WITH p AS (
          SELECT a.video_id AS left_id, b.video_id AS right_id,
                 list_max(list_transform(
                     generate_series(1, len(a.frame_phashes)),
                     i -> bit_count(xor(a.frame_phashes[i],
                                        b.frame_phashes[i])))) AS msh
          FROM read_parquet('{_ORACLE_SIG_ROOT}/video_sigs-sf0.01/*.parquet') a
          JOIN read_parquet('{_ORACLE_SIG_ROOT}/video_sigs-sf0.01/*.parquet') b
            ON a.video_id < b.video_id
          WHERE bit_count(xor(a.vhash, b.vhash)) <= 3
            AND len(a.frame_phashes) > 0
            AND len(a.frame_phashes) = len(b.frame_phashes))
        SELECT left_id, right_id, CAST(msh AS BIGINT) AS max_slot_ham
        FROM p WHERE msh <= 3
        ORDER BY 1, 2""",
        "doc_simhash_pairs": f"""
        SELECT a.doc_id AS left_id, b.doc_id AS right_id,
               CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT)
                 AS hamming
        FROM read_parquet('{_ORACLE_SIG_ROOT}/doc_simhash-sf0.01/*.parquet') a
        JOIN read_parquet('{_ORACLE_SIG_ROOT}/doc_simhash-sf0.01/*.parquet') b
          ON a.doc_id < b.doc_id
        WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
        ORDER BY 1, 2""",
        # HTML link-extraction twin: re-harvest <a> tags with
        # regexp_extract_all and reproduce the resolve + canonicalize
        # chain for the controlled shapes in sources/htmlsynth.py (scrub
        # is identity on them; normalization branches = lowercase host,
        # default-port strip, utm_* removal + sorted params, fragment
        # passthrough; internal = same host since every corpus host IS
        # its registered domain).  The full kernel's other branches are
        # reference-parity golden-tested, not exercised by this corpus.
        "html_extract_links": f"""
        WITH tags AS (
          SELECT page_id, base_url,
                 unnest(regexp_extract_all(html, '<a [^<>]*>')) AS tag
          FROM read_parquet('{_html_glob}')),
        hr AS (
          SELECT DISTINCT page_id, base_url,
                 regexp_extract(tag, 'href="([^"]*)"', 1) AS href
          FROM tags
          WHERE contains(tag, 'href=') AND NOT contains(tag, 'nofollow')),
        res AS (
          SELECT page_id, base_url,
            CASE WHEN href LIKE 'http%' THEN href
                 WHEN href LIKE '//%' THEN 'https:' || href
                 WHEN href LIKE '/%' THEN
                   regexp_extract(base_url, '^https?://[^/]+') || href
                 WHEN contains(href, ':') THEN href
                 ELSE regexp_replace(base_url, '[^/]*$', '') || href
            END AS u
          FROM hr),
        g1 AS (
          SELECT page_id, base_url, u FROM res
          WHERE u LIKE 'http%' AND length(u) >= 10 AND length(u) < 500
            AND NOT ends_with(u, '/feed') AND NOT ends_with(u, '/rss')
            AND NOT ends_with(u, '_archive.html')),
        parts AS (
          SELECT page_id, base_url, u,
            lower(regexp_extract(u, '^(https?)://', 1)) AS sch,
            lower(regexp_extract(u, '^https?://([^/?#]+)', 1)) AS hostport,
            regexp_extract(u, '^https?://[^/?#]+([^?#]*)', 1) AS pth,
            CASE WHEN contains(u, '?')
                 THEN regexp_extract(u, '[?]([^#]*)', 1) ELSE '' END AS q,
            CASE WHEN contains(u, '#')
                 THEN regexp_extract(u, '#(.*)$', 1) ELSE '' END AS frag
          FROM g1),
        norm AS (
          SELECT page_id, base_url, sch, pth, frag,
            regexp_replace(hostport, ':(80|443)$', '') AS host,
            CASE WHEN q = '' THEN ''
                 ELSE list_aggregate(list_sort(list_filter(
                        str_split(q, '&'),
                        x -> NOT starts_with(lower(x), 'utm_'))),
                      'string_agg', '&')
            END AS cq
          FROM parts),
        valid AS (
          SELECT page_id,
            sch || '://' || host || pth
              || CASE WHEN cq IS NOT NULL AND cq <> ''
                      THEN '?' || cq ELSE '' END
              || CASE WHEN frag <> '' THEN '#' || frag ELSE '' END AS url
          FROM norm
          WHERE length(host) >= 4 AND contains(host, '.')
            AND NOT regexp_matches(pth, '[.](jpg|jpeg|png|gif|mp4|mp3)$')
            AND host = lower(regexp_extract(base_url,
                                            '^https?://([^/?#]+)', 1))),
        dedup AS (SELECT DISTINCT page_id, url FROM valid)
        SELECT url, CAST(count(*) AS BIGINT) AS n_pages
        FROM dedup GROUP BY url ORDER BY url""",
        # exact LCS (>= 32) in SQL: a common substring of length L gives
        # L-31 consecutive matching 32-grams on ONE diagonal (pos_l -
        # pos_r), so LCS = 31 + the longest gaps-and-islands run over the
        # gram-match position pairs.  Exact on the ASCII documents table
        # (byte == char); same candidate pair set as doc_substring_pairs.
        "doc_substring_lcs": """
        WITH gs AS (SELECT i FROM generate_series(1, 65536) t(i)),
        g AS (
          SELECT d.doc_id, gs.i AS pos,
                 substring(d.text, gs.i::INT, 32) AS gram
          FROM documents d JOIN gs ON gs.i <= length(d.text) - 31),
        m AS (
          SELECT a.doc_id AS left_id, b.doc_id AS right_id,
                 a.pos AS ia, b.pos AS ib
          FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id),
        runs AS (
          SELECT left_id, right_id, ia - ib AS diag,
                 ia - row_number() OVER (
                   PARTITION BY left_id, right_id, ia - ib
                   ORDER BY ia) AS grp
          FROM m),
        counts AS (
          SELECT left_id, right_id, diag, grp, count(*) AS run_len
          FROM runs GROUP BY ALL)
        SELECT left_id, right_id,
               CAST(max(run_len) + 31 AS BIGINT) AS lcs_len
        FROM counts GROUP BY left_id, right_id
        ORDER BY left_id, right_id""",
        # exact heavy hitters: same token class as the engine kernel
        "doc_top_tokens": r"""
        WITH t AS (
          SELECT unnest(regexp_extract_all(
                   lower(text), '[^\W\d_]+(?:''[^\W\d_]+)?')) AS token
          FROM documents)
        SELECT token, CAST(count(*) AS BIGINT) AS n
        FROM t GROUP BY token
        ORDER BY n DESC, token LIMIT 20""",
        # deterministic split: same multiplicative hash, bucketed mod 100
        "doc_train_split": """
        SELECT doc_id,
               CASE WHEN ((doc_id * 2654435761) % 4294967296) % 100 < 90
                    THEN 'train'
                    WHEN ((doc_id * 2654435761) % 4294967296) % 100 < 95
                    THEN 'val' ELSE 'test' END AS split
        FROM documents ORDER BY doc_id""",
        # Gopher-style repetition: most frequent token per doc (ties ->
        # smallest token), fraction half-up-rounded in the same IEEE order
        "doc_repetition": r"""
        WITH tk AS (
          SELECT doc_id, regexp_extract_all(
                   lower(text), '[^\W\d_]+(?:''[^\W\d_]+)?') AS toks
          FROM documents),
        t AS (SELECT doc_id, unnest(toks) AS token FROM tk),
        c AS (SELECT doc_id, token, count(*) AS n FROM t GROUP BY 1, 2),
        a AS (SELECT doc_id, sum(n) AS n_tokens FROM c GROUP BY 1),
        r AS (SELECT doc_id, token, n, row_number() OVER (
                PARTITION BY doc_id ORDER BY n DESC, token) AS rk
              FROM c),
        g AS (
          SELECT doc_id, array_to_string(toks[i:i+1], ' ') AS gram
          FROM tk, unnest(generate_series(1, greatest(len(toks) - 1, 0)))
                     AS u(i)),
        bi AS (SELECT doc_id, count(*) AS n_bi,
                      count(DISTINCT gram) AS n_di
               FROM g GROUP BY 1)
        SELECT d.doc_id,
               CAST(coalesce(a.n_tokens, 0) AS BIGINT) AS n_tokens,
               coalesce(r.token, '') AS top_token,
               CASE WHEN coalesce(a.n_tokens, 0) = 0 THEN 0.0
                    ELSE floor((r.n * 1.0 / a.n_tokens) * 10000 + 0.5)
                         / 10000 END AS top_frac,
               CAST(coalesce(bi.n_bi, 0) AS BIGINT) AS n_bigrams,
               CASE WHEN coalesce(bi.n_bi, 0) = 0 THEN 0.0
                    ELSE floor((1.0 - bi.n_di * 1.0 / bi.n_bi) * 10000
                               + 0.5) / 10000 END AS dup_bigram_frac
        FROM documents d
        LEFT JOIN a USING (doc_id)
        LEFT JOIN (SELECT * FROM r WHERE rk = 1) r USING (doc_id)
        LEFT JOIN bi USING (doc_id)""",
        # deterministic hash-min-k sample: same multiplicative hash
        "doc_sample_uniform": """
        SELECT doc_id, (doc_id * 2654435761) % 4294967296 AS priority
        FROM documents ORDER BY priority, doc_id LIMIT 50""",
        # decontamination: string word-8-grams mirror the engine's 64-bit
        # chain-hash grams (equal up to hash collisions; pinned by test)
        "doc_decontaminate": r"""
        WITH t AS (
          SELECT doc_id,
                 regexp_extract_all(lower(text),
                   '[^\W\d_]+(?:''[^\W\d_]+)?') AS toks
          FROM documents),
        g AS (
          SELECT doc_id, array_to_string(toks[i:i+7], ' ') AS gram
          FROM t, unnest(generate_series(1, greatest(len(toks) - 7, 0)))
                    AS u(i)),
        bg AS (SELECT DISTINCT gram FROM g WHERE doc_id % 50 = 0),
        h AS (
          SELECT g.doc_id, count(DISTINCT g.gram) AS n_hits
          FROM g JOIN bg USING (gram)
          WHERE g.doc_id % 50 <> 0 GROUP BY g.doc_id)
        SELECT d.doc_id, CAST(COALESCE(h.n_hits, 0) AS BIGINT) AS n_hits
        FROM documents d LEFT JOIN h ON d.doc_id = h.doc_id
        WHERE d.doc_id % 50 <> 0 ORDER BY d.doc_id""",
        # sequence packing: exclusive running-sum bucket twin
        "doc_pack_assign": r"""
        WITH t AS (
          SELECT doc_id,
                 CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT)
                   AS n_tokens
          FROM documents),
        s AS (
          SELECT doc_id, n_tokens,
                 COALESCE(SUM(n_tokens) OVER (
                   ORDER BY doc_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                   AS prior
          FROM t)
        SELECT doc_id, n_tokens, CAST(prior // 512 AS BIGINT) AS pack_id
        FROM s ORDER BY doc_id""",
        # log-free tf-idf: (tf * N) / df in the same float op order
        "doc_top_term": r"""
        WITH t AS (
          SELECT doc_id, unnest(regexp_extract_all(
                   lower(text), '[^\W\d_]+(?:''[^\W\d_]+)?')) AS token
          FROM documents),
        tf AS (SELECT doc_id, token, count(*) AS tf
               FROM t GROUP BY doc_id, token),
        df AS (SELECT token, CAST(count(*) AS BIGINT) AS df
               FROM tf GROUP BY token),
        n AS (SELECT count(*) AS n FROM documents),
        s AS (SELECT tf.doc_id, tf.token,
                     floor((tf.tf * n.n) / df.df::double * 10000 + 0.5)
                       / 10000 AS score
              FROM tf JOIN df USING (token) CROSS JOIN n),
        r AS (SELECT *, row_number() OVER (PARTITION BY doc_id
                                           ORDER BY score DESC, token) AS rn
              FROM s)
        SELECT doc_id, token, score FROM r WHERE rn = 1 ORDER BY doc_id""",
        # bloom-accelerated semi join: exact, so a plain IN twin
        "orders_bloom_semi_negbal": """
        SELECT o_orderkey, o_custkey FROM orders
        WHERE o_custkey IN (SELECT c_custkey FROM customer
                            WHERE c_acctbal < 0.0)
        ORDER BY o_orderkey""",
        # grouped quantiles: per-group quantile_disc twin
        "events_value_quantiles_by_type": """
        SELECT event_type, 0.25 AS q, quantile_disc(value, 0.25) AS value
        FROM events GROUP BY event_type
        UNION ALL
        SELECT event_type, 0.5, quantile_disc(value, 0.5)
        FROM events GROUP BY event_type
        UNION ALL
        SELECT event_type, 0.75, quantile_disc(value, 0.75)
        FROM events GROUP BY event_type
        ORDER BY event_type, q""",
        # per-group top-k: the row_number window twin
        "events_top3_per_user": """
        WITH r AS (
          SELECT event_id, user_id, value,
                 row_number() OVER (PARTITION BY user_id
                                    ORDER BY value DESC, event_id) AS rn
          FROM events)
        SELECT event_id, user_id, value FROM r WHERE rn <= 3
        ORDER BY user_id, value DESC, event_id""",
        # BPE-ish token counts: RE2-safe pretokenizer (see BPEISH_RE2)
        "doc_token_counts_bpe": r"""
        SELECT doc_id,
               CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_ws,
               CAST(len(regexp_extract_all(text,
                 $$'(?:s|t|re|ve|m|ll|d)| ?[^\W\d_]+| ?\d+| ?[^\s\w]+|\s+$$))
                 AS BIGINT) AS n_bpeish
        FROM documents""",
        "doc_langid": rf"""
        WITH t AS (
          SELECT doc_id, lang,
                 regexp_extract_all(lower(text), '[^\W\d_]+(?:''[^\W\d_]+)?') AS toks
          FROM documents),
        s AS (
          SELECT doc_id, lang, len(toks) AS total,
                 {score_cols}
          FROM t),
        b AS (SELECT *, {best_expr} AS best FROM s)
        SELECT doc_id, lang AS lang_label,
               {pred_case} AS lang_pred,
               floor(best / greatest(total, 1)::double * 10000 + 0.5) / 10000
                 AS conf
        FROM b""",
        "doc_quality": rf"""
        WITH t AS (
          SELECT doc_id,
                 regexp_extract_all(lower(text), '[^\W\d_]+(?:''[^\W\d_]+)?') AS toks,
                 length(text) AS n_chars,
                 len(regexp_extract_all(text, '[^\W\d_]')) AS n_alpha,
                 len(regexp_extract_all(text, '\d')) AS n_digit,
                 len(regexp_extract_all(text, '[^\w\s]')) AS n_punct
          FROM documents),
        s AS (
          SELECT doc_id, n_chars, n_alpha, n_digit, n_punct,
                 len(toks) AS n_tokens,
                 len(list_filter(toks,
                     x -> list_contains({all_stops}, x))) AS stop_hits,
                 CASE WHEN len(toks) = 0 THEN 1.0
                      ELSE len(list_distinct(toks))
                           / greatest(len(toks), 1)::double END AS unique_ratio
          FROM t)
        SELECT doc_id, n_tokens,
               floor(stop_hits / greatest(n_tokens, 1)::double * 10000 + 0.5)
                 / 10000 AS stop_ratio,
               floor(unique_ratio * 10000 + 0.5) / 10000 AS unique_ratio,
               floor(least(greatest(
                  0.25 * least(greatest(n_alpha / greatest(n_chars,1)::double
                                        / 0.7, 0.0), 1.0)
                + 0.20 * least(greatest(stop_hits / greatest(n_tokens,1)::double
                                        / 0.3, 0.0), 1.0)
                + 0.20 * unique_ratio
                + 0.15 * least(greatest(least(greatest(n_chars/200.0, 0.0), 1.0)
                               * least(greatest((2000 - n_chars)/1000.0, 0.0),
                                       1.0), 0.0), 1.0)
                + 0.10 * (1 - least(greatest(n_punct / greatest(n_chars,1)::double
                                             / 0.3, 0.0), 1.0))
                + 0.10 * (1 - least(greatest(n_digit / greatest(n_chars,1)::double
                                             / 0.3, 0.0), 1.0)),
                0.0), 1.0) * 10000 + 0.5) / 10000 AS quality
        FROM s""",
        # exact n-gram Jaccard: the blocking is lossless (J >= t > 0 implies
        # a shared gram), so the naive SQL self-join is a true twin of the
        # prefix-filtered Ray path; unrounded value gates, output rounded
        "doc_ngram_jaccard": r"""
        WITH t AS (
          SELECT doc_id,
                 regexp_extract_all(lower(text), '[^\W\d_]+(?:''[^\W\d_]+)?') AS toks
          FROM documents),
        g AS (
          SELECT doc_id, list_distinct(list_transform(
              generate_series(1, greatest(len(toks) - 2, 0)),
              i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) AS grams
          FROM t),
        sz AS (SELECT doc_id, len(grams) AS n FROM g),
        p AS (SELECT doc_id, unnest(grams) AS gram FROM g),
        inter AS (
          SELECT a.doc_id AS left_id, b.doc_id AS right_id, count(*) AS c
          FROM p a JOIN p b ON a.gram = b.gram AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
        SELECT i.left_id, i.right_id,
               floor(i.c / (sa.n + sb.n - i.c)::double * 10000 + 0.5) / 10000
                 AS jaccard
        FROM inter i JOIN sz sa ON sa.doc_id = i.left_id
                     JOIN sz sb ON sb.doc_id = i.right_id
        WHERE i.c / (sa.n + sb.n - i.c)::double >= 0.5
        ORDER BY left_id, right_id""",
        # exact shared-substring pairs: enumerate every 32-char window
        # (generate_series is constant-bounded at 64 KiB — docs longer than
        # that would need a larger constant; the synthetic corpus tops out
        # well under 1 KiB), distinct per doc, self-join + count.  Byte vs
        # char windows coincide on the ASCII documents table (same bound
        # as the tokenizer note above).
        "doc_substring_pairs": """
        WITH gs AS (SELECT i FROM generate_series(1, 65536) t(i)),
        g AS (
          SELECT DISTINCT d.doc_id, substring(d.text, gs.i::INT, 32) AS gram
          FROM documents d JOIN gs ON gs.i <= length(d.text) - 31),
        pairs AS (
          SELECT a.doc_id AS left_id, b.doc_id AS right_id,
                 CAST(count(*) AS BIGINT) AS shared_grams
          FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
        SELECT left_id, right_id, shared_grams
        FROM pairs ORDER BY left_id, right_id""",
        "events_sessionize": """
        WITH g AS (
          SELECT event_id, user_id, ts,
                 CASE WHEN lag(ts) OVER w IS NULL
                      OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                      THEN 1 ELSE 0 END AS new_s
          FROM events
          WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
        s AS (
          SELECT event_id, user_id, ts,
                 CAST(sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                                       ROWS UNBOUNDED PRECEDING)
                      AS BIGINT) AS session_num
          FROM g)
        SELECT event_id, user_id, ts, session_num,
               user_id || '#' || session_num AS session_id
        FROM s ORDER BY event_id""",
        "events_rolling_1h": """
        SELECT event_id, user_id, ts,
               count(*) OVER w AS n_window,
               floor(sum(value) OVER w * 1000000 + 0.5) / 1000000
                 AS sum_window
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts
                     RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                           AND CURRENT ROW)
        ORDER BY event_id""",
        "q3_shipping": """
        SELECT o_orderkey,
               floor(sum(l_extendedprice * (1 - l_discount)) * 10000 + 0.5)
                 / 10000 AS revenue,
               o_orderdate, o_orderpriority
        FROM customer, orders, lineitem
        WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND o_orderdate < TIMESTAMP '1998-06-01'
          AND l_shipdate  > TIMESTAMP '1998-06-01'
        GROUP BY o_orderkey, o_orderdate, o_orderpriority
        ORDER BY revenue DESC, o_orderdate, o_orderkey LIMIT 10""",
        "events_distinct_types": """
        SELECT user_id, CAST(count(DISTINCT event_type) AS BIGINT)
                 AS n_types
        FROM events GROUP BY user_id ORDER BY user_id""",
        "orders_price_quantiles": " UNION ALL ".join(
            f"SELECT CAST({q} AS DOUBLE) AS q, "
            f"quantile_disc(o_totalprice, {q}) AS value FROM orders"
            for q in (0.01, 0.25, 0.5, 0.75, 0.99)) + " ORDER BY q",
        "orders_price_bands": """
        WITH bands(lo, hi, band) AS (VALUES
          (0.0, 100000.0, 'low'), (100000.0, 250000.0, 'mid'),
          (250000.0, 600000.0, 'high'), (400000.0, 600000.0, 'premium'))
        SELECT o.o_orderkey, o.o_totalprice, b.band
        FROM orders o JOIN bands b
          ON o.o_totalprice >= b.lo AND o.o_totalprice < b.hi
        ORDER BY o.o_orderkey, b.band""",
        "events_asof_prev_click": """
        SELECT e.event_id, e.user_id, e.ts,
               c.ts AS prev_click_ts, c.value AS prev_click_value
        FROM events e ASOF LEFT JOIN
             (SELECT user_id, ts, value FROM events
              WHERE event_type = 'click') c
          ON e.user_id = c.user_id AND e.ts > c.ts
        ORDER BY e.event_id""",
        # exact cosine pairs: naive SQL self-join is a true twin of the
        # block-nested-loop Ray path (both exact); same rounding discipline
        "emb_neardup_exact": """
        WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                   FROM embeddings)
        SELECT a.vec_id AS left_id, b.vec_id AS right_id,
               floor(list_cosine_similarity(a.v, b.v) * 10000 + 0.5) / 10000
                 AS cos_sim
        FROM e a JOIN e b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.v, b.v) >= 0.25
        ORDER BY left_id, right_id""",
        "emb_knn_batch": """
        WITH q AS (SELECT vec_id AS query_idx, embedding AS qe
                   FROM embeddings WHERE vec_id < 4),
        s AS (SELECT q.query_idx, e.vec_id,
                     list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                            CAST(q.qe AS DOUBLE[])) AS c
              FROM embeddings e CROSS JOIN q),
        r AS (SELECT query_idx, vec_id, c,
                     row_number() OVER (PARTITION BY query_idx
                                        ORDER BY c DESC, vec_id) AS rn
              FROM s)
        SELECT query_idx, vec_id,
               floor(c * 10000 + 0.5) / 10000 AS cos_sim
        FROM r WHERE rn <= 5""",
        # inverted index: string_agg is the grouped_concat twin
        "doc_token_postings": r"""
        WITH t AS (
          SELECT doc_id, unnest(regexp_extract_all(
                   lower(text), '[^\W\d_]+(?:''[^\W\d_]+)?')) AS token
          FROM documents),
        d AS (SELECT DISTINCT token, doc_id FROM t)
        SELECT token,
               string_agg(CAST(doc_id AS VARCHAR), ','
                          ORDER BY doc_id) AS postings,
               CAST(count(*) AS BIGINT) AS df
        FROM d GROUP BY token ORDER BY token""",
    }
    # quantile-band filter wraps the doc_quality oracle as a CTE —
    # quantile_disc is the exact type-1 twin of stages/quantiles
    oracles["doc_quality_band"] = f"""
        WITH dq AS ({oracles['doc_quality']}),
        b AS (SELECT quantile_disc(quality, 0.05) AS lo,
                     quantile_disc(quality, 0.95) AS hi FROM dq)
        SELECT doc_id, quality FROM dq, b
        WHERE quality >= lo AND quality <= hi ORDER BY doc_id"""
    # the *_shuffle variants force the keyed-exchange side
    # (exchanges_only) — semantics identical, so the oracle SQL is shared
    oracles["events_rolling_1h_shuffle"] = oracles["events_rolling_1h"]
    oracles["events_sessionize_shuffle"] = oracles["events_sessionize"]
    oracles["events_asof_prev_click_shuffle"] = \
        oracles["events_asof_prev_click"]
    return oracles


EXTRA_ORACLES = _build_extra_oracles()

