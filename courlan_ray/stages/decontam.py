"""Benchmark decontamination: flag training documents sharing a verbatim
word-n-gram with an evaluation/benchmark corpus.

The standard pre-training hygiene step (per the public Common Crawl /
open-LM data-prep literature): any training document containing an n-gram
that also appears in a held-out benchmark is contaminated and must be
dropped (or down-weighted) before training.

Topology — the benchmark side is SMALL by nature (benchmarks are MBs, the
training corpus is TBs), so this is the canonical broadcast-lookup shape:

  1. one pass over the benchmark corpus collects its DISTINCT n-gram
     hashes (driver memory bounded by benchmark size, not corpus size);
  2. ``ray.put`` the sorted uint64 array ONCE;
  3. one streaming ``map_batches`` pass over the training corpus counts,
     per document, how many of its distinct n-grams hit the benchmark set
     (vectorized ``searchsorted`` membership + segmented sum) — no
     shuffle, no driver loop, corpus never materializes.

If the contamination source ever outgrew broadcast (``ray.put`` of the
gram array > ~1 GB), the scale path is the existing size-adaptive
semi-join: explode training grams to (doc_id, gram) rows and route through
``stages/joins.join(..., "left_semi", ...)`` — same output, one keyed
shuffle.

n-grams are 64-bit chain hashes over ``functions.textstats._TOKEN_RE``
tokens (``stages/ngram_jaccard._gram_sets``), so the DuckDB oracle twin
(string n-grams via ``array_to_string(toks[i:i+n-1], ' ')``) matches
exactly up to 64-bit hash collisions — negligible below ~2^32 distinct
grams and pinned by the oracle test at test scale.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def benchmark_gram_hashes(bench_ds, text_col: str, *, n: int = 8,
                          seed: int = 41, pre=None) -> np.ndarray:
    """Sorted distinct n-gram hashes of the benchmark corpus.

    Driver-collected: memory is O(distinct benchmark grams) — the small
    side by construction.  Per-block distinct happens inside the map task,
    so only deduplicated hashes travel to the driver.

    ``pre``: optional per-block pre-filter applied INSIDE the gram kernel
    (one fused stage).  A separate upstream ``map_batches`` filter would
    hand this stage 0-row blocks, which Ray 2.49's fused map short-
    circuits into schema-less RefBundles (executor warning spam)."""
    from .ngram_jaccard import _gram_sets

    def grams(b: pa.Table) -> pa.Table:
        if pre is not None:
            b = pre(b)
        flat, _ = _gram_sets(b[text_col].to_pylist(), n, seed)
        return pa.table({"g": pa.array(np.unique(flat).view(np.int64),
                                       pa.int64())})

    from .joins import _collect

    tbl = _collect(bench_ds.map_batches(grams, batch_format="pyarrow",
                                        batch_size=None))
    if tbl.num_rows == 0:
        return np.zeros(0, dtype=np.uint64)
    return np.unique(tbl["g"].to_numpy().view(np.uint64))


def contamination_counts(ds, bench_grams: np.ndarray, id_col: str,
                         text_col: str, *, n: int = 8, seed: int = 41,
                         pre=None):
    """Per-document count of distinct n-grams present in the benchmark
    set.  Streaming single pass; the gram set is broadcast once via
    ``ray.put`` and read zero-copy in every task (``cached_get``).
    ``pre``: optional per-block pre-filter fused into the kernel (see
    ``benchmark_gram_hashes``)."""
    import ray

    from .joins import cached_get
    from .ngram_jaccard import _gram_sets

    grams_ref = ray.put(np.ascontiguousarray(bench_grams))

    def kernel(b: pa.Table) -> pa.Table:
        if pre is not None:
            b = pre(b)
        bench = cached_get(grams_ref)
        flat, cnt = _gram_sets(b[text_col].to_pylist(), n, seed)
        if flat.size and bench.size:
            pos = np.searchsorted(bench, flat)
            pos[pos == bench.size] = 0          # clamp, then verify
            hit = bench[pos] == flat
            seg = np.repeat(np.arange(b.num_rows, dtype=np.int64), cnt)
            hits = np.bincount(seg[hit], minlength=b.num_rows)
        else:
            hits = np.zeros(b.num_rows, dtype=np.int64)
        return pa.table({id_col: b[id_col],
                         "n_hits": pa.array(hits.astype(np.int64))})

    return ds.map_batches(kernel, batch_format="pyarrow", batch_size=None)


def decontaminated(ds, bench_grams: np.ndarray, text_col: str, *,
                   n: int = 8, seed: int = 41, pre=None):
    """Filter form: keep only rows sharing NO n-gram with the benchmark
    set — the same broadcast membership probe as ``contamination_counts``
    but filtering in place (one streaming pass, no join back), which is
    the right shape when the hit counts themselves aren't needed."""
    import ray

    from .joins import cached_get
    from .ngram_jaccard import _gram_sets

    grams_ref = ray.put(np.ascontiguousarray(bench_grams))

    def kernel(b: pa.Table) -> pa.Table:
        if pre is not None:
            b = pre(b)
        bench = cached_get(grams_ref)
        if b.num_rows == 0 or bench.size == 0:
            return b
        flat, cnt = _gram_sets(b[text_col].to_pylist(), n, seed)
        if flat.size == 0:
            return b
        pos = np.searchsorted(bench, flat)
        pos[pos == bench.size] = 0
        hit = bench[pos] == flat
        seg = np.repeat(np.arange(b.num_rows, dtype=np.int64), cnt)
        hits = np.bincount(seg[hit], minlength=b.num_rows)
        return b.filter(pa.array(hits == 0))

    return ds.map_batches(kernel, batch_format="pyarrow", batch_size=None)
