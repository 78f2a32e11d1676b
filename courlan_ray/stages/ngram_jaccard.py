"""Word-n-gram Jaccard near-dup pairs (prefix-filtered AllPairs).

The reference's dedup tier is approximate (MinHash over char shingles,
courlan-style `is_known_link` exactness only for full URLs); this stage adds
the set-similarity tier a training-data pipeline needs for auditable
near-dup removal: every unordered doc pair whose word-n-gram Jaccard
similarity >= t, with the computed (not estimated) similarity value.  The
result is exact over 64-bit gram hashes (see the hash-identity caveat).

Candidate generation is lossless and skew-resistant via the PPJoin prefix
filter (Xiao et al., WWW'08): order each doc's distinct gram set under a
fixed global total order (the gram's 64-bit hash — any total order
preserves correctness) and index only the first ``p = n - ceil(t*n) + 1``
grams.  Two docs with J >= t MUST share a prefix gram, so the inverted
index over prefix grams alone finds every qualifying pair; a length filter
(``min_size >= t * max_size``, a necessary condition of J >= t) prunes the
rest before verification.  Verification computes the exact intersection
over the full sorted gram arrays.

Scale shape (the 100 TB path):
  - signatures: one ``map_batches`` pass, fully vectorized (token hashing +
    n-gram chain hashes + per-segment sort/unique — no Python per row).
  - postings: narrow (gram:int64, doc, set size) rows, ~p per doc.
  - candidates: ``lsh.bucket_pairs`` with the length-filtered all-pairs
    emit — one driver pass while the postings fit one task, ONE keyed
    exchange on gram above — and an exact (left_id, right_id)
    distinct.
  - verify: pair table joined back to gram arrays via the size-adaptive
    ``hash_join_pairs`` (broadcast while the gram sets fit one task,
    two keyed passes above), exact Jaccard per batch.

Hash-identity caveat: gram sets are represented by 64-bit chain hashes of
token hashes; two distinct grams colliding would merge set elements.  At
p=2^-64 per pair of grams this is negligible even at 10^12 rows, and the
verified jaccard values are exact for the hashed-set semantics.

Duplicate-heavy contract: m IDENTICAL docs emit m(m-1)/2 pairs — that is
the exact answer, quadratic by definition, not a blowup bug (verified:
2000 identical docs -> 1,999,000 pairs through both paths).  Run
``stages/exact_dedup`` first when the corpus carries exact duplicates;
the exact tier is for near-dup pairs among distinct docs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import (hash_strings, hash_u64_pair, sort_segments,
                                 _ranges_within)

_U64 = np.uint64


def _gram_sets(texts: list[str], n: int, seed: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct word-n-gram chain hashes per text, each segment sorted
    ascending.  Returns (flat:uint64, counts:int64).  Tokenization matches
    functions.textstats._TOKEN_RE (unicode letters, ``[^\\W\\d_]``).  The
    DuckDB oracle writes the same class, but RE2's ``\\W`` is ASCII-only
    (DuckDB 1.0.0 splits 'café' into 'caf'), so the twin agrees on ASCII
    text only until the SQL side uses a Unicode letter class."""
    from ..functions.textstats import _explode_tokens

    flat_tok, doc = _explode_tokens(pd.Series(texts))
    n_docs = len(texts)
    tok_counts = np.bincount(doc, minlength=n_docs).astype(np.int64)
    if len(flat_tok) == 0:
        return np.zeros(0, dtype=_U64), np.zeros(n_docs, dtype=np.int64)
    tok_h = hash_strings(flat_tok.to_numpy(), seed=seed)

    gcnt = np.maximum(tok_counts - (n - 1), 0)
    starts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(tok_counts[:-1], out=starts[1:])
    fi = np.repeat(starts, gcnt) + _ranges_within(gcnt)
    g = tok_h[fi]
    for k in range(1, n):
        g = hash_u64_pair(g, tok_h[fi + k])

    g = sort_segments(g, gcnt)
    if g.size == 0:
        return g, gcnt
    # drop duplicates within each sorted segment
    seg = np.repeat(np.arange(n_docs, dtype=np.int64), gcnt)
    first = np.empty(g.size, dtype=bool)
    first[0] = True
    first[1:] = (g[1:] != g[:-1]) | (seg[1:] != seg[:-1])
    return g[first], np.bincount(seg[first], minlength=n_docs).astype(np.int64)


def _prefix_len(sizes: np.ndarray, threshold: float) -> np.ndarray:
    """PPJoin prefix length p = n - ceil(t*n) + 1 (0 for empty sets)."""
    p = sizes - np.ceil(threshold * sizes).astype(np.int64) + 1
    return np.where(sizes > 0, np.clip(p, 1, sizes), 0)


def _verify_pairs(left: np.ndarray, right: np.ndarray,
                  grams_l: list[np.ndarray], grams_r: list[np.ndarray],
                  threshold: float) -> pa.Table:
    """Exact Jaccard over sorted-unique gram arrays; keep >= threshold.
    Per pair: the SMALLER array binary-searches into the larger —
    sum(min_size * log(max_size)) work, which beats a fully-vectorized
    both-sides-flattened composite-key search here (that materializes
    sum(size_l + size_r) elements and searches at log of the TOTAL;
    measured 2.5x slower at 431k candidate pairs x ~290 grams).  The
    per-pair Python overhead parallelizes away: candidates are verified in
    ``map_batches``, never in one driver loop.  The unrounded
    value gates (like the SQL twin); output rounded half-up to 4
    decimals."""
    n = len(left)
    jac = np.empty(n, dtype=np.float64)
    for i in range(n):
        a, b = grams_l[i], grams_r[i]
        if a.size > b.size:
            a, b = b, a
        pos = np.searchsorted(b, a)
        pos[pos >= b.size] = b.size - 1 if b.size else 0
        c = int((b[pos] == a).sum()) if b.size else 0
        union = a.size + b.size - c
        jac[i] = c / union if union else 0.0
    keep = jac >= threshold
    return pa.table({
        "left_id": pa.array(left[keep]),
        "right_id": pa.array(right[keep]),
        "jaccard": pa.array(np.floor(jac[keep] * 10000 + 0.5) / 10000),
    })


def _list_to_arrays(col) -> list[np.ndarray]:
    """list<int64> column -> per-row uint64 numpy views (zero-copy slices
    of one flattened buffer)."""
    from .joins import safe_combine

    arr = safe_combine(col)
    flat = np.asarray(arr.flatten().to_numpy(zero_copy_only=False)).view(_U64)
    off = arr.offsets.to_numpy(zero_copy_only=False)
    return [flat[off[i]:off[i + 1]] for i in range(len(arr))]


def ngram_jaccard_pairs(ds, *, n: int = 3, threshold: float = 0.5,
                        id_col: str = "doc_id", text_col: str = "text",
                        seed: int = 29):
    """Dataset -> exact near-dup pair table (left_id, right_id, jaccard),
    every unordered pair with word-``n``-gram Jaccard >= ``threshold``.
    See module docstring for the scale shape."""
    from .joins import hash_join_pairs, safe_combine
    from .lsh import all_pairs, bucket_pairs

    def sig_kernel(b: pa.Table) -> pa.Table:
        texts = b[text_col].to_pylist()
        flat, counts = _gram_sets(texts, n, seed)
        off = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, out=off[1:])
        grams = pa.ListArray.from_arrays(pa.array(off, pa.int32()),
                                         pa.array(flat.view(np.int64),
                                                  pa.int64()))
        return pa.table({id_col: b[id_col], "n_grams": pa.array(counts),
                         "grams": grams})

    def postings_kernel(b: pa.Table) -> pa.Table:
        arr = safe_combine(b["grams"])
        o = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        sizes = np.diff(o)
        plen = _prefix_len(sizes, threshold)
        flat = np.asarray(arr.flatten()
                          .to_numpy(zero_copy_only=False)).view(_U64)
        gi = np.repeat(o[:-1] - o[0], plen) + _ranges_within(plen)
        ridx = np.repeat(np.arange(b.num_rows), plen)
        return pa.table({
            "gram": pa.array(flat[gi].view(np.int64), pa.int64()),
            "id": b[id_col].take(pa.array(ridx)),
            "n_grams": pa.array(sizes[ridx]),
        })

    # 256-doc batches: tokenization/hashing saturates vectorization well
    # below this; larger batches underparallelize small corpora
    sig = ds.map_batches(sig_kernel, batch_format="pyarrow",
                         batch_size=256).materialize()
    pairs = bucket_pairs(
        sig.map_batches(postings_kernel, batch_format="pyarrow"),
        lambda t: all_pairs(t, "gram", "id", "n_grams", threshold),
        key="gram")
    joined = hash_join_pairs(pairs, sig, id_col=id_col,
                             payload_cols=["grams", "n_grams"])

    def verify_kernel(b: pa.Table) -> pa.Table:
        return _verify_pairs(
            b["left_id"].to_numpy(zero_copy_only=False),
            b["right_id"].to_numpy(zero_copy_only=False),
            _list_to_arrays(b["grams_l"]), _list_to_arrays(b["grams_r"]),
            threshold)

    return joined.map_batches(verify_kernel, batch_format="pyarrow")
