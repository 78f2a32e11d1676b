"""Exact shared-substring pair detection + suffix-array LCS verification.

The third north-star signature family (after MinHash and SimHash) is
suffix-array substring detection for near-verbatim caption overlap.  The
approximate tier is winnowing (``functions/hashing.winnowing_fingerprints``,
used by the flagship's substring channel); this stage is the tier that
is exact over 64-bit gram hashes (two colliding width-grams would seed a
false pair):

- ``substring_pairs``: every unordered doc pair sharing at least one exact
  ``width``-character substring, with the shared-gram count
  ``|grams(a) ∩ grams(b)|``.  Seeding is lossless: a common substring of
  length ≥ width ⟺ a shared width-gram, so the pair set equals
  { (a,b) : LCS(a,b) ≥ width } exactly.  ANSI-SQL-expressible (the DuckDB
  oracle enumerates substrings with ``generate_series`` + self-join), so
  the driver value-verifies it end to end.
- ``substring_lcs``: the same pairs with the exact longest-common-substring
  length, computed per pair by the generalized suffix array
  (``functions/suffixarray.lcs_len``) — the genuinely-suffix-array kernel;
  every emitted ``lcs_len`` is ≥ width by the seeding invariant (pinned by
  test).  Not SQL-expressible (rows-only check); parity vs the O(n·m) DP
  is property-tested.

Scale shape (the 100 TB path):
  - gram sets: one ``map_batches`` pass — byte-level rolling polynomial
    hash of every width-gram (``char_shingle_hashes``), per-segment
    sort+unique, no Python per row.
  - postings: narrow (gram:int64, doc_id) rows through ``lsh.bucket_pairs``
    with the all-pairs emit — one driver pass while the postings fit one
    task, ONE keyed exchange on gram above.  Each shared gram lies wholly in
    one bucket and emits one row per pair, so the engine's exact per-pair
    count IS the shared-gram count.

Quadratic contract (same as ngram_jaccard's m(m-1)/2): a width-gram shared
by g documents emits g(g-1)/2 pairs — the exact answer.  Boilerplate-heavy
corpora (license headers, templated prefixes) should run
``stages/exact_dedup`` first and/or raise ``width`` past the boilerplate
length.  There is no SILENT posting-list cap (an exact operator that
quietly drops hot grams would be wrong, not slow) — but there IS an
explicit capped mode: ``hot_gram_max=g`` skips pair emission for any gram
shared by more than ``g`` documents (one boilerplate license header at
100 TB is a g(g-1)/2 partition-killer) and reports exactly what was
dropped through the ``lineage`` out-dict (dropped_grams,
dropped_postings, max_postings) so the loss is accounted, never hidden.
Pairs that share at least one sub-cap gram are still found; only pairs
whose EVERY shared gram is hot are missed — the standard
hot-token-cap contract of prefix-filtered similarity joins.

Hash-identity caveat: grams are 64-bit rolling hashes; a cross-gram
collision (p ≈ 2^-64 per pair) could add a false pair / inflate a count.
The LCS tier is immune (it re-reads the raw bytes).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import (_ranges_within, char_shingle_hashes,
                                 sort_segments)

_U64 = np.uint64


def _gram_sets(texts, width: int, seed: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct width-gram (byte window) hashes per text, each segment
    sorted ascending.  Texts shorter than ``width`` bytes contribute ZERO
    grams (matching the SQL twin, where ``length(text) - width + 1 < 1``
    yields no rows — unlike the MinHash convention of one padded shingle).
    Returns (flat:uint64, counts:int64)."""
    if hasattr(texts, "to_pylist"):
        texts = texts.to_pylist()
    btexts = [t.encode("utf-8", "surrogatepass") if isinstance(t, str)
              else (t or b"") for t in texts]
    n = len(btexts)
    flat, counts = char_shingle_hashes(btexts, width, seed=seed)
    if n == 0:
        return flat, counts
    lens = np.fromiter((len(t) for t in btexts), count=n, dtype=np.int64)
    short = lens < width
    if short.any():                      # drop the padded single shingle
        flat = flat[np.repeat(~short, counts)]
        counts = np.where(short, 0, counts)
    flat = sort_segments(flat, counts)
    if flat.size == 0:
        return flat, counts
    seg = np.repeat(np.arange(n, dtype=np.int64), counts)
    first = np.empty(flat.size, dtype=bool)
    first[0] = True
    first[1:] = (flat[1:] != flat[:-1]) | (seg[1:] != seg[:-1])
    return flat[first], np.bincount(seg[first], minlength=n).astype(np.int64)


def _hot_keep(gram: np.ndarray, cap: int) -> np.ndarray:
    """Boolean keep-mask over posting rows, dropping every row of a gram
    with more than ``cap`` postings.  ``gram`` must hold each gram's
    COMPLETE posting set (``bucket_pairs`` hands its emit whole buckets)."""
    _, inv, counts = np.unique(gram, return_inverse=True, return_counts=True)
    return counts[inv] <= cap


def _hot_lineage(postings, cap: int, lineage: dict) -> None:
    """Add the exact dropped-gram counts of ``cap`` (dropped_grams,
    dropped_postings, max_postings) to ``lineage``: one grouped count per
    gram, reduced to one stats row per block."""
    from .agg import grouped_agg
    from .joins import _collect

    def stats(b: pa.Table) -> pa.Table:
        c = b["c"].to_numpy(zero_copy_only=False)
        hot = c > cap
        return pa.table({
            "dropped_grams": pa.array([int(hot.sum())], pa.int64()),
            "dropped_postings": pa.array([int(c[hot].sum())], pa.int64()),
            "max_postings": pa.array([int(c.max()) if c.size else 0],
                                     pa.int64())})

    st = _collect(grouped_agg(postings, ["gram"], [("gram", "count", "c")])
                  .map_batches(stats, batch_format="pyarrow",
                               batch_size=None))
    for k in ("dropped_grams", "dropped_postings"):
        lineage[k] = lineage.get(k, 0) + int(pc.sum(st[k]).as_py() or 0)
    lineage["max_postings"] = max(lineage.get("max_postings", 0),
                                  int(pc.max(st["max_postings"]).as_py() or 0))


def substring_pairs(ds, *, width: int = 32, id_col: str = "doc_id",
                    text_col: str = "text", seed: int = 37,
                    hot_gram_max: int | None = None,
                    lineage: dict | None = None):
    """Dataset -> exact shared-substring pair table
    (left_id, right_id, shared_grams), every unordered pair of docs whose
    texts share an exact ``width``-byte substring.  See module docstring
    for the scale shape.

    ``hot_gram_max``: optional explicit cap — grams shared by more than
    this many docs emit NO pairs (g(g-1)/2 blowup guard); exact dropped
    counts land in the caller-supplied ``lineage`` dict
    (dropped_grams/dropped_postings/max_postings).  Default ``None`` keeps
    the fully-exact contract."""
    import ray.data as rd
    from .joins import safe_combine
    from .lsh import all_pairs, bucket_pairs

    def sig_kernel(b: pa.Table) -> pa.Table:
        flat, counts = _gram_sets(b[text_col], width, seed)
        off = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, out=off[1:])
        grams = pa.ListArray.from_arrays(
            pa.array(off, pa.int32()),
            pa.array(flat.view(np.int64), pa.int64()))
        return pa.table({id_col: b[id_col], "grams": grams})

    def postings_kernel(b: pa.Table) -> pa.Table:
        arr = safe_combine(b["grams"])
        o = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = np.asarray(arr.flatten()
                          .to_numpy(zero_copy_only=False))
        ridx = np.repeat(np.arange(b.num_rows), np.diff(o))
        return pa.table({"gram": pa.array(flat, pa.int64()),
                         "id": b[id_col].take(pa.array(ridx))})

    def emit(t: pa.Table) -> pa.Table:
        if hot_gram_max is not None:
            t = t.filter(pa.array(_hot_keep(
                t["gram"].to_numpy(zero_copy_only=False), hot_gram_max)))
        return all_pairs(t, "gram", "id")

    sig = ds.map_batches(sig_kernel, batch_format="pyarrow",
                         batch_size=256).materialize()
    if sig.count() == 0:
        # a fully-empty input can collect schema-less (no blocks); emit the
        # typed empty directly (int64 ids — the documents-table id type)
        return rd.from_arrow(pa.table({
            "left_id": pa.array([], pa.int64()),
            "right_id": pa.array([], pa.int64()),
            "shared_grams": pa.array([], pa.int64())}))

    postings = sig.map_batches(postings_kernel, batch_format="pyarrow")
    if hot_gram_max is not None and lineage is not None:
        postings = postings.materialize()
        _hot_lineage(postings, hot_gram_max, lineage)
    pairs = bucket_pairs(postings, emit, key="gram")
    return pairs.rename_columns({"n": "shared_grams"})


def substring_lcs(ds, *, width: int = 32, id_col: str = "doc_id",
                  text_col: str = "text", seed: int = 37,
                  hot_gram_max: int | None = None,
                  lineage: dict | None = None):
    """Dataset -> (left_id, right_id, lcs_len) for every pair sharing an
    exact ``width``-byte substring — candidates from ``substring_pairs``
    (lossless seeding), exact LCS per pair via the generalized suffix
    array, fanned out through the size-adaptive pair join.  Every emitted
    ``lcs_len`` is ≥ width by construction."""
    from ..functions.suffixarray import lcs_len
    from .joins import hash_join_pairs

    import ray.data as rd

    pairs = substring_pairs(ds, width=width, id_col=id_col,
                            text_col=text_col, seed=seed,
                            hot_gram_max=hot_gram_max, lineage=lineage
                            ).drop_columns(["shared_grams"]).materialize()
    if pairs.count() == 0:
        return rd.from_arrow(pa.table({
            "left_id": pa.array([], pa.int64()),
            "right_id": pa.array([], pa.int64()),
            "lcs_len": pa.array([], pa.int64())}))
    texts = ds.map_batches(
        lambda b: b.select([id_col, text_col]),
        batch_format="pyarrow", batch_size=None)
    joined = hash_join_pairs(pairs, texts, id_col=id_col,
                             payload_cols=[text_col])

    def lcs_kernel(b: pa.Table) -> pa.Table:
        lt = b[text_col + "_l"].to_pylist()
        rt = b[text_col + "_r"].to_pylist()
        out = np.empty(len(lt), dtype=np.int64)
        for i, (a, c) in enumerate(zip(lt, rt)):
            out[i] = lcs_len(a.encode("utf-8", "surrogatepass"),
                             c.encode("utf-8", "surrogatepass"))
        return pa.table({"left_id": b["left_id"],
                         "right_id": b["right_id"],
                         "lcs_len": pa.array(out)})

    return joined.map_batches(lcs_kernel, batch_format="pyarrow",
                              batch_size=2048)
