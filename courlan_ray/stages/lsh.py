"""LSH banding, salted bucket shuffle, candidate-edge emission.

The band bucket key is the generalization of the reference's per-domain
grouping key ``hostinfo`` (/root/reference/courlan/urlutils.py:83-96 used at
urlstore.py:199-200): identical band rows -> same bucket -> per-bucket work.

Three candidate channels feed ONE unified (bucket, image_id) stream:
  - MinHash caption bands  (near-dup captions, banded Jaccard)
  - phash 16-bit bands     (Hamming-ball: 4 bands find every pair with
    pixel-phash distance <= 3 by pigeonhole; decode_ok rows only)
  - winnowing fingerprints (shared long substrings, suffix-array stand-in)

Candidate generation is **star-shaped, two-level, and fully vectorized** —
no per-group Python, no O(|bucket|^2) pair blowup, and no global barrier
tree:

  level 1 (map-side, per block): every block groups its banding rows by
     (bucket, salt) — salt = hash(image_id) % num_salts, the north_rule's
     explicit hot-band salting, bounding any single local group — links
     members to the block-local sub-bucket representative (star edges) and
     passes ONE rep row per (bucket, salt) upward with a member count.
     A hot band with 10^6 members in a block leaves as <= num_salts rows.
  level 2 (cross-block link, size-adaptive): rep rows are linked across
     blocks and salts per bucket — on the driver (vectorized pyarrow
     group_by, one arrow table) while they fit one task and number at
     most ``cfg.lsh_driver_link_max``, else through one keyed exchange
     (``joins.keyed_map``, a task-based sort) that lands each bucket
     wholly in one block, linked by a vectorized per-block pass (the
     multi-node scale path).

A star per bucket emits |bucket| edges instead of |bucket|^2 pairs;
transitive closure in the components stage recovers full clusters, and
verification prunes false-positive spokes (a true pair that loses its spoke
in one bucket still links through any of the other ~bands shared buckets).

Weak-channel noise: per-bucket totals fall out of level 2 for free; weak
channels (phash bands, fingerprints) with totals above
``cfg.weak_bucket_cap`` are collision noise (e.g. a common phrase) and
contribute no edges.  Strong MinHash bands are never capped.

``bucket_pairs`` is the candidate-pair engine behind level 2, shared with
every other pair stage (``simhash_pairs``, ``ngram_jaccard``,
``substring``, ``ann``): postings -> per-bucket ``emit`` on the driver
(postings that fit one task) or behind one keyed exchange -> an exact
distinct on (left_id, right_id) with a per-pair count.  Each stage
supplies only its postings and its ``emit``; ``all_pairs`` is the shared
all-pairs emit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DedupConfig
from ..functions.hashing import (band_keys, hamming_band_keys, hash_strings,
                                 splitmix64, _ranges_within)

_U64 = np.uint64

# channel tags folded into bucket keys so channels never collide
CH_MINHASH, CH_PHASH, CH_FINGERPRINT = 1, 2, 3


def banding_rows(sig_batch: pa.Table, cfg: DedupConfig) -> pa.Table:
    """Signature rows -> exploded (bucket:int64, salt:int32, ch:int8,
    image_id) rows for all enabled channels.  Vectorized; narrow by design.
    Pixel-channel rows are emitted only for ``decode_ok`` rows (a failed
    decode has no trustworthy phash)."""
    n = sig_batch.num_rows
    ids = sig_batch["image_id"]
    id_hash = hash_strings(ids.to_pylist(), seed=cfg.seed + 77)
    salt = (id_hash % _U64(cfg.num_salts)).astype(np.int32)
    if "decode_ok" in sig_batch.schema.names:
        dec_ok = sig_batch["decode_ok"].to_numpy(zero_copy_only=False)
    else:
        dec_ok = np.ones(n, dtype=bool)

    buckets: list[np.ndarray] = []
    row_idx: list[np.ndarray] = []
    chan_tags: list[np.ndarray] = []

    if "minhash" in cfg.channels:
        mh = np.asarray(sig_batch["minhash"].combine_chunks().flatten()
                        .to_numpy(zero_copy_only=False)) \
            .view(np.uint32).astype(_U64).reshape(n, cfg.num_perm)
        bk = band_keys(mh, cfg.bands, seed=cfg.seed + 11)      # (n, bands)
        ch = splitmix64(bk ^ _U64(CH_MINHASH))
        buckets.append(ch.ravel())
        row_idx.append(np.repeat(np.arange(n), cfg.bands))
        chan_tags.append(np.full(n * cfg.bands, CH_MINHASH))

    if "phash" in cfg.channels:
        # phash 16-bit bands (Hamming-ball multi-index), decode_ok rows only
        ok_idx = np.flatnonzero(dec_ok)
        m = ok_idx.size
        if m:
            ph = sig_batch["phash"].to_numpy(zero_copy_only=False)[ok_idx]
            nb = cfg.phash_bands
            ch2 = splitmix64(hamming_band_keys(ph, nb) ^ _U64(CH_PHASH))
            buckets.append(ch2.ravel())
            row_idx.append(np.repeat(ok_idx, nb))
            chan_tags.append(np.full(m * nb, CH_PHASH))

    if "fingerprint" in cfg.channels:
        # bucket on CONSECUTIVE-print pair hashes: a shared bucket then
        # implies a shared substring of >= k + 2w - 1 chars (two adjacent
        # winnowing prints), killing single-shared-phrase collision buckets.
        # Rows with a single print (text of ~k+w-1..k+2w-2 chars) fall back
        # to the raw print so short near-verbatim captions still bucket.
        # KNOWN RECALL BOUND (deliberate): a lone-print caption contained
        # verbatim in a LONG caption shares no bucket here (the long side
        # emits only pair hashes) — this channel guarantees substrings
        # >= k+2w-1 chars; shorter containments must be caught by MinHash.
        # Restoring raw-print postings for all rows would re-admit the
        # measured 99.8%-noise collision volume.
        from .joins import safe_combine
        fpp_list = safe_combine(sig_batch["fp_pairs"])
        fpp_flat = np.asarray(fpp_list.flatten()
                              .to_numpy(zero_copy_only=False)).view(_U64)
        fpp_counts = np.diff(fpp_list.offsets.to_numpy(zero_copy_only=False))
        ch3 = splitmix64(fpp_flat ^ _U64(CH_FINGERPRINT))
        buckets.append(ch3)
        row_idx.append(np.repeat(np.arange(n), fpp_counts))
        chan_tags.append(np.full(len(fpp_flat), CH_FINGERPRINT))

        fp_list = safe_combine(sig_batch["fingerprints"])
        fp_counts = np.diff(fp_list.offsets.to_numpy(zero_copy_only=False))
        lone = (fpp_counts == 0) & (fp_counts > 0)
        if lone.any():
            li = np.flatnonzero(lone)
            offs = fp_list.offsets.to_numpy(zero_copy_only=False)
            fp_flat = np.asarray(fp_list.flatten()
                                 .to_numpy(zero_copy_only=False)).view(_U64)
            cnt = fp_counts[li]
            fi = np.repeat(offs[li], cnt) + _ranges_within(cnt)
            ch4 = splitmix64(fp_flat[fi] ^ _U64(CH_FINGERPRINT) ^ _U64(0x51))
            buckets.append(ch4)
            row_idx.append(np.repeat(li, cnt))
            chan_tags.append(np.full(len(ch4), CH_FINGERPRINT))

    all_buckets = np.concatenate(buckets).view(np.int64)
    all_rows = np.concatenate(row_idx)
    chans = np.concatenate(chan_tags).astype(np.int8)
    return pa.table({
        "bucket": pa.array(all_buckets, pa.int64()),
        "salt": pa.array(salt[all_rows], pa.int32()),
        "ch": pa.array(chans, pa.int8()),
        "image_id": ids.take(pa.array(all_rows)),
    })


def _local_stars(b: pa.Table, cfg: DedupConfig) -> pa.Table:
    """Level 1: banding + block-local star reduction in one fused pass.

    Output rows, tagged ``is_rep``:
      edges (is_rep=False): bucket, ch, image_id=member, partner=local rep
      reps  (is_rep=True):  bucket, salt, ch, image_id=local min, cnt,
                            idh = 64-bit hash of the rep id (so the level-2
                            link never sorts or aggregates strings)

    Each member finds its local rep through an exact join on
    (bucket, salt); ``idh`` and the salt only order and spread rows and
    decide no identity.
    """
    rows = banding_rows(b, cfg)
    agg = rows.group_by(["bucket", "salt"]).aggregate(
        [("image_id", "min"), ("ch", "min"), ("image_id", "count")])
    rows = rows.join(agg.select(["bucket", "salt", "image_id_min"]),
                     ["bucket", "salt"])
    edge_mask = pc.not_equal(rows["image_id"], rows["image_id_min"])
    f = rows.filter(edge_mask)
    nf, na = f.num_rows, agg.num_rows
    edges = pa.table({
        "bucket": f["bucket"], "salt": f["salt"], "ch": f["ch"],
        "image_id": f["image_id"],
        "partner": f["image_id_min"],
        "cnt": pa.array(np.ones(nf, dtype=np.int64)),
        "idh": pa.array(np.zeros(nf, dtype=np.int64)),
        "is_rep": pa.array(np.zeros(nf, dtype=bool)),
    })
    rep_idh = hash_strings(agg["image_id_min"].to_pylist(),
                           seed=0x1D44).view(np.int64)
    reps = pa.table({
        "bucket": agg["bucket"], "salt": agg["salt"], "ch": agg["ch_min"],
        "image_id": agg["image_id_min"], "partner": agg["image_id_min"],
        "cnt": agg["image_id_count"],
        "idh": pa.array(rep_idh, pa.int64()),
        "is_rep": pa.array(np.ones(na, dtype=bool)),
    })
    return pa.concat_tables([edges, reps])


def _link_all(tbl: pa.Table, cap: int) -> pa.Table:
    """Level 2, fused: given ALL st1 rows of some set of buckets (each
    bucket wholly present — guaranteed by the keyed exchange or by driver
    collection), emit the final canonical candidate edges:

      - noisy-bucket suppression: per-bucket totals from rep counts; weak
        channels above ``cap`` are collision noise and contribute nothing
        (strong MinHash bands are never capped)
      - member star edges (level-1 member -> local rep)
      - cross-salt/block rep links (per-bucket hub = min idh -> each rep)

    This is LSH's ``emit`` for ``bucket_pairs``; one fused pass suffices
    because whole buckets make the noise totals local."""
    from .joins import safe_combine
    tbl = safe_combine(tbl)
    bucket = tbl["bucket"].to_numpy(zero_copy_only=False)
    is_rep = tbl["is_rep"].to_numpy(zero_copy_only=False)
    ch = tbl["ch"].to_numpy(zero_copy_only=False)
    cnt = tbl["cnt"].to_numpy(zero_copy_only=False)
    idh = tbl["idh"].to_numpy(zero_copy_only=False).view(_U64)

    # --- per-bucket totals + hub over REP rows only ---
    rep_idx = np.flatnonzero(is_rep)
    rb = bucket[rep_idx]
    order = np.lexsort((idh[rep_idx], rb))
    rbs = rb[order]
    m = rbs.size
    noisy = np.empty(0, dtype=np.int64)
    link_left = link_right = np.empty(0, dtype=np.int64)
    if m:
        first = np.empty(m, dtype=bool)
        first[0] = True
        np.not_equal(rbs[1:], rbs[:-1], out=first[1:])
        gid = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        rep_orig = rep_idx[order[starts]]          # hub row per bucket
        totals = np.add.reduceat(cnt[rep_idx][order], starts)
        noisy_mask = (totals > cap) & (ch[rep_orig] != CH_MINHASH)
        noisy = np.sort(bucket[rep_orig][noisy_mask].astype(np.int64))

        member_mask = ~first                       # non-hub reps
        mem_orig = rep_idx[order[member_mask]]
        hub_of = rep_orig[gid[member_mask]]
        keep = ~_in_sorted(noisy, bucket[mem_orig])
        link_left, link_right = hub_of[keep], mem_orig[keep]

    # --- member star edges (level-1), noisy buckets dropped ---
    mem_idx = np.flatnonzero(~is_rep)
    keep_m = ~_in_sorted(noisy, bucket[mem_idx])
    mem_idx = mem_idx[keep_m]

    # a rep row's partner is its own id, so one positional gather per side
    # covers both edge kinds
    li = pa.array(np.concatenate([mem_idx, link_left]), pa.int64())
    ri = pa.array(np.concatenate([mem_idx, link_right]), pa.int64())
    return pa.table({"left_id": tbl["partner"].take(li),
                     "right_id": tbl["image_id"].take(ri)})


def _in_sorted(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a sorted int64 array, vectorized."""
    if sorted_arr.size == 0:
        return np.zeros(values.size, dtype=bool)
    pos = np.clip(np.searchsorted(sorted_arr, values), 0,
                  sorted_arr.size - 1)
    return sorted_arr[pos] == values


def _pairs_from_postings(gram: np.ndarray, doc: np.ndarray,
                         size: np.ndarray, threshold: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """All (left<right) doc pairs sharing a posting gram, length-filtered
    (``min(size) >= threshold * max(size)``; threshold 0 keeps every
    pair).  Input need not be sorted; pairs are NOT deduped across grams
    here."""
    order = np.lexsort((doc, gram))
    gram, doc, size = gram[order], doc[order], size[order]
    m = gram.size
    if m == 0:
        return (np.zeros(0, dtype=doc.dtype),) * 2
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(gram[1:], gram[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    lens = np.diff(np.append(starts, m))
    ls, rs = [], []
    for s, k in zip(starts[lens > 1], lens[lens > 1]):
        i, j = np.triu_indices(int(k), 1)
        a, b = doc[s + i], doc[s + j]          # a < b (sorted within group)
        na, nb = size[s + i], size[s + j]
        keep = np.minimum(na, nb) + 1e-9 >= threshold * np.maximum(na, nb)
        ls.append(a[keep])
        rs.append(b[keep])
    if not ls:
        return (np.zeros(0, dtype=doc.dtype),) * 2
    return np.concatenate(ls), np.concatenate(rs)


def all_pairs(tbl: pa.Table, key: str, id_col: str,
              size_col: str | None = None, threshold: float = 0.0
              ) -> pa.Table:
    """The all-pairs ``emit`` for ``bucket_pairs``: every pair of
    ``id_col`` values sharing a ``key`` value, one row per shared key,
    optionally length-filtered on ``size_col`` (see
    ``_pairs_from_postings``)."""
    ids = tbl[id_col]
    doc = ids.to_numpy(zero_copy_only=False)
    size = (tbl[size_col].to_numpy(zero_copy_only=False) if size_col
            else np.ones(doc.size, dtype=np.int64))
    li, ri = _pairs_from_postings(tbl[key].to_numpy(zero_copy_only=False),
                                  doc, size, threshold)
    return pa.table({"left_id": pa.array(li, ids.type),
                     "right_id": pa.array(ri, ids.type)})


def bucket_pairs(postings, emit, *, key: str, max_rows: int | None = None):
    """The candidate-pair engine every pair stage shares: (``key``, id)
    postings -> distinct (left_id, right_id, n), left_id < right_id by
    value, n = how many emitted rows named the pair.

    ``emit(tbl)`` receives every posting row of some set of buckets, each
    bucket whole, and returns (left_id, right_id) rows in either order;
    self-pairs are dropped.  The materialized postings pick the side
    (``joins.one_place`` with ``max_rows``):

    - driver: collect the postings, ``emit`` once, count pairs with one
      pyarrow ``group_by``, and split the result into ~2xCPU blocks
      (at least 8192 rows each) so the verify step fans out without its
      own repartition — tiny tables stay one block and verify skips the
      fan-out entirely;
    - scale: ONE keyed exchange (``joins.keyed_map``) co-locates every
      bucket, and ``emit`` and the same pair count run per block in the
      exchange's reading task; ``joins.kernel_by_key`` sums each pair's
      block counts.  A block whose buckets name no pair still gives a
      typed count table, so an input with no pair runs no exchange twice
      to learn its columns.

    The distinct is exact on the id values (no pair hash, so no collision
    can drop a pair), and the output is materialized so its block count is
    known downstream."""
    import ray.data as rd
    from .joins import cluster_cpus, kernel_by_key, keyed_map, one_place

    pair = ["left_id", "right_id"]

    def counted(tbl: pa.Table) -> pa.Table:
        pairs = emit(tbl)
        lo = pc.min_element_wise(pairs["left_id"], pairs["right_id"])
        hi = pc.max_element_wise(pairs["left_id"], pairs["right_id"])
        keep = pc.not_equal(lo, hi)
        c = pa.table({"left_id": lo.filter(keep), "right_id": hi.filter(keep)}
                     ).group_by(pair).aggregate([([], "count_all")])
        return pa.table({"left_id": c["left_id"], "right_id": c["right_id"],
                         "n": c["count_all"]})

    def summed(b: pa.Table) -> pa.Table:
        c = b.group_by(pair).aggregate([("n", "sum")])
        return pa.table({"left_id": c["left_id"], "right_id": c["right_id"],
                         "n": c["n_sum"]})

    postings = postings.materialize()
    tbl = one_place(postings, max_rows=max_rows)
    if (tbl is None and not postings.count()
            and (schema := postings.schema()) is not None):
        tbl = schema.base_schema.empty_table()      # no posting: typed, here
    if tbl is None:
        partials = keyed_map(postings, [key], counted).materialize()
        return kernel_by_key(partials, pair, summed).materialize()
    out = counted(tbl)
    chunk = int(max(8192, -(-out.num_rows // (2 * cluster_cpus()))))
    return rd.from_arrow([out.slice(i, chunk)
                          for i in range(0, max(out.num_rows, 1), chunk)])


def candidate_pairs(sig_ds, cfg: DedupConfig):
    """Signatures -> distinct candidate (left_id, right_id, n) star edges;
    n counts the bucket links that named the pair.

    See module docstring for the two-level construction.  ``sig_ds`` should
    be the (narrow) signature table; callers filter invalid / exact-dup rows
    first.  Level 2 runs in ``bucket_pairs`` with ``_link_all`` as its
    emit: on the driver up to ``cfg.lsh_driver_link_max`` level-1 rows
    that fit one task, through the keyed exchange above."""
    st1 = sig_ds.map_batches(lambda b: _local_stars(b, cfg),
                             batch_format="pyarrow",
                             batch_size=cfg.batch_size).materialize()
    cap = cfg.weak_bucket_cap
    return bucket_pairs(st1, lambda t: _link_all(t, cap), key="bucket",
                        max_rows=cfg.lsh_driver_link_max)
