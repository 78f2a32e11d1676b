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
     blocks and salts per bucket — below ``cfg.lsh_driver_link_max`` rows
     on the driver (vectorized pyarrow group_by, one arrow table), above it
     via a keyed hash-shuffle ``repartition(P, keys=["bucket"])`` so each
     bucket lands wholly in one partition and is linked by a vectorized
     per-partition pass (the multi-node scale path; requires the
     HASH_SHUFFLE strategy enabled in ``courlan_ray/__init__``).

A star per bucket emits |bucket| edges instead of |bucket|^2 pairs;
transitive closure in the components stage recovers full clusters, and
verification prunes false-positive spokes (a true pair that loses its spoke
in one bucket still links through any of the other ~bands shared buckets).

Weak-channel noise: per-bucket totals fall out of level 2 for free; weak
channels (phash bands, fingerprints) with totals above
``cfg.weak_bucket_cap`` are collision noise (e.g. a common phrase) and all
their edges are dropped by a broadcast filter.  Strong MinHash bands are
never capped.  Edge dedup across channels/bands is a grouped aggregation
with explicitly-declared cardinality (stages/agg.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DedupConfig
from ..functions.hashing import (band_keys, hash_u64_pair, hash_strings,
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
            ph = sig_batch["phash"].to_numpy(zero_copy_only=False) \
                .astype(np.int64).view(_U64)[ok_idx]
            nb = cfg.phash_bands
            width = 64 // nb
            mask = _U64((1 << width) - 1)
            pieces = np.empty((m, nb), dtype=_U64)
            for b in range(nb):
                piece = (ph >> _U64(b * width)) & mask
                pieces[:, b] = splitmix64(piece ^ splitmix64(np.full(m, _U64(b + 101))))
            ch2 = splitmix64(pieces ^ _U64(CH_PHASH))
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


def _canon_edges(batch: pa.Table, left: str, right: str) -> pa.Table:
    """Order each edge (min, max) — vectorized Arrow string compare — drop
    self-edges and add a 64-bit dedup key."""
    l, r = batch[left], batch[right]
    l2 = pc.min_element_wise(l, r)
    r2 = pc.max_element_wise(l, r)
    keep = pc.not_equal(l2, r2)
    l2 = l2.filter(keep).combine_chunks()
    r2 = r2.filter(keep).combine_chunks()
    hl = hash_strings(l2.to_pylist(), seed=0xA11CE)
    hr = hash_strings(r2.to_pylist(), seed=0xA11CE)
    pk = hash_u64_pair(hl, hr)
    return pa.table({"left_id": l2, "right_id": r2,
                     "pair_key": pa.array(pk.view(np.int64), pa.int64())})


def _group_pos(key_all: np.ndarray, key_agg: np.ndarray) -> np.ndarray:
    """Position of each row's group in an aggregated table (searchsorted)."""
    order = np.argsort(key_agg, kind="stable")
    return order[np.searchsorted(key_agg[order], key_all)]


def _local_stars(b: pa.Table, cfg: DedupConfig) -> pa.Table:
    """Level 1: banding + block-local star reduction in one fused pass.

    Output rows, tagged ``is_rep``:
      edges (is_rep=False): bucket, ch, image_id=member, partner=local rep
      reps  (is_rep=True):  bucket, salt, ch, image_id=local min, cnt,
                            idh = 64-bit hash of the rep id (so the level-2
                            link never sorts or aggregates strings)
    """
    rows = banding_rows(b, cfg)
    empty = pa.table({"bucket": pa.array([], pa.int64()),
                      "salt": pa.array([], pa.int32()),
                      "ch": pa.array([], pa.int8()),
                      "image_id": pa.array([], pa.string()),
                      "partner": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64()),
                      "idh": pa.array([], pa.int64()),
                      "is_rep": pa.array([], pa.bool_())})
    if rows.num_rows == 0:
        return empty
    agg = rows.group_by(["bucket", "salt"]).aggregate(
        [("image_id", "min"), ("ch", "min"), ("image_id", "count")])
    key_all = hash_u64_pair(rows["bucket"].to_numpy(zero_copy_only=False).view(_U64),
                            rows["salt"].to_numpy(zero_copy_only=False).astype(_U64))
    key_agg = hash_u64_pair(agg["bucket"].to_numpy(zero_copy_only=False).view(_U64),
                            agg["salt"].to_numpy(zero_copy_only=False).astype(_U64))
    pos = _group_pos(key_all, key_agg)
    reps_for_rows = agg["image_id_min"].take(pa.array(pos, pa.int64()))

    edge_mask = pc.not_equal(rows["image_id"], reps_for_rows)
    f = rows.filter(edge_mask)
    nf, na = f.num_rows, agg.num_rows
    edges = pa.table({
        "bucket": f["bucket"], "salt": f["salt"], "ch": f["ch"],
        "image_id": f["image_id"],
        "partner": reps_for_rows.filter(edge_mask),
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
    bucket wholly present — guaranteed by the keyed shuffle or by driver
    collection), emit the final canonical candidate edges:

      - noisy-bucket suppression: per-bucket totals from rep counts; weak
        channels above ``cap`` are collision noise and contribute nothing
        (strong MinHash bands are never capped)
      - member star edges (level-1 member -> local rep)
      - cross-salt/block rep links (per-bucket hub = min idh -> each rep)
      - canonical (min,max) ordering + 64-bit pair_key

    One kernel replaces the former edge/rep split + marker rows + global
    noisy-bucket broadcast + separate finalize pass (4 stage launches ->
    1), possible because the keyed shuffle makes noise totals local."""
    empty = pa.table({"left_id": pa.array([], pa.string()),
                      "right_id": pa.array([], pa.string()),
                      "pair_key": pa.array([], pa.int64())})
    if tbl.num_rows == 0:
        return empty
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
    link_left = link_right = None
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

    ids = tbl["image_id"]
    partner = tbl["partner"]
    lefts, rights = [], []
    if mem_idx.size:
        lefts.append(partner.take(pa.array(mem_idx, pa.int64())))
        rights.append(ids.take(pa.array(mem_idx, pa.int64())))
    if link_left is not None and link_left.size:
        lefts.append(ids.take(pa.array(link_left, pa.int64())))
        rights.append(ids.take(pa.array(link_right, pa.int64())))
    if not lefts:
        return empty
    edges = pa.table({
        "left_id": pa.concat_arrays([a.combine_chunks() if
                                     isinstance(a, pa.ChunkedArray) else a
                                     for a in lefts]),
        "right_id": pa.concat_arrays([a.combine_chunks() if
                                      isinstance(a, pa.ChunkedArray) else a
                                      for a in rights]),
    })
    return _canon_edges(edges, "left_id", "right_id")


def _in_sorted(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a sorted int64 array, vectorized."""
    if sorted_arr.size == 0:
        return np.zeros(values.size, dtype=bool)
    pos = np.clip(np.searchsorted(sorted_arr, values), 0,
                  sorted_arr.size - 1)
    return sorted_arr[pos] == values


def candidate_pairs(sig_ds, cfg: DedupConfig):
    """Signatures -> distinct candidate (left_id, right_id) star edges.

    See module docstring for the two-level construction.  ``sig_ds`` should
    be the (narrow) signature table; callers filter invalid / exact-dup rows
    first.

    Small path (st1 rows <= ``cfg.lsh_driver_link_max``): one driver-local
    vectorized ``_link_all`` + numpy pair distinct — no extra stages.
    Scale path: ONE keyed hash-shuffle co-locates every bucket, the same
    ``_link_all`` kernel runs per partition, and a second keyed shuffle
    dedups by pair_key (declared cardinality; the lazy-auto trap fix)."""
    import ray.data as rd
    from .joins import (_collect, cluster_cpus, keyed_repartition,
                        keyed_shuffle_partitions)

    st1 = sig_ds.map_batches(lambda b: _local_stars(b, cfg),
                             batch_format="pyarrow",
                             batch_size=cfg.batch_size).materialize()
    n_rows = st1.count()        # metadata-only on the materialized table
    cap = cfg.weak_bucket_cap

    if n_rows <= cfg.lsh_driver_link_max:
        edges_tbl = _link_all(_collect(st1), cap)
        pk = edges_tbl["pair_key"].to_numpy(zero_copy_only=False)
        _, uniq_idx = np.unique(pk, return_index=True)
        if uniq_idx.size < edges_tbl.num_rows:
            edges_tbl = edges_tbl.take(pa.array(np.sort(uniq_idx), pa.int64()))
        edges_tbl = edges_tbl.drop_columns(["pair_key"])
        # split into ~2xCPU blocks so downstream verify fans out without
        # needing its own repartition (tiny tables stay one block and
        # verify skips the fan-out entirely)
        chunk = int(max(8192, -(-edges_tbl.num_rows // (2 * cluster_cpus()))))
        slices = [edges_tbl.slice(i, chunk)
                  for i in range(0, max(edges_tbl.num_rows, 1), chunk)]
        return rd.from_arrow(slices)

    # P = CPUs: with <=16 aggregator actors, more partitions only add
    # push/finalize overhead (measured 7.1 s at P=16 vs 13.0 s at P=64
    # for this shuffle at 16 CPUs) — see joins.keyed_shuffle_partitions,
    # which is also the concurrent-pool deadlock guard.
    parts = keyed_shuffle_partitions(cfg.shuffle_partitions)
    canonical = (keyed_repartition(st1, parts, ["bucket"])
                 .map_batches(lambda b: _link_all(b, cap),
                              batch_format="pyarrow", batch_size=None))
    from .agg import distinct_by_key
    distinct = distinct_by_key(canonical, "pair_key",
                               approx_count=n_rows,
                               tree_max_groups=2_000_000)
    # materialize: the keyed-shuffle output already has P well-sized
    # blocks — pinning exposes the block count so verify_pairs skips its
    # own fan-out repartition (a lazy input reads as 0 blocks there and
    # always paid an extra AllToAll)
    return distinct.drop_columns(["pair_key"]).materialize()
