"""Candidate-pair verification: banded Jaccard + Hamming thresholds.

Attaches the (narrow) signature table to both sides of each candidate
pair with ``stages.joins.hash_join_pairs`` — a broadcast probe when the
signature side fits one task; at scale two keyed passes, in which both
pair sides pick up their signatures keyed on the id and then meet keyed
on the pair (SURVEY.md §2.5; ``cfg.verify_broadcast_max`` caps the
probe's rows) — then verifies each pair with vectorized kernels:

- caption channel: estimated Jaccard (fraction of agreeing MinHash perms)
  >= ``jaccard_threshold``
- pixel channel: phash Hamming distance <= ``hamming_threshold`` or pixel
  SimHash Hamming <= ``simhash_hamming_threshold`` (both sides decode_ok)
- substring channel: shared winnowing fingerprints, confirmed by exact
  longest-common-substring ratio >= ``substring_min_ratio`` (the
  suffix-array verification path; pairs are few by now so per-pair DP is
  affordable — SURVEY.md §7.4)

A pair survives if ANY channel verifies; the channel verdicts are kept as
boolean columns for lineage.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import DedupConfig
from ..functions.hashing import _ranges_within, est_jaccard, hamming_u64

_U64 = np.uint64

_OUT_SCHEMA = pa.schema([
    ("left_id", pa.string()), ("right_id", pa.string()),
    ("jaccard", pa.float32()), ("ham_phash", pa.int32()),
    ("ham_simpix", pa.int32()), ("substr_ratio", pa.float32()),
    ("verified", pa.bool_()),
])

_EMPTY_OUT = pa.table({f.name: pa.array([], f.type) for f in _OUT_SCHEMA})


def _lcs_len(a: bytes, b: bytes) -> int:
    """Longest common substring length, O(len(a)*len(b)) rolling DP over
    utf-8 bytes."""
    if not a or not b:
        return 0
    aa = np.frombuffer(a, dtype=np.uint8)
    bb = np.frombuffer(b, dtype=np.uint8)
    if len(aa) > len(bb):
        aa, bb = bb, aa
    prev = np.zeros(len(bb) + 1, dtype=np.int32)
    best = 0
    for ch in aa:                       # O(|a|) passes of vectorized compare
        cur = np.zeros(len(bb) + 1, dtype=np.int32)
        match = bb == ch
        cur[1:][match] = prev[:-1][match] + 1
        m = int(cur.max())
        if m > best:
            best = m
        prev = cur
    return best


def _string_buffers(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(utf-8 byte buffer, int64 offsets[n+1]) of a string column, built
    zero-copy from the Arrow buffers — no per-row Python.  Offsets are
    ABSOLUTE into the returned buffer (valid for sliced arrays too)."""
    from .joins import safe_combine
    arr = safe_combine(col) if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    off_buf, data_buf = arr.buffers()[1], arr.buffers()[2]
    if off_buf is None:
        return np.zeros(0, np.uint8), np.zeros(n + 1, np.int64)
    off = np.frombuffer(off_buf, dtype=np.int32)[arr.offset: arr.offset + n + 1] \
        .astype(np.int64)
    data = np.frombuffer(data_buf, dtype=np.uint8) if data_buf \
        else np.zeros(0, np.uint8)
    return data, off


def _list_buffers(col) -> tuple[np.ndarray, np.ndarray]:
    """(flat int64 values, int64 offsets) of a list<int64> column."""
    from .joins import safe_combine
    arr = safe_combine(col) if isinstance(col, pa.ChunkedArray) else col
    flat = np.ascontiguousarray(
        np.asarray(arr.flatten().to_numpy(zero_copy_only=False)))
    off = np.ascontiguousarray(
        arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64))
    return flat, off


def _verdicts(cfg: DedupConfig, *, mh_l, mh_r, ph_l, ph_r, sp_l, sp_r,
              ok_l, ok_r, fp_l, fp_r, cap_l, cap_r):
    """Verdict kernel over per-pair numpy views.

    minhash: (n, num_perm); phash/simhash/ok: (n,);
    fingerprints / captions per side: (flat_buffer, offsets[n+1]) pairs —
    pair i's values live at flat[offsets[i]:offsets[i+1]].  Returns dict of
    verdict arrays."""
    fp_flat_l, fp_s_l, fp_e_l = fp_l[0], fp_l[1][:-1], fp_l[1][1:]
    fp_flat_r, fp_s_r, fp_e_r = fp_r[0], fp_r[1][:-1], fp_r[1][1:]
    cap_buf_l, cap_s_l, cap_e_l = cap_l[0], cap_l[1][:-1], cap_l[1][1:]
    cap_buf_r, cap_s_r, cap_e_r = cap_r[0], cap_r[1][:-1], cap_r[1][1:]
    n = len(ph_l)
    jac = est_jaccard(mh_l, mh_r) if n else np.zeros(0)
    ph = hamming_u64(ph_l, ph_r)
    sp = hamming_u64(sp_l, sp_r)

    cap_ok = jac >= cfg.jaccard_threshold
    if "phash" in cfg.channels:
        pix_ok = ((ph <= cfg.hamming_threshold)
                  | (sp <= cfg.simhash_hamming_threshold)) & ok_l & ok_r
    else:
        pix_ok = np.zeros(n, dtype=bool)

    # substring check only where cheap channels failed.  Containment
    # |fp_l ∩ fp_r| via one vectorized explode+merge; the exact LCS
    # (DP / suffix-array dispatch) runs only on pairs clearing a
    # length-scaled shared-print bound (a true LCS of ratio*minlen chars
    # yields ~ (ratio*minlen - (k+w-1)) / w shared winnowing prints).
    sub_ratio = np.zeros(n, dtype=np.float32)
    need = ~(cap_ok | pix_ok)
    if need.any():
        idx = np.flatnonzero(need)

        # per-pair fingerprint intersection |fp_l ∩ fp_r|, exploiting that
        # print lists are stored SORTED per row (signature stage): key =
        # (local pair ordinal << 44) | (print >> 20) is then globally
        # sorted on the probe side with NO sort here — just two gathers +
        # one searchsorted.  (A pandas explode+merge measured 67 s for
        # 160k text pairs; a hash+sort variant 27 s; this runs in ~1 s.)
        # Truncating prints to 44 bits only risks a +-1 on the LCS gate.
        # Local ordinals keep the shift valid for any batch < 2^20 pairs —
        # enforced by _VERDICT_SLICE (=65536, see verify_pairs), which
        # slices every whole-block batch before it reaches this kernel.
        # Raising _VERDICT_SLICE past 2^20 would silently corrupt keys.
        def seg_keys(flat, starts, ends):
            cnt = (ends - starts)[idx]
            fi = np.repeat(starts[idx], cnt) + _ranges_within(cnt)
            pid = np.repeat(np.arange(idx.size, dtype=np.int64), cnt)
            vals = flat[fi].astype(np.int64, copy=False).view(_U64)
            return (pid.astype(_U64) << _U64(44)) | (vals >> _U64(20)), pid

        kl, pid_l = seg_keys(fp_flat_l, fp_s_l, fp_e_l)
        kr, _ = seg_keys(fp_flat_r, fp_s_r, fp_e_r)
        if kr.size:
            pos = np.clip(np.searchsorted(kr, kl), 0, kr.size - 1)
            hit = kr[pos] == kl
        else:
            hit = np.zeros(kl.size, dtype=bool)
        inter = np.zeros(n, dtype=np.int64)
        if hit.any():
            inter[idx] = np.bincount(pid_l[hit], minlength=idx.size)
        minlen = np.minimum(cap_e_l - cap_s_l, cap_e_r - cap_s_r)
        t_guar = cfg.fingerprint_k + cfg.fingerprint_window - 1
        needed = (cfg.substring_min_ratio * minlen - t_guar) \
            / cfg.fingerprint_window
        floor = np.maximum(2, 0.5 * needed)
        l_cnt = fp_e_l - fp_s_l
        r_cnt = fp_e_r - fp_s_r
        lcs_idx = idx[(inter[idx] >= floor[idx])
                      & (l_cnt[idx] > 0) & (r_cnt[idx] > 0)]
        if lcs_idx.size:
            # exact LCS: rolling DP for caption-sized pairs, generalized
            # suffix array above the crossover (functions/suffixarray.py).
            # Two exact shortcuts before the O(n log n) SA build — a
            # C-speed containment test (a substring-channel candidate is
            # very often a literal containment: LCS = len(shorter)), and
            # a per-batch memo on the byte pair (hot/boilerplate captions
            # repeat across many pairs; LCS is symmetric).  Measured:
            # 5.9 s -> ~0.5 s for the 44k-pair flagship verify batch.
            from ..functions.suffixarray import lcs_len
            memo: dict = {}
            for i in lcs_idx:
                a = bytes(cap_buf_l[cap_s_l[i]:cap_e_l[i]])
                b = bytes(cap_buf_r[cap_s_r[i]:cap_e_r[i]])
                denom = min(len(a), len(b))
                if denom < cfg.fingerprint_k:
                    continue
                key = (a, b) if a <= b else (b, a)
                lcs = memo.get(key)
                if lcs is None:
                    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
                    lcs = len(short) if short in long_ \
                        else lcs_len(a, b)
                    memo[key] = lcs
                sub_ratio[i] = lcs / denom
    sub_ok = sub_ratio >= cfg.substring_min_ratio

    return {
        "jaccard": np.asarray(jac, dtype=np.float32),
        "ham_phash": ph, "ham_simpix": sp,
        "substr_ratio": sub_ratio,
        "verified": cap_ok | pix_ok | sub_ok,
    }


_VERDICT_SLICE = 65536     # pairs per _verdicts call: bounds the (n, num_perm)
                           # minhash gather (~64 MB at 128 perms) and keeps the
                           # kernel's 44-bit local-ordinal packing valid (< 2^20)


def _emit(batch: pa.Table, v: dict) -> pa.Table:
    return pa.table({
        "left_id": batch["left_id"],
        "right_id": batch["right_id"],
        "jaccard": pa.array(v["jaccard"], pa.float32()),
        "ham_phash": pa.array(v["ham_phash"], pa.int32()),
        "ham_simpix": pa.array(v["ham_simpix"], pa.int32()),
        "substr_ratio": pa.array(v["substr_ratio"], pa.float32()),
        "verified": pa.array(v["verified"]),
    })


def verify_pairs(pairs_ds, sig_ds, cfg: DedupConfig):
    """(left_id, right_id) candidates -> verified pairs with verdict columns
    (jaccard, ham_phash, ham_simpix, substr_ratio, verified:bool).

    Signatures attach to both pair sides via ``hash_join_pairs``: a
    broadcast probe while the signature side fits one task and has at most
    ``cfg.verify_broadcast_max`` rows, otherwise two keyed passes (by id,
    then by pair) that read the signature table once, with the kernel
    fused into the second pass's reading task (no driver
    materialization)."""
    from .joins import cluster_cpus, hash_join_pairs, sliced

    # re-split the candidate output so the verify stage fans out across the
    # cluster — skipped for at most one verify batch (a repartition's
    # AllToAll launch, ~1.5 s, dwarfs the single-task kernel) and when the
    # input already has enough blocks (the keyed distinct of the scale path
    # keeps its input's block count)
    fanout = max(8, cluster_cpus() * 2)
    pairs_ds = pairs_ds.materialize()
    if pairs_ds.count() > 8192 and pairs_ds.num_blocks() < fanout // 2:
        pairs_ds = pairs_ds.repartition(fanout)

    cols = ["minhash", "simhash_pix", "phash", "caption_key",
            "fingerprints", "decode_ok"]
    attached = hash_join_pairs(pairs_ds, sig_ds, id_col="image_id",
                               payload_cols=cols,
                               max_rows=cfg.verify_broadcast_max)

    def kernel(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return _EMPTY_OUT
        num_perm = cfg.num_perm

        def mh(name):
            return np.asarray(batch[name].combine_chunks().flatten()
                              .to_numpy(zero_copy_only=False)).reshape(n, num_perm)

        def col(name):
            return batch[name].to_numpy(zero_copy_only=False)

        v = _verdicts(
            cfg,
            mh_l=mh("minhash_l"), mh_r=mh("minhash_r"),
            ph_l=col("phash_l"), ph_r=col("phash_r"),
            sp_l=col("simhash_pix_l"), sp_r=col("simhash_pix_r"),
            ok_l=col("decode_ok_l"), ok_r=col("decode_ok_r"),
            fp_l=_list_buffers(batch["fingerprints_l"]),
            fp_r=_list_buffers(batch["fingerprints_r"]),
            cap_l=_string_buffers(batch["caption_key_l"]),
            cap_r=_string_buffers(batch["caption_key_r"]),
        )
        return _emit(batch, v)

    return attached.map_batches(lambda b: sliced(b, kernel, _VERDICT_SLICE),
                                batch_format="pyarrow", batch_size=None)
