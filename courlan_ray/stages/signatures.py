"""Signature stage: a stateless ``map_batches`` task.

``signature_batch`` holds no state between batches: the MinHash salts
are derived from ``cfg.seed`` per call and the DCT matrix
(``codec._DCT32``) is built when the module is imported, so Ray Data runs
it as plain tasks that schedule on any free CPU.  There is no actor pool
to size and none that can hold the only CPU and starve the read stage.

Per batch: decode pixels -> recompute phash (verifying the
precomputed ``phash`` column) + pixel SimHash; caption shingles -> MinHash
signature; winnowing substring fingerprints.  Decoded pixels are dropped
before return — only narrow signature columns ever reach a shuffle
(SURVEY.md §4 memory row).

With ``with_gates=True`` the stage runs the canonicalization gate chain
(stages/canonicalize.py, the check_url generalization) on the raw batch
first and emits EVERY row — invalid rows keep ``valid=False`` /
``reject_reason`` and get empty signatures.  This fuses
read -> canonicalize -> signatures into ONE traversal of the wide byte
payload: the single most expensive scan of the pipeline happens exactly
once, and the materialized output is the narrow "sigtable" every
downstream stage (exact dedup, LSH, verify, components, counters,
rejected sink) reads instead of re-scanning the input.

Pixel math is batched: per-image decode + area-resample to a 32x32 gray
stack, then ONE broadcast (B,32,32) DCT matmul chain for all phashes and
one reshape-mean for all pixel SimHashes — no per-image DCT calls.

Output schema (the "sigtable"; ``caption_signatures`` builds the caption
columns for the image and the text pipeline alike):
  image_id, caption_key, valid, reject_reason,
  minhash: fixed_size_list<int32>[num_perm] (low 32 bits of each
  min-hash), simhash_pix: int64, phash: int64 (recomputed; input value
  when decode fails), fingerprints: list<int64> (sorted per row),
  fp_pairs: list<int64> (adjacent-print pair hashes), decode_ok: bool.
  ``text_sigtable`` (the text pipeline) has no valid / reject_reason
  columns and zero pixel columns.
  ``(caption_key, phash)`` is the exact-dup key (stages/exact_dedup.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import DedupConfig
from ..functions import imagecodec as codec
from ..functions.hashing import (adjacent_pair_hashes, char_shingle_hashes,
                                 hash_strings, minhash_signatures,
                                 sort_segments, splitmix64,
                                 winnowing_fingerprints)

_U64 = np.uint64


def _pixel_features(arr: np.ndarray) -> np.ndarray:
    """64 block-mean luma features for the pixel SimHash: 8x8 area means."""
    g = codec._resize_gray_32(arr)
    return g.reshape(8, 4, 8, 4).mean(axis=(1, 3)).ravel()


def _pack_bits64(bits: np.ndarray) -> np.ndarray:
    """(m, 64) bool/uint8 -> (m,) uint64, little bit order."""
    return np.packbits(bits.astype(np.uint8), axis=1,
                       bitorder="little").view("<u8").ravel()


def pixel_hashes_batch(payloads: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a batch of payloads -> (phash u64, simhash_pix u64, ok bool).

    Decode + resize run per payload (variable sizes force it); the DCT /
    thresholding runs ONCE for the whole stack — one (B,32,32) matmul chain
    instead of B separate 32x32 DCTs."""
    n = len(payloads)
    ok = np.zeros(n, dtype=bool)
    grays = []
    for i, p in enumerate(payloads):
        try:
            grays.append(codec.gray32_area_f32(codec.decode_image(p)))
            ok[i] = True
        except codec.CodecError:
            pass
    phash = np.zeros(n, dtype=_U64)
    simpix = np.zeros(n, dtype=_U64)
    if grays:
        G = np.stack(grays)                               # (m, 32, 32) f32
        D = codec._DCT32.astype(np.float32)
        C = D[None] @ G @ D.T[None]                       # batched 2-D DCT
        vals = C[:, :8, :8].reshape(len(grays), 64)[:, 1:]  # drop DC
        med = np.median(vals, axis=1, keepdims=True)
        bits = np.zeros((len(grays), 64), dtype=np.uint8)
        bits[:, 1:] = vals > med
        phash[ok] = _pack_bits64(bits)

        feats = G.reshape(len(grays), 8, 4, 8, 4).mean(axis=(2, 4)) \
                 .reshape(len(grays), 64)
        sbits = feats > feats.mean(axis=1, keepdims=True)
        simpix[ok] = _pack_bits64(sbits)
    return phash, simpix, ok


def _scatter(v: np.ndarray, rows: np.ndarray | None, n: int) -> np.ndarray:
    """Rows ``rows`` of an n-row zero array set to ``v`` (``v`` itself when
    ``rows`` is None)."""
    if rows is None:
        return v
    out = np.zeros((n,) + v.shape[1:], dtype=v.dtype)
    out[rows] = v
    return out


def _list_column(values: np.ndarray, counts: np.ndarray) -> pa.ListArray:
    """Flat uint64 values + per-row counts -> list<int64> column."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                    pa.array(values.view(np.int64),
                                             pa.int64()))


def caption_signatures(captions: list, cfg: DedupConfig,
                       rows: np.ndarray | None = None,
                       n: int | None = None) -> dict[str, pa.Array]:
    """The caption channel of the sigtable, shared by the image and text
    pipelines: shingles -> MinHash, winnowing prints -> adjacent-print
    pair hashes.  Returns the ``minhash``, ``fingerprints`` and
    ``fp_pairs`` columns.

    With ``rows``, result i belongs at row ``rows[i]`` of an ``n``-row
    batch; the other rows get zero signatures and empty print lists."""
    sh, counts = char_shingle_hashes(captions, cfg.shingle_width,
                                     seed=cfg.seed)
    minh = minhash_signatures(sh, counts, cfg.num_perm, seed=cfg.seed + 1)
    fps, fp_counts = winnowing_fingerprints(
        captions, cfg.fingerprint_k, cfg.fingerprint_window,
        seed=cfg.seed + 2)
    # consecutive-print pair hashes (position order) for banding, THEN
    # sort prints per row for the verify-side set intersection
    fpp, fpp_counts = adjacent_pair_hashes(fps, fp_counts)
    fps = sort_segments(fps, fp_counts)

    # store the low 32 bits of each min-hash: equality comparisons (the
    # only use — banding keys and Jaccard estimation) are unchanged up
    # to a 2^-32 collision; storage/shuffle/gather traffic halves
    mh32 = _scatter((minh & _U64(0xFFFFFFFF)).astype(np.uint32), rows, n)
    return {
        "minhash": pa.FixedSizeListArray.from_arrays(
            pa.array(mh32.view(np.int32).ravel(), pa.int32()), cfg.num_perm),
        # empty-row print lists: a zero count adds no flat values
        "fingerprints": _list_column(fps, _scatter(fp_counts, rows, n)),
        "fp_pairs": _list_column(fpp, _scatter(fpp_counts, rows, n)),
    }


def text_sigtable(ids: pa.Array, captions: pa.Array,
                  cfg: DedupConfig) -> pa.Table:
    """Sigtable of payload-less rows: the caption channel of ``captions``
    (already normalized) with zero pixel columns and ``decode_ok`` true."""
    n = len(captions)
    cap = caption_signatures(captions.to_pylist(), cfg)
    zeros = pa.array(np.zeros(n, dtype=np.int64), pa.int64())
    return pa.table({
        "image_id": ids,
        "caption_key": captions,
        "minhash": cap["minhash"],
        "simhash_pix": zeros,
        "phash": zeros,
        "fingerprints": cap["fingerprints"],
        "fp_pairs": cap["fp_pairs"],
        "decode_ok": pa.array(np.ones(n, dtype=bool)),
    })


def signature_batch(batch: pa.Table, cfg: DedupConfig,
                    with_gates: bool = False) -> pa.Table:
    """One batch of input rows -> sigtable rows (vectorized)."""
    if with_gates:
        from .canonicalize import canonicalize_batch
        batch = canonicalize_batch(batch, cfg)
        valid = batch["valid"].to_numpy(zero_copy_only=False)
        reject = batch["reject_reason"]
    else:
        valid = np.ones(batch.num_rows, dtype=bool)
        reject = pa.array([""] * batch.num_rows, pa.string())
    n = batch.num_rows
    vidx = np.flatnonzero(valid)
    rows = vidx if len(vidx) < n else None
    vb = batch.take(pa.array(vidx, pa.int64())) if rows is not None \
        else batch
    captions = vb["caption_key"].to_pylist()
    cap = caption_signatures(captions, cfg, rows, n)

    in_phash = vb["phash"].to_numpy(zero_copy_only=False) \
        .astype(np.int64).view(_U64)
    v_phash, v_simpix, v_ok = pixel_hashes_batch(vb["bytes"].to_pylist())
    # decode failure: keep the input phash (can't verify it) and give the
    # pixel SimHash a per-row noise value so failed rows never share a
    # pixel band bucket (banding additionally skips decode_ok=False rows)
    fail = ~v_ok
    if fail.any():
        v_phash[fail] = in_phash[fail]
        v_simpix[fail] = splitmix64(
            hash_strings(np.asarray(captions, dtype=object)[fail],
                         seed=cfg.seed + 9) ^ _U64(0xDEAD))

    # scatter valid-row results back to full batch length
    phash = _scatter(v_phash, rows, n)
    simpix = _scatter(v_simpix, rows, n)
    ok = _scatter(v_ok, rows, n)

    return pa.table({
        "image_id": batch["image_id"],
        "caption_key": batch["caption_key"],
        "valid": pa.array(valid),
        "reject_reason": reject,
        "minhash": cap["minhash"],
        "simhash_pix": pa.array(simpix.view(np.int64), pa.int64()),
        "phash": pa.array(phash.view(np.int64), pa.int64()),
        "fingerprints": cap["fingerprints"],
        "fp_pairs": cap["fp_pairs"],
        "decode_ok": pa.array(ok),
    })


def sigtable_map(ds, kernel, **map_kw):
    """``kernel`` (input batch -> sigtable batch) over ``ds`` as stateless
    Ray Data tasks, materialized.  Ray calls no kernel on a zero-row input,
    so that map output has no schema, which a checkpoint cannot write and
    the dedup chain cannot read; it is replaced by the kernel's own output
    for an empty batch of the input's columns."""
    import ray.data as rd

    out = ds.map_batches(kernel, batch_format="pyarrow", **map_kw).materialize()
    if out.schema() is None:
        out = rd.from_arrow(kernel(ds.schema().base_schema.empty_table()))
    return out


def compute_signatures(ds, cfg: DedupConfig, *, with_gates: bool = False):
    """Rows -> signature table (``sigtable_map``); the binary payload is
    consumed here and never emitted.  ``with_gates=True`` fuses the
    canonicalization gate chain in front (see module docstring)."""
    return sigtable_map(ds, lambda b: signature_batch(b, cfg, with_gates),
                        batch_size=cfg.signature_batch_size)
