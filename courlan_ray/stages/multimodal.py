"""Multimodal (image/audio/video) map stages.

Binary media are opaque ``binary`` columns with typed metadata (w, h, fmt);
each transform is a stateless per-batch function run as Ray Data
``map_batches`` tasks (parameters through ``fn_kwargs``), and decoded
pixels never leave the stage (only features/thumbnails do).

This sandbox ships no media libraries, so the *codec boundary* is pure
in-repo code throughout: the deterministic image codec
(functions/imagecodec.py), the pure-numpy RIFF/WAVE PCM codec
(functions/audiocodec.py — real, interoperable WAV), and the FVID frame
container (functions/videocodec.py — MJPEG-style, offset-seek frame
sampling).  A production cluster swaps each decode for
PIL/torchaudio/ffmpeg inside the same function; the Ray-side plumbing —
schemas, batch sizes, output layout — and every fingerprint kernel are
real and tested end to end.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DedupConfig
from ..functions import imagecodec as codec

_AUDIO_FEAT_DIM = 16


def decode_stats_batch(batch: pa.Table) -> pa.Table:
    """bytes -> (decode_ok, width, height, mean_luma, contrast).
    Pixels are consumed in-stage; only scalar features are emitted."""
    def stats(arr: np.ndarray) -> tuple:
        g = arr.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
        return arr.shape[0], arr.shape[1], g.mean(), g.std()

    st, ok = codec.decoded(batch["bytes"].to_pylist(), stats)
    cols = np.zeros((len(ok), 4))
    cols[ok] = np.reshape(st, (-1, 4))
    return pa.table({
        "image_id": batch["image_id"],
        "decode_ok": pa.array(ok),
        "width": pa.array(cols[:, 1].astype(np.int32), pa.int32()),
        "height": pa.array(cols[:, 0].astype(np.int32), pa.int32()),
        "mean_luma": pa.array(np.round(cols[:, 2], 3)),
        "contrast": pa.array(np.round(cols[:, 3], 3)),
    })


def resize_batch(batch: pa.Table, target: int = 32,
                 out_fmt: str = "png") -> pa.Table:
    """bytes -> re-encoded thumbnail bytes at (target, target) via
    nearest-row/column sampling.  Output schema mirrors the input_hint
    shape."""
    t = target

    def thumb(arr: np.ndarray) -> bytes:
        h, w = arr.shape[:2]
        arr = arr[(np.arange(t) * h) // t][:, (np.arange(t) * w) // t]
        return codec.encode_image(arr, out_fmt)

    thumbs, ok = codec.decoded(batch["bytes"].to_pylist(), thumb)
    out = np.full(len(ok), b"", dtype=object)
    out[ok] = thumbs
    return pa.table({
        "image_id": batch["image_id"],
        "bytes": pa.array(out, pa.binary()),
        "w": pa.array(np.full(len(out), t, dtype=np.int32), pa.int32()),
        "h": pa.array(np.full(len(out), t, dtype=np.int32), pa.int32()),
        "fmt": pa.array([out_fmt] * len(out)),
        "decode_ok": pa.array(ok),
    })


def embed_batch(batch: pa.Table, dim: int = 64) -> pa.Table:
    """bytes -> embedding list<float> (the 64 8x8 block-mean luma features
    of the image kernel's 32x32 gray, ``imagecodec.block_means``).

    STUB NOTE: a production cluster runs a vision model here (loaded once
    per worker, the one stage that would hold state); this environment
    uses the deterministic block-mean features so the plumbing (batch
    inference, fixed-size list output) is exercised end to end."""
    grays, ok = codec.decoded(batch["bytes"].to_pylist(),
                              codec.gray32_area_f32)
    feats = np.zeros((len(ok), dim), dtype=np.float32)
    feats[ok, :min(dim, 64)] = codec.block_means(grays)[:, :dim]
    flat = pa.array(feats.ravel(), pa.float32())
    return pa.table({
        "image_id": batch["image_id"],
        "embedding": pa.FixedSizeListArray.from_arrays(flat, dim),
        "decode_ok": pa.array(ok),
    })


def audio_features_batch(batch: pa.Table) -> pa.Table:
    """REAL audio channel: bytes (RIFF/WAVE PCM, decoded by the pure-numpy
    functions/audiocodec.py — no external libs needed for WAV) ->
    (decode_ok, duration_sec, rate, channels, rms, simhash:int64,
    features: fixed list<float> of the 16 time-averaged log band-energy
    profile diffs).  Decoded samples are consumed in-stage; only scalar
    features + the 64-bit spectral fingerprint leave the stage (the same
    decode-and-drop contract as the image signature stage).  A production
    cluster swaps the WAV decode for torchaudio/soundfile here; the
    fingerprint math is codec-independent."""
    from ..functions import audiocodec as acodec
    from ..functions.hashing import hash_strings
    payloads = batch["bytes"].to_pylist()
    n = len(payloads)
    ok = np.zeros(n, dtype=bool)
    dur = np.zeros(n, dtype=np.float64)
    rate = np.zeros(n, dtype=np.int32)
    chans = np.zeros(n, dtype=np.int32)
    rms = np.zeros(n, dtype=np.float64)
    sim = np.zeros(n, dtype=np.uint64)
    feats = np.zeros((n, _AUDIO_FEAT_DIM), dtype=np.float32)
    aids = batch["audio_id"].to_pylist()
    noise = hash_strings(aids, seed=0xA0D10)
    for i, p in enumerate(payloads):
        try:
            x, r = acodec.decode_wav(p)
        except acodec.AudioCodecError:
            # undecodable rows get a per-ID noise fingerprint so they
            # never share a Hamming band bucket (same rule as the
            # image stage's decode-failure path)
            sim[i] = noise[i]
            continue
        ok[i] = True
        mono = acodec.to_mono(x)
        dur[i] = mono.size / r
        rate[i] = r
        chans[i] = x.shape[1]
        rms[i] = float(np.sqrt(np.mean(mono ** 2)))
        sim[i] = acodec.audio_simhash64(mono)
        e = acodec.band_energies(mono, n_bands=_AUDIO_FEAT_DIM + 1)
        prof = e.mean(axis=0)
        feats[i] = (prof[:-1] - prof[1:]).astype(np.float32)
    flat = pa.array(feats.ravel(), pa.float32())
    return pa.table({
        "audio_id": batch["audio_id"],
        "decode_ok": pa.array(ok),
        "duration_sec": pa.array(np.round(dur, 4)),
        "rate": pa.array(rate, pa.int32()),
        "channels": pa.array(chans, pa.int32()),
        "rms": pa.array(np.round(rms, 6)),
        "simhash": pa.array(sim.view(np.int64), pa.int64()),
        "features": pa.FixedSizeListArray.from_arrays(flat,
                                                      _AUDIO_FEAT_DIM),
    })


def _sampled_frames(payloads: list, n_frames: int):
    """Decode and hash the ``n_frames`` evenly-spaced sampled frames of
    every FVID payload as one batch (functions/videocodec.py — offset
    seek decodes ONLY the sampled frames).  Returns one entry per sampled
    frame, in payload order: (payload row, frame_idx, decode_ok, (h, w),
    pHash u64).  A payload whose container does not parse gets one
    undecoded entry with frame_idx -1."""
    from ..functions import videocodec as vcodec
    rows, fidx, frames = [], [], []
    for r, p in enumerate(payloads):
        try:
            n, _, offs = vcodec.video_info(p)
        except vcodec.VideoCodecError:
            rows.append(r)
            fidx.append(-1)
            frames.append(None)                 # decodes to nothing
            continue
        for i in vcodec.sample_indices(n, n_frames):
            rows.append(r)
            fidx.append(int(i))
            frames.append(p[offs[i]:offs[i + 1]])
    shaped, ok = codec.decoded(
        frames, lambda a: (a.shape[:2], codec.gray32_area_f32(a)))
    hw = np.zeros((len(ok), 2), dtype=np.int32)
    hw[ok] = np.reshape([s for s, _ in shaped], (-1, 2))
    phash = np.zeros(len(ok), dtype=np.uint64)
    phash[ok] = codec.pixel_hashes([g for _, g in shaped])[0]
    return np.array(rows, dtype=np.int64), fidx, ok, hw, phash


def video_frames_batch(batch: pa.Table, n_frames: int = 3) -> pa.Table:
    """REAL video channel: sample ``n_frames`` evenly-spaced frames per
    FVID payload (``_sampled_frames`` — the keyframe-seek property a
    production ffmpeg stage has) and emit one row per sampled frame:
    (video_id, frame_idx, decode_ok, w, h, frame_phash) — a genuine
    1-row-in / k-rows-out flat map.  Frames are consumed in-stage; only
    per-frame scalars leave the stage.  A production cluster swaps the
    FVID parse for ffmpeg/pyav here; sampling + phash are
    container-independent."""
    rows, fidx, ok, hw, phash = _sampled_frames(batch["bytes"].to_pylist(),
                                                n_frames)
    return pa.table({
        "video_id": batch["video_id"].take(pa.array(rows)),
        "frame_idx": pa.array(fidx, pa.int32()),
        "decode_ok": pa.array(ok),
        "w": pa.array(hw[:, 1], pa.int32()),
        "h": pa.array(hw[:, 0], pa.int32()),
        "frame_phash": pa.array(phash.view(np.int64), pa.int64()),
    })


def video_signature_batch(batch: pa.Table, n_frames: int = 4) -> pa.Table:
    """Per-video 64-bit fingerprint: sampled frame phashes folded by
    bitwise majority (functions/videocodec.video_hash64), plus the frame
    phash list for slot-wise verification.  Undecodable payloads (the
    container or any sampled frame) get a per-ID noise hash (never
    pair)."""
    from ..functions import videocodec as vcodec
    from ..functions.hashing import hash_strings
    ids = batch["video_id"].to_pylist()
    noise = hash_strings(ids, seed=0x51DE0)
    rows, _, frame_ok, _, phash = _sampled_frames(
        batch["bytes"].to_pylist(), n_frames)
    n = len(ids)
    ok = np.bincount(rows[~frame_ok], minlength=n) == 0
    per_video = np.split(phash, np.cumsum(np.bincount(rows, minlength=n)))
    vh = noise.copy()
    fr_ph: list[list[int]] = [[]] * n
    for i in np.flatnonzero(ok):
        vh[i] = vcodec.video_hash64(per_video[i])
        fr_ph[i] = per_video[i].view(np.int64).tolist()
    return pa.table({
        "video_id": batch["video_id"],
        "decode_ok": pa.array(ok),
        "vhash": pa.array(vh.view(np.int64), pa.int64()),
        "frame_phashes": pa.array(fr_ph, pa.list_(pa.int64())),
    })


def decode_stats(ds, cfg: DedupConfig):
    return ds.map_batches(decode_stats_batch, batch_format="pyarrow",
                          batch_size=cfg.signature_batch_size)


def resize_images(ds, cfg: DedupConfig, target: int = 32):
    return ds.map_batches(resize_batch, fn_kwargs={"target": target},
                          batch_format="pyarrow",
                          batch_size=cfg.signature_batch_size)


def embed_images(ds, cfg: DedupConfig, dim: int = 64):
    return ds.map_batches(embed_batch, fn_kwargs={"dim": dim},
                          batch_format="pyarrow",
                          batch_size=cfg.signature_batch_size)


def sample_video_frames(ds, cfg: DedupConfig, n_frames: int = 3):
    return ds.map_batches(video_frames_batch,
                          fn_kwargs={"n_frames": n_frames},
                          batch_format="pyarrow",
                          batch_size=max(cfg.signature_batch_size // 8, 32))


def video_signatures(ds, cfg: DedupConfig, n_frames: int = 4):
    return ds.map_batches(video_signature_batch,
                          fn_kwargs={"n_frames": n_frames},
                          batch_format="pyarrow",
                          batch_size=max(cfg.signature_batch_size // 8, 32))


def video_dedup_pairs(ds, cfg: DedupConfig, *, n_frames: int = 4,
                      max_ham: int = 3, slot_ham_max: int = 3):
    """End-to-end video near-dup pairs — candidates->verify like the audio
    channel: (1) frame-sampled phash majority fold per video in a map
    stage, (2) exact pigeonhole Hamming-ball candidates on the 64-bit
    video hash (measured: re-encoded dups <= 1 bit vs cross-video min 14),
    (3) slot-wise verification — every sampled frame pair within
    ``slot_ham_max`` phash bits (measured dup slot max 2)."""
    from .joins import hash_join_pairs
    from .simhash_pairs import simhash_hamming_pairs

    sigs = video_signatures(ds, cfg, n_frames).materialize()
    cands = simhash_hamming_pairs(
        sigs.select_columns(["video_id", "vhash"]),
        max_ham=max_ham, id_col="video_id", sim_col="vhash")
    attached = hash_join_pairs(cands, sigs, id_col="video_id",
                               payload_cols=["frame_phashes"])

    def verify(b: pa.Table) -> pa.Table:
        # vectorized slot verify: flatten both FixedSize/variable list
        # columns for the eligible (non-empty, equal-length) rows — the
        # flattened value arrays then align slot-for-slot — segmented XOR
        # popcount via the shared Hamming kernel, per-row max by reduceat.
        from ..functions.hashing import hamming_u64
        empty = pa.table({"left_id": pa.array([], pa.string()),
                          "right_id": pa.array([], pa.string()),
                          "max_slot_ham": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        len_l = pc.list_value_length(b["frame_phashes_l"]) \
            .to_numpy(zero_copy_only=False)
        len_r = pc.list_value_length(b["frame_phashes_r"]) \
            .to_numpy(zero_copy_only=False)
        elig = (len_l > 0) & (len_l == len_r)
        if not elig.any():
            return empty
        sub = b.filter(pa.array(elig))
        vl = pc.list_flatten(sub["frame_phashes_l"]) \
            .to_numpy(zero_copy_only=False)
        vr = pc.list_flatten(sub["frame_phashes_r"]) \
            .to_numpy(zero_copy_only=False)
        pop = hamming_u64(vl, vr)
        lens = len_l[elig].astype(np.int64)
        starts = np.zeros(lens.size, dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        worst = np.maximum.reduceat(pop, starts)
        keep = worst <= slot_ham_max
        return pa.table({
            "left_id": sub["left_id"].filter(pa.array(keep)),
            "right_id": sub["right_id"].filter(pa.array(keep)),
            "max_slot_ham": pa.array(worst[keep], pa.int64())})

    return attached.map_batches(verify, batch_format="pyarrow")


def audio_features(ds, cfg: DedupConfig):
    return ds.map_batches(audio_features_batch, batch_format="pyarrow",
                          batch_size=max(cfg.signature_batch_size // 4, 64))


def audio_dedup_pairs(ds, cfg: DedupConfig, *, max_ham: int = 8,
                      profile_dist_max: float = 0.5):
    """End-to-end audio near-dup pairs — the flagship's candidates->verify
    split in one stage chain:

      1. WAV decode + 64-bit spectral fingerprint + 16-dim band profile
         in one map stage (one payload traversal),
      2. CANDIDATES: exact pigeonhole Hamming-ball pairs (<= ``max_ham``
         bits) over the fingerprints (stages/simhash_pairs.py),
      3. VERIFY: attach each side's continuous band profile via the
         size-adaptive pair join and keep pairs with profile L2 distance
         <= ``profile_dist_max``.

    The two tiers are complementary: the Hamming ball must be wide enough
    for re-encode jitter (measured: dup pairs <= 7 bits, but cross-track
    pairs appear from 6 bits at 1k-track scale), while the profile
    distance separates cleanly (dup <= 0.12 vs cross >= 1.08 — a 10x
    margin around the 0.5 threshold).  Undecodable rows carry noise
    fingerprints and pair with nothing."""
    from .joins import hash_join_pairs
    from .simhash_pairs import simhash_hamming_pairs

    feats = audio_features(ds, cfg).materialize()
    sig = feats.select_columns(["audio_id", "simhash"])
    cands = simhash_hamming_pairs(sig, max_ham=max_ham, id_col="audio_id")
    attached = hash_join_pairs(cands, feats, id_col="audio_id",
                               payload_cols=["features"])

    def verify(b: pa.Table) -> pa.Table:
        # emitted column is the (exact-integer) fingerprint Hamming
        # distance, not the float profile L2: every output value is then
        # bit-reproducible by the DuckDB oracle (bit_count(xor(...))),
        # while the profile-L2 gate — whose 10x dup/cross margin makes it
        # ULP-safe as a FILTER — stays the verification tier.
        empty = pa.table({"left_id": pa.array([], pa.string()),
                          "right_id": pa.array([], pa.string()),
                          "ham": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        fl = np.asarray(b["features_l"].combine_chunks().flatten()
                        .to_numpy(zero_copy_only=False),
                        dtype=np.float64).reshape(b.num_rows, -1)
        fr = np.asarray(b["features_r"].combine_chunks().flatten()
                        .to_numpy(zero_copy_only=False),
                        dtype=np.float64).reshape(b.num_rows, -1)
        d = np.sqrt(((fl - fr) ** 2).sum(axis=1))
        keep = d <= profile_dist_max
        return pa.table({
            "left_id": b["left_id"].filter(pa.array(keep)),
            "right_id": b["right_id"].filter(pa.array(keep)),
            "ham": pc.cast(b["hamming"].filter(pa.array(keep)),
                           pa.int64())})

    return attached.map_batches(verify, batch_format="pyarrow")
