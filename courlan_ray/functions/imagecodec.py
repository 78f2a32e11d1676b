"""Deterministic image codec, perceptual hash and PSNR.

This sandbox ships no image libraries (no PIL / libjpeg), so the engine uses
a self-contained deterministic codec with the *semantics* that matter to the
dedup pipeline:

- ``fmt="png"``  -> lossless (zlib over raw RGB)          header ``FPNG``
- ``fmt="jpeg"`` -> lossy uniform quantization + zlib     header ``FJPG``
  (quantization step derived from ``quality``; step<=8 keeps PSNR>=40dB,
  matching the input_hint per-row invariant)

``decode_real_format`` is the clearly-marked stub where PIL/turbojpeg would
plug in on a production cluster; everything Ray-side (schemas, batch sizes,
stage functions, output layout) is identical either way.

Every image stage decodes through ``decoded`` (one decoded array alive at
a time) and hashes through ``pixel_hashes``.  The perceptual hash is the
classic DCT pHash: area-resample to a 32x32 float32 gray
(``gray32_area_f32``, the one resampler), 2D DCT-II, top-left 8x8
coefficients (minus DC) thresholded at their median -> 64 bits; the pixel
SimHash thresholds the 8x8 block means of the same gray.  Pure numpy,
deterministic.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np


class CodecError(ValueError):
    """Raised for undecodable payloads (drives the ``reject_reason`` gate)."""


_MAGIC_PNG = b"FPNG"
_MAGIC_JPG = b"FJPG"


def quant_step(quality: int) -> int:
    """Quantization step for the lossy path.  quality 90 -> step 3
    (PSNR ~ 49dB), quality 50 -> step 13 (~36dB)."""
    return max(1, (100 - int(quality)) // 4 + 1)


def encode_image(arr: np.ndarray, fmt: str, quality: int = 90) -> bytes:
    """Encode an (h, w, 3) uint8 array."""
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise CodecError("expected (h, w, 3) uint8")
    h, w = arr.shape[:2]
    if fmt == "png":
        return _MAGIC_PNG + struct.pack("<II", h, w) + zlib.compress(arr.tobytes(), 6)
    if fmt == "jpeg":
        step = quant_step(quality)
        q = ((arr.astype(np.int32) + step // 2) // step * step).clip(0, 255).astype(np.uint8)
        return (_MAGIC_JPG + struct.pack("<IIB", h, w, step)
                + zlib.compress(q.tobytes(), 6))
    raise CodecError(f"unsupported fmt: {fmt!r}")


def decode_image(payload: bytes) -> np.ndarray:
    """Decode to (h, w, 3) uint8.  Raises CodecError on garbage."""
    if payload is None or len(payload) < 12:
        raise CodecError("truncated payload")
    magic = bytes(payload[:4])
    try:
        if magic == _MAGIC_PNG:
            h, w = struct.unpack("<II", payload[4:12])
            raw = zlib.decompress(payload[12:])
        elif magic == _MAGIC_JPG:
            h, w = struct.unpack("<II", payload[4:12])
            raw = zlib.decompress(payload[13:])
        else:
            return decode_real_format(payload)
        if len(raw) != h * w * 3 or h == 0 or w == 0:
            raise CodecError("size mismatch")
        return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    except (zlib.error, struct.error) as exc:
        raise CodecError(str(exc)) from exc


def decode_real_format(payload: bytes) -> np.ndarray:
    """STUB: real JPEG/PNG decoding.  On a production cluster this calls
    PIL / libjpeg-turbo inside the signature stage; this sandbox ships no
    image libraries, so unknown magics are rejected."""
    raise CodecError("real image formats not available in this environment")


def psnr_db(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images."""
    if a.shape != b.shape:
        return 0.0
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return float(20.0 * np.log10(255.0) - 10.0 * np.log10(mse))


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    m = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * i + 1) * k / (2.0 * n))
    m[0] /= np.sqrt(2.0)
    return m


_DCT32 = _dct_matrix(32).astype(np.float32)


def decoded(payloads, fn) -> tuple[list, np.ndarray]:
    """``fn`` of each decodable payload's (h, w, 3) array, in payload
    order, and the ``ok`` mask of the payloads that decoded.  An
    undecodable payload (``CodecError``) gets no result.  Each decoded
    array lives only for its own call, so a batch of large images never
    holds more than one image's pixels."""
    out = []
    ok = np.zeros(len(payloads), dtype=bool)
    for i, p in enumerate(payloads):
        try:
            arr = decode_image(p)
        except CodecError:
            continue
        out.append(fn(arr))
        ok[i] = True
        del arr                 # freed before the next payload decodes
    return out, ok


def gray32_area_f32(arr: np.ndarray) -> np.ndarray:
    """Area-resample of an (h, w[, 3]) image to a 32x32 float32 gray.

    Two ``np.add.reduceat`` passes over the raw uint8 pixels (row blocks,
    then column blocks) and one tiny 32x32x3 gray matmul — ~10x less
    memory traffic than grayscale-then-integral-image, which matters
    because the signature stage is DRAM-bandwidth-bound at full node
    parallelism.  Block i spans rows [i*h//32, (i+1)*h//32) (at least one
    pixel), likewise for columns.
    """
    h, w = arr.shape[:2]
    w32 = np.array([0.299, 0.587, 0.114], dtype=np.float32)
    if h % 32 == 0 and w % 32 == 0:
        # uniform blocks: strided reshape-mean, fastest path
        g = arr.astype(np.float32) @ w32 if arr.ndim == 3 \
            else arr.astype(np.float32)
        return g.reshape(32, h // 32, 32, w // 32).mean(axis=(1, 3))
    ys = (np.arange(32) * h) // 32
    xs = (np.arange(32) * w) // 32
    ye = np.maximum(((np.arange(32) + 1) * h) // 32, ys + 1)
    xe = np.maximum(((np.arange(32) + 1) * w) // 32, xs + 1)
    t1 = np.add.reduceat(arr, ys, axis=0, dtype=np.float32)
    t2 = np.add.reduceat(t1, xs, axis=1)
    if arr.ndim == 3:
        t2 = t2 @ w32
    cnt = ((ye - ys)[:, None] * (xe - xs)[None, :]).astype(np.float32)
    # reduceat block i sums [ys[i], ys[i+1]) (last to end) == [ys, ye) when
    # boundaries are monotone non-overlapping, which ys/xs construction
    # guarantees except for clamped 1-px blocks; normalize by true counts
    return t2 / cnt


def block_means(grays) -> np.ndarray:
    """32x32 float32 grays -> (m, 64) 8x8 area means (4x4 pixels each)."""
    return np.asarray(grays, dtype=np.float32).reshape(-1, 8, 4, 8, 4) \
        .mean(axis=(2, 4)).reshape(-1, 64)


def _pack_bits64(bits: np.ndarray) -> np.ndarray:
    """(m, 64) bool/uint8 -> (m,) uint64, little bit order."""
    return np.packbits(bits.astype(np.uint8), axis=1,
                       bitorder="little").view("<u8").ravel()


def pixel_hashes(grays) -> tuple[np.ndarray, np.ndarray]:
    """32x32 float32 grays -> (pHash, pixel SimHash), each (m,) uint64.

    pHash: one (m,32,32) DCT matmul chain for the whole stack, top-left
    8x8 coefficients minus DC thresholded at their median.  Pixel SimHash:
    the 8x8 block means thresholded at their mean."""
    G = np.asarray(grays, dtype=np.float32).reshape(-1, 32, 32)
    m = len(G)
    C = _DCT32[None] @ G @ _DCT32.T[None]                 # batched 2-D DCT
    vals = C[:, :8, :8].reshape(m, 64)[:, 1:]             # drop DC
    med = np.median(vals, axis=1, keepdims=True)
    bits = np.zeros((m, 64), dtype=np.uint8)
    bits[:, 1:] = vals > med
    feats = block_means(G)
    return (_pack_bits64(bits),
            _pack_bits64(feats > feats.mean(axis=1, keepdims=True)))


def phash64(arr: np.ndarray) -> int:
    """64-bit DCT perceptual hash of one image array."""
    return int(pixel_hashes(gray32_area_f32(arr))[0][0])
