"""Pure-numpy video container + frame kernels — the video sibling of
functions/imagecodec.py / audiocodec.py.

No video libraries exist in this sandbox, so the container is the engine's
own trivially-parseable MJPEG-style format ``FVID``: a struct header over
independently-decodable frames, each encoded with the in-repo image codec
(FPNG/FJPG — functions/imagecodec.py):

    b"FVID" | u32 n_frames | u16 fps | n_frames x u32 frame byte lengths
    | concatenated frame payloads

Because frames are independent, frame sampling decodes ONLY the sampled
frames (offset arithmetic on the header — the property a production
ffmpeg/pyav stage gets from keyframe seeking).  A production cluster swaps
``decode_frame`` for a real codec inside the same stage
(stages/multimodal.video_frames_batch); the sampling/fingerprint math is
container-independent.
"""

from __future__ import annotations

import struct

import numpy as np

from . import imagecodec as icodec

_MAGIC = b"FVID"


class VideoCodecError(ValueError):
    pass


def encode_video(frames: list[np.ndarray], fmt: str = "jpeg",
                 quality: int = 90, fps: int = 8) -> bytes:
    """(h, w, 3) uint8 frames -> FVID bytes (each frame FPNG/FJPG)."""
    if not frames:
        raise VideoCodecError("no frames")
    payloads = [icodec.encode_image(f, fmt, quality=quality) for f in frames]
    head = _MAGIC + struct.pack("<IH", len(payloads), fps)
    lens = struct.pack(f"<{len(payloads)}I", *(len(p) for p in payloads))
    return head + lens + b"".join(payloads)


def video_info(payload: bytes) -> tuple[int, int, np.ndarray]:
    """-> (n_frames, fps, frame byte offsets[n+1]) from the header only."""
    if len(payload) < 10 or payload[:4] != _MAGIC:
        raise VideoCodecError("not an FVID payload")
    n, fps = struct.unpack("<IH", payload[4:10])
    if n == 0 or len(payload) < 10 + 4 * n:
        raise VideoCodecError("truncated FVID header")
    lens = np.frombuffer(payload, dtype="<u4", count=n, offset=10)
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    offs += 10 + 4 * n
    if offs[-1] > len(payload):
        raise VideoCodecError("truncated FVID data")
    return int(n), int(fps), offs


def decode_frame(payload: bytes, idx: int) -> np.ndarray:
    """Decode ONLY frame ``idx`` (offset seek, no other frame touched)."""
    n, _, offs = video_info(payload)
    if not 0 <= idx < n:
        raise VideoCodecError(f"frame {idx} out of range 0..{n - 1}")
    try:
        return icodec.decode_image(payload[offs[idx]:offs[idx + 1]])
    except icodec.CodecError as exc:
        raise VideoCodecError(str(exc)) from exc


def sample_indices(n_frames: int, k: int) -> np.ndarray:
    """k deterministic, evenly-spaced frame indices (content-aligned:
    re-encodes of the same video sample the same frames)."""
    k = min(k, n_frames)
    return np.unique((np.arange(k) * n_frames) // k)


def video_hash64(frame_phashes: np.ndarray) -> int:
    """Per-video 64-bit fingerprint: bitwise MAJORITY over the sampled
    frames' phashes.  Each re-encoded frame stays within the phash
    Hamming ball (imagecodec PSNR>=40dB contract), so the majority bits
    are at least as stable as any single frame; unrelated videos have
    unrelated frame phashes -> near-uniform hashes."""
    ph = np.asarray(frame_phashes, dtype=np.uint64)
    if ph.size == 0:
        return 0
    bits = ((ph[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1))
    votes = bits.sum(axis=0)
    maj = (votes * 2 >= ph.size).astype(np.uint64)
    return int(maj @ (np.uint64(1) << np.arange(64, dtype=np.uint64)))
