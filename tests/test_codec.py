import numpy as np
import pytest

from courlan_ray.functions import imagecodec as C
from courlan_ray.functions.hashing import hamming_u64
from courlan_ray.stages.signatures import pixel_hashes_batch


def _img(seed=0, size=64):
    return np.random.default_rng(seed).integers(0, 256, (size, size, 3),
                                                dtype=np.uint8)


def test_png_lossless_roundtrip():
    img = _img()
    dec = C.decode_image(C.encode_image(img, "png"))
    assert np.array_equal(img, dec)


def test_jpeg_lossy_psnr_above_40():
    img = _img()
    for q in (90, 75):
        dec = C.decode_image(C.encode_image(img, "jpeg", q))
        assert C.psnr_db(img, dec) >= 40.0, q


def test_encode_deterministic():
    img = _img(3)
    assert C.encode_image(img, "jpeg", 90) == C.encode_image(img, "jpeg", 90)


def test_garbage_rejected():
    with pytest.raises(C.CodecError):
        C.decode_image(b"\x89GARBAGE-not-an-image")
    with pytest.raises(C.CodecError):
        C.decode_image(b"")
    with pytest.raises(C.CodecError):
        C.decode_image(C.encode_image(_img(), "png")[:20])  # truncated


def test_phash_robust_to_reencode_distinct_for_others():
    from courlan_ray.sources.synth import make_image
    a = make_image(1, 64, 42)
    b = make_image(2, 64, 42)
    pa_ = np.array([C.phash64(a)], dtype=np.uint64)
    pb = np.array([C.phash64(b)], dtype=np.uint64)
    a75 = C.decode_image(C.encode_image(a, "jpeg", 75))
    pa75 = np.array([C.phash64(a75)], dtype=np.uint64)
    assert hamming_u64(pa_, pa75)[0] <= 3
    assert hamming_u64(pa_, pb)[0] > 10


def test_phash_batch_flags_bad_rows():
    good = C.encode_image(_img(), "png")
    ph, _, ok = pixel_hashes_batch([good, b"junk", None])
    assert ok.tolist() == [True, False, False]
    assert ph[0] != 0


def test_pixel_hashes_batch_mixed_shapes():
    """One batch of images of mixed shapes, most of them not multiples of
    32 (gray32_area_f32's reduceat path), and a garbage payload: each
    decoded row hashes as ``phash64`` of its own image does."""
    shapes = [(64, 64), (96, 96), (8, 8), (33, 100), (50, 70)]
    imgs = [np.random.default_rng(i).integers(0, 256, (h, w, 3),
                                              dtype=np.uint8)
            for i, (h, w) in enumerate(shapes)]
    payloads = [C.encode_image(a, "jpeg", 90) for a in imgs]
    payloads.insert(3, b"\x89GARBAGE-not-an-image")
    ph, simpix, ok = pixel_hashes_batch(payloads)
    assert ok.tolist() == [True, True, True, False, True, True]
    want = [C.phash64(C.decode_image(p)) for p, k in zip(payloads, ok) if k]
    assert ph[ok].tolist() == want
    assert ph[3] == simpix[3] == 0
