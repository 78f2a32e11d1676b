import numpy as np
import pytest

from courlan_ray.config import DedupConfig
from courlan_ray.sources import synth
from courlan_ray.stages import multimodal as M


@pytest.fixture(scope="module")
def img_ds():
    import ray.data as rd
    import pyarrow as pa
    t = synth.synth_table(200, seed=42)
    return rd.from_arrow(t)


def test_decode_stats(img_ds):
    cfg = DedupConfig()
    out = M.decode_stats(img_ds, cfg).to_pandas()
    assert len(out) == 200
    ok = out[out.decode_ok]
    assert (ok["width"] > 0).all() and (ok["height"] > 0).all()
    assert (ok["mean_luma"].between(0, 255)).all()
    assert (~out.decode_ok).sum() >= 1          # planted invalid rows


def test_resize_roundtrip(img_ds):
    from courlan_ray.functions import imagecodec as C
    cfg = DedupConfig()
    out = M.resize_images(img_ds, cfg, target=16).to_pandas()
    row = out[out.decode_ok].iloc[0]
    arr = C.decode_image(row["bytes"])
    assert arr.shape == (16, 16, 3)
    assert row["fmt"] == "png" and row["w"] == 16


def test_embed_images(img_ds):
    cfg = DedupConfig()
    out = M.embed_images(img_ds, cfg, dim=64).to_pandas()
    ok = out[out.decode_ok]
    vecs = np.stack(ok["embedding"].to_numpy())
    assert vecs.shape[1] == 64
    assert np.isfinite(vecs).all()
    # deterministic across runs
    out2 = M.embed_images(img_ds, cfg, dim=64).to_pandas()
    vecs2 = np.stack(out2[out2.decode_ok]["embedding"].to_numpy())
    srt = np.argsort(ok["image_id"].to_numpy())
    srt2 = np.argsort(out2[out2.decode_ok]["image_id"].to_numpy())
    assert np.allclose(vecs[srt], vecs2[srt2])


def test_garbage_payloads_flagged_not_raised():
    import pyarrow as pa
    # audio and video are REAL since round 3 (pure-numpy WAV + FVID
    # codecs); garbage payloads decode to decode_ok=False, never raise
    out = M.audio_features_batch(pa.table({"audio_id": ["a"],
                                           "bytes": [b"x"]}))
    assert out["decode_ok"].to_pylist() == [False]
    out = M.video_frames_batch(pa.table({"video_id": ["v"],
                                         "bytes": [b"x"]}))
    assert out["decode_ok"].to_pylist() == [False]
    out = M.video_signature_batch(pa.table({"video_id": ["v"],
                                            "bytes": [b"x"]}))
    assert out["decode_ok"].to_pylist() == [False]
