"""Text near-dup pipeline on planted document duplicates."""

import numpy as np
import pandas as pd
import pytest

from courlan_ray.config import DedupConfig
from courlan_ray.pipelines.text_dedup import text_dedup_pipeline

BASE = ("the quick brown fox jumps over the lazy dog while the rain "
        "falls quietly on the old stone bridge near the harbor")


def _docs():
    rng = np.random.default_rng(7)
    vocab = ("river stone bridge harbor night morning winter summer cloud "
             "train boat garden tower market castle lantern meadow").split()
    rows = []
    for i in range(60):
        words = [vocab[w] for w in rng.integers(0, len(vocab), 12)]
        rows.append({"doc_id": i, "text": f"unique document {i}: " + " ".join(words)})
    # planted: exact dup, near dup (small edit), substring overlap
    rows.append({"doc_id": 100, "text": rows[0]["text"]})
    rows.append({"doc_id": 101, "text": rows[1]["text"] + " extra"})
    rows.append({"doc_id": 102, "text": "prefix words then " + BASE})
    rows.append({"doc_id": 103, "text": BASE + " and a different ending tail"})
    return pd.DataFrame(rows)


def test_text_dedup_clusters_planted_pairs():
    import ray.data as rd
    ds = rd.from_pandas(_docs())
    out = text_dedup_pipeline(ds, DedupConfig())
    clusters = out["clusters"].to_pandas().set_index("image_id")["cluster_id"]
    assert clusters["0"] == clusters["100"]          # exact dup
    assert clusters["1"] == clusters["101"]          # near-dup edit
    assert clusters["102"] == clusters["103"]        # long shared substring
    # unrelated docs stay apart
    assert clusters["2"] != clusters["3"]
    sizes = clusters.value_counts()
    assert (sizes > 1).sum() == 3


@pytest.mark.parametrize("caps", [{}, {"lsh_driver_link_max": 0,
                                      "verify_broadcast_max": 0,
                                      "driver_cc_max_pairs": 0}])
def test_text_dedup_empty_input(caps):
    """Zero documents -> typed empty clusters and pairs on either path."""
    import pyarrow as pa
    import ray.data as rd
    from courlan_ray.stages.verify import _OUT_SCHEMA
    docs = pa.table({"doc_id": pa.array([], pa.int64()),
                     "text": pa.array([], pa.string())})
    out = text_dedup_pipeline(rd.from_arrow(docs), DedupConfig(**caps))
    clusters, pairs = out["clusters"], out["pairs"]
    assert clusters.count() == 0 and pairs.count() == 0
    assert dict(zip(clusters.schema().names, clusters.schema().types)) == {
        "image_id": pa.string(), "cluster_id": pa.string(),
        "cluster_size": pa.int64(), "is_representative": pa.bool_()}
    assert pairs.schema().names == _OUT_SCHEMA.names


def test_text_and_image_signatures_agree():
    """One caption kernel: for the same normalized captions the text and
    the image signature stages emit equal caption columns."""
    import pyarrow as pa
    import ray
    import ray.data as rd
    from courlan_ray.functions.imagecodec import encode_image
    from courlan_ray.pipelines.text_dedup import text_signatures
    from courlan_ray.sources.synth import make_image
    from courlan_ray.stages.signatures import compute_signatures

    texts = _docs()["text"].str.lower().tolist()[58:] + ["", "ab", BASE]
    cfg = DedupConfig()
    docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    images = pd.DataFrame({
        "image_id": [str(i) for i in range(len(texts))],
        "caption_key": texts,
        "bytes": [encode_image(make_image(i, 32, 7), "png")
                  for i in range(len(texts))],
        "phash": 0})
    txt = text_signatures(rd.from_pandas(docs, override_num_blocks=2), cfg)
    img = compute_signatures(rd.from_pandas(images), cfg)
    t = pa.concat_tables(ray.get(txt.to_arrow_refs())).sort_by("image_id")
    i = pa.concat_tables(ray.get(img.to_arrow_refs())).sort_by("image_id")
    assert t["image_id"].to_pylist() == i["image_id"].to_pylist()
    for col in ("minhash", "simhash_cap", "fingerprints", "fp_pairs",
                "shingle_count"):
        assert t[col].combine_chunks().equals(i[col].combine_chunks()), col
    assert sum(len(f) for f in t["fp_pairs"].to_pylist()) > 0
