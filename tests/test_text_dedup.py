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


def _clusters(out):
    return out["clusters"].to_pandas().sort_values("image_id") \
        .reset_index(drop=True)


def test_text_dedup_clusters_planted_pairs():
    import ray.data as rd
    ds = rd.from_pandas(_docs())
    out = text_dedup_pipeline(ds, DedupConfig())
    clusters = _clusters(out).set_index("image_id")["cluster_id"]
    assert clusters["0"] == clusters["100"]          # exact dup
    assert clusters["1"] == clusters["101"]          # near-dup edit
    assert clusters["102"] == clusters["103"]        # long shared substring
    # unrelated docs stay apart
    assert clusters["2"] != clusters["3"]
    sizes = clusters.value_counts()
    assert (sizes > 1).sum() == 3
    # the exact dup arrives as an exact edge, not as a scored pair
    pairs = out["pairs"].to_pandas()
    assert not ((pairs.left_id == "0") & (pairs.right_id == "100")).any()


def test_text_dedup_resumes_from_checkpoint(tmp_path):
    """A checkpointed text run resumed from the same root skips every
    stage and gives the fresh run's clusters."""
    import ray.data as rd
    from courlan_ray.state.manifest import Checkpoint
    cfg = DedupConfig()
    root = str(tmp_path / "ck")

    def run():
        ck = Checkpoint(root, cfg)
        out = text_dedup_pipeline(rd.from_pandas(_docs()), cfg,
                                  checkpoint=ck)
        return _clusters(out), ck

    fresh, _ = run()
    resumed, ck = run()
    statuses = {r["stage"]: r["status"] for r in ck.records()[4:]}
    assert statuses == dict.fromkeys(
        ("sigtable", "exact_edges", "candidates", "verified_pairs"),
        "skipped")
    assert fresh.equals(resumed)


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
    one = pd.DataFrame({"doc_id": [1], "text": ["one document"]})
    sigs = text_dedup_pipeline(rd.from_pandas(one), DedupConfig(**caps))
    assert out["signatures"].count() == 0
    assert out["signatures"].schema().names == \
        sigs["signatures"].schema().names


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
    for col in ("minhash", "fingerprints", "fp_pairs"):
        assert t[col].combine_chunks().equals(i[col].combine_chunks()), col
    assert sum(len(f) for f in t["fp_pairs"].to_pylist()) > 0


def _perfbench_spans():
    """perfbench/spans.py, loaded by path (perfbench is no package)."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_stage_resolves():
    """The benchmark's tracer wraps stages by (module, attribute) name; a
    missing one breaks its traced runs."""
    import importlib
    for mod_name, attr, _ in _perfbench_spans().TARGETS:
        assert callable(getattr(importlib.import_module(mod_name), attr,
                                None)), (mod_name, attr)


def test_traced_text_run_records_every_stage():
    import time
    import ray.data as rd
    from courlan_ray.pipelines import text_dedup
    tracer = _perfbench_spans().Tracer(time.perf_counter())
    with tracer.patched():
        out = text_dedup.text_dedup_pipeline(rd.from_pandas(_docs()),
                                             DedupConfig())
    assert out["clusters"].count() == len(_docs())
    names = {s["name"] for s in tracer.spans}
    assert {"stages.signatures", "stages.exact_dedup", "stages.lsh",
            "stages.verify", "stages.components"} <= names, names
