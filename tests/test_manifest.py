"""Checkpoint / resume tests (SURVEY.md §5c: kill between stages, re-run,
identical output; §7.4: config change invalidates downstream only)."""

import dataclasses
import shutil

import pytest

from courlan_ray.config import DedupConfig
from courlan_ray.sources import synth
from courlan_ray.state.manifest import Checkpoint
from courlan_ray.pipelines.image_dedup import dedup_pipeline

N = 400


@pytest.fixture(scope="module")
def synth_path(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("synth_ck"))
    return synth.synth_parquet(N, 42, root=root)


def _run(synth_path, ck_root, cfg):
    import ray.data as rd
    ck = Checkpoint(ck_root, cfg)
    out = dedup_pipeline(rd.read_parquet(synth_path), cfg, checkpoint=ck)
    clusters = out["clusters"].to_pandas().sort_values("image_id") \
        .reset_index(drop=True)
    return clusters, ck


def test_resume_skips_completed_stages(synth_path, tmp_path):
    cfg = DedupConfig()
    root = str(tmp_path / "ck")
    c1, ck1 = _run(synth_path, root, cfg)
    statuses1 = {r["stage"]: r["status"] for r in ck1.records()}
    assert statuses1 == {"exact_edges": "computed", "sigtable": "computed",
                         "candidates": "computed", "verified_pairs": "computed"}

    c2, ck2 = _run(synth_path, root, cfg)
    last = {r["stage"]: r["status"] for r in ck2.records()[4:]}
    assert set(last.values()) == {"skipped"}
    # resumed output is identical
    assert c1.equals(c2)


def test_config_change_invalidates_downstream_only(synth_path, tmp_path):
    cfg = DedupConfig()
    root = str(tmp_path / "ck")
    _run(synth_path, root, cfg)

    # loosen a verification threshold: sigtable/candidates hit cache,
    # verified_pairs recomputes
    cfg2 = dataclasses.replace(cfg, jaccard_threshold=0.7)
    _, ck2 = _run(synth_path, root, cfg2)
    n2 = len(ck2.records())
    statuses = {r["stage"]: r["status"] for r in ck2.records()[4:]}
    assert statuses["exact_edges"] == "skipped"
    assert statuses["sigtable"] == "skipped"
    assert statuses["candidates"] == "skipped"
    assert statuses["verified_pairs"] == "computed"

    # changing the signature config recomputes everything downstream
    cfg3 = dataclasses.replace(cfg, num_perm=64, bands=16)
    _, ck3 = _run(synth_path, root, cfg3)
    statuses = {r["stage"]: r["status"] for r in ck3.records()[n2:]}
    assert statuses["sigtable"] == "computed"
    assert statuses["candidates"] == "computed"
    assert statuses["verified_pairs"] == "computed"


def test_mid_run_kill_resume(synth_path, tmp_path):
    """Simulate a crash after the signature stage: later stage dirs are
    missing, earlier ones survive; resume recomputes only the tail."""
    cfg = DedupConfig()
    root = str(tmp_path / "ck")
    c1, ck1 = _run(synth_path, root, cfg)
    # wipe the candidate + pair checkpoints ("killed mid-run")
    for rec in ck1.records():
        if rec["stage"] in ("candidates", "verified_pairs"):
            shutil.rmtree(rec["out_dir"], ignore_errors=True)
    c2, ck2 = _run(synth_path, root, cfg)
    statuses = {r["stage"]: r["status"] for r in ck2.records()[4:]}
    assert statuses["exact_edges"] == "skipped"
    assert statuses["sigtable"] == "skipped"
    assert statuses["candidates"] == "computed"
    assert statuses["verified_pairs"] == "computed"
    assert c1.equals(c2)


def test_run_persists_empty_stage(tmp_path):
    """A zero-row stage must write a schema-bearing empty parquet so the
    resumed read returns the same typed empty dataset."""
    import pyarrow as pa
    import ray.data as rd
    from courlan_ray.config import DedupConfig
    from courlan_ray.state.manifest import Checkpoint

    def make():
        return rd.from_arrow(pa.table({
            "left_id": pa.array([], pa.string()),
            "right_id": pa.array([], pa.string())}))

    root = str(tmp_path / "ck")
    ck = Checkpoint(root, DedupConfig())
    out = ck.run("exact_edges", make)
    assert out.count() == 0
    assert out.schema().names == ["left_id", "right_id"]
    # resume hits the cached directory
    out2 = Checkpoint(root, DedupConfig()).run("exact_edges", make)
    assert out2.count() == 0 and out2.schema().names == ["left_id", "right_id"]


def test_zero_rows_fresh_and_resumed(synth_path, tmp_path):
    """Both pipelines on zero input rows under a Checkpoint: the fresh run
    persists a typed empty sigtable, the resumed run reads it back, and
    each returns the typed empty clusters."""
    import pyarrow as pa
    import ray.data as rd
    from courlan_ray.pipelines.text_dedup import text_dedup_pipeline
    from courlan_ray.stages.components import EMPTY_CLUSTERS
    cfg = DedupConfig()
    docs = pa.table({"doc_id": pa.array([], pa.int64()),
                     "text": pa.array([], pa.string())})
    runs = {
        "image": lambda ck: dedup_pipeline(
            rd.read_parquet(synth_path).filter(expr="w < 0"), cfg,
            checkpoint=ck),
        "text": lambda ck: text_dedup_pipeline(rd.from_arrow(docs), cfg,
                                               checkpoint=ck)}
    want = dict(zip(EMPTY_CLUSTERS.schema.names, EMPTY_CLUSTERS.schema.types))
    for name, run in runs.items():
        for status in ("computed", "skipped"):
            ck = Checkpoint(str(tmp_path / name), cfg)
            clusters = run(ck)["clusters"]
            schema = clusters.schema()
            assert clusters.count() == 0, name
            assert dict(zip(schema.names, schema.types)) == want, name
            assert {r["stage"]: r["status"] for r in ck.records()} == \
                {"sigtable": status}, name
