"""End-to-end pipeline tests against planted ground truth (SURVEY.md §5:
pipeline-level tests on deterministic synthetic tables with known clusters,
dup-pair recall >= 0.99 at fixed signature config)."""

import numpy as np
import pyarrow as pa
import pytest

from courlan_ray.config import DedupConfig
from courlan_ray.sources import synth
from courlan_ray.pipelines.image_dedup import dedup_pipeline, pair_recall

N = 800
SEED = 42


@pytest.fixture(scope="module")
def synth_path(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("synth"))
    return synth.synth_parquet(N, SEED, root=root)


@pytest.fixture(scope="module")
def result(synth_path):
    import ray.data as rd
    cfg = DedupConfig()
    out = dedup_pipeline(rd.read_parquet(synth_path), cfg)
    clusters = out["clusters"].to_pandas()
    counters = out["counters"].to_pandas()
    return clusters, counters


def test_recall_at_least_99(result):
    clusters, _ = result
    pairs, _ = synth.truth_tables(N, SEED)
    r = pair_recall(pa.Table.from_pandas(clusters), pairs)
    assert r >= 0.99, r


def test_no_cluster_mixes_truth_groups(result):
    clusters, _ = result
    _, truth = synth.truth_tables(N, SEED)
    tmap = truth.to_pandas().set_index("image_id")["cluster_id"]
    multi = clusters[clusters.groupby("cluster_id")["image_id"]
                     .transform("size") > 1].copy()
    multi["truth"] = multi["image_id"].map(tmap)
    mixing = multi.groupby("cluster_id")["truth"].nunique()
    assert (mixing > 1).sum() == 0


def test_one_representative_per_cluster(result):
    clusters, _ = result
    reps = clusters.groupby("cluster_id")["is_representative"].sum()
    assert (reps == 1).all()
    # representative is the min image_id (order-free determinism)
    rep_rows = (clusters[clusters["is_representative"]]
                .set_index("cluster_id")["image_id"].sort_index())
    mins = clusters.groupby("cluster_id")["image_id"].min().sort_index()
    assert (rep_rows == mins).all()


def test_invalid_rows_excluded_and_counted(result):
    clusters, counters = result
    plan = synth.row_plan(np.arange(N), SEED)
    invalid_ids = {f"img-{i:012d}"
                   for i in np.flatnonzero(plan["kind"] == synth.KIND_INVALID)}
    assert invalid_ids.isdisjoint(set(clusters["image_id"]))
    rejected = counters[counters["reject_reason"] != ""]["n"].sum()
    assert rejected == len(invalid_ids)


def test_cluster_sizes_match_column(result):
    clusters, _ = result
    sizes = clusters.groupby("cluster_id")["image_id"].transform("size")
    assert (clusters["cluster_size"] == sizes).all()


@pytest.mark.slow
def test_recall_at_fixtures_scale(tmp_path_factory):
    """FIXTURES.md §A / VERDICT round 1 #2: recall >= 0.99 at the declared
    ~50k-row scale with the skewed duplicate plan (not just N=800)."""
    import ray.data as rd
    n = 50_000
    root = str(tmp_path_factory.mktemp("synth50k"))
    path = synth.synth_parquet(n, SEED, root=root)
    out = dedup_pipeline(rd.read_parquet(path), DedupConfig())
    clusters = out["clusters"].to_pandas()
    pairs, _ = synth.truth_tables(n, SEED)
    r = pair_recall(pa.Table.from_pandas(clusters), pairs)
    assert r >= 0.99, r


def test_forced_scale_paths_small_cluster(synth_path):
    """Force EVERY size-adaptive stage onto its scale path at once
    (exact-dedup exchange, LSH cross-block link, partitioned verify join,
    distributed components) on the 4-CPU test cluster.  The keyed
    exchanges were once hash shuffles whose stacked aggregator-pool CPU
    reservations starved the upstream map tasks (an 84%-idle livelock);
    they are task-based sorts now (``joins.keyed_map``), which reserve
    nothing between tasks.  Completing at all — with unchanged recall —
    is the assertion."""
    import ray.data as rd
    cfg = DedupConfig(lsh_driver_link_max=0,
                      verify_broadcast_max=0,
                      driver_cc_max_pairs=0)
    out = dedup_pipeline(rd.read_parquet(synth_path), cfg)
    clusters = out["clusters"].to_pandas()
    pairs, _ = synth.truth_tables(N, SEED)
    assert pair_recall(pa.Table.from_pandas(clusters), pairs) >= 0.99


CLUSTER_TYPES = {"image_id": pa.string(), "cluster_id": pa.string(),
                 "cluster_size": pa.int64(), "is_representative": pa.bool_()}
SCALE_CAPS = {"lsh_driver_link_max": 0, "verify_broadcast_max": 0,
              "driver_cc_max_pairs": 0}


def _types(ds) -> dict:
    schema = ds.schema()
    return dict(zip(schema.names, schema.types))


def test_single_row_and_empty_inputs(synth_path):
    """Degenerate inputs: one row -> one singleton cluster; zero rows or
    zero valid rows -> typed empty outputs (no crash in membership gather /
    schema probes), every input row counted as a reject."""
    import ray.data as rd
    from courlan_ray.stages.verify import _OUT_SCHEMA
    full = dedup_pipeline(rd.read_parquet(synth_path).limit(1), DedupConfig())
    df = full["clusters"].to_pandas()
    one_valid = dedup_pipeline(
        rd.read_parquet(synth_path).limit(1), DedupConfig())["rejected"] \
        .count() == 0
    # exactly one singleton when the row passes gates; zero when rejected
    assert len(df) == (1 if one_valid else 0)
    if len(df):
        assert df["cluster_size"].tolist() == [1]
        assert df["is_representative"].all()

    empty = dedup_pipeline(
        rd.read_parquet(synth_path).filter(expr="image_id == 'nope'"),
        DedupConfig())
    assert empty["clusters"].count() == 0
    assert empty["verified_pairs"].count() == 0
    assert _types(empty["clusters"]) == CLUSTER_TYPES

    for cfg in (DedupConfig(language="de"),
                DedupConfig(min_caption_len=10_000),
                DedupConfig(min_caption_len=10_000, **SCALE_CAPS)):
        none_valid = dedup_pipeline(rd.read_parquet(synth_path), cfg)
        assert none_valid["clusters"].count() == 0
        assert _types(none_valid["clusters"]) == CLUSTER_TYPES
        assert none_valid["verified_pairs"].count() == 0
        assert _types(none_valid["verified_pairs"]) == dict(
            zip(_OUT_SCHEMA.names, _OUT_SCHEMA.types))
        assert none_valid["rejected"].count() == N
        counters = none_valid["counters"].to_pandas()
        assert "" not in set(counters["reject_reason"])
        assert counters["n"].sum() == N


_ONE_CPU_RUN = """
import ray, ray.data as rd
ray.init(address="local", num_cpus=1, object_store_memory=256 << 20,
         include_dashboard=False, logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
from courlan_ray.config import DedupConfig
from courlan_ray.pipelines.image_dedup import dedup_pipeline
from courlan_ray.sources.synth import synth_parquet
out = dedup_pipeline(rd.read_parquet(synth_parquet(500, 42, root={root!r})),
                     DedupConfig())
print("clusters", out["clusters"].to_pandas()["cluster_id"].nunique())
ray.shutdown()
"""


def test_flagship_completes_on_one_cpu(tmp_path):
    """A one-CPU cluster runs the flagship to the end: every map stage is a
    task that frees its CPU between batches, so no stage can hold the only
    CPU while the read stage waits for it.  Runs in its own process (and
    process group) with its own cluster; a hang is killed with the whole
    group so no raylet outlives the test."""
    import os
    import signal
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo)
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_RUN.format(root=str(tmp_path))],
        cwd=repo, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("flagship did not finish within 120 s on one CPU")
    assert proc.returncode == 0, err[-2000:]
    n_clusters = int(out.split("clusters")[-1].split()[0])
    assert n_clusters > 0
