"""Stage-level tests over small in-memory datasets."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from courlan_ray.config import DedupConfig


def _rd():
    import ray.data as rd
    return rd


def test_exact_dedup_min_id_wins_and_edges():
    import ray.data as rd
    from courlan_ray.stages.exact_dedup import exact_dup_edges
    from courlan_ray.stages.joins import join
    from courlan_ray.functions.imagecodec import encode_image
    img = encode_image(np.zeros((8, 8, 3), dtype=np.uint8), "png")
    rows = [
        {"image_id": "b", "caption_key": "same text", "phash": 7, "bytes": img},
        {"image_id": "a", "caption_key": "same text", "phash": 7, "bytes": img},
        {"image_id": "c", "caption_key": "other", "phash": 9, "bytes": img},
    ]
    ds = rd.from_pandas(pd.DataFrame(rows))
    cfg = DedupConfig()
    edges = exact_dup_edges(ds, cfg)
    survivors = join(ds, edges, "left_anti", ["image_id"], ["right_id"])
    s = sorted(r["image_id"] for r in survivors.select_columns(["image_id"]).take_all())
    e = edges.to_pandas()
    assert s == ["a", "c"]
    assert e.values.tolist() == [["a", "b"]]


@pytest.mark.parametrize("exchange", [False, True])
def test_exact_dedup_compares_values_not_a_key(exchange):
    """Rows with distinct (caption_key, phash) values that all carry one
    64-bit key, as a full hash collision would give them, are no exact
    duplicates: zero edges on the one-place side and through the keyed
    exchange."""
    import contextlib
    import ray.data as rd
    from courlan_ray.stages import joins
    from courlan_ray.stages.exact_dedup import exact_dup_edges
    n = 12
    rows = pa.table({
        "image_id": [f"i{j:02d}" for j in range(n)],
        "caption_key": [f"caption {j % 4}" for j in range(n)],
        "phash": pa.array([j // 4 for j in range(n)], pa.int64()),
        "exact_key": pa.array([42] * n, pa.int64())})
    ds = rd.from_arrow(rows).repartition(3)
    with joins.exchanges_only() if exchange else contextlib.nullcontext():
        edges = exact_dup_edges(ds, DedupConfig())
        assert edges.count() == 0


def test_group_sample_semantics():
    """sample_urls semantics (/root/reference/courlan/sampling.py:15-68):
    per-group k, all if fewer, exclude_min/max drop whole groups."""
    import ray.data as rd
    from courlan_ray.stages.sampling import group_sample
    rows = ([{"g": "big", "image_id": f"b{i}"} for i in range(20)]
            + [{"g": "small", "image_id": "s0"}]
            + [{"g": "mid", "image_id": f"m{i}"} for i in range(5)])
    ds = rd.from_pandas(pd.DataFrame(rows))
    out = group_sample(ds, "g", 3, exclude_min=2, exclude_max=10,
                       seed=1).to_pandas()
    by = out.groupby("g").size().to_dict()
    assert by == {"mid": 3}          # big excluded (>10), small excluded (<2)
    # deterministic
    out2 = group_sample(ds, "g", 3, exclude_min=2, exclude_max=10,
                        seed=1).to_pandas()
    assert sorted(out["image_id"]) == sorted(out2["image_id"])


def test_driver_union_find():
    from courlan_ray.stages.components import driver_union_find
    edges = pd.DataFrame({"left_id": ["a", "b", "x"],
                          "right_id": ["b", "c", "y"]})
    out = driver_union_find(edges).set_index("image_id")["cluster_id"]
    assert out["a"] == out["b"] == out["c"] == "a"
    assert out["x"] == out["y"] == "x"


def test_distributed_components_matches_union_find(monkeypatch):
    import ray.data as rd
    from courlan_ray.stages import joins
    from courlan_ray.stages.components import (driver_union_find,
                                               distributed_components)
    rng = np.random.default_rng(5)
    # random edges over 60 nodes with chain structure
    nodes = [f"n{i:03d}" for i in range(60)]
    random_edges = pd.DataFrame({
        "left_id": [nodes[i] for i in rng.integers(0, 60, 80)],
        "right_id": [nodes[i] for i in rng.integers(0, 60, 80)],
    })
    random_edges = random_edges[random_edges.left_id != random_edges.right_id]
    # one 300-node path whose ids are shuffled along it: links must contract
    # over many passes before the fixpoint test may stop the loop
    path = [f"p{i:03d}" for i in rng.permutation(300)]
    path_edges = pd.DataFrame({"left_id": path[:-1], "right_id": path[1:]})
    # the same length with ids increasing along it, which strict
    # Large-Star/Small-Star alternation contracts slower than shuffled ids
    rising = [f"q{i:03d}" for i in range(300)]
    rising_edges = pd.DataFrame({"left_id": rising[:-1],
                                 "right_id": rising[1:]})
    kernels = []
    keyed_map = joins.keyed_map

    def spy(*args, **kwargs):
        kernels.append(args[2].__name__)
        return keyed_map(*args, **kwargs)

    monkeypatch.setattr(joins, "keyed_map", spy)
    cfg = DedupConfig()
    for edges in (random_edges.reset_index(drop=True), path_edges,
                  rising_edges):
        kernels.clear()
        want = driver_union_find(edges).sort_values("image_id") \
            .reset_index(drop=True)
        got = distributed_components(rd.from_pandas(edges), cfg).to_pandas() \
            .sort_values("image_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(want, got, check_dtype=False)
        assert kernels.count("_large_star") <= 12
    # no edge, on the keyed side: a typed empty component table
    with joins.exchanges_only():
        none = distributed_components(rd.from_pandas(path_edges.iloc[:0]),
                                      cfg)
        schema = none.schema()
        assert none.count() == 0
        assert dict(zip(schema.names, map(str, schema.types))) == {
            "image_id": "string", "cluster_id": "string",
            "cluster_size": "int64"}


def _planted_clique_sigs(cfg):
    """Signatures of 30 distinct rows plus a near-dup caption pair
    (v000, v900) and a re-encoded image pair (v001, v901)."""
    import ray.data as rd
    from courlan_ray.stages.signatures import compute_signatures
    from courlan_ray.functions.imagecodec import encode_image
    from courlan_ray.sources.synth import make_image
    rows = []
    for i in range(30):
        img = make_image(i, 64, 7)
        cap = f"unique caption number {i} about topic {i * 13 % 97} variety"
        rows.append({"image_id": f"v{i:03d}", "caption_key": cap,
                     "bytes": encode_image(img, "png"), "phash": 0})
    # plant a near-dup caption pair and a re-encoded image pair
    rows.append(dict(rows[0], image_id="v900",
                     caption_key=rows[0]["caption_key"] + " tail"))
    rows.append(dict(rows[1], image_id="v901",
                     bytes=encode_image(make_image(1, 64, 7), "jpeg", 75)))
    ds = rd.from_pandas(pd.DataFrame(rows))
    return compute_signatures(ds, cfg).materialize()


def test_candidate_pairs_find_planted_cliques():
    from courlan_ray.stages.lsh import candidate_pairs
    cfg = DedupConfig()
    pairs = candidate_pairs(_planted_clique_sigs(cfg), cfg).to_pandas()
    got = {tuple(sorted(p)) for p in pairs[["left_id", "right_id"]].values}
    assert ("v000", "v900") in got
    assert ("v001", "v901") in got


def test_candidate_dedup_survives_id_hash_collisions(monkeypatch):
    """The candidate distinct is exact on the id values: with every id
    hash colliding, no distinct pair is lost.  The driver side runs the
    level-2 link and the distinct in this process, where the patch
    applies (Ray workers import the module unpatched)."""
    from courlan_ray.stages import lsh
    cfg = DedupConfig()
    sigs = _planted_clique_sigs(cfg)

    def pair_set():
        out = lsh.candidate_pairs(sigs, cfg).to_pandas()
        return set(zip(out["left_id"], out["right_id"]))

    want = pair_set()
    monkeypatch.setattr(lsh, "hash_strings", lambda values, seed=0:
                        np.zeros(len(values), dtype=np.uint64))
    assert pair_set() == want and len(want) >= 2


def test_hot_bucket_salting_preserves_connectivity():
    import ray.data as rd
    from courlan_ray.stages.signatures import compute_signatures
    from courlan_ray.stages.lsh import candidate_pairs
    from courlan_ray.stages.components import cluster_assignments
    from courlan_ray.functions.imagecodec import encode_image
    from courlan_ray.sources.synth import make_image
    cfg = DedupConfig(num_salts=4)
    # 40 rows with the SAME caption (hot band), distinct images
    rows = [{"image_id": f"h{i:03d}",
             "caption_key": "identical hot caption shared by many rows",
             "bytes": encode_image(make_image(100 + i, 64, 7), "png"),
             "phash": 0} for i in range(40)]
    ds = rd.from_pandas(pd.DataFrame(rows))
    sigs = compute_signatures(ds, cfg).materialize()
    pairs = candidate_pairs(sigs, cfg)
    out = cluster_assignments(pairs, sigs.select_columns(["image_id"]),
                              cfg).to_pandas()
    # all 40 rows must land in ONE cluster despite salting
    assert len(out) == 40
    assert out["cluster_id"].nunique() == 1
    assert (out["cluster_size"] == 40).all()


def test_assign_clusters_block_without_components():
    """Scale-path assignment: an ids block none of whose rows is in a
    component still gets every row its own id as cluster_id."""
    rd = _rd()
    from courlan_ray.stages.components import assign_clusters
    ids = rd.from_arrow([pa.table({"image_id": ["a", "b"]}),
                         pa.table({"image_id": ["x", "y"]})])
    comp = rd.from_arrow(pa.table({"image_id": ["a", "b"],
                                   "cluster_id": ["a", "a"],
                                   "cluster_size": pa.array([2, 2],
                                                            pa.int64())}))
    got = assign_clusters(ids, comp, DedupConfig()).to_pandas() \
        .sort_values("image_id")
    assert got["image_id"].tolist() == ["a", "b", "x", "y"]
    assert got["cluster_id"].tolist() == ["a", "a", "x", "y"]
    assert got["cluster_size"].tolist() == [2, 2, 1, 1]
    assert got["is_representative"].tolist() == [True, False, True, True]


def test_component_paths_assign_alike():
    """Driver union-find and distributed star contraction end in the same
    assignment: a chain, a star, ids in no edge, and an ids block with no
    component member."""
    rd = _rd()
    from courlan_ray.stages.components import cluster_assignments
    edges = rd.from_arrow(pa.table({
        "left_id": ["c0", "c1", "c2", "c3", "s0", "s0", "s0"],
        "right_id": ["c1", "c2", "c3", "c4", "s1", "s2", "s3"]}))
    ids = rd.from_arrow([
        pa.table({"image_id": ["c0", "c1", "c2", "c3", "c4", "lone1"]}),
        pa.table({"image_id": ["s3", "s2", "s1", "s0"]}),
        pa.table({"image_id": ["lone2", "lone3"]})])
    cols = ["image_id", "cluster_id", "cluster_size", "is_representative"]

    def run(cfg):
        out = cluster_assignments(edges, ids, cfg).to_pandas()
        assert list(out.columns) == cols
        return out.sort_values("image_id").reset_index(drop=True)

    driver = run(DedupConfig())
    dist = run(DedupConfig(driver_cc_max_pairs=0))
    pd.testing.assert_frame_equal(driver, dist)
    got = driver.set_index("image_id")
    assert (got.loc[[f"c{i}" for i in range(5)], "cluster_id"] == "c0").all()
    assert (got.loc[[f"s{i}" for i in range(4)], "cluster_size"] == 4).all()
    assert got.loc["lone2"].tolist() == ["lone2", 1, True]
    assert got["is_representative"].sum() == 5


def test_verify_agrees_across_size_switch():
    """verify_pairs gives the same scored table on the broadcast probe and
    on the keyed passes (``verify_broadcast_max=0``), with list
    payloads (minhash, fingerprints) on both."""
    rd = _rd()
    from courlan_ray.sources.synth import generate_rows
    from courlan_ray.stages.lsh import candidate_pairs
    from courlan_ray.stages.signatures import compute_signatures
    from courlan_ray.stages.verify import verify_pairs
    cfg = DedupConfig()
    sigs = compute_signatures(rd.from_arrow(generate_rows(np.arange(400), 5)),
                              cfg, with_gates=True) \
        .filter(expr="valid == True").materialize()
    cands = candidate_pairs(sigs, cfg).materialize()
    cols = ["left_id", "right_id", "jaccard", "ham_phash", "ham_simpix",
            "substr_ratio", "verified"]

    def run(c):
        out = verify_pairs(cands, sigs, c).to_pandas()
        assert list(out.columns) == cols
        return out.sort_values(["left_id", "right_id"]).reset_index(drop=True)

    small = run(cfg)
    large = run(DedupConfig(verify_broadcast_max=0))
    pd.testing.assert_frame_equal(small, large)
    assert small["verified"].any()


@pytest.mark.parametrize("stage", ["grouped_agg", "topk_per_group"])
def test_lazy_grouped_input_routes_by_partial_bytes(stage, monkeypatch):
    """A lazy input is measured on its materialized partials: partials
    over ``SMALL_BYTES`` take the keyed exchange, small ones merge once on
    the driver, and both give the pandas answer."""
    import ray.data as rd
    from courlan_ray.stages import joins
    from courlan_ray.stages.agg import grouped_agg
    from courlan_ray.stages.topk import topk_per_group

    calls = []
    keyed_map = joins.keyed_map
    monkeypatch.setattr(joins, "keyed_map",
                        lambda *a: calls.append(a[1]) or keyed_map(*a))
    monkeypatch.setattr(joins, "SMALL_BYTES", 4096)

    def run(n_groups):
        df = pd.DataFrame({"k": np.arange(2000) % n_groups,
                           "v": np.arange(2000)[::-1]})
        lazy = rd.from_pandas(df).repartition(4).map_batches(
            lambda b: b, batch_format="pyarrow")
        if stage == "grouped_agg":
            got = grouped_agg(lazy, ["k"], [("v", "min", "v")]).to_pandas()
            want = df.groupby("k", as_index=False)["v"].min()
        else:
            got = topk_per_group(lazy, ["k"], [("v", "ascending")], 1) \
                .to_pandas()
            want = df.sort_values("v").groupby("k").head(1)
        pd.testing.assert_frame_equal(
            got.sort_values("k").reset_index(drop=True),
            want.sort_values("k").reset_index(drop=True), check_dtype=False)

    run(3)                  # 3 groups: partials far under 4 KiB
    assert calls == []
    run(1000)               # 1,000 groups: ~16 KB of partials
    assert calls == [["k"]]


@pytest.mark.parametrize("exchange", [False, True])
@pytest.mark.parametrize("stage", ["grouped_agg", "topk_per_group",
                                   "hll_distinct_by_key"])
def test_keyed_reduction_of_zero_rows_is_typed(stage, exchange):
    """A zero-row typed input gives the stage's typed columns, on the
    driver side and under ``exchanges_only()``: Ray maps no zero-row
    block, so its partials have no schema to merge.  (``to_pandas`` of
    any zero-row Dataset has no columns: Ray iterates no empty block.)"""
    import contextlib

    from courlan_ray.stages import joins
    from courlan_ray.stages.agg import grouped_agg
    from courlan_ray.stages.sketch import hll_distinct_by_key
    from courlan_ray.stages.topk import topk_per_group
    empty = _rd().from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                       "v": pa.array([], pa.float64())}))
    with joins.exchanges_only() if exchange else contextlib.nullcontext():
        if stage == "grouped_agg":
            out = grouped_agg(empty, ["k"], [("v", "sum", "s"),
                                             ("k", "count", "n")])
            want = {"k": pa.int64(), "s": pa.float64(), "n": pa.int64()}
        elif stage == "topk_per_group":
            out = topk_per_group(empty, ["k"], [("v", "ascending")], 2,
                                 rank_col="rk")
            want = {"k": pa.int64(), "v": pa.float64(), "rk": pa.int64()}
        else:
            out = hll_distinct_by_key(empty, "k", "v")
            want = {"k": pa.int64(), "approx_distinct": pa.float64()}
        schema = out.schema()
        assert out.count() == 0
    assert dict(zip(schema.names, schema.types)) == want


def test_topk_per_group_rank_col_both_modes():
    """rank_col stamps SQL row_number() per group; parity vs pandas on
    both the driver and keyed-exchange sides (VERDICT r3 next #3)."""
    import contextlib

    import ray.data as rd
    from courlan_ray.stages.joins import exchanges_only
    from courlan_ray.stages.topk import topk_per_group
    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "g": rng.integers(0, 17, 400),
        "v": rng.integers(0, 50, 400),
        "id": np.arange(400, dtype=np.int64)})
    want = df.sort_values(["g", "v", "id"]).groupby("g").head(3).copy()
    want["rk"] = want.groupby("g").cumcount() + 1
    want = want.sort_values("id").reset_index(drop=True)
    for side in (contextlib.nullcontext(), exchanges_only()):
        with side:
            got = topk_per_group(
                rd.from_pandas(df).repartition(7), ["g"],
                [("v", "ascending"), ("id", "ascending")], 3,
                rank_col="rk").to_pandas()
        got = got.sort_values("id").reset_index(drop=True)[want.columns]
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_group_sample_parity_with_pandas_reference():
    """Vectorized group_sample == the per-group pandas reference draw
    (same hash rank, same exclusion gates), including output row order
    per group (sorted by id)."""
    import ray.data as rd
    from courlan_ray.functions.hashing import hash_strings
    from courlan_ray.stages.sampling import group_sample
    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "g": [f"g{i}" for i in rng.integers(0, 12, 300)],
        "image_id": [f"im{i:04d}" for i in range(300)]})

    def reference(df, key, k, lo, hi, seed):
        outs = []
        for _, g in df.groupby(key):
            n = len(g)
            if n < lo or n > hi:
                continue
            if n > k:
                rank = hash_strings(
                    g["image_id"].astype(str).to_numpy(dtype=object),
                    seed=seed).view(np.int64)
                order = np.lexsort((g["image_id"].to_numpy(), rank))
                g = g.iloc[order[:k]]
            outs.append(g.sort_values("image_id"))
        return pd.concat(outs) if outs else df.iloc[0:0]

    got = group_sample(rd.from_pandas(df).repartition(5), "g", 4,
                       exclude_min=2, exclude_max=40, seed=7).to_pandas()
    want = reference(df, "g", 4, 2, 40, 7)
    pd.testing.assert_frame_equal(
        got.sort_values(["g", "image_id"]).reset_index(drop=True),
        want.sort_values(["g", "image_id"]).reset_index(drop=True)[got.columns],
        check_dtype=False)
    # groups outside the bounds are dropped entirely
    sizes = df.groupby("g").size()
    assert set(got["g"]) == set(sizes[(sizes >= 2) & (sizes <= 40)].index)


def test_url_frontier_schedule_slots():
    """Fair per-host slots: first per_host distinct paths in path order,
    backoff = slot * sleep_time, global order by scheduled time."""
    import ray.data as rd
    from courlan_ray.pipelines.url_pipeline import url_frontier_schedule
    urls = ([f"https://a.example.org/p{i}" for i in range(6)]
            + [f"https://b.example.org/q{i}" for i in range(2)]
            + ["https://a.example.org/p0"])          # dup path collapses
    ds = rd.from_pandas(pd.DataFrame({"text": urls}))
    out = url_frontier_schedule(ds, per_host=3, sleep_time=2.0).to_pandas()
    a = out[out["hostinfo"].str.contains("a.example")]
    b = out[out["hostinfo"].str.contains("b.example")]
    assert len(a) == 3 and len(b) == 2          # capped at per_host
    assert sorted(a["sched_secs"]) == [0.0, 2.0, 4.0]
    assert sorted(b["sched_secs"]) == [0.0, 2.0]
    # slot order follows path order within host
    assert a.sort_values("sched_secs")["url"].str.endswith(
        ("p0", "p1", "p2")).all()
    assert (out.sort_index()["sched_secs"].is_monotonic_increasing)


def test_clear_caches_drops_broadcast_caches():
    """Reference API parity (courlan/meta.py:20-24): clear_caches drops the
    per-process broadcast caches and is exported from the package root."""
    import ray
    import courlan_ray
    from courlan_ray.stages import ann, joins
    assert "clear_caches" in courlan_ray.__all__
    ref = ray.put({"x": 1})
    assert joins.cached_get(ref) == {"x": 1}
    assert len(joins._GET_CACHE) >= 1
    ann._BLOCK_CACHE["k"] = (None, None)
    ann._block_cache_used = 123
    courlan_ray.clear_caches()
    assert joins._GET_CACHE == {} and ann._BLOCK_CACHE == {}
    assert ann._block_cache_used == 0
    # cache refills transparently after the drop
    assert joins.cached_get(ref) == {"x": 1}


def _sorted_rows(tbl: pa.Table) -> list[dict]:
    return sorted(tbl.to_pylist(), key=lambda r: (r["left_id"], r["right_id"],
                                                  repr(r)))


def _merged_pairs(pairs: pd.DataFrame, payload: pd.DataFrame,
                  first: bool = True) -> list[dict]:
    """The pandas reference for hash_join_pairs: the first payload row per
    id (else every copy; a null id matches nothing), inner-merged onto
    both sides of each pair."""
    payload = payload[payload["image_id"].notna()]
    if first:
        payload = payload.drop_duplicates("image_id")
    out = pairs
    for side, suffix in (("left", "_l"), ("right", "_r")):
        renamed = payload.rename(
            columns=lambda c: f"{side}_id" if c == "image_id" else c + suffix)
        out = out.merge(renamed, on=f"{side}_id", how="inner")
    return _sorted_rows(pa.Table.from_pandas(out, preserve_index=False))


def _join_pairs(pairs: pd.DataFrame | pa.Table, payload: pa.Table) -> pa.Table:
    import ray
    from courlan_ray.stages.joins import hash_join_pairs
    pairs = _rd().from_arrow(pairs) if isinstance(pairs, pa.Table) \
        else _rd().from_pandas(pairs)
    out = hash_join_pairs(pairs, _rd().from_arrow(payload),
                          id_col="image_id", payload_cols=["val", "vec"])
    parts = [t for t in ray.get(out.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(parts) if parts else out.schema().base_schema \
        .empty_table()


def test_hash_join_pairs_broadcast_matches_ids_exactly(monkeypatch):
    """The broadcast side matches on the id values themselves: no id hash
    is computed, a repeated payload id resolves to its first row, a pair
    with an unknown id is dropped, and an empty payload gives a typed
    empty table."""
    from courlan_ray.functions import hashing

    def no_hash(*a, **k):
        raise AssertionError("hash_join_pairs hashed an id column")

    monkeypatch.setattr(hashing, "hash_strings", no_hash)
    payload = pa.table({
        "image_id": ["a", "b", "b", "c", "d"],
        "val": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "vec": pa.array([[1, 1], [2, 2], [3, 3], [4, 4], [5, 5]],
                        pa.list_(pa.int32())),
    })
    pairs = pd.DataFrame({"left_id": ["a", "b", "a", "zz", "c", "b"],
                          "right_id": ["b", "c", "zz", "c", "a", "d"]})
    got = _join_pairs(pairs, payload)
    want = _merged_pairs(pairs, payload.to_pandas())
    assert _sorted_rows(got) == want
    assert len(want) == 4 and {r["val_l"] for r in want if r["left_id"] == "b"} == {2}

    empty = _join_pairs(pairs, payload.slice(0, 0))
    assert empty.num_rows == 0
    assert empty.schema.field("val_l").type == pa.int64()
    assert empty.schema.field("vec_r").type == pa.list_(pa.int32())


def test_hash_join_pairs_byte_budget_uses_partitioned_join(monkeypatch):
    """A payload over ``SMALL_BYTES`` goes to the keyed passes even
    when it has few rows: nothing is collected to the driver."""
    from courlan_ray.stages import joins

    def no_collect(ds):
        raise AssertionError("payload broadcast over the byte budget")

    monkeypatch.setattr(joins, "SMALL_BYTES", 1)
    monkeypatch.setattr(joins, "_collect", no_collect)
    payload = pa.table({
        "image_id": ["a", "b", "c", "d"],
        "val": pa.array([1, 2, 3, 4], pa.int64()),
        "vec": pa.array([[1, 1], [2, 2], [3], [4, 4, 4]],
                        pa.list_(pa.int32())),
    })
    pairs = pd.DataFrame({"left_id": ["a", "b", "a", "c"],
                          "right_id": ["b", "c", "zz", "d"]})
    got = _join_pairs(pairs, payload)
    assert _sorted_rows(got) == _merged_pairs(pairs, payload.to_pandas())
    assert got.num_rows == 3


def test_hash_join_pairs_exchange_side_matches_pandas_merge():
    """The keyed-exchange side gives ``pandas.merge``'s rows: a duplicate
    pair once per copy (each with its own pair columns), a repeated
    payload id once per copy, a self-pair, and no row for a null id or an
    id missing from the payload; an empty pair table (Arrow or pandas
    blocks) or payload gives the typed empty table."""
    from courlan_ray.stages.joins import exchanges_only
    payload = pa.table({
        "image_id": ["a", "b", "b", "c", None, "d"],
        "val": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "vec": pa.array([[1], [2, 2], [3], [4, 4], [5], [6]],
                        pa.list_(pa.int32())),
    })
    pairs = pd.DataFrame({
        "left_id": ["a", "a", "b", "c", None, "a", "zz", "d"],
        "right_id": ["b", "b", "c", "c", "a", "d", "a", None],
        "ham": [1, 2, 3, 4, 5, 6, 7, 8]})
    with exchanges_only():
        got = _join_pairs(pairs, payload)
        empties = [_join_pairs(pa.Table.from_pandas(pairs).slice(0, 0),
                               payload),
                   _join_pairs(pairs.iloc[:0], payload),
                   _join_pairs(pairs, payload.slice(0, 0))]
    want = _merged_pairs(pairs, payload.to_pandas(), first=False)
    assert _sorted_rows(got) == want
    assert [(r["left_id"], r["right_id"]) for r in want] == \
        [("a", "b")] * 4 + [("a", "d"), ("b", "c"), ("b", "c"), ("c", "c")]
    for empty in empties:
        assert empty.num_rows == 0
        assert empty.schema.names == ["left_id", "right_id", "ham", "val_l",
                                      "vec_l", "val_r", "vec_r"]
        assert empty.schema.field("val_l").type == pa.int64()
        assert empty.schema.field("vec_r").type == pa.list_(pa.int32())


_JOIN_LEFT = pa.table({"k": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                       "v": pa.array(list("abcdef"))})
_JOIN_RIGHT = pa.table({"k": pa.array([2, 4, 6, 8], pa.int64()),
                        "w": pa.array([0.5, 1.5, 2.5, 3.5])})


@pytest.mark.parametrize("layout", ["left_first_empty", "right_first_empty",
                                    "left_all_empty"])
@pytest.mark.parametrize("op", ["attach_inner", "attach_left",
                                "filter_keep", "filter_anti"])
def test_partitioned_joins_hold_on_empty_blocks(layout, op):
    """The keyed side of ``join`` (inner, left outer, semi and anti)
    gives the pandas answer when a side's first block is empty or a side
    has no rows at all."""
    from courlan_ray.stages.joins import _collect, exchanges_only, join
    empty_l, empty_r = _JOIN_LEFT.slice(0, 0), _JOIN_RIGHT.slice(0, 0)
    left_blocks = {"left_first_empty": [empty_l, _JOIN_LEFT],
                   "right_first_empty": [_JOIN_LEFT],
                   "left_all_empty": [empty_l]}[layout]
    right_blocks = ([empty_r, _JOIN_RIGHT] if layout == "right_first_empty"
                    else [_JOIN_RIGHT])
    left = _rd().from_arrow(left_blocks)
    right = _rd().from_arrow(right_blocks)
    lp = pa.concat_tables(left_blocks).to_pandas()
    rp = _JOIN_RIGHT.to_pandas()

    with exchanges_only():
        if op.startswith("attach"):
            how = op.split("_")[1]
            got = join(left, right, "inner" if how == "inner" else
                       "left_outer", ["k"])
            want = lp.merge(rp, on="k", how=how)
        else:
            keep = op == "filter_keep"
            got = join(left, right, "left_semi" if keep else "left_anti",
                       ["k"])
            want = lp[lp["k"].isin(rp["k"]) == keep]
    got = _collect(got).to_pandas()
    assert len(got) == len(want)
    if want.empty:      # a Ray map over an empty block drops its schema
        return
    assert sorted(got.columns) == sorted(want.columns)
    cols = sorted(want.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values("k").reset_index(drop=True),
        want[cols].sort_values("k").reset_index(drop=True),
        check_dtype=False)


@pytest.mark.parametrize("kind", ["int64", "string"])
def test_keyed_map_keeps_each_key_in_one_block(kind):
    """``keyed_map`` hands its kernel every row of a key in one block: over
    many input blocks, with a hot key larger than
    ``target_max_block_size``, null keys, and more blocks than keys (some
    output blocks are empty)."""
    import ray
    from courlan_ray.stages.joins import keyed_map
    ctx = _rd().DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 64 << 10
    try:
        rng = np.random.default_rng(11)
        n = 40_000
        raw = np.where(rng.random(n) < 0.6, 7, rng.integers(0, 50, n))
        keys = pa.array(raw, pa.int64()) if kind == "int64" \
            else pa.array([f"key-{v}" for v in raw])
        keys = pc.if_else(pa.array(rng.random(n) < 0.01), None, keys)
        tbl = pa.table({"k": keys, "v": pa.array(np.arange(n))})
        ds = _rd().from_arrow([tbl.slice(i, 1000) for i in range(0, n, 1000)])

        def summary(b: pa.Table) -> pa.Table:
            return pa.table({"k": b["k"].unique()})

        out = keyed_map(ds, ["k"], summary).materialize()
        got = pa.concat_tables(
            t for t in ray.get(out.to_arrow_refs()) if t.num_rows)
        counts = pd.Series(got["k"].to_pylist()).value_counts(dropna=False)
        assert (counts == 1).all()          # no key in two blocks
        assert set(got["k"].to_pylist()) == set(keys.to_pylist())
        hot = 7 if kind == "int64" else "key-7"
        assert int(pc.sum(pc.equal(keys, hot)).as_py()) * 8 > 64 << 10

        # more input blocks than keys: empty blocks come out schema-less
        few = _rd().from_arrow([tbl.slice(i, 2).select(["v"]).append_column(
            "k", pa.array([i % 3] * 2, pa.int64())) for i in range(0, 40, 2)])
        out = keyed_map(few, ["k"], summary).materialize()
        assert sorted(out.to_pandas()["k"]) == [0, 1, 2]
    finally:
        ctx.target_max_block_size = old


_MERGE_LEFT = pd.DataFrame({
    "k": [1, 2, 2, 3, None, 5, 9, 9, 9, 9],
    "a": list("abcdefghij")})
_MERGE_RIGHT = pd.DataFrame({
    "k": [2, 2, 3, None, 9, 8],
    "w": [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]})


@pytest.mark.parametrize("how", ["inner", "left_outer"])
def test_sort_merge_join_matches_pandas_merge(how):
    """``join`` gives ``pandas.merge``'s rows on its broadcast and its
    keyed side: left columns then the right non-key columns, a repeated
    right key once per copy, a hot key, fixed-size and variable list
    payloads kept as typed, and a null key matching nothing."""
    import ray
    from courlan_ray.stages.joins import exchanges_only, join
    left = pa.table({"k": pa.array(_MERGE_LEFT["k"], pa.int64(),
                                   from_pandas=True),
                     "a": pa.array(_MERGE_LEFT["a"])})
    nr = len(_MERGE_RIGHT)
    fixed = pa.FixedSizeListArray.from_arrays(
        pa.array(np.arange(3 * nr), pa.int32()), 3)
    var = pa.array([[i] * (i % 3) for i in range(nr)], pa.list_(pa.int64()))
    right = pa.table({"key": pa.array(_MERGE_RIGHT["k"], pa.int64(),
                                      from_pandas=True),
                      "w": pa.array(_MERGE_RIGHT["w"]),
                      "fixed": fixed, "var": var})

    def joined():
        out = join(_rd().from_arrow([left.slice(0, 4), left.slice(4)]),
                   _rd().from_arrow([right.slice(0, 3), right.slice(3)]),
                   how, ["k"], ["key"]).materialize()
        return pa.concat_tables(
            t for t in ray.get(out.to_arrow_refs()) if t.num_rows)

    sides = [joined()]
    with exchanges_only():
        sides.append(joined())
    for got in sides:
        assert got.schema == pa.schema(
            [left.schema.field("k"), left.schema.field("a"),
             right.schema.field("w"), right.schema.field("fixed"),
             right.schema.field("var")])

    rp = right.to_pandas().rename(columns={"key": "k"})
    rp["fixed"] = rp["fixed"].map(list)
    rp["var"] = rp["var"].map(list)
    valid = rp[rp["k"].notna()]             # SQL: a null key matches nothing
    want = _MERGE_LEFT.merge(valid, on="k",
                             how="inner" if how == "inner" else "left")

    def rows(df):
        return sorted(((None if pd.isna(r.k) else int(r.k), r.a,
                        None if pd.isna(r.w) else float(r.w),
                        None if not isinstance(r.fixed, list) else
                        [int(x) for x in r.fixed],
                        None if not isinstance(r.var, list) else
                        [int(x) for x in r.var])
                       for r in df.itertuples()), key=repr)

    for got in sides:
        g = got.to_pandas()
        for c in ("fixed", "var"):
            g[c] = g[c].map(lambda v: list(v) if v is not None else None)
        assert rows(g) == rows(want)
    assert len(want) == (9 if how == "inner" else 12)


def test_local_stars_links_members_to_group_min():
    """Every member edge of ``_local_stars`` points at the minimum id of
    its (bucket, salt) group and every rep row carries that group's
    size, as a pandas groupby over ``banding_rows`` computes them."""
    from courlan_ray.stages.lsh import _local_stars, banding_rows
    rng = np.random.default_rng(3)
    cfg = DedupConfig(channels=("minhash", "phash"), num_salts=2)
    n = 40
    templates = rng.integers(0, 2**31, (3, cfg.num_perm), dtype=np.int32)
    mh = templates[rng.integers(0, 3, n)]
    mh[::5, :cfg.rows_per_band] += 1          # some rows leave one band
    block = pa.table({
        "image_id": [f"id{i:02d}" for i in rng.permutation(n)],
        "minhash": pa.FixedSizeListArray.from_arrays(
            pa.array(mh.ravel(), pa.int32()), cfg.num_perm),
        "phash": pa.array(rng.choice([7, 7 | (1 << 40), 99], n), pa.int64()),
        "decode_ok": pa.array(rng.random(n) < 0.8),
    })
    rows = banding_rows(block, cfg).to_pandas()
    groups = rows.groupby(["bucket", "salt"])["image_id"].agg(["min", "size"]) \
        .reset_index()
    st1 = _local_stars(block, cfg).to_pandas()

    reps = st1[st1["is_rep"]].merge(groups, on=["bucket", "salt"])
    assert len(reps) == len(groups) == st1["is_rep"].sum()
    assert (reps["image_id"] == reps["min"]).all()
    assert (reps["cnt"] == reps["size"]).all()

    edges = st1[~st1["is_rep"]].merge(groups, on=["bucket", "salt"])
    assert len(edges) == (~st1["is_rep"]).sum() > 0
    assert (edges["partner"] == edges["min"]).all()
    members = rows.merge(groups, on=["bucket", "salt"])
    members = members[members["image_id"] != members["min"]]
    key = ["bucket", "salt", "image_id"]
    assert sorted(map(tuple, edges[key].values)) == \
        sorted(map(tuple, members[key].values))


def test_link_all_clusters_survive_idh_collisions():
    """``idh`` only picks each bucket's level-2 hub: with every rep's
    ``idh`` overwritten by one constant, ``_link_all``'s edges give the
    same components as with the real hashes."""
    from courlan_ray.stages.components import driver_union_find
    from courlan_ray.stages.lsh import _link_all, _local_stars
    rng = np.random.default_rng(5)
    cfg = DedupConfig(channels=("minhash", "phash"), num_salts=4)
    n = 60
    templates = rng.integers(0, 2**31, (6, cfg.num_perm), dtype=np.int32)
    mh = templates[rng.integers(0, 6, n)]       # planted duplicate groups
    mh[::7, :cfg.rows_per_band] += 1
    ids = [f"id{i:02d}" for i in rng.permutation(n)]
    blocks = [pa.table({
        "image_id": ids[lo:lo + 20],
        "minhash": pa.FixedSizeListArray.from_arrays(
            pa.array(mh[lo:lo + 20].ravel(), pa.int32()), cfg.num_perm),
        "phash": pa.array(rng.choice([7, 7 | (1 << 40), 99], 20), pa.int64()),
        "decode_ok": pa.array(rng.random(20) < 0.8),
    }) for lo in range(0, n, 20)]
    st1 = pa.concat_tables(_local_stars(b, cfg) for b in blocks)
    is_rep = st1["is_rep"].to_numpy(zero_copy_only=False)
    reps = pd.Series(st1["bucket"].to_numpy()[is_rep]).value_counts()
    assert (reps > 1).any()             # some bucket has several hubs to pick

    def clusters(tbl):
        edges = _link_all(tbl, cfg.weak_bucket_cap).to_pandas()
        assert len(edges)
        return driver_union_find(edges).sort_values("image_id") \
            .reset_index(drop=True)

    idh = st1["idh"].to_numpy()
    same = st1.set_column(st1.schema.get_field_index("idh"), "idh",
                          pa.array(np.where(is_rep, 12345, idh), pa.int64()))
    pd.testing.assert_frame_equal(clusters(st1), clusters(same))


# Every ``.sort(...)`` with an argument in the package (``np.sort`` aside),
# by (file, enclosing function): a result is a row set, so a global sort
# stays only where its order is the answer or the mechanism.
CONTRACT_SORTS = {
    # the keyed exchange itself: a range sort on the placement hash
    ("stages/joins.py", "keyed_map"),
    # mirrors filter_urls' sorted output
    ("pipelines/queries.py", "doc_distinct_sorted"),
    # ORDER BY ... LIMIT heads: the order picks the rows
    ("pipelines/queries.py", "orders_top_customers"),
    ("pipelines/queries.py", "emb_knn"),
    ("pipelines/extras.py", "q3_shipping"),
    ("pipelines/url_pipeline.py", "url_frontier_schedule"),
    # restores input line order, the reference script's output order
    ("pipelines/helpers.py", "wordpress_sources"),
}


def test_dataset_sorts_are_contract_sorts():
    import ast
    import pathlib

    import courlan_ray

    root = pathlib.Path(courlan_ray.__file__).parent
    found = set()

    def walk(node, path, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, path, child.name)
                continue
            call = child.func if isinstance(child, ast.Call) else None
            if (isinstance(call, ast.Attribute) and call.attr == "sort"
                    and (child.args or child.keywords)
                    and not (isinstance(call.value, ast.Name)
                             and call.value.id == "np")):
                found.add((path, func))
            walk(child, path, func)

    for f in root.rglob("*.py"):
        walk(ast.parse(f.read_text()), f.relative_to(root).as_posix(), None)
    assert found == CONTRACT_SORTS


def test_sample_urls_bounds_and_repeats():
    """sample_urls with samplesize > 1 and both exclude bounds: a host's
    size counts distinct non-root paths (delta.de has 8 URLs, 4 paths),
    hosts outside [3, 6] drop whole, and the draw is the seeded one."""
    from courlan_ray.pipelines.url_pipeline import sample_urls
    urls = ([f"https://alpha.org/news/item-{i}" for i in range(5)]
            + ["https://alpha.org/news/item-3", "https://alpha.org/"]
            + [f"https://beta.net/b{i}" for i in range(2)]
            + [f"https://gamma.com/g/{i}" for i in range(8)]
            + [f"https://delta.de/d{i}" for i in range(4)]
            + [f"https://delta.de/d{i % 2}" for i in range(4)])
    assert sample_urls(urls, 2, exclude_min=3, exclude_max=6) == [
        "https://alpha.org/news/item-0", "https://alpha.org/news/item-2",
        "https://delta.de/d0", "https://delta.de/d1"]
    assert sample_urls(urls, 3) == [
        "https://alpha.org/news/item-0", "https://alpha.org/news/item-2",
        "https://alpha.org/news/item-3", "https://beta.net/b0",
        "https://beta.net/b1", "https://delta.de/d0", "https://delta.de/d1",
        "https://delta.de/d3", "https://gamma.com/g/4",
        "https://gamma.com/g/5", "https://gamma.com/g/6"]
