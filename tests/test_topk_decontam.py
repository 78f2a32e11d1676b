"""Distributed top-k (stages/topk.py) and benchmark decontamination
(stages/decontam.py).  Oracle parity for the three driver queries is
covered by the parametrized test in test_oracles.py; these pin the stage
semantics directly (multi-block exactness, ties, planted contamination,
empty edges)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from courlan_ray.stages.decontam import (benchmark_gram_hashes,
                                         contamination_counts)
from courlan_ray.stages.sketch import mg_topk
from courlan_ray.stages.topk import topk_per_group, topk_rows


def _ds(df: pd.DataFrame, blocks: int):
    return rd.from_pandas(df).repartition(blocks)


def test_topk_matches_pandas_across_blocks():
    rng = np.random.default_rng(7)
    df = pd.DataFrame({"a": rng.integers(0, 50, 500),
                       "b": rng.standard_normal(500),
                       "id": np.arange(500)})
    got = topk_rows(_ds(df, 13), [("a", "descending"), ("id", "ascending")],
                    25).to_pandas()
    want = df.sort_values(["a", "id"], ascending=[False, True]).head(25)
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True))


def test_topk_ascending_with_ties_is_deterministic():
    df = pd.DataFrame({"v": [3, 1, 1, 1, 2, 0, 0], "id": range(7)})
    got = topk_rows(_ds(df, 4), [("v", "ascending"), ("id", "ascending")],
                    4).to_pandas()
    assert got["id"].tolist() == [5, 6, 1, 2]


def test_topk_k_exceeds_rows_and_empty():
    df = pd.DataFrame({"v": [2, 1], "id": [0, 1]})
    got = topk_rows(_ds(df, 2), [("v", "ascending"), ("id", "ascending")],
                    10).to_pandas()
    assert got["v"].tolist() == [1, 2]
    empty = topk_rows(_ds(df.iloc[:0], 1), [("v", "ascending")], 3)
    assert empty.count() == 0


def _pergroup_truth(df, k=2):
    r = df.sort_values(["g", "v", "id"],
                       ascending=[True, False, True]).groupby("g").head(k)
    return r.sort_values(["g", "v", "id"],
                         ascending=[True, False, True]).reset_index(drop=True)


@pytest.mark.parametrize("mode", ["tree", "shuffle"])
def test_topk_per_group_matches_window_function(mode):
    import contextlib

    from courlan_ray.stages.joins import exchanges_only
    rng = np.random.default_rng(11)
    df = pd.DataFrame({"g": rng.integers(0, 40, 600),
                       "v": rng.integers(0, 30, 600),
                       "id": np.arange(600)})
    side = exchanges_only() if mode == "shuffle" else contextlib.nullcontext()
    with side:
        got = topk_per_group(_ds(df, 9), ["g"],
                             [("v", "descending"), ("id", "ascending")],
                             2).to_pandas()
    got = got.sort_values(["g", "v", "id"],
                          ascending=[True, False, True]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, _pergroup_truth(df))


def test_topk_per_group_multiblock_groups_split():
    """A group scattered across every block still yields its exact global
    top-k (the associativity the per-block partials rely on)."""
    df = pd.DataFrame({"g": [0] * 50 + [1] * 50,
                       "v": list(range(50)) + list(range(50)),
                       "id": range(100)}).sample(frac=1, random_state=3)
    got = topk_per_group(_ds(df, 10), ["g"],
                         [("v", "descending"), ("id", "ascending")],
                         3).to_pandas()
    top = got.groupby("g")["v"].apply(sorted)
    assert top[0] == [47, 48, 49] and top[1] == [47, 48, 49]


def test_mg_topk_bound_and_recovery():
    """Misra-Gries: est is a lower bound within n/capacity of truth, and
    with adequate capacity the exact top-k SET is recovered despite
    per-block compression across many blocks."""
    rng = np.random.default_rng(5)
    # zipf-ish: heavy keys h0..h9 dominate a 500-key light tail
    heavy = np.repeat([f"h{i}" for i in range(10)], 400)
    light = np.array([f"t{i}" for i in rng.integers(0, 500, 2000)])
    vals = np.concatenate([heavy, light])
    rng.shuffle(vals)
    df = pd.DataFrame({"k": vals})
    n = len(df)
    capacity = 64
    got = mg_topk(_ds(df, 12), "k", capacity=capacity, k=10).to_pandas()
    true = df["k"].value_counts()
    assert set(got["k"]) == {f"h{i}" for i in range(10)}
    for key, est in zip(got["k"], got["est"]):
        assert est <= true[key] <= est + n // capacity + 1


def test_ordered_prefix_sum_matches_window():
    """Distributed scan == SUM OVER (ORDER BY ... ROWS UNBOUNDED
    PRECEDING), inclusive and exclusive, across range-disjoint blocks."""
    from courlan_ray.stages.scan import ordered_prefix_sum
    rng = np.random.default_rng(17)
    df = pd.DataFrame({"id": np.arange(300),
                       "v": rng.integers(0, 9, 300)})
    ds = rd.from_pandas(df).repartition(7)   # contiguous id ranges
    inc = ordered_prefix_sum(ds, "id", "v").to_pandas().sort_values("id")
    assert (inc["running_sum"].to_numpy()
            == df["v"].cumsum().to_numpy()).all()
    exc = ordered_prefix_sum(ds, "id", "v",
                             inclusive=False).to_pandas().sort_values("id")
    assert (exc["running_sum"].to_numpy()
            == (df["v"].cumsum() - df["v"]).to_numpy()).all()


def test_ordered_prefix_sum_rejects_overlapping_blocks():
    from courlan_ray.stages.scan import ordered_prefix_sum
    df = pd.DataFrame({"id": [0, 2, 1, 3], "v": [1, 1, 1, 1]})
    # two blocks with interleaved id ranges: [0,2] and [1,3]
    ds = rd.from_pandas(df).repartition(2)
    with pytest.raises(ValueError, match="overlap"):
        ordered_prefix_sum(ds, "id", "v")


def test_grouped_quantiles_type1_parity():
    """Per-group exact quantiles match the type-1 (quantile_disc) order
    statistic computed directly, incl. the q=0 and q=1 edges, with groups
    scattered across blocks."""
    from courlan_ray.stages.quantiles import grouped_quantiles
    rng = np.random.default_rng(3)
    df = pd.DataFrame({"g": rng.integers(0, 9, 400),
                       "v": rng.standard_normal(400)})
    got = grouped_quantiles(_ds(df, 6), ["g"], "v",
                            [0.0, 0.5, 1.0]).to_pandas()
    got = got.set_index(["g", "q"])["value"]
    for g, sub in df.groupby("g"):
        s = np.sort(sub["v"].to_numpy())
        for q in (0.0, 0.5, 1.0):
            want = s[max(int(np.ceil(q * s.size)) - 1, 0)]
            assert got.loc[(g, q)] == want


def test_grouped_quantiles_null_semantics():
    """NULL values are ignored within a group (quantile_disc semantics)
    and an all-NULL group yields NULL — the review-caught divergence."""
    from courlan_ray.stages.quantiles import grouped_quantiles
    df = pd.DataFrame({"g": [0, 0, 0, 0, 0, 1, 1],
                       "v": [1.0, 2.0, 3.0, 4.0, None, None, None]})
    got = grouped_quantiles(_ds(df, 3), ["g"], "v",
                            [0.5, 1.0]).to_pandas()
    got = got.set_index(["g", "q"])["value"]
    assert got.loc[(0, 0.5)] == 2.0 and got.loc[(0, 1.0)] == 4.0
    assert pd.isna(got.loc[(1, 0.5)]) and pd.isna(got.loc[(1, 1.0)])


def test_grouped_concat_skips_nulls():
    """NULL col values are skipped (string_agg semantics); an all-null
    group is omitted."""
    from courlan_ray.stages.agg import grouped_concat
    df = pd.DataFrame({"g": [0, 0, 0, 1], "v": [2.0, None, 1.0, None]})
    got = grouped_concat(_ds(df, 2), ["g"], "v", out_col="vals",
                         count_col="n").to_pandas()
    assert got["g"].tolist() == [0]
    assert got["vals"].iloc[0] == "1.0,2.0" and got["n"].iloc[0] == 2


def test_grouped_concat_matches_string_agg():
    """grouped_concat == SQL string_agg(col, ',' ORDER BY col) with keys
    scattered across every block (the one-keyed-shuffle topology)."""
    from courlan_ray.stages.agg import grouped_concat
    rng = np.random.default_rng(13)
    df = pd.DataFrame({"g": rng.integers(0, 7, 200),
                       "v": rng.permutation(200)})
    got = grouped_concat(_ds(df, 8), ["g"], "v", out_col="vals",
                         count_col="n").to_pandas()
    got = got.sort_values("g").reset_index(drop=True)
    want = (df.sort_values(["g", "v"]).groupby("g")["v"]
              .agg(lambda v: ",".join(v.astype(str))).reset_index()
              .rename(columns={"v": "vals"}))
    want["n"] = df.groupby("g")["v"].size().reset_index(drop=True).astype("int64")
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_bloom_semi_filter_exact_and_probe_selective():
    """bloom_semi_filter == exact semi/anti join (the bloom tier has no
    false negatives and the exact tier kills its false positives), and
    the raw bloom probe alone is selective (bounded FP rate)."""
    from courlan_ray.stages.bloom import (_canon_keys, _key_hashes,
                                          _test_bits, bloom_semi_filter,
                                          build_bloom)
    rng = np.random.default_rng(21)
    keys = pd.DataFrame({"id": rng.choice(10_000, 500, replace=False)})
    probe = pd.DataFrame({"id": np.arange(2000), "x": np.arange(2000)})
    want = set(probe["id"]) & set(keys["id"])
    got = bloom_semi_filter(_ds(probe, 5), _ds(keys, 3), "id",
                            keep=True).to_pandas()
    assert set(got["id"]) == want
    anti = bloom_semi_filter(_ds(probe, 5), _ds(keys, 3), "id",
                             keep=False).to_pandas()
    assert set(anti["id"]) == set(probe["id"]) - want
    # raw probe: all members pass; FP rate on non-members stays small
    bits = build_bloom(_ds(keys, 3), "id", m_bits=1 << 14, k=7)
    non = pd.DataFrame({"id": np.arange(20_000, 30_000)})
    h1, h2 = _key_hashes(_canon_keys(pa.chunked_array([pa.array(
        non["id"].to_numpy())])))
    fp = _test_bits(bits, h1, h2, 7).mean()
    assert fp < 0.02         # 16384 bits / 500 keys, k=7 -> ~0.2% theory


def test_bloom_empty_key_set():
    from courlan_ray.stages.bloom import bloom_semi_filter
    probe = pd.DataFrame({"id": [1, 2, 3]})
    empty = pd.DataFrame({"id": pd.array([], dtype="int64")})
    kept = bloom_semi_filter(_ds(probe, 2), _ds(empty, 1), "id",
                             keep=False).to_pandas()
    assert kept["id"].tolist() == [1, 2, 3]


def test_hll_distinct_by_key_accuracy():
    """Grouped HLL estimates match exact per-key distincts within the
    p=12 error envelope (~1.6% relative), with keys split across blocks
    so the (key, max) register merge is exercised."""
    from courlan_ray.stages.sketch import hll_distinct_by_key
    rng = np.random.default_rng(9)
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], 3000),
        "u": [f"u{i}" for i in rng.integers(0, 400, 3000)]})
    got = hll_distinct_by_key(_ds(df, 8), "g", "u").to_pandas()
    truth = df.groupby("g")["u"].nunique()
    for g, est in zip(got["g"], got["approx_distinct"]):
        assert abs(est - truth[g]) / truth[g] < 0.08


def test_mg_topk_exact_when_under_capacity():
    """Below capacity nothing is ever subtracted: estimates are exact."""
    df = pd.DataFrame({"k": ["a"] * 5 + ["b"] * 3 + ["c"] * 2})
    got = mg_topk(_ds(df, 3), "k", capacity=16, k=3).to_pandas()
    assert dict(zip(got["k"], got["est"])) == {"a": 5, "b": 3, "c": 2}


_BENCH = ["the quick brown fox jumps over the lazy dog tonight",
          "pack my box with five dozen liquor jugs right now ok"]
_PROBE = pd.DataFrame({
    "doc_id": [1, 2, 3, 4],
    "text": [
        # embeds bench doc 0's full 10-token span -> all 3 of its 8-grams
        "intro the quick brown fox jumps over the lazy dog tonight outro",
        "completely unrelated text about distributed dataframes and rays",
        # shares exactly the first 8 tokens of bench doc 1 -> one 8-gram
        "pack my box with five dozen liquor jugs extra",
        # shares only a 7-token prefix -> below the n=8 threshold
        "pack my box with five dozen liquor vodka today maybe"]})


def test_decontamination_planted_hits():
    bench = rd.from_pandas(pd.DataFrame({"text": _BENCH}))
    grams = benchmark_gram_hashes(bench, "text", n=8, seed=41)
    # bench doc 0 has 10 tokens -> 3 grams; doc 1 has 11 -> 4 grams
    assert grams.size == 7
    out = contamination_counts(_ds(_PROBE, 2), grams, "doc_id", "text",
                               n=8, seed=41).to_pandas()
    hits = dict(zip(out["doc_id"], out["n_hits"]))
    assert hits[1] == 3      # all 3 grams of bench doc 0 appear verbatim
    assert hits[2] == 0      # clean doc
    assert hits[3] == 1      # one shared 8-gram (bench doc 1's prefix)
    assert hits[4] == 0      # 7-token overlap only — below n=8


def test_decontamination_empty_benchmark():
    bench = rd.from_pandas(pd.DataFrame({"text": []}, dtype=str))
    grams = benchmark_gram_hashes(bench, "text", n=8, seed=41)
    assert grams.size == 0
    out = contamination_counts(_ds(_PROBE, 1), grams, "doc_id", "text",
                               n=8, seed=41).to_pandas()
    assert (out["n_hits"] == 0).all()


def test_training_prep_decontaminates_and_splits():
    """The end-to-end composition excludes the benchmark slice, keeps no
    contaminated doc, and stamps a valid deterministic split."""
    from courlan_ray.pipelines.extras import _read, doc_training_prep
    from courlan_ray.stages.decontam import (benchmark_gram_hashes,
                                             contamination_counts)
    sf = "/root/testdata/sf0.001"
    out = doc_training_prep(sf).to_pandas()
    assert len(out) > 0
    assert (out["doc_id"] % 50 != 0).all()          # benchmark excluded
    assert set(out["split"]) <= {"train", "val", "test"}
    # every kept doc has zero benchmark-gram hits
    ds = _read(sf, "documents", ["doc_id", "text"])
    is_b = lambda b: b.filter(pa.array(
        (b["doc_id"].to_numpy(zero_copy_only=False) % 50) == 0))
    grams = benchmark_gram_hashes(ds, "text", n=8, seed=41, pre=is_b)
    hits = contamination_counts(ds, grams, "doc_id", "text",
                                n=8, seed=41).to_pandas()
    contaminated = set(hits.loc[hits["n_hits"] > 0, "doc_id"])
    assert not (set(out["doc_id"]) & contaminated)


def test_decontamination_pre_filter_fused():
    """The pre-filter hook splits benchmark/probe inside one kernel."""
    df = pd.DataFrame({"doc_id": [0, 1],
                       "text": [_BENCH[0], _PROBE["text"][0]]})
    is_b = lambda b: b.filter(pa.array(
        b["doc_id"].to_numpy(zero_copy_only=False) == 0))
    not_b = lambda b: b.filter(pa.array(
        b["doc_id"].to_numpy(zero_copy_only=False) != 0))
    ds = _ds(df, 2)
    grams = benchmark_gram_hashes(ds, "text", n=8, seed=41, pre=is_b)
    out = contamination_counts(ds, grams, "doc_id", "text", n=8, seed=41,
                               pre=not_b).to_pandas()
    assert out["doc_id"].tolist() == [1] and out["n_hits"].tolist() == [3]


def test_ordered_prefix_sum_float_values_exact():
    """Float val/order columns keep float64 sums and exact block keys — no
    silent int truncation (round-4 ADVICE)."""
    from courlan_ray.stages.scan import ordered_prefix_sum
    rng = np.random.default_rng(5)
    # fractional order values whose int-truncations COLLIDE across blocks
    order = np.sort(rng.random(200))            # all in [0, 1): int() == 0
    df = pd.DataFrame({"o": order, "v": rng.random(200) * 3 - 1})
    ds = rd.from_pandas(df).repartition(5)
    got = ordered_prefix_sum(ds, "o", "v").to_pandas().sort_values("o")
    np.testing.assert_allclose(got["running_sum"].to_numpy(),
                               df["v"].cumsum().to_numpy(), rtol=1e-12)
    exc = ordered_prefix_sum(ds, "o", "v",
                             inclusive=False).to_pandas().sort_values("o")
    np.testing.assert_allclose(exc["running_sum"].to_numpy(),
                               (df["v"].cumsum() - df["v"]).to_numpy(),
                               rtol=1e-12, atol=1e-12)


def test_bloom_rejects_float_and_null_keys():
    """bloom_semi_filter is documented EXACT — float keys (lossy decimal
    canonicalization) and null keys (SQL never matches NULL) raise instead
    of silently mismatching (round-4 ADVICE)."""
    from courlan_ray.stages.bloom import bloom_semi_filter
    probe_f = pd.DataFrame({"id": [1.2, 1.9, 3.0]})
    keys_f = pd.DataFrame({"id": [1.9]})
    with pytest.raises(TypeError, match="float"):
        bloom_semi_filter(_ds(probe_f, 1), _ds(keys_f, 1), "id",
                          keep=True).to_pandas()
    probe_n = pd.DataFrame({"id": pd.array([1, None, 3],
                                           dtype="Int64")})
    keys_i = pd.DataFrame({"id": [1]})
    # null keys raise inside the probe task -> surfaces wrapped by Ray
    with pytest.raises(Exception, match="null"):
        bloom_semi_filter(_ds(probe_n, 1), _ds(keys_i, 1), "id",
                          keep=True).to_pandas()
