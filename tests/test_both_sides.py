"""Every dual-path stage gives the same answer on both sides of the one
size rule (``joins.fits_one_task``): its one-place side (driver collect,
such as a keyed reduction's partials, or broadcast probe) by default, and
its keyed-exchange side under ``joins.exchanges_only()``.  A spy on
``joins.keyed_map`` checks that each run took the side it should."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from courlan_ray.config import DedupConfig
from courlan_ray.stages import joins


def _events():
    rng = np.random.default_rng(21)
    n = 3000
    return pd.DataFrame({
        "k": rng.integers(0, 25, n).astype(np.int64),
        "t": rng.integers(0, 100_000, n).astype(np.int64),
        "eid": np.arange(n, dtype=np.int64),
        "v": np.round(rng.random(n) * 100, 2)})


def _ev_ds():
    return rd.from_arrow(pa.Table.from_pandas(_events(), preserve_index=False))


def _window():
    from courlan_ray.stages.window import rolling_window_agg
    return rolling_window_agg(_ev_ds(), on="t", by="k", value_col="v",
                              width_ns=5_000, keep_cols=["eid"]), ["eid"]


def _sessionize():
    from courlan_ray.stages.window import sessionize
    return sessionize(_ev_ds(), on="t", by="k", gap_ns=2_000,
                      keep_cols=["eid"]), ["eid"]


def _asof():
    from courlan_ray.stages.asof import asof_join
    right = _events().rename(columns={"v": "rv"}).drop_duplicates(["k", "t"])
    rds = rd.from_arrow(pa.Table.from_pandas(right[["k", "t", "rv"]],
                                             preserve_index=False))
    return asof_join(_ev_ds(), rds, on="t", by="k", left_cols=["eid"],
                     right_cols=["rv"], strict=True, right_suffix=""), ["eid"]


_TEXTS = [
    "the quick brown fox jumps over the lazy dog today",
    "the quick brown fox jumps over the lazy dog tonight",
    "a completely different document about ray data engines",
    "the quick brown fox jumps over the lazy dog today",
    "ray data engines process arrow batches with actor pools",
    "short",
    "",
]
_PAIR = ["left_id", "right_id"]


def _docs():
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(_TEXTS)), pa.int64()),
        "text": pa.array(_TEXTS)}))


def _ngram():
    from courlan_ray.stages.ngram_jaccard import ngram_jaccard_pairs
    return ngram_jaccard_pairs(_docs(), n=3, threshold=0.5), _PAIR


def _substring_pairs():
    from courlan_ray.stages.substring import substring_pairs
    return substring_pairs(_docs(), width=16, seed=5), _PAIR


def _substring_lcs():
    from courlan_ray.stages.substring import substring_lcs
    return substring_lcs(_docs(), width=16, seed=5), _PAIR


def _simhash():
    from courlan_ray.stages.simhash_pairs import simhash_hamming_pairs
    rng = np.random.default_rng(5)
    n, n_near = 120, 10
    sims = rng.integers(0, 2**63, n, dtype=np.int64)
    for i in range(n_near):         # near-dups: flip <= 3 bits
        base = sims[i].astype(np.uint64)
        for b in rng.choice(64, size=rng.integers(0, 4), replace=False):
            base ^= np.uint64(1) << np.uint64(b)
        sims[n - n_near + i] = base.astype(np.int64)
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "simhash": pa.array(sims, pa.int64())}))
    return simhash_hamming_pairs(ds, max_ham=3), _PAIR


def _sigs():
    from courlan_ray.sources.synth import generate_rows
    from courlan_ray.stages.signatures import compute_signatures
    return compute_signatures(rd.from_arrow(generate_rows(np.arange(200), 5)),
                              DedupConfig(), with_gates=True) \
        .filter(expr="valid == True").materialize()


def _lsh():
    from courlan_ray.stages.lsh import candidate_pairs
    return candidate_pairs(_sigs(), DedupConfig()), _PAIR


def _ann():
    from courlan_ray.stages.ann import embedding_neardup_pairs
    rng = np.random.default_rng(11)
    base = rng.standard_normal((150, 16))
    dups = base[:12] + 0.02 * rng.standard_normal((12, 16))
    vecs = np.vstack([base, dups])
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array([f"v{i:04d}" for i in range(len(vecs))]),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float64()))}))
    return embedding_neardup_pairs(ds, DedupConfig(), threshold=0.95,
                                   bits=6), _PAIR


_LEFT = pa.table({"k": pa.array([1, 2, 3, 4, 5, 6, 2], pa.int64()),
                  "v": pa.array(list("abcdefg"))})
_RIGHT = pa.table({"k": pa.array([2, 4, 6, 8], pa.int64()),
                   "w": pa.array([0.5, 1.5, 2.5, 3.5])})


def _filter_by_keys():
    return joins.filter_by_keys(rd.from_arrow(_LEFT), rd.from_arrow(_RIGHT),
                                "k", keep=False), ["v"]


def _attach_by_key():
    return joins.attach_by_key(rd.from_arrow(_LEFT), rd.from_arrow(_RIGHT),
                               ["k"], how="left"), ["v"]


def _hash_join_pairs():
    payload = pa.table({
        "image_id": ["a", "b", "c", "d"],
        "val": pa.array([1, 2, 3, 4], pa.int64()),
        "vec": pa.array([[1, 1], [2, 2], [3], [4, 4, 4]],
                        pa.list_(pa.int32()))})
    pairs = pa.table({"left_id": ["a", "b", "a", "c"],
                      "right_id": ["b", "c", "zz", "d"]})
    return joins.hash_join_pairs(rd.from_arrow(pairs), rd.from_arrow(payload),
                                 id_col="image_id",
                                 payload_cols=["val", "vec"]), _PAIR


def _groups():
    rng = np.random.default_rng(11)
    df = pd.DataFrame({"g": rng.integers(0, 17, 400),
                       "v": rng.integers(0, 50, 400),
                       "id": np.arange(400, dtype=np.int64)})
    return rd.from_pandas(df).repartition(7)


def _grouped_agg():
    from courlan_ray.stages.agg import grouped_agg
    return grouped_agg(_groups(), ["g"], [("v", "min", "v_min"),
                                          ("id", "count", "n")]), ["g"]


def _topk_per_group():
    from courlan_ray.stages.topk import topk_per_group
    return topk_per_group(_groups(), ["g"],
                          [("v", "ascending"), ("id", "ascending")], 3,
                          rank_col="rk"), ["id"]


def _exact_dup_edges():
    from courlan_ray.stages.exact_dedup import exact_dup_edges
    # groups {a, e, f} and {b, d}; h shares a's caption with another
    # phash, i shares a's phash with another caption
    keys = pa.table({
        "caption_key": ["x", "y", "x", "z", "y", "x", "w", "x", "v"],
        "phash": pa.array([5, 9, 5, 7, 9, 5, 1, 6, 5], pa.int64()),
        "image_id": ["e", "b", "a", "c", "d", "f", "g", "h", "i"]})
    return exact_dup_edges(rd.from_arrow(keys), DedupConfig()), _PAIR


def _cluster_assignments():
    from courlan_ray.stages.components import cluster_assignments
    edges = pa.table({"left_id": ["c0", "c1", "c2", "c3", "s0", "s1", "s2"],
                      "right_id": ["c1", "c2", "c3", "c4", "s1", "s2", "s3"]})
    ids = pa.table({"image_id": [f"c{i}" for i in range(5)]
                    + [f"s{i}" for i in range(4)] + ["lone1", "lone2"]})
    return cluster_assignments(rd.from_arrow(edges), rd.from_arrow(ids),
                               DedupConfig()), ["image_id"]


CASES = {
    "window": _window, "sessionize": _sessionize, "asof": _asof,
    "ngram": _ngram, "substring_pairs": _substring_pairs,
    "substring_lcs": _substring_lcs, "simhash": _simhash, "lsh": _lsh,
    "ann": _ann, "filter_by_keys": _filter_by_keys,
    "attach_by_key": _attach_by_key, "hash_join_pairs": _hash_join_pairs,
    "grouped_agg": _grouped_agg, "topk_per_group": _topk_per_group,
    "exact_dup_edges": _exact_dup_edges,
    "cluster_assignments": _cluster_assignments,
}


@pytest.mark.parametrize("case", list(CASES))
def test_stage_same_on_both_sides(case, monkeypatch):
    calls = []
    keyed_map = joins.keyed_map

    def spy(*args, **kwargs):
        calls.append(args[1])
        return keyed_map(*args, **kwargs)

    monkeypatch.setattr(joins, "keyed_map", spy)

    def run():
        ds, keys = CASES[case]()
        df = ds.to_pandas()
        for c in df.columns:        # list cells compare as tuples
            if df[c].map(lambda x: isinstance(x, np.ndarray)).any():
                df[c] = df[c].map(tuple)
        return df.sort_values(keys).reset_index(drop=True)

    one_place = run()
    assert calls == []
    with joins.exchanges_only():
        keyed = run()
    assert calls
    assert len(one_place)
    pd.testing.assert_frame_equal(one_place, keyed)
