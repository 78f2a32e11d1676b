"""Similarity-search stages: planted-truth checks for the scale paths
(VERDICT round 1 #4: no driver-side candidate materialization)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from courlan_ray.config import DedupConfig


def _corpus(n=400, dim=32, n_dup=25, seed=11):
    """Random unit vectors + planted near-duplicates (cos >= ~0.99)."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, dim))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    dups = base[:n_dup] + 0.02 * rng.standard_normal((n_dup, dim))
    dups /= np.linalg.norm(dups, axis=1, keepdims=True)
    vecs = np.vstack([base, dups])
    ids = [f"v{i:04d}" for i in range(n)] + [f"d{i:04d}" for i in range(n_dup)]
    return ids, vecs


def _ds(ids, vecs):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float64()))}))


def test_knn_bruteforce_exact():
    from courlan_ray.stages.ann import knn_bruteforce
    ids, vecs = _corpus()
    ds = _ds(ids, vecs)
    q = vecs[:3]
    out = knn_bruteforce(ds, q, 5).to_pandas()
    # each query's own vector is its top hit with sim ~1
    top = out.sort_values(["query_idx", "cos_sim"], ascending=[True, False]) \
             .groupby("query_idx").head(1)
    assert list(top["vec_id"]) == ["v0000", "v0001", "v0002"]
    assert (top["cos_sim"] > 0.999).all()


def test_ann_lsh_recall_vs_exact():
    from courlan_ray.stages.ann import ann_lsh, knn_bruteforce
    ids, vecs = _corpus()
    ds = _ds(ids, vecs)
    q = vecs[:8]
    exact = knn_bruteforce(ds, q, 3).to_pandas()
    approx = ann_lsh(ds, q, 3, bits=8, n_probes=4).to_pandas()
    e = exact.groupby("query_idx")["vec_id"].apply(set)
    a = approx.groupby("query_idx")["vec_id"].apply(set)
    recall = np.mean([len(a.get(i, set()) & e[i]) / len(e[i])
                      for i in e.index])
    # multi-probe LSH over a small corpus: the true near-dup neighbors
    # dominate; recall of top-3 should be high
    assert recall >= 0.6
    # every returned sim must be exact (verification is exact cosine)
    merged = approx.merge(exact, on=["query_idx", "vec_id"],
                          suffixes=("_a", "_e"))
    assert np.allclose(merged["cos_sim_a"], merged["cos_sim_e"])


def test_embedding_neardup_finds_planted_pairs():
    from courlan_ray.stages.ann import embedding_neardup_pairs
    ids, vecs = _corpus()
    ds = _ds(ids, vecs)
    out = embedding_neardup_pairs(ds, DedupConfig(), threshold=0.95,
                                  bits=6).to_pandas()
    found = {tuple(sorted(p)) for p in out[["left_id", "right_id"]].values}
    want = {(f"d{i:04d}", f"v{i:04d}") for i in range(25)}
    # hyperplane bucketing at 6 bits: planted pair co-bucket probability
    # ~(1-theta/pi)^6 ~ 0.85; majority must be found, none invented
    assert len(found & want) >= 15
    # and every reported pair is a true >= threshold pair (exact verify)
    M = {i: v for i, v in zip(ids, vecs)}
    for l, r in found:
        assert float(np.dot(M[l], M[r])) >= 0.95 - 1e-9


@pytest.mark.parametrize("bits", [6, 1])
def test_embedding_neardup_same_on_both_sides(bits):
    """Driver side and keyed-shuffle side (``lsh_driver_link_max=0``) give
    the same pairs; bits=1 makes every bucket oversized (star edges)."""
    from courlan_ray.stages.ann import embedding_neardup_pairs
    ids, vecs = _corpus()

    def run(cfg):
        out = embedding_neardup_pairs(_ds(ids, vecs), cfg, threshold=0.95,
                                      bits=bits).to_pandas()
        return out.sort_values(["left_id", "right_id"]) \
                  .reset_index(drop=True)

    driver = run(DedupConfig())
    pd.testing.assert_frame_equal(driver, run(DedupConfig(
        lsh_driver_link_max=0)))
    assert len(driver) >= 1


def test_cosine_pairs_exact_matches_bruteforce():
    from courlan_ray.stages.ann import cosine_pairs_exact
    import itertools
    import pyarrow as pa
    import ray.data as rd
    rng = np.random.Generator(np.random.PCG64(7))
    vecs = rng.standard_normal((60, 16))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    vecs[10] = vecs[3] * 0.9 + rng.standard_normal(16) * 0.01  # planted
    ids = np.arange(60, dtype=np.int64)
    d = 16
    tbl = pa.table({"vec_id": pa.array(ids),
                    "embedding": pa.FixedSizeListArray.from_arrays(
                        pa.array(vecs.ravel(), pa.float32()), d)})
    out = cosine_pairs_exact(rd.from_arrow(tbl), 0.5).to_pandas()
    got = {(int(l), int(r)) for l, r in out[["left_id", "right_id"]].values}
    v64 = np.asarray(
        tbl["embedding"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False), dtype=np.float64).reshape(60, d)
    v64 /= np.linalg.norm(v64, axis=1, keepdims=True)
    want = {(i, j) for i, j in itertools.combinations(range(60), 2)
            if float(v64[i] @ v64[j]) >= 0.5}
    assert got == want and (3, 10) in got


def test_ann_ivf_recall_vs_bruteforce():
    from courlan_ray.stages.ann import ann_ivf, knn_bruteforce
    ids, vecs = _corpus()
    ds = _ds(ids, vecs)
    q = vecs[:6]
    exact = knn_bruteforce(ds, q, 3).to_pandas()
    approx = ann_ivf(ds, q, 3, n_centroids=16, n_probe=4,
                     train_max=1000, seed=5).to_pandas()
    e = exact.groupby("query_idx")["vec_id"].apply(set)
    a = approx.groupby("query_idx")["vec_id"].apply(set)
    recall = np.mean([len(a.get(i, set()) & e[i]) / len(e[i])
                      for i in e.index])
    # 4 of 16 probed cells: own-vector + planted near-dup should be found
    assert recall >= 0.6
    # reported sims are exact cosines
    merged = approx.merge(exact, on=["query_idx", "vec_id"],
                          suffixes=("_a", "_e"))
    assert np.allclose(merged["cos_sim_a"], merged["cos_sim_e"])


def test_ann_ivf_deterministic():
    from courlan_ray.stages.ann import ann_ivf
    ids, vecs = _corpus(n=100, n_dup=5)
    q = vecs[:2]
    a = ann_ivf(_ds(ids, vecs), q, 3, n_centroids=8, seed=5).to_pandas()
    b = ann_ivf(_ds(ids, vecs), q, 3, n_centroids=8, seed=5).to_pandas()
    pd.testing.assert_frame_equal(a, b)


def test_ann_empty_corpus_and_zero_queries(ray_session):
    """0-row corpus / 0 queries return typed empty tables instead of the
    1-D pair_arr IndexError (ADVICE round 2, stages/ann.py)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from courlan_ray.stages.ann import ann_ivf, ann_lsh, knn_bruteforce

    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float64()))}))
    q = np.random.default_rng(0).standard_normal((3, 8))

    for fn in (ann_ivf, ann_lsh, knn_bruteforce):
        out = fn(empty, q, 5)
        assert out.num_rows == 0
        assert out.column_names == ["query_idx", "vec_id", "cos_sim"]

    # 0 queries over a non-empty corpus
    vecs = np.random.default_rng(1).standard_normal((20, 8))
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(20), pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float64()))}))
    zq = np.zeros((0, 8))
    for fn in (ann_ivf, ann_lsh, knn_bruteforce):
        out = fn(ds, zq, 5)
        assert out.num_rows == 0
        assert out.column_names == ["query_idx", "vec_id", "cos_sim"]


def test_embedding_neardup_planted_recall(ray_session):
    """Multi-table LSH near-dup: planted near-dups (cos >= ~0.97) are
    recovered with recall >= 0.95 and every emitted pair verifies
    (single-table LSH measured ~50% recall at cos 0.95 — the reason for
    n_tables; the pair-dedup across tables is also exercised here)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from courlan_ray.config import DedupConfig
    from courlan_ray.stages.ann import embedding_neardup_pairs

    rng = np.random.default_rng(5)
    n_base, dim = 600, 32
    base = rng.standard_normal((n_base, dim))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    # every 3rd vector gets a planted near-duplicate (small tangent noise)
    dup_src = np.arange(0, n_base, 3)
    noise = rng.standard_normal((dup_src.size, dim)) * 0.04
    dups = base[dup_src] + noise
    dups /= np.linalg.norm(dups, axis=1, keepdims=True)
    vecs = np.vstack([base, dups])
    ids = np.arange(len(vecs))
    cos = np.einsum("ij,ij->i", base[dup_src], dups)
    truth = {(int(s), int(n_base + k)) for k, s in enumerate(dup_src)
             if cos[k] >= 0.95}
    assert len(truth) > 150          # the plant is non-vacuous

    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float64()))}))
    out = embedding_neardup_pairs(ds, DedupConfig(), threshold=0.95,
                                  bits=10, n_tables=8).to_pandas()
    got = {tuple(sorted((int(a), int(b))))
           for a, b in zip(out.left_id, out.right_id)}
    # no duplicate pair rows survive the cross-table dedup
    assert len(got) == len(out)
    assert (out.cos_sim >= 0.95).all()
    recall = len(got & truth) / len(truth)
    assert recall >= 0.98, f"recall {recall:.3f}"
