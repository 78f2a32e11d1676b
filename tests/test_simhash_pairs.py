"""SimHash Hamming-ball pairs: pigeonhole completeness vs brute force."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from courlan_ray.functions.hashing import hamming_u64
from courlan_ray.stages.joins import exchanges_only
from courlan_ray.stages.simhash_pairs import simhash_hamming_pairs


def _corpus(seed=21, n=300, n_near=20):
    rng = np.random.default_rng(seed)
    sims = rng.integers(0, 2**63, n, dtype=np.int64)
    # plant near-dups: flip <=3 random bits of existing hashes
    for i in range(n_near):
        base = sims[i].astype(np.uint64)
        for b in rng.choice(64, size=rng.integers(0, 4), replace=False):
            base ^= np.uint64(1) << np.uint64(b)
        sims[n - n_near + i] = base.astype(np.int64)
    return sims


def _run(sims):
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(len(sims), dtype=np.int64)),
        "simhash": pa.array(sims, pa.int64())}))
    out = simhash_hamming_pairs(ds, max_ham=3).to_pandas()
    return {(int(l), int(r)): int(h) for l, r, h in
            zip(out["left_id"], out["right_id"], out["hamming"])}


def test_finds_exactly_the_hamming_ball():
    sims = _corpus()
    got = _run(sims)
    n = len(sims)
    want = {}
    for i in range(n):
        d = hamming_u64(np.full(n - i - 1, sims[i]), sims[i + 1:])
        for j in np.flatnonzero(d <= 3):
            want[(i, i + 1 + int(j))] = int(d[j])
    assert got == want and len(want) >= 15


def test_string_ids_scale_path():
    sims = _corpus(seed=5, n=100, n_near=8)
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([f"v{i:03d}" for i in range(len(sims))]),
        "simhash": pa.array(sims, pa.int64())}))
    with exchanges_only():
        out = simhash_hamming_pairs(ds, max_ham=3).to_pandas()
    assert len(out) >= 5 and out["left_id"].str.startswith("v").all()
