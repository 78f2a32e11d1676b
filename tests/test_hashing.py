import numpy as np
import pytest

from courlan_ray.functions import hashing as H


def test_shingle_counts_and_determinism():
    texts = ["hello world", "hi", ""]
    h1, c1 = H.char_shingle_hashes(texts, 5, seed=3)
    h2, c2 = H.char_shingle_hashes(texts, 5, seed=3)
    assert np.array_equal(h1, h2) and np.array_equal(c1, c2)
    # len 11 -> 7 shingles; short/empty docs get exactly one
    assert list(c1) == [7, 1, 1]
    h3, _ = H.char_shingle_hashes(texts, 5, seed=4)
    assert not np.array_equal(h1, h3)


def test_shingles_isolated_between_docs():
    # same text split across docs must produce same per-doc shingles as alone
    ha, ca = H.char_shingle_hashes(["abcdefgh"], 4, seed=1)
    hb, cb = H.char_shingle_hashes(["zzzz", "abcdefgh", "qqqq"], 4, seed=1)
    assert np.array_equal(ha, hb[cb[0]:cb[0] + cb[1]])


def test_minhash_estimates_jaccard():
    a = "the quick brown fox jumps over the lazy dog " * 3
    b = a + "extra tail"
    h, c = H.char_shingle_hashes([a, b], 5, seed=2)
    sig = H.minhash_signatures(h, c, 256, seed=9)
    est = H.est_jaccard(sig[0:1], sig[1:2])[0]
    # true jaccard of shingle sets
    sa = {a[i:i + 5] for i in range(len(a) - 4)}
    sb = {b[i:i + 5] for i in range(len(b) - 4)}
    true_j = len(sa & sb) / len(sa | sb)
    assert abs(est - true_j) < 0.12


def test_simhash_similar_texts_close():
    a = "a photo of the golden bridge at sunset over the bay"
    b = a + " today"
    c = "completely different words about winter trains and snow"
    h, cnt = H.char_shingle_hashes([a, b, c], 5, seed=1)
    s = H.simhash64(h, cnt)
    assert H.hamming_u64(s[0:1], s[1:2])[0] < H.hamming_u64(s[0:1], s[2:3])[0]


def test_hamming():
    a = np.array([0b1011], dtype=np.uint64)
    b = np.array([0b0010], dtype=np.uint64)
    assert H.hamming_u64(a, b)[0] == 2
    assert H.hamming_u64(a, a)[0] == 0


def test_hamming_matches_python_popcount_on_int64():
    rng = np.random.default_rng(3)
    edge = np.array([0, -1, np.iinfo(np.int64).min, np.iinfo(np.int64).max],
                    dtype=np.int64)
    a = np.concatenate([rng.integers(np.iinfo(np.int64).min,
                                     np.iinfo(np.int64).max, 500,
                                     dtype=np.int64), edge, edge])
    b = np.concatenate([rng.integers(np.iinfo(np.int64).min,
                                     np.iinfo(np.int64).max, 500,
                                     dtype=np.int64), edge, edge[::-1]])
    want = [bin((int(x) ^ int(y)) & (2**64 - 1)).count("1")
            for x, y in zip(a, b)]
    assert H.hamming_u64(a, b).tolist() == want
    # uint64 input compares the same bits
    assert H.hamming_u64(a.view(np.uint64), b.view(np.uint64)).tolist() == want


def test_band_keys_equal_for_equal_sigs():
    sig = np.random.default_rng(0).integers(0, 2**63, (2, 128)).astype(np.uint64)
    sig[1] = sig[0]
    bk = H.band_keys(sig, 32, seed=5)
    assert np.array_equal(bk[0], bk[1])
    # band-index fold: a CONSTANT signature row must still get 32 distinct
    # band keys (identical band contents may not collide across positions)
    const = np.full((1, 128), 7, dtype=np.uint64)
    bkc = H.band_keys(const, 32, seed=5)
    assert len(np.unique(bkc[0])) == 32


def test_winnowing_substring_guarantee():
    k, w = 8, 4
    base = "x" * 0 + "the breaking news shared substring segment here"
    a = "prefix one " + base
    b = "totally other start " + base + " suffix"
    fp, cnt = H.winnowing_fingerprints([a, b], k, w, seed=7)
    sa = set(fp[:cnt[0]])
    sb = set(fp[cnt[0]:cnt[0] + cnt[1]])
    # shared substring of length >= k + w - 1 must share a fingerprint
    assert sa & sb


def test_hash_strings_deterministic():
    a = H.hash_strings(["x", "y"], seed=1)
    b = H.hash_strings(["x", "y"], seed=1)
    c = H.hash_strings(["x", "y"], seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sort_segments_sorts_each_row_independently():
    import numpy as np
    from courlan_ray.functions.hashing import sort_segments
    flat = np.array([5, 3, 9, 7, 1], dtype=np.uint64)
    counts = np.array([3, 0, 2])
    out = sort_segments(flat, counts)
    assert out.tolist() == [3, 5, 9, 1, 7]
    assert sort_segments(np.array([], dtype=np.uint64),
                         np.array([0, 0])).size == 0


def test_adjacent_pair_hashes_counts_and_determinism():
    import numpy as np
    from courlan_ray.functions.hashing import adjacent_pair_hashes
    flat = np.array([10, 20, 30, 40, 50], dtype=np.uint64)
    counts = np.array([3, 1, 1])       # segments [10,20,30], [40], [50]
    keys, cnt2 = adjacent_pair_hashes(flat, counts)
    assert cnt2.tolist() == [2, 0, 0]
    assert keys.size == 2
    # pair hashing is position-sensitive and deterministic
    keys2, _ = adjacent_pair_hashes(flat, counts)
    assert (keys == keys2).all()
    rev, _ = adjacent_pair_hashes(np.array([30, 20, 10], dtype=np.uint64),
                                  np.array([3]))
    assert set(rev.tolist()).isdisjoint(set(keys.tolist()))
    # a shared run of consecutive prints yields shared pair keys
    a = np.array([1, 2, 3, 4], dtype=np.uint64)
    b = np.array([9, 2, 3, 4], dtype=np.uint64)
    ka, _ = adjacent_pair_hashes(a, np.array([4]))
    kb, _ = adjacent_pair_hashes(b, np.array([4]))
    assert len(set(ka.tolist()) & set(kb.tolist())) == 2   # (2,3) and (3,4)
