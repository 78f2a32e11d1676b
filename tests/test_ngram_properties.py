"""Property-based check of the PPJoin prefix filter's losslessness.

The exact-tier guarantee rests on: any pair with Jaccard >= t shares a
gram within both docs' hash-ordered prefixes of length
n - ceil(t*n) + 1.  Hypothesis drives random corpora from a tiny
vocabulary (forcing heavy overlap) through the pure kernels (no Ray) and
compares against brute force over the same hashed gram sets."""

import numpy as np
from hypothesis import given, settings, strategies as st

from courlan_ray.stages.lsh import _pairs_from_postings
from courlan_ray.stages.ngram_jaccard import _gram_sets, _prefix_len
from courlan_ray.functions.hashing import _ranges_within

WORDS = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]


def _brute(arrs, threshold):
    out = set()
    for i in range(len(arrs)):
        for j in range(i + 1, len(arrs)):
            a, b = set(arrs[i].tolist()), set(arrs[j].tolist())
            union = len(a | b)
            if union and len(a & b) / union >= threshold:
                out.add((i, j))
    return out


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(
        st.lists(st.sampled_from(WORDS), min_size=0, max_size=12)
          .map(" ".join),
        min_size=2, max_size=10),
    threshold=st.sampled_from([0.2, 0.4, 0.5, 0.75, 0.9]),
)
def test_prefix_filter_is_lossless(texts, threshold):
    flat, counts = _gram_sets(texts, 2, seed=7)
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    arrs = [flat[off[i]:off[i + 1]] for i in range(len(counts))]

    plen = _prefix_len(counts, threshold)
    doc_idx = np.repeat(np.arange(len(counts)), plen)
    gi = np.repeat(off[:-1], plen) + _ranges_within(plen)
    li, ri = _pairs_from_postings(flat[gi], doc_idx, counts[doc_idx],
                                  threshold)
    candidates = set(zip(li.tolist(), ri.tolist()))

    want = _brute(arrs, threshold)
    # every true pair must be generated (losslessness); extras are fine —
    # exact verification prunes them downstream
    assert want <= candidates
