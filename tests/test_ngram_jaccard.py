"""Exact n-gram Jaccard near-dup: brute-force equivalence + scale path."""

import itertools
import re

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from courlan_ray.stages.joins import exchanges_only
from courlan_ray.stages.ngram_jaccard import ngram_jaccard_pairs

_TOKEN_RE = re.compile(r"[^\W\d_]+(?:'[^\W\d_]+)?")


def _grams(text, n=3):
    toks = _TOKEN_RE.findall(text.lower())
    return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}


def _brute(texts, threshold, n=3):
    sets = [_grams(t, n) for t in texts]
    out = []
    for i, j in itertools.combinations(range(len(texts)), 2):
        a, b = sets[i], sets[j]
        union = len(a | b)
        jac = len(a & b) / union if union else 0.0
        if jac >= threshold:
            out.append((i, j, np.floor(jac * 10000 + 0.5) / 10000))
    return sorted(out)


TEXTS = [
    "the quick brown fox jumps over the lazy dog today",
    "the quick brown fox jumps over the lazy dog tonight",   # near-dup of 0
    "a completely different document about ray data engines",
    "the quick brown fox jumps over the lazy dog today",     # exact dup of 0
    "ray data engines process arrow batches with actor pools",
    "short",                                                  # no 3-grams
    "",
]


def _run(threshold):
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(TEXTS)), pa.int64()),
        "text": pa.array(TEXTS)}))
    out = ngram_jaccard_pairs(ds, n=3, threshold=threshold).to_pandas()
    return sorted(zip(out["left_id"], out["right_id"], out["jaccard"]))


@pytest.mark.parametrize("threshold", [0.3, 0.5, 0.9])
def test_matches_bruteforce_driver_path(threshold):
    assert _run(threshold) == _brute(TEXTS, threshold)


def test_exact_dup_scores_one():
    pairs = {(l, r): j for l, r, j in _run(0.99)}
    assert pairs[(0, 3)] == 1.0


@pytest.mark.slow
def test_scale_path_parity_on_real_corpus():
    """Driver side vs keyed-exchange side on the sf0.01 documents table
    (500 docs, 25 planted near-dup pairs)."""
    import ray.data as rd

    def run():
        ds = rd.read_parquet("/root/testdata/sf0.01/documents.parquet",
                             columns=["doc_id", "text"])
        out = ngram_jaccard_pairs(ds, n=3, threshold=0.5).to_pandas()
        return sorted(zip(out["left_id"], out["right_id"], out["jaccard"]))

    a = run()
    with exchanges_only():
        b = run()
    assert a == b and len(a) == 25


def test_string_ids_scale_path():
    """Scale path must handle non-numeric ids (the flagship uses string
    image_ids); pair keys hash string values instead of casting."""
    import ray.data as rd
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(len(TEXTS))]),
        "text": pa.array(TEXTS)}))
    with exchanges_only():
        out = ngram_jaccard_pairs(ds, n=3, threshold=0.5).to_pandas()
    got = {(l, r) for l, r in zip(out["left_id"], out["right_id"])}
    assert ("d0", "d3") in got and ("d0", "d1") in got


def test_identical_docs_emit_complete_pair_set():
    """m identical docs -> exactly m(m-1)/2 pairs at jaccard 1.0 (the
    documented duplicate-heavy contract; no OOM, no silent truncation)."""
    import ray.data as rd
    m = 300
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(m), pa.int64()),
        "text": pa.array(["one two three four five six seven"] * m)}))
    out = ngram_jaccard_pairs(ds, n=3, threshold=0.9).to_pandas()
    assert len(out) == m * (m - 1) // 2
    assert (out["jaccard"] == 1.0).all()
