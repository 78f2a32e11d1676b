"""Pipeline configuration.

One frozen dataclass threads through every stage (the generalization of the
reference's ``strict`` / ``language`` / ``with_nav`` / ``trailing_slash`` flag
threading, ``/root/reference/courlan/core.py:39-46`` and
``urlstore.py:128-141``).  All signature parameters (shingle width, num_perm,
bands/rows, Hamming radius) are part of the config fingerprint so checkpoint
resume invalidates downstream state when they change (SURVEY.md §7.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DedupConfig:
    # --- canonicalization gates (courlan check_url generalization) ---
    strict: bool = False
    language: str | None = None            # None = no language gate
    min_caption_len: int = 10              # cf. basic_filter 10 <= len < 500
    max_caption_len: int = 500
    allowed_formats: tuple[str, ...] = ("jpeg", "png")
    min_dim: int = 8                       # reject degenerate images
    max_dim: int = 1 << 16

    # --- MinHash over caption character shingles ---
    shingle_width: int = 5
    num_perm: int = 126
    bands: int = 21                        # rows per band = num_perm // bands
    # (21 bands x 6 rows): P(candidate) = 1-(1-s^6)^21 = 0.9995 at s=0.82,
    # 0.63 at s=0.6, 0.28 at s=0.5 — vs the old 32x4 whose wide S-curve
    # admitted 87% of s=0.5 pairs, making verify 98% false positives on
    # templated captions
    jaccard_threshold: float = 0.80        # est. Jaccard to verify a caption pair

    # --- SimHash / phash Hamming-ball over pixels ---
    phash_bands: int = 4                   # 64-bit phash split into 4x16-bit bands
    hamming_threshold: int = 3             # pigeonhole: 4 bands find all dist<=3
    simhash_hamming_threshold: int = 3

    # --- candidate channels (text pipelines drop the pixel channel) ---
    channels: tuple[str, ...] = ("minhash", "phash", "fingerprint")

    # --- suffix/winnowing substring fingerprints (near-verbatim captions) ---
    fingerprint_k: int = 16                # k-gram size for winnowing
    fingerprint_window: int = 8            # winnow window: shared substrings of
                                           # >= k+w-1 (=23) chars share a print —
                                           # long enough to skip common short
                                           # phrases, short enough for quotes
    substring_min_ratio: float = 0.60      # LCS/len ratio to verify substring pair

    # --- skew / shuffle control ---
    num_salts: int = 8                     # sub-buckets per hot band bucket
    weak_bucket_cap: int = 16              # max members of a weak-channel
                                           # (phash band / fingerprint) bucket;
                                           # larger buckets are collision noise
                                           # (e.g. a common phrase), not dups —
                                           # strong MinHash bands are never capped

    # --- connected components ---
    driver_cc_max_pairs: int = 2_000_000   # below: driver union-find; above: star contraction

    # --- row caps of one-place sides, on top of joins.one_place's
    # byte budget (0 forces the keyed-exchange side) ---
    lsh_driver_link_max: int = 1_000_000   # LSH level-2 rep rows: below ->
                                           # driver-local vectorized link;
                                           # above -> keyed exchange
                                           # (driver lexsort+take of multi-M
                                           # rows is a 10-25 s serial floor)
    verify_broadcast_max: int = 2_000_000  # signature rows: within this AND
                                           # joins.SMALL_BYTES ->
                                           # broadcast exact-id probe; above
                                           # -> two keyed passes, by id then
                                           # by pair, that read the signature
                                           # table once (both:
                                           # joins.hash_join_pairs);
                                           # caps exact_dup_edges' driver pass too

    # --- seed of every hash family (shingles, bands, salts) ---
    seed: int = 8675309

    # --- execution sizing ---
    batch_size: int = 4096
    signature_batch_size: int = 1024       # smaller batches -> more decode tasks

    @property
    def rows_per_band(self) -> int:
        return self.num_perm // self.bands

    # NOTE: checkpoint invalidation hashes PER-STAGE field subsets — the
    # single source of truth is state/manifest.py STAGE_FIELDS (a whole-
    # config fingerprint would needlessly invalidate every stage on any
    # change; a previous whole-config fingerprint() here was dead code)


DEFAULT_CONFIG = DedupConfig()
