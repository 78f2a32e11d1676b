"""Vectorized 64-bit hashing / MinHash / SimHash / winnowing kernels.

All functions are pure numpy over flat buffers so they run inside
``map_batches`` with no per-row Python.  Determinism: every hash derives from
splitmix64 mixing with explicit seeds — identical across processes, runs and
parallelism levels (required for checkpoint resume and the two-parallelism
scaling protocol, SURVEY.md §4).

MinHash uses one shared hash stream re-salted per permutation
(h_k(x) = mix(x ^ salt_k)), the standard cheap substitute for (a*x+b) mod p.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_MASK = _U64(0xFFFFFFFFFFFFFFFF)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 arrays."""
    x = x.astype(_U64, copy=True)
    with np.errstate(over="ignore"):
        x += _U64(0x9E3779B97F4A7C15)
        z = x
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        z = z ^ (z >> _U64(31))
    return z


def hash_u64_pair(a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
    """Mix two uint64 streams into one (order-sensitive)."""
    a = np.asarray(a, dtype=_U64)
    b = np.asarray(b, dtype=_U64)
    with np.errstate(over="ignore"):
        return splitmix64(a ^ (splitmix64(b) + _U64(0x9E3779B97F4A7C15)))


def hash_strings(values, seed: int = 0) -> np.ndarray:
    """Vectorized 64-bit hash of a string/bytes sequence via pandas'
    C hashing, re-mixed with the seed.  Deterministic for a fixed pandas
    version (all comparisons happen inside this repo's own runs)."""
    import pandas as pd

    arr = np.asarray(values, dtype=object)
    h = pd.util.hash_array(arr, categorize=False)
    return splitmix64(h ^ _U64(seed & 0xFFFFFFFFFFFFFFFF))


def adjacent_pair_hashes(flat: np.ndarray, counts: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Hash of each CONSECUTIVE pair within each variable-length segment
    (position order).  Segment i with c_i entries yields max(c_i - 1, 0)
    pair hashes.  Used as the fingerprint-channel bucket key: a shared
    substring must then span >= 2 consecutive winnowing prints
    (>= k + 2w - 1 chars), which suppresses single-shared-phrase collision
    buckets (measured 99.8% of candidate-pair volume on templated text)."""
    cnt2 = np.maximum(counts - 1, 0).astype(np.int64)
    if flat.size == 0 or cnt2.sum() == 0:
        return np.zeros(0, dtype=np.uint64), cnt2
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    fi = np.repeat(starts, cnt2) + _ranges_within(cnt2)
    return hash_u64_pair(flat[fi].astype(np.uint64),
                         flat[fi + 1].astype(np.uint64)), cnt2


def sort_segments(flat: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sort each variable-length segment of ``flat`` (segment i spans
    counts[:i].sum() .. +counts[i]) independently, vectorized: one lexsort
    keyed by (segment id, value).  Used to keep per-row fingerprint lists
    sorted so downstream set-intersections need no per-pair sorting."""
    if flat.size == 0:
        return flat
    seg = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    order = np.lexsort((flat, seg))
    return flat[order]


def _encode_concat(texts: list[bytes], min_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate byte strings, padding each to >= min_len with NUL.
    Returns (flat uint8 buffer, per-doc padded lengths)."""
    lens = np.fromiter((max(len(t), min_len) for t in texts), count=len(texts),
                       dtype=np.int64)
    buf = bytearray(int(lens.sum()))
    pos = 0
    for t, ln in zip(texts, lens):
        buf[pos:pos + len(t)] = t
        pos += int(ln)
    return np.frombuffer(bytes(buf), dtype=np.uint8), lens


def char_shingle_hashes(texts, width: int, seed: int = 0,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """64-bit hashes of all character (byte) shingles of each text.

    Fully vectorized: one polynomial rolling hash over the concatenated
    buffer; windows crossing document boundaries are excluded by index
    arithmetic.  Texts shorter than ``width`` contribute exactly one shingle
    (the NUL-padded text), mirroring MinHash conventions for short docs.

    Returns (flat uint64 hashes, per-doc shingle counts).
    """
    if hasattr(texts, "to_pylist"):
        texts = texts.to_pylist()
    btexts = [t.encode("utf-8", "surrogatepass") if isinstance(t, str)
              else (t or b"") for t in texts]
    n = len(btexts)
    if n == 0:
        return np.empty(0, dtype=_U64), np.empty(0, dtype=np.int64)

    buf, lens = _encode_concat(btexts, width)
    counts = lens - width + 1                      # >= 1 by construction
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])

    # polynomial hash of every window of `width` bytes (wrapping uint64)
    P = _U64(1099511628211)                        # FNV prime as poly base
    nwin = buf.shape[0] - width + 1
    acc = np.zeros(nwin, dtype=_U64)
    with np.errstate(over="ignore"):
        for j in range(width):
            acc = acc * P + buf[j:j + nwin].astype(_U64)
    acc = splitmix64(acc ^ _U64(seed & 0xFFFFFFFFFFFFFFFF))

    # gather only windows fully inside each doc
    starts = np.repeat(offsets, counts) + _ranges_within(counts)
    return acc[starts], counts


def _ranges_within(counts: np.ndarray) -> np.ndarray:
    """[0..c0-1, 0..c1-1, ...] for a counts vector (vectorized)."""
    total = int(counts.sum())
    out = np.arange(total, dtype=np.int64)
    ends = np.cumsum(counts)
    out -= np.repeat(ends - counts, counts)
    return out


def minhash_signatures(shingle_hashes: np.ndarray, counts: np.ndarray,
                       num_perm: int, seed: int) -> np.ndarray:
    """(ndocs, num_perm) uint64 MinHash signatures.

    One vectorized pass per permutation: re-salt the shared shingle-hash
    stream and min-reduce per document with ``np.minimum.reduceat``.
    """
    n = counts.shape[0]
    out = np.empty((n, num_perm), dtype=_U64)
    if n == 0:
        return out
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    salts = splitmix64(np.arange(num_perm, dtype=_U64) + _U64(seed & 0xFFFFFFFFFFFFFFFF))
    h = shingle_hashes.astype(_U64, copy=False)
    # cache-resident tiling + in-place mixing: the naive
    # splitmix64(h ^ salt) allocates ~6 stream-sized temporaries per
    # permutation, and at num_perm=128 the stage becomes memory-bandwidth
    # bound at full node parallelism.  Tiles of <= _TILE_ELEMS shingle
    # hashes stay in L2 across all permutations (one DRAM read of the
    # stream total), and the two work buffers are reused in place.
    # Bit-identical to the naive formulation.
    total = h.shape[0]
    buf = np.empty(min(total, _TILE_ELEMS) if total else 0, dtype=_U64)
    tmp = np.empty_like(buf)
    with np.errstate(over="ignore"):
        d0 = 0                            # first doc of the tile
        while d0 < n:
            d1 = d0
            s0 = offsets[d0]
            # extend the tile doc-aligned while it fits
            while d1 < n and (offsets[d1] + counts[d1] - s0) <= _TILE_ELEMS:
                d1 += 1
            d1 = max(d1, d0 + 1)          # a doc longer than the tile
            s1 = offsets[d1] if d1 < n else total
            m = s1 - s0
            hc = h[s0:s1]
            b = buf[:m] if m <= buf.shape[0] else np.empty(m, dtype=_U64)
            t = tmp[:m] if m <= tmp.shape[0] else np.empty(m, dtype=_U64)
            off_local = offsets[d0:d1] - s0
            for k in range(num_perm):
                np.bitwise_xor(hc, salts[k], out=b)
                b += _U64(0x9E3779B97F4A7C15)
                np.right_shift(b, _U64(30), out=t)
                np.bitwise_xor(b, t, out=b)
                b *= _U64(0xBF58476D1CE4E5B9)
                np.right_shift(b, _U64(27), out=t)
                np.bitwise_xor(b, t, out=b)
                b *= _U64(0x94D049BB133111EB)
                np.right_shift(b, _U64(31), out=t)
                np.bitwise_xor(b, t, out=b)
                out[d0:d1, k] = np.minimum.reduceat(b, off_local)
            d0 = d1
    return out


_TILE_ELEMS = 48_000          # 48k u64 = 375 KB x2 buffers: L2-resident


def simhash64(shingle_hashes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """64-bit SimHash per document from its shingle hashes (unweighted).

    Tiled like ``minhash_signatures``: per doc-aligned tile, unpack the
    hash bits once (tile stays cache-resident) and take per-doc column
    sums via ``add.reduceat`` — instead of 64 full-stream bincounts with
    float64 weights, which cost ~8x the memory traffic."""
    n = counts.shape[0]
    if n == 0:
        return np.empty(0, dtype=_U64)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    total = shingle_hashes.shape[0]
    out = np.empty(n, dtype=_U64)
    d0 = 0
    while d0 < n:
        d1 = d0
        s0 = offsets[d0]
        while d1 < n and (offsets[d1] + counts[d1] - s0) <= _TILE_ELEMS:
            d1 += 1
        d1 = max(d1, d0 + 1)
        s1 = offsets[d1] if d1 < n else total
        bytes_view = shingle_hashes[s0:s1].astype("<u8").view(np.uint8) \
            .reshape(-1, 8)
        bits = np.unpackbits(bytes_view, axis=1, bitorder="little")
        sums = np.add.reduceat(bits.astype(np.uint16), offsets[d0:d1] - s0,
                               axis=0)
        majority = (sums.astype(np.int64) * 2
                    > counts[d0:d1, None]).astype(np.uint8)
        out[d0:d1] = np.packbits(majority, axis=1,
                                 bitorder="little").view("<u8").ravel()
        d0 = d1
    return out


_POPCNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _bits64(x) -> np.ndarray:
    """int64 or uint64 array -> the same 64 bits as uint64."""
    return np.asarray(x).astype(np.int64, copy=False).view(_U64)


def hamming_u64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise Hamming distance between two arrays of 64-bit words
    (int64 or uint64; the bits are compared), by a byte lookup table."""
    x = _bits64(a) ^ _bits64(b)
    return _POPCNT[x.view(np.uint8).reshape(-1, 8)].sum(axis=1).astype(np.int32)


def hamming_band_keys(x: np.ndarray, n_bands: int) -> np.ndarray:
    """(n,) 64-bit hashes -> (n, n_bands) uint64 Hamming-ball band keys.

    Band b holds bits [b*w, (b+1)*w) with w = 64 // n_bands, mixed with a
    per-band constant so equal bits in different bands never share a key.
    Two hashes within Hamming distance ``n_bands - 1`` agree on at least
    one whole band (pigeonhole), so bucketing on these keys finds every
    such pair."""
    s = _bits64(x)
    width = 64 // n_bands
    mask = _U64((1 << width) - 1)
    out = np.empty((s.size, n_bands), dtype=_U64)
    for b in range(n_bands):
        salt = splitmix64(np.array([b + 101], dtype=_U64))[0]
        out[:, b] = splitmix64(((s >> _U64(b * width)) & mask) ^ salt)
    return out


def band_keys(signatures: np.ndarray, bands: int, seed: int = 0) -> np.ndarray:
    """(ndocs, bands) uint64 LSH band keys: hash of each band's rows.

    The generalization of the reference's per-domain grouping key
    (``get_host_and_path``, /root/reference/courlan/urlutils.py:83-96):
    identical band rows -> identical key -> same shuffle bucket.
    """
    n, num_perm = signatures.shape
    r = num_perm // bands
    sig = signatures[:, :bands * r].reshape(n, bands, r)
    with np.errstate(over="ignore"):
        acc = np.full((n, bands), _U64(seed & 0xFFFFFFFFFFFFFFFF) + _U64(0x243F6A8885A308D3))
        for j in range(r):
            acc = splitmix64(acc ^ sig[:, :, j])
        # fold band index in so band b of one sig never collides with band b'
        acc = splitmix64(acc ^ np.arange(bands, dtype=_U64)[None, :])
    return acc


def winnowing_fingerprints(texts, k: int, window: int, seed: int = 0,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Winnowing document fingerprints (Schleimer et al., SIGMOD 2003):
    k-gram rolling hashes, keep the minimum of every sliding window of
    ``window`` consecutive hashes.  Guarantees any shared substring of
    length >= k + window - 1 produces a shared fingerprint — the scalable
    stand-in for suffix-array substring detection (SURVEY.md §7.2 step 4).

    Returns (flat uint64 fingerprint hashes, per-doc fingerprint counts).
    Duplicate fingerprints within a doc are deduplicated.  Fully vectorized:
    one flat sliding-window min over all docs' hashes with window-crossing
    positions masked out by index arithmetic, then a C-level dedup.
    """
    import pandas as pd

    hashes, counts = char_shingle_hashes(texts, k, seed=seed)
    n = counts.shape[0]
    if n == 0:
        return hashes, counts
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])

    win_counts = np.maximum(counts - window + 1, 1)    # windows per doc
    # flat sliding min; for docs shorter than the window clamp to doc end
    nflat = hashes.shape[0]
    mins = np.empty(nflat, dtype=_U64)
    if nflat >= window:
        wins = np.lib.stride_tricks.sliding_window_view(hashes, window)
        mins[: nflat - window + 1] = wins.min(axis=1)
        mins[nflat - window + 1:] = _MASK
    else:
        mins[:] = _MASK
    # window starting at flat pos p is valid iff it stays inside doc_of[p];
    # short docs take the min of their whole tail instead
    starts = np.repeat(offsets, win_counts) + _ranges_within(win_counts)
    short = counts < window
    fps = mins[starts]
    if short.any():
        # recompute short docs exactly: min over the entire doc
        short_sel = np.repeat(short, win_counts)
        whole_min = np.minimum.reduceat(hashes, offsets)
        fps[short_sel] = np.repeat(whole_min, win_counts)[short_sel]
    fp_doc = np.repeat(np.arange(n, dtype=np.int64), win_counts)
    df = pd.DataFrame({"d": fp_doc, "f": fps}).drop_duplicates()
    out_c = np.bincount(df["d"].to_numpy(), minlength=n).astype(np.int64)
    return df["f"].to_numpy(dtype=_U64), out_c


def est_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> np.ndarray:
    """Estimated Jaccard = fraction of agreeing MinHash permutations.
    Inputs: (npairs, num_perm) uint64."""
    return (sig_a == sig_b).mean(axis=1).astype(np.float64)


def mul_hash_priority(ids: np.ndarray) -> np.ndarray:
    """Knuth multiplicative hash ((id * 2654435761) % 2^32) — the ONE
    SQL-expressible hash shared by the sampling/split pipelines AND their
    DuckDB oracle twins (which hardcode the same constants); changing it
    means changing every oracle in lockstep."""
    u = ids.astype(np.uint64)
    return (u * np.uint64(2654435761)) % np.uint64(1 << 32)
