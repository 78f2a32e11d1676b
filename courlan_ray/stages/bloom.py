"""Distributed Bloom filter: build by OR-merge, probe as a map-side
pre-filter in front of an exact membership check.

The two-tier membership pattern for 100 TB corpora: a Bloom filter of
the key set is ~10 bits/key (a 10^9-key set fits ~1.2 GB, broadcast once
via ``ray.put``), the probe is a vectorized bit test inside
``map_batches`` that eliminates almost every non-member locally, and only
the surviving candidates pay the exact tier — so the expensive exact
check (broadcast set here; ``joins.filter_by_keys``'s partitioned
semi-join at scale) touches a tiny fraction of rows.  No false negatives
(a true member always survives the probe), so bloom-then-exact is EXACT:
``bloom_semi_filter`` returns precisely the semi/anti join result.

Build is a per-block bit array OR-merged through the combine tree —
idempotent (retry-safe) and associative, exchanging m/8 bytes per block
regardless of row count.

Double hashing (Kirsch-Mitzenmacher 2006): index_i = h1 + i*h2 (mod m)
gives k independent-enough probes from two 64-bit halves of one hash.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.hashing import hash_strings

_U64 = np.uint64


def _canon_keys(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Canonical object-dtype string keys for an arrow column (integer
    ids via their decimal form — vectorized astype('U'), no per-row
    str() — so build and probe agree on any arrow integer width).

    The join contract is EXACT membership, so lossy canonicalizations are
    rejected rather than silently wrong: float keys (decimal truncation
    would collide 1.2 with 1.9) and null keys (SQL semi/anti join never
    matches NULL; an int column with nulls also surfaces as float here)
    both raise."""
    if col.null_count:
        raise ValueError(
            "bloom join keys must be non-null — drop/fill nulls first "
            "(SQL semi/anti joins never match NULL keys)")
    arr = col.to_numpy(zero_copy_only=False)
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64).astype("U").astype(object)
    if arr.dtype.kind == "f":
        raise TypeError(
            "bloom join on float keys is not exact — cast the key column "
            "to int or string first")
    return arr.astype(object)


def _check_key_type(ds, col: str) -> None:
    """Driver-side eager validation of the join-key column (so the error
    surfaces directly instead of wrapped in a RayTaskError)."""
    sch = ds.schema()
    if sch is None:          # empty dataset: nothing to validate
        return
    t = dict(zip(sch.names, sch.types)).get(col)
    # arrow-backed blocks carry pa.DataType, pandas-backed numpy dtypes
    if (isinstance(t, pa.DataType) and pa.types.is_floating(t)) \
            or getattr(t, "kind", "") == "f":
        raise TypeError(
            "bloom join on float keys is not exact — cast the key column "
            "to int or string first")


def _key_hashes(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h1, h2) 64-bit double-hash bases for canonical keys."""
    h1 = hash_strings(arr, seed=0xB100)
    h2 = hash_strings(arr, seed=0xB200) | _U64(1)   # odd -> full cycle
    return h1, h2


def _set_bits(bits: np.ndarray, h1, h2, k: int) -> None:
    m = _U64(bits.size)
    for i in range(k):
        bits[((h1 + _U64(i) * h2) % m).astype(np.int64)] = True


def _test_bits(bits: np.ndarray, h1, h2, k: int) -> np.ndarray:
    m = _U64(bits.size)
    hit = np.ones(h1.size, dtype=bool)
    for i in range(k):
        hit &= bits[((h1 + _U64(i) * h2) % m).astype(np.int64)]
    return hit


def build_bloom(keys_ds, col: str, *, m_bits: int = 1 << 20,
                k: int = 7) -> np.ndarray:
    """Bloom bit array (bool[m_bits]) of ``keys_ds[col]``: per-block bit
    arrays OR-merged through the combine tree; only m_bits/8 bytes per
    block ever move."""
    from .agg import combine_tree

    def partial(b: pa.Table) -> pa.Table:
        bits = np.zeros(m_bits, dtype=bool)
        if b.num_rows:
            h1, h2 = _key_hashes(_canon_keys(b[col]))
            _set_bits(bits, h1, h2, k)
        return pa.table({"bits": pa.array([np.packbits(bits).tobytes()],
                                          pa.binary())})

    def merge(b: pa.Table) -> pa.Table:
        acc = np.zeros((m_bits + 7) // 8, dtype=np.uint8)
        for blob in b["bits"].to_pylist():
            acc |= np.frombuffer(blob, dtype=np.uint8)
        return pa.table({"bits": pa.array([acc.tobytes()], pa.binary())})

    out = combine_tree(keys_ds.select_columns([col]), merge,
                       first=partial).to_pandas()
    if len(out) == 0:
        return np.zeros(m_bits, dtype=bool)
    return np.unpackbits(np.frombuffer(out["bits"].iloc[0],
                                       dtype=np.uint8))[:m_bits].astype(bool)


def bloom_semi_filter(ds, keys_ds, col: str, *, keep: bool,
                      m_bits: int = 1 << 20, k: int = 7):
    """EXACT semi (keep=True) / anti (keep=False) join of ``ds`` against
    ``keys_ds[col]``, Bloom-accelerated: the broadcast bit-array probe
    eliminates non-members map-side (no false negatives), then the exact
    key set verifies the few candidates.  The exact tier here broadcasts
    the key set (``ray.put`` once); for a key set that does not fit one
    task (``joins.fits_one_task``) compose the bloom probe with
    ``filter_by_keys``'s partitioned semi-join instead — the probe output
    IS its input."""
    import ray

    from .joins import _collect, cached_get

    _check_key_type(ds, col)
    _check_key_type(keys_ds, col)
    bits = build_bloom(keys_ds, col, m_bits=m_bits, k=k)
    kt = _collect(keys_ds.select_columns([col]))
    exact = np.unique(_canon_keys(kt[col])) if col in kt.column_names \
        else np.zeros(0, dtype=object)   # all-empty collect is schema-less
    ref = ray.put((np.packbits(bits), bits.size, exact))

    def kernel(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        packed, m, exact_keys = cached_get(ref)
        bts = np.unpackbits(packed)[:m].astype(bool)
        vals = _canon_keys(b[col])
        h1, h2 = _key_hashes(vals)
        cand = _test_bits(bts, h1, h2, k)
        member = np.zeros(b.num_rows, dtype=bool)
        if cand.any():    # exact tier touches only bloom survivors
            pos = np.searchsorted(exact_keys, vals[cand])
            pos[pos == exact_keys.size] = 0
            member[cand] = exact_keys[pos] == vals[cand]
        return b.filter(pa.array(member if keep else ~member))

    return ds.map_batches(kernel, batch_format="pyarrow", batch_size=None)
