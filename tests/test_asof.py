"""As-of join stage: equivalence with pandas.merge_asof on random data."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from courlan_ray.stages.asof import asof_join
from courlan_ray.stages.joins import exchanges_only


@pytest.fixture(autouse=True)
def _keyed_side():
    """Pin the keyed-exchange side of these stages against pandas and
    brute force; inputs this small take the driver side by default, and
    tests/test_both_sides.py holds the two sides equal."""
    with exchanges_only():
        yield


def _frames(seed=3, n_l=400, n_r=150, n_keys=12):
    rng = np.random.default_rng(seed)
    left = pd.DataFrame({
        "k": rng.integers(0, n_keys, n_l).astype(np.int64),
        "t": rng.integers(0, 10_000, n_l).astype(np.int64),
        "lid": np.arange(n_l, dtype=np.int64)})
    right = pd.DataFrame({
        "k": rng.integers(0, n_keys + 3, n_r).astype(np.int64),  # some keys
        "t": rng.integers(0, 10_000, n_r).astype(np.int64),      # left-only
        "rv": rng.random(n_r)})
    # merge_asof ties are ambiguous when (k, t) duplicates exist on the
    # right — drop them so both implementations have a unique answer
    right = right.drop_duplicates(["k", "t"]).reset_index(drop=True)
    return left, right


@pytest.mark.parametrize("strict", [True, False])
def test_asof_matches_pandas(strict):
    left, right = _frames()
    got = asof_join(
        rd.from_arrow(pa.Table.from_pandas(left, preserve_index=False)),
        rd.from_arrow(pa.Table.from_pandas(right, preserve_index=False)),
        on="t", by="k", left_cols=["lid"], right_cols=["rv"],
        strict=strict, right_suffix="").to_pandas()
    got = got.sort_values("lid").reset_index(drop=True)

    want = pd.merge_asof(
        left.sort_values("t"), right.sort_values("t"),
        on="t", by="k", allow_exact_matches=not strict, direction="backward")
    want = want.sort_values("lid").reset_index(drop=True)

    assert len(got) == len(left)
    lhs = got.set_index("lid")["rv"]
    rhs = want.set_index("lid")["rv"]
    assert ((lhs == rhs) | (lhs.isna() & rhs.isna())).all()


def test_asof_no_right_rows():
    left, right = _frames()
    got = asof_join(
        rd.from_arrow(pa.Table.from_pandas(left, preserve_index=False)),
        rd.from_arrow(pa.Table.from_pandas(right.iloc[:0],
                                           preserve_index=False)),
        on="t", by="k", left_cols=["lid"], right_cols=["rv"],
        right_suffix="").to_pandas()
    assert len(got) == len(left) and got["rv"].isna().all()


def test_range_join_broadcast_semantics():
    from courlan_ray.stages.rangejoin import range_join_broadcast
    ds = rd.from_arrow(pa.table({
        "id": pa.array([0, 1, 2, 3], pa.int64()),
        "v": pa.array([5.0, 10.0, 15.0, 99.0])}))
    iv = pa.table({"lo": pa.array([0.0, 10.0, 12.0]),
                   "hi": pa.array([10.0, 20.0, 16.0]),
                   "band": pa.array(["a", "b", "c"])})
    out = range_join_broadcast(ds, iv, "v", closed="left").to_pandas()
    got = sorted(zip(out["id"], out["band"]))
    # v=5 -> a; v=10 -> b (half-open); v=15 -> b AND c (overlap);
    # v=99 -> dropped (no interval)
    assert got == [(0, "a"), (1, "b"), (2, "b"), (2, "c")]


def test_rolling_window_matches_bruteforce():
    from courlan_ray.stages.window import rolling_window_agg
    rng = np.random.default_rng(9)
    n = 500
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "k": rng.integers(0, 8, n).astype(np.int64),
        "t": rng.integers(0, 5_000, n).astype(np.int64),
        "v": np.round(rng.random(n) * 100, 2)})
    # force timestamp TIES within a key: SQL RANGE frames include peers
    df.loc[10, ["k", "t"]] = df.loc[11, ["k", "t"]]
    df.loc[20, ["k", "t"]] = df.loc[21, ["k", "t"]]
    out = rolling_window_agg(
        rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)),
        on="t", by="k", value_col="v", width_ns=300,
        keep_cols=["id"]).to_pandas().set_index("id").sort_index()
    # brute force over EVERY row: same key, t in [t_i - 300, t_i] — equal-t
    # peers included, matching RANGE ... AND CURRENT ROW
    for i in df.index:
        r = df.loc[i]
        m = df[(df.k == r.k) & (df.t >= r.t - 300) & (df.t <= r.t)]
        assert out.loc[r.id, "n_window"] == len(m), r.id
        assert abs(out.loc[r.id, "sum_window"] - m.v.sum()) < 1e-6


def test_sessionize_bruteforce():
    from courlan_ray.stages.window import sessionize
    rng = np.random.default_rng(4)
    n = 300
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "k": rng.integers(0, 6, n).astype(np.int64),
        "t": rng.integers(0, 3_000, n).astype(np.int64)})
    df = df.drop_duplicates(["k", "t"]).reset_index(drop=True)
    out = sessionize(
        rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)),
        on="t", by="k", gap_ns=50, keep_cols=["id"]).to_pandas()
    out = out.set_index("id")
    for k, g in df.sort_values("t").groupby("k"):
        want, prev, s = {}, None, 0
        for _, r in g.iterrows():
            if prev is None or r.t - prev > 50:
                s += 1
            want[r.id] = s
            prev = r.t
        for rid, sess in want.items():
            assert out.loc[rid, "session_num"] == sess
            assert out.loc[rid, "session_id"] == f"{k}#{sess}"


def test_rolling_window_chunked_parity():
    """Hot-key time-splitting (chunk_ns) must agree exactly with the
    single-partition-per-key path."""
    from courlan_ray.stages.window import rolling_window_agg
    rng = np.random.default_rng(12)
    n = 800
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "k": rng.integers(0, 3, n).astype(np.int64),     # hot keys
        "t": rng.integers(0, 10_000, n).astype(np.int64),
        "v": np.round(rng.random(n) * 100, 2)})

    def run(**kw):
        out = rolling_window_agg(
            rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)),
            on="t", by="k", value_col="v", width_ns=400,
            keep_cols=["id"], **kw).to_pandas()
        return out.sort_values("id").reset_index(drop=True)

    a = run()
    b = run(chunk_ns=1000)   # windows span chunk boundaries
    c = run(chunk_ns=400)    # minimum legal chunk = width
    pd.testing.assert_frame_equal(a, b)
    pd.testing.assert_frame_equal(a, c)
    import pytest as _pytest
    with _pytest.raises(ValueError):
        run(chunk_ns=100)


@pytest.mark.parametrize("strict", [True, False])
def test_asof_tolerance_matches_pandas(strict):
    left, right = _frames(seed=8)
    got = asof_join(
        rd.from_arrow(pa.Table.from_pandas(left, preserve_index=False)),
        rd.from_arrow(pa.Table.from_pandas(right, preserve_index=False)),
        on="t", by="k", left_cols=["lid"], right_cols=["rv"],
        strict=strict, tolerance_ns=500,
        right_suffix="").to_pandas().sort_values("lid") \
        .reset_index(drop=True)
    want = pd.merge_asof(
        left.sort_values("t"), right.sort_values("t"),
        on="t", by="k", allow_exact_matches=not strict,
        tolerance=500, direction="backward") \
        .sort_values("lid").reset_index(drop=True)
    lhs = got.set_index("lid")["rv"]
    rhs = want.set_index("lid")["rv"]
    assert ((lhs == rhs) | (lhs.isna() & rhs.isna())).all()


@pytest.mark.parametrize("strict", [True, False])
def test_asof_chunked_hot_key_parity(strict):
    """chunk_ns boundary replication is exact: chunked vs unchunked output
    identical on a corpus where ONE key holds 50% of all rows (VERDICT
    round 2 next #5)."""
    rng = np.random.default_rng(11)
    n = 2000
    # key 0 is hot: half of left and right rows
    k_l = np.where(np.arange(n) % 2 == 0, 0,
                   rng.integers(1, 20, n)).astype(np.int64)
    k_r = np.where(np.arange(n // 2) % 2 == 0, 0,
                   rng.integers(1, 20, n // 2)).astype(np.int64)
    left = pd.DataFrame({
        "k": k_l, "t": rng.integers(0, 50_000, n).astype(np.int64),
        "lid": np.arange(n, dtype=np.int64)})
    right = pd.DataFrame({
        "k": k_r, "t": rng.integers(0, 50_000, n // 2).astype(np.int64),
        "rv": rng.random(n // 2)}).drop_duplicates(["k", "t"])

    def run(**kw):
        out = asof_join(
            rd.from_arrow(pa.Table.from_pandas(left, preserve_index=False)),
            rd.from_arrow(pa.Table.from_pandas(right, preserve_index=False)),
            on="t", by="k", left_cols=["lid"], right_cols=["rv"],
            strict=strict, right_suffix="", tolerance_ns=1_000,
            **kw).to_pandas()
        return out.sort_values("lid").reset_index(drop=True)

    plain = run()
    chunked = run(chunk_ns=1_000)          # chunk == tolerance: max splits
    wider = run(chunk_ns=7_777)            # unaligned chunk width
    pd.testing.assert_frame_equal(plain, chunked)
    pd.testing.assert_frame_equal(plain, wider)
    assert plain["rv"].notna().sum() > 100     # non-vacuous


def test_asof_chunk_requires_tolerance():
    left = pd.DataFrame({"k": [1], "t": [1], "lid": [0]})
    right = pd.DataFrame({"k": [1], "t": [0], "rv": [1.0]})
    with pytest.raises(ValueError, match="tolerance"):
        asof_join(
            rd.from_arrow(pa.Table.from_pandas(left, preserve_index=False)),
            rd.from_arrow(pa.Table.from_pandas(right, preserve_index=False)),
            on="t", by="k", left_cols=["lid"], right_cols=["rv"],
            chunk_ns=100)
    with pytest.raises(ValueError, match="chunk_ns"):
        asof_join(
            rd.from_arrow(pa.Table.from_pandas(left, preserve_index=False)),
            rd.from_arrow(pa.Table.from_pandas(right, preserve_index=False)),
            on="t", by="k", left_cols=["lid"], right_cols=["rv"],
            tolerance_ns=200, chunk_ns=100)


def test_segmented_kernels_match_bruteforce_random():
    """_window_bounds and _group_searchsorted equal per-group brute force
    on random group layouts, including HUGE time spans that force the
    int64-overflow chunked path (multiple composite-coordinate chunks)."""
    from courlan_ray.stages.asof import _group_searchsorted
    from courlan_ray.stages.window import _window_bounds

    rng = np.random.default_rng(31)
    for trial, huge in [(0, False), (1, False), (2, True), (3, True)]:
        n_groups = int(rng.integers(3, 40))
        sizes = rng.integers(1, 30, n_groups)
        starts = np.zeros(n_groups, dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        ends = starts + sizes
        n = int(sizes.sum())
        if huge:
            # spans ~2^60 per group: a handful of groups exceed the 2^62
            # chunk budget, so the loop must split into several chunks
            base_t = rng.integers(0, 1 << 60, n).astype(np.int64)
        else:
            base_t = rng.integers(0, 10_000, n).astype(np.int64)
        ts = np.concatenate([np.sort(base_t[s:e]) for s, e in
                             zip(starts, ends)])
        width = int(rng.integers(1, 1 << 59 if huge else 500))

        lo, hi = _window_bounds(ts, starts, ends, width)
        for g, (s, e) in enumerate(zip(starts, ends)):
            tg = ts[s:e]
            np.testing.assert_array_equal(
                lo[s:e], s + np.searchsorted(tg, tg - width, side="left"),
                err_msg=f"trial {trial} group {g} lo")
            np.testing.assert_array_equal(
                hi[s:e], s + np.searchsorted(tg, tg, side="right"),
                err_msg=f"trial {trial} group {g} hi")

        nq = 300
        gq = rng.integers(0, n_groups, nq).astype(np.int64)
        tq = (rng.integers(0, 1 << 62, nq) if huge else
              rng.integers(-500, 10_500, nq)).astype(np.int64)
        for side in ("left", "right"):
            pos = _group_searchsorted(ts, starts, ends, gq, tq, side)
            for i in range(nq):
                s, e = starts[gq[i]], ends[gq[i]]
                want = s + np.searchsorted(ts[s:e], tq[i], side=side)
                assert pos[i] == want, (trial, side, i)


@pytest.mark.parametrize("strict", [True, False])
def test_asof_chunked_string_key_parity(strict):
    """Chunked grouping uses the EXACT (key, chunk) composite (round-4
    ADVICE: no hash identity) — parity on string keys, where the old path
    hashed, with many (key, chunk) groups per partition."""
    rng = np.random.default_rng(23)
    n = 1500
    k_l = np.array([f"host-{i}" for i in rng.integers(0, 40, n)])
    k_r = np.array([f"host-{i}" for i in rng.integers(0, 40, n // 2)])
    left = pd.DataFrame({
        "k": k_l, "t": rng.integers(0, 30_000, n).astype(np.int64),
        "lid": np.arange(n, dtype=np.int64)})
    right = pd.DataFrame({
        "k": k_r, "t": rng.integers(0, 30_000, n // 2).astype(np.int64),
        "rv": rng.random(n // 2)}).drop_duplicates(["k", "t"])

    def run(**kw):
        out = asof_join(
            rd.from_arrow(pa.Table.from_pandas(left, preserve_index=False)),
            rd.from_arrow(pa.Table.from_pandas(right, preserve_index=False)),
            on="t", by="k", left_cols=["lid"], right_cols=["rv"],
            strict=strict, right_suffix="", tolerance_ns=800,
            **kw).to_pandas()
        return out.sort_values("lid").reset_index(drop=True)

    plain = run()
    chunked = run(chunk_ns=800)
    pd.testing.assert_frame_equal(plain, chunked)
    assert plain["rv"].notna().sum() > 50
