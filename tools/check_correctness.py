"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf, compare SQL-oracled ones against DuckDB by row count,
column names, and order-insensitive value hash.  Usage:

    python tools/check_correctness.py [sf_dir] [name ...]

Runs from any working directory: the repo root is found from this file
and put on the path of the driver and of every Ray worker.
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_df(obj) -> pd.DataFrame:
    import pyarrow as pa
    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()          # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        if str(df[c].dtype).startswith(("float", "Float")):
            df[c] = df[c].round(6)
        if str(df[c].dtype).startswith(("int", "Int", "uint")):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> int:
    return int(pd.util.hash_pandas_object(canon(df), index=False).sum())


def main():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR",
                 runtime_env={"env_vars": {"PYTHONPATH": ROOT}})
    import ray.data as rd
    rd.DataContext.get_current().enable_progress_bars = False

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    sys.path.insert(0, ROOT)
    import __ray_entry__ as E
    qs, oracles = E.queries(), E.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{t}.parquet')")

    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = to_df(fn(sf_dir))
        except Exception as exc:
            print(f"FAIL {name}: query raised {type(exc).__name__}: {exc}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows-only, {len(mine)} rows  ({dt:.1f}s)")
            n_pass += 1
            continue
        want = con.sql(oracles[name]).df()
        problems = []
        if len(mine) != len(want):
            problems.append(f"rows {len(mine)} != {len(want)}")
        if sorted(mine.columns) != sorted(want.columns):
            problems.append(f"cols {sorted(mine.columns)} != {sorted(want.columns)}")
        if not problems and value_hash(mine) != value_hash(want):
            problems.append("value hash mismatch")
            a, b = canon(mine), canon(want)
            neq = (a != b) & ~(a.isna() & b.isna())
            bad = neq.any(axis=1)
            if bad.any():
                print("  first diffs:\n", a[bad].head(3), "\n  vs\n", b[bad].head(3))
        if problems:
            print(f"FAIL {name}: {'; '.join(problems)}  ({dt:.1f}s)")
            n_fail += 1
        else:
            print(f"PASS {name}: {len(mine)} rows  ({dt:.1f}s)")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
