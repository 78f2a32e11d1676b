"""Driver-style DuckDB oracle comparison for every SQL-expressible query.

Emulates the driver's correctness gate for each ``ORACLES`` entry: run the
``QUERIES`` pipeline and the oracle SQL on the same parquet tables, sort
columns by name, sort rows, compare values EXACTLY (the engineered half-up
rounding must make both sides bit-identical doubles).  This also covers
the oracled queries the driver's 50-entry window leaves out.
"""

import duckdb
import pandas as pd
import pytest

from courlan_ray.pipelines.queries import ORACLES, QUERIES

SF = "/root/testdata/sf0.01"
_TABLES = ("documents", "embeddings", "events", "orders", "customer",
           "lineitem")


@pytest.fixture(scope="module", autouse=True)
def _oracle_side_inputs(ray_session):
    """The pair-verify oracles (audio/video/doc_simhash) scan signature
    parquets materialized by ensure_oracle_inputs — generate them up
    front, exactly as __ray_entry__.oracle_sql() does for the driver."""
    from courlan_ray.pipelines.extras import ensure_oracle_inputs
    ensure_oracle_inputs()


def _oracle_df(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in _TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con.execute(sql).df()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


_ORACLED = sorted(ORACLES)


@pytest.mark.parametrize("name", _ORACLED)
def test_extra_oracle_matches(name):
    res = QUERIES[name](SF)
    ray_df = _canon(res if isinstance(res, pd.DataFrame) else res.to_pandas())
    ora_df = _canon(_oracle_df(ORACLES[name]))
    assert len(ray_df) == len(ora_df), f"{name}: row count"
    assert list(ray_df.columns) == list(ora_df.columns), f"{name}: schema"
    pd.testing.assert_frame_equal(ray_df, ora_df, check_dtype=False,
                                  check_exact=True)


def test_driver_window_is_oracled_or_cluster_pipeline():
    """The driver checks the first 50 ``queries()`` entries: they are 47
    oracled queries and the three cluster pipelines, and every oracled
    entry past them is run by the oracle test above."""
    import __ray_entry__ as entry
    q, o = entry.queries(), entry.oracle_sql()
    assert set(o) <= set(q)
    window = list(q)[:50]
    assert sum(n in o for n in window) == 47
    assert {n for n in window if n not in o} == {
        "image_dedup_clusters", "doc_minhash_clusters", "emb_neardup"}
    assert {n for n in list(q)[50:] if n in o} <= set(_ORACLED)


def test_image_counters_sql_builder_generalizes():
    """The image_dedup_counters oracle builder is correct at an n OTHER
    than the driver's sf0.01 (pins the SQL gate chain itself, not one
    row-count accident)."""
    from courlan_ray.config import DEFAULT_CONFIG
    from courlan_ray.pipelines.extras import _image_counters_sql
    from courlan_ray.sources.synth import synth_parquet, synth_table
    from courlan_ray.stages.canonicalize import canonicalize_batch

    path = synth_parquet(2000, 42)
    df = duckdb.connect().execute(
        _image_counters_sql(path + "/*.parquet")).df()
    truth = (canonicalize_batch(synth_table(2000, 42), DEFAULT_CONFIG)
             .to_pandas()["reject_reason"].value_counts().to_dict())
    assert dict(zip(df["reject_reason"], df["n"])) == truth


def test_oracle_cache_key_covers_every_module(tmp_path):
    """The key of the oracle signature parquets changes with any package
    module, the image codec included (it hashes the video frames that
    ``video_sigs`` holds)."""
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    shutil.copytree(Path(__file__).resolve().parents[1] / "courlan_ray",
                    tmp_path / "courlan_ray",
                    ignore=shutil.ignore_patterns("__pycache__"))

    def key() -> str:
        return subprocess.run(
            [sys.executable, "-c", "from courlan_ray.pipelines.extras "
             "import _kernel_fingerprint; print(_kernel_fingerprint())"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path)},
            capture_output=True, text=True, check=True).stdout.strip()

    before = key()
    with open(tmp_path / "courlan_ray/functions/imagecodec.py", "a") as f:
        f.write("\n# an edit\n")
    assert key() != before
