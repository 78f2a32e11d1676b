"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at sf=0.01
and compares it against the matching ``oracle_sql()[name]`` via DuckDB
(row-count + schema + order-insensitive value-hash -> CORRECTNESS_r{N}.json).
``queries()`` and ``oracle_sql()`` return copies of the one query table and
the one SQL table, ``QUERIES`` and ``ORACLES`` in
``courlan_ray.pipelines.queries``.

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in courlan_ray) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline: near-duplicate detection + clustering on the
    deterministic synthetic image+caption table (input_hint shape) at
    sf0.001 scale; returns the cluster assignment Dataset."""
    from courlan_ray.pipelines.extras import image_dedup_clusters
    return image_dedup_clusters("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    """Every driver-contract query, in driver order: the one table
    ``courlan_ray.pipelines.queries.QUERIES``.  The driver's correctness
    run checks only the first 50 entries; the comment above the table
    says how they are chosen."""
    from courlan_ray.pipelines.queries import QUERIES
    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB equivalents of the SQL-expressible queries
    (``courlan_ray.pipelines.queries.ORACLES``).  The other queries
    (MinHash/LSH/ANN/union-find are not ANSI-SQL expressible) have no
    entry, so the driver records rows-only checks for them."""
    from courlan_ray.pipelines.extras import ensure_oracle_inputs
    from courlan_ray.pipelines.queries import ORACLES
    # some oracle SQL scans synthetic inputs and signature parquets by
    # path; generate them now so the DuckDB side works in any run order
    ensure_oracle_inputs()
    return dict(ORACLES)
