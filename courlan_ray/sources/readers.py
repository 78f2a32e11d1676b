"""Input readers for the engine's table formats.

The target deployment reads Lance tables of image+caption pairs
(BASELINE.json input_hint); this sandbox has no ``lance``/``pylance``
wheel, so ``read_table`` dispatches by extension with a parquet fallback
and the Lance branch gated behind an import-try — the call sites and
schema contract are real, only the codec is absent here.

All readers push column projection down to the format layer (never read
bytes you don't need — a full-width scan for a 2-column transform is
wrong at any scale).
"""

from __future__ import annotations


def read_table(path: str, *, columns: list[str] | None = None, **kw):
    """Path -> ray.data.Dataset with projection pushdown.

    ``.lance`` directories/files use the Lance reader when the library is
    importable (``ray.data.read_lance``); everything else reads parquet.
    """
    import ray.data as rd

    if path.rstrip("/").endswith(".lance"):
        try:
            import lance  # noqa: F401  (presence check only)
        except ImportError as exc:   # pragma: no cover - no lance in sandbox
            raise NotImplementedError(
                "Lance input requires the 'lance' package (not available "
                "in this environment); convert to parquet or install "
                "pylance — the pipeline is format-agnostic past the read."
            ) from exc
        return rd.read_lance(path, columns=columns, **kw)
    return rd.read_parquet(path, columns=columns, **kw)


def read_sf_table(sf_dir: str, name: str, columns: list[str] | None = None):
    """One table of a scale-factor directory (``{sf_dir}/{name}.parquet``)
    with the pandas schema metadata stripped (see
    ``stages.joins.strip_metadata``) -- the read every query starts from."""
    import ray.data as rd

    from ..stages.joins import strip_metadata
    return strip_metadata(
        rd.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns))
