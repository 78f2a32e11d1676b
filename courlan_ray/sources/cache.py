"""Atomic parquet directory writes: the write-once cache shared by every
synthetic source and the oracle-side signature tables, and the stage
writes of the checkpoint manifest (state/manifest.py).

One copy of the tmp write / empty-schema file / rename / ``_SUCCESS``
stamp sequence so a fix to it propagates to every cache (synth, audio,
video, HTML, oracle signatures) and every checkpointed stage.
"""

from __future__ import annotations

import os
import shutil
from collections.abc import Callable


def write_parquet_atomic(ds, out: str, marker: str, **write_kw) -> None:
    """Write ``ds`` as parquet under ``out``, replacing what was there.

    The files go to ``out + ".tmp"``, which is renamed to ``out``; the
    ``_SUCCESS`` file holding ``marker`` is written last, so a directory
    with a marker is complete.  A zero-row ``ds`` writes no files, so one
    empty schema-bearing file is persisted instead: a later
    ``read_parquet(out)`` then returns the same typed empty dataset rather
    than failing on an empty directory."""
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    ds.write_parquet(tmp, **write_kw)
    os.makedirs(tmp, exist_ok=True)   # a zero-row write may create nothing
    if not any(f.endswith(".parquet") for f in os.listdir(tmp)):
        import pyarrow as pa
        import pyarrow.parquet as pq
        schema = ds.schema()
        empty = pa.table({n: pa.array([], t) for n, t in
                          zip(schema.names, schema.types)})
        pq.write_table(empty, os.path.join(tmp, "empty.parquet"))
    os.replace(tmp, out)
    with open(os.path.join(out, "_SUCCESS"), "w") as fh:
        fh.write(marker)


def cached_parquet(out: str, make_ds: Callable[[], "object"],
                   rows_per_file: int, marker: str = "ok") -> str:
    """Materialize ``make_ds()`` as parquet under ``out`` exactly once.

    The ``_SUCCESS`` file stores ``marker``; a rerun skips the write only
    when the stored marker matches, so callers key staleness into the
    marker (e.g. a kernel-source fingerprint) while deterministic synth
    tables keyed fully by their directory name keep the default.  A
    partial directory from a crashed write has no marker and is wiped and
    rebuilt.  ``rows_per_file`` bounds parquet file size both ways so read
    parallelism is never capped by the file count.  Returns ``out``.
    """
    done = os.path.join(out, "_SUCCESS")
    if os.path.exists(done):
        with open(done) as fh:
            if fh.read().strip() == marker:
                return out
    write_parquet_atomic(make_ds(), out, marker,
                         min_rows_per_file=rows_per_file,
                         max_rows_per_file=rows_per_file)
    return out
