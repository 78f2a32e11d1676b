"""Input generator for the benchmark: one process, inputs a pure function
of (workload kind, rows, seed).

    python3 perfbench/gen.py --kind image --rows 2048 --seed 7 --out DIR

``image``: ``courlan_ray.sources.synth.generate_rows`` (planted exact,
re-encoded, caption-edit, substring, dirt, invalid and hot-caption rows),
written as 1,024-row parquet files -- the same layout ``synth_parquet``
writes.  ``text``: a documents table (doc_id, text) whose texts are the
same row plan's captions, rows permuted by the seed.
``DIR/input`` gets the table and ``DIR`` a ``_SUCCESS`` marker last, so a
killed run leaves no half cache.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROWS_PER_FILE = 1024
GEN_PROCS = 2


def text_table(rows: int, seed: int) -> pa.Table:
    """Documents (doc_id, text) whose texts are the captions of
    ``sources.synth``: the row plan's planted exact, caption-edit,
    substring, dirt and hot rows, with no pixel work.  ``doc_id`` is the
    row index, so ``truth_tables(rows, seed)`` is the ground truth; the row
    order is permuted by the seed."""
    from courlan_ray.sources.synth import make_caption, row_plan

    plan = row_plan(np.arange(rows, dtype=np.int64), seed)
    texts = [make_caption(int(i), int(k), int(c), seed) for i, k, c in
             zip(plan["idx"], plan["kind"], plan["content_id"])]
    perm = np.random.default_rng(seed).permutation(rows)
    return pa.table({
        "doc_id": pa.array(perm.astype(np.int64), pa.int64()),
        "text": pa.array([texts[p] for p in perm], pa.string()),
    })


def image_table(rows: int, seed: int) -> pa.Table:
    """``generate_rows`` per 1,024-row file, GEN_PROCS files at a time
    (rows are a pure function of index and seed, so the split changes
    nothing)."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from courlan_ray.sources.synth import generate_rows

    chunks = [np.arange(lo, min(lo + ROWS_PER_FILE, rows), dtype=np.int64)
              for lo in range(0, rows, ROWS_PER_FILE)]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(GEN_PROCS, mp_context=ctx) as pool:
        return pa.concat_tables(pool.map(generate_rows, chunks,
                                         [seed] * len(chunks)))


def write(tbl: pa.Table, out: str) -> None:
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "input"))
    for k, start in enumerate(range(0, tbl.num_rows, ROWS_PER_FILE)):
        pq.write_table(tbl.slice(start, ROWS_PER_FILE),
                       os.path.join(tmp, "input", f"part-{k:05d}.parquet"))
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    with open(os.path.join(out, "_SUCCESS"), "w") as fh:
        fh.write("ok")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=("image", "text"), required=True)
    ap.add_argument("--rows", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args(argv)
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    make = image_table if a.kind == "image" else text_table
    write(make(a.rows, a.seed), a.out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
