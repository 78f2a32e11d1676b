"""Checkpoint manifest: per-stage durable parquet + lineage records.

The scale replacement for the reference's whole-store pickle persistence
(``UrlStore.write`` / ``load_store``, /root/reference/courlan/urlstore.py:573-583)
and its signal-triggered dump (urlstore.py:144-159): each stage of the
pipeline writes its (narrow) output to a partitioned parquet directory
under the checkpoint root, atomically (write to tmp, rename), and appends
a manifest record with row counts, per-file layout, wall time and a
**cumulative config fingerprint**.

Fingerprints chain: stage_fp = sha256(upstream_fp + this stage's relevant
config fields).  Changing a verification threshold therefore invalidates
``verified_pairs`` and everything after it, but ``signatures`` and
``candidates`` hit cache — the SURVEY.md §7.4 resume-correctness rule.

A resumed run (same root, same config) returns ``read_parquet`` of the
completed stage directory without recomputing — mid-run resume skips
completed band buckets because candidate/pair state is already durable.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict

from ..config import DedupConfig
from ..sources.cache import write_parquet_atomic

# config fields that affect each stage's OUTPUT (cumulative downstream),
# for the image and the text pipeline alike.  The image "sigtable" fuses
# canonicalize+signatures, so it owns gate and signature fields (text
# reads only the latter); "exact_edges" compares sigtable values.
STAGE_FIELDS: dict[str, tuple[str, ...]] = {
    "sigtable": ("strict", "language", "min_caption_len",
                 "max_caption_len", "allowed_formats", "min_dim", "max_dim",
                 "shingle_width", "num_perm", "seed", "fingerprint_k",
                 "fingerprint_window", "channels"),
    "exact_edges": (),
    "candidates": ("bands", "phash_bands", "num_salts", "weak_bucket_cap"),
    "verified_pairs": ("jaccard_threshold", "hamming_threshold",
                       "simhash_hamming_threshold", "substring_min_ratio"),
}
STAGE_ORDER = list(STAGE_FIELDS)


class Checkpoint:
    """Stage runner with durable parquet outputs and manifest lineage."""

    def __init__(self, root: str, cfg: DedupConfig,
                 input_fingerprint: str = ""):
        self.root = root
        self.cfg = cfg
        os.makedirs(root, exist_ok=True)
        self.manifest_path = os.path.join(root, "manifest.jsonl")
        self._fps = self._chain_fingerprints(cfg, input_fingerprint)

    @staticmethod
    def _chain_fingerprints(cfg: DedupConfig, input_fp: str) -> dict[str, str]:
        d = asdict(cfg)
        fps = {}
        acc = input_fp
        for stage in STAGE_ORDER:
            fields = {k: d.get(k) for k in STAGE_FIELDS[stage]}
            blob = acc + json.dumps(fields, sort_keys=True, default=str)
            acc = hashlib.sha256(blob.encode()).hexdigest()[:16]
            fps[stage] = acc
        return fps

    def stage_fingerprint(self, name: str) -> str:
        return self._fps.get(name, self._fps[STAGE_ORDER[-1]])

    def _dir(self, name: str) -> str:
        return os.path.join(self.root,
                            # no '=' in the name: key=value path segments
                            # trigger hive-partition inference on read and
                            # would inject a spurious 'stage' column
                            f"stage-{name}-{self.stage_fingerprint(name)}")

    def completed(self, name: str) -> bool:
        return os.path.exists(os.path.join(self._dir(name), "_SUCCESS"))

    def run(self, name: str, make):
        """Return the stage's Dataset: cached parquet if this (stage,
        fingerprint) already completed, else compute + persist + record."""
        import ray.data as rd

        out_dir = self._dir(name)
        if self.completed(name):
            self._record(name, status="skipped", out_dir=out_dir)
            return rd.read_parquet(out_dir)

        t0 = time.time()
        # a zero-row stage (e.g. no exact duplicates) persists one empty
        # schema-bearing file, so the resumed read is the same typed table
        write_parquet_atomic(make(), out_dir, self.stage_fingerprint(name))
        result = rd.read_parquet(out_dir)
        files = sorted(f for f in os.listdir(out_dir) if f.endswith(".parquet"))
        # per-PARTITION lineage (north_rule): one record per output file
        # with its row count (parquet footer metadata only — no data read),
        # so a resumed run can audit exactly which partitions exist
        import pyarrow.parquet as pq
        parts = {f: pq.read_metadata(os.path.join(out_dir, f)).num_rows
                 for f in files}
        self._record(name, status="computed", out_dir=out_dir,
                     rows=result.count(), n_files=len(files),
                     partition_rows=parts,
                     wall_sec=round(time.time() - t0, 3))
        return result

    def _record(self, name: str, **kw) -> None:
        rec = {"stage": name, "config_fp": self.stage_fingerprint(name),
               "ts": time.strftime("%Y-%m-%dT%H:%M:%S"), **kw}
        with open(self.manifest_path, "a") as fh:
            fh.write(json.dumps(rec) + "\n")

    def records(self) -> list[dict]:
        if not os.path.exists(self.manifest_path):
            return []
        with open(self.manifest_path) as fh:
            return [json.loads(line) for line in fh if line.strip()]
