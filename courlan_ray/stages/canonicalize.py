"""Canonicalization stage: the Ray transliteration of the reference's
``check_url`` gate chain (/root/reference/courlan/core.py:39-129) applied to
image+caption rows.

One stateless ``map_batches`` over zero-copy Arrow adds:
``caption_norm`` (canonical form), ``caption_key`` (case-folded dedup key),
``valid:bool`` and ``reject_reason:string`` ('' when valid).  Rejection is a
column, not an exception — both accepted and rejected rows flow to sinks,
like the CLI's output/discard split (/root/reference/courlan/cli.py:143-176).

Gate order mirrors check_url: basic (length) -> scrub/normalize -> format
allowlist -> dimension sanity -> payload magic -> spam -> language.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DedupConfig
from ..functions.caption import normalize_captions, caption_keys, spam_mask
from ..functions.textstats import lang_gate

_MAGICS = (b"FPNG", b"FJPG")


def canonicalize_batch(batch: pa.Table, cfg: DedupConfig) -> pa.Table:
    n = batch.num_rows
    caption = batch["caption"]
    norm = normalize_captions(caption)
    key = caption_keys(norm)

    reason = np.full(n, "", dtype=object)
    valid = np.ones(n, dtype=bool)

    def gate(mask: np.ndarray, name: str) -> None:
        hit = mask & valid
        reason[hit] = name
        valid[hit] = False

    ln = pc.utf8_length(norm).to_numpy(zero_copy_only=False)
    gate(ln < cfg.min_caption_len, "caption_too_short")
    gate(ln >= cfg.max_caption_len, "caption_too_long")

    fmt_ok = pc.is_in(batch["fmt"],
                      value_set=pa.array(cfg.allowed_formats)).to_numpy(zero_copy_only=False)
    gate(~fmt_ok, "bad_fmt")

    w = batch["w"].to_numpy(zero_copy_only=False)
    h = batch["h"].to_numpy(zero_copy_only=False)
    gate((w < cfg.min_dim) | (h < cfg.min_dim)
         | (w > cfg.max_dim) | (h > cfg.max_dim), "bad_dims")

    # payload magic check (cheap; full decode happens in the signature
    # stage, which can still flip rows to 'undecodable')
    payload = batch["bytes"]
    head = pc.binary_slice(payload, 0, 4).to_pylist()
    plen = pc.binary_length(payload).to_numpy(zero_copy_only=False)
    magic_ok = np.fromiter((hd in _MAGICS for hd in head), count=n, dtype=bool)
    gate(~magic_ok | (plen < 12), "bad_image")

    gate(spam_mask(norm).to_numpy(zero_copy_only=False), "spam")

    if cfg.language is not None:
        lang_ok = lang_gate(norm.to_pylist(), cfg.language)
        gate(~lang_ok, "language")

    return (batch
            .append_column("caption_norm", norm)
            .append_column("caption_key", key)
            .append_column("valid", pa.array(valid))
            .append_column("reject_reason", pa.array(reason, pa.string())))


def canonicalize(ds, cfg: DedupConfig):
    """Dataset -> Dataset with canonical columns (lazy, streaming)."""
    return ds.map_batches(lambda b: canonicalize_batch(b, cfg),
                          batch_format="pyarrow", batch_size=cfg.batch_size)


def reject_counters(ds):
    """Lineage counters: rows per reject_reason ('' = accepted).
    Partial-aggregated inside map_batches before the tiny groupby
    (SURVEY.md §4 memory row: combine before shuffle)."""
    from .agg import grouped_agg
    return grouped_agg(ds.select_columns(["reject_reason"]),
                       ["reject_reason"],
                       [("reject_reason", "count", "n")])
