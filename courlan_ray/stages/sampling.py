"""Grouped sampling operators.

``group_sample`` reimplements the reference's ``sample_urls`` semantics
(/root/reference/courlan/sampling.py:15-68): per group take k rows (all if
fewer), drop whole groups outside [exclude_min, exclude_max], sorted output
per group.  One deliberate deviation (SURVEY.md §4 ordering): the draw is
*seeded and key-derived* (rank by hash(image_id, seed)) instead of
``random.sample``, so re-runs, resumes and both parallelism levels produce
byte-identical samples.

The one-per-cluster draw (UrlStore's one-per-domain ``get_url``,
urlstore.py:409-430, generalized) is the ``is_representative`` column of
``stages.components.cluster_assignments``: the minimum id of each cluster.
"""

from __future__ import annotations

import numpy as np

from ..functions.hashing import hash_strings


def group_sample(ds, key: str, k: int, *, exclude_min: int = 0,
                 exclude_max: int = 1 << 62, seed: int = 0,
                 id_col: str = "image_id"):
    """Per-group deterministic sample of k rows; groups with fewer than
    exclude_min or more than exclude_max rows are dropped entirely.

    Fully vectorized (VERDICT round 3 next #3 — no per-group pandas
    callback): group sizes come from associative per-block partials
    (stages/agg.grouped_agg), the size gate is a size-adaptive join +
    arrow filter, and the k-smallest-rank draw per group is the per-group
    partial top-k (stages/topk.topk_per_group) — each of them a keyed
    exchange only when what it holds does not fit one task
    (``joins.fits_one_task``)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from .agg import grouped_agg
    from .joins import attach_by_key
    from .topk import topk_per_group

    sizes = grouped_agg(ds, [key], [(id_col, "count", "_gsz")])
    gated = attach_by_key(ds, sizes, [key])

    def gate_and_rank(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(b["_gsz"], pa.scalar(exclude_min)),
                       pc.less_equal(b["_gsz"], pa.scalar(exclude_max)))
        b = b.filter(keep).drop_columns(["_gsz"])
        ids = b[id_col].cast(pa.string()).to_numpy(zero_copy_only=False)
        rank = hash_strings(ids.astype(object), seed=seed)
        return b.append_column("_rank", pa.array(rank.view(np.int64)))

    ranked = gated.map_batches(gate_and_rank, batch_format="pyarrow")
    picked = topk_per_group(ranked, [key],
                            [("_rank", "ascending"), (id_col, "ascending")],
                            k)

    def order_out(b: pa.Table) -> pa.Table:
        b = b.drop_columns(["_rank"])
        return b.take(pc.sort_indices(
            b, sort_keys=[(key, "ascending"), (id_col, "ascending")]))

    return picked.map_batches(order_out, batch_format="pyarrow",
                              batch_size=None)

