"""URL processing pipelines: the Ray Data equivalents of the reference CLI.

- ``process_urls``: the ``courlan -i in -o out -d rej`` filtering pipeline
  (/root/reference/courlan/cli.py:135-177) as a streaming Dataset graph:
  read_text -> check_urls map_batches -> accepted/rejected splits.
- ``sample_by_host``: the ``--sample`` pipeline (cli.py:112-132 +
  sampling.py:15-68): canonicalize -> group by hostinfo -> exact dedup
  within host -> per-host deterministic sample with exclude bounds.
- ``url_frontier_schedule``: ``establish_download_schedule`` semantics
  (urlstore.py:455-505) as a dataflow: fair per-host slots, per-URL
  backoff stamps, global sort by scheduled time.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions import urlbatch


def process_urls(ds, *, strict: bool = False, language: str | None = None,
                 with_nav: bool = False, trailing_slash: bool = True,
                 url_col: str = "text"):
    """URLs Dataset -> canonicalized Dataset with valid/reject columns.
    Consume with ``.filter(expr="valid == True")`` and the complement —
    the CLI's output/discard file split."""
    def kernel(batch: pa.Table) -> pa.Table:
        return urlbatch.check_urls_batch(
            batch[url_col], strict=strict, language=language,
            with_nav=with_nav, trailing_slash=trailing_slash)
    return ds.map_batches(kernel, batch_format="pyarrow")


def sample_by_host(ds, samplesize: int, *, exclude_min: int | None = None,
                   exclude_max: int | None = None, strict: bool = False,
                   language: str | None = None, seed: int = 0,
                   url_col: str = "text"):
    """courlan ``sample_urls`` as a distributed pipeline.

    Semantics (sampling.py:15-47): group canonical URLs by hostinfo, drop
    the root path '/', dedupe within host, drop hosts outside
    [exclude_min, exclude_max], take ``samplesize`` paths per host (all if
    fewer), output sorted per host.  The draw is seeded/key-derived
    instead of random.sample (order-free determinism, SURVEY.md §4)."""
    checked = process_urls(ds, strict=strict, language=language,
                           url_col=url_col)
    valid = checked.filter(expr="valid == True")

    def to_host_path(batch: pa.Table) -> pa.Table:
        t = urlbatch.host_path_batch(batch["url_norm"])
        return pa.table({"hostinfo": t["hostinfo"], "path": t["path"]})

    hp = valid.map_batches(to_host_path, batch_format="pyarrow")

    # distinct (host, path) via the associative per-block partials, then
    # group_sample's host-size gate and seeded per-host draw of paths
    from ..stages.agg import grouped_agg
    from ..stages.sampling import group_sample

    nonroot = hp.filter(expr="path != '/'")
    distinct = grouped_agg(nonroot, ["hostinfo", "path"],
                           [("path", "count", "_c")]).drop_columns(["_c"])
    picked = group_sample(
        distinct, "hostinfo", samplesize,
        exclude_min=exclude_min if exclude_min is not None else 0,
        exclude_max=exclude_max if exclude_max is not None else 1 << 62,
        seed=seed, id_col="path")

    def to_urls(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table(
            {"url": pc.binary_join_element_wise(b["hostinfo"], b["path"],
                                                "")})

    return picked.map_batches(to_urls, batch_format="pyarrow",
                              batch_size=None)


def url_frontier_schedule(ds, *, max_urls: int = 10_000, per_host: int = 5,
                          sleep_time: float = 5.0, url_col: str = "text"):
    """``establish_download_schedule`` as a dataflow
    (urlstore.py:455-505): cap per-host draws at ``per_host`` (fair
    share), stamp each URL with a host-local backoff (slot * sleep_time),
    global sort by scheduled time, global cap at ``max_urls``.

    Returns (url, hostinfo, sched_secs) sorted by sched_secs."""
    from ..stages.agg import grouped_agg
    from ..stages.topk import topk_per_group

    checked = process_urls(ds, url_col=url_col)
    valid = checked.filter(expr="valid == True")
    hp = valid.map_batches(
        lambda b: urlbatch.host_path_batch(b["url_norm"]),
        batch_format="pyarrow")

    # first per_host distinct paths per host in path order, slot-stamped —
    # distinct via grouped_agg, head + slot via the rank-stamping
    # topk_per_group (no per-group pandas callback)
    distinct = grouped_agg(hp, ["hostinfo", "path"],
                           [("path", "count", "_c")]).drop_columns(["_c"])
    picked = topk_per_group(distinct, ["hostinfo"],
                            [("path", "ascending")], per_host,
                            rank_col="_slot")

    def stamp(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        slots = b["_slot"].to_numpy(zero_copy_only=False)
        return pa.table({
            "url": pc.binary_join_element_wise(b["hostinfo"], b["path"], ""),
            "hostinfo": b["hostinfo"],
            "sched_secs": pa.array((slots - 1).astype(np.float64)
                                   * sleep_time),
        })

    slots = picked.map_batches(stamp, batch_format="pyarrow")
    return slots.sort("sched_secs").limit(max_urls)


def sample_urls(input_urls: list[str], samplesize: int,
                exclude_min: int | None = None,
                exclude_max: int | None = None, strict: bool = False,
                verbose: bool = False) -> list[str]:
    """Drop-in scalar API parity for the reference's ``sample_urls``
    (sampling.py:50-68), executed on Ray Data."""
    import ray.data as rd
    ds = rd.from_pandas(pd.DataFrame({"text": input_urls}))
    out = sample_by_host(ds, samplesize, exclude_min=exclude_min,
                         exclude_max=exclude_max, strict=strict)
    return sorted(r["url"] for r in out.take_all())
