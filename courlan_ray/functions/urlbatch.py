"""Vectorized batch kernels lifting the scalar URL functions into
``map_batches`` stages.

The scalar functions in ``urls.py`` define the semantics (courlan API
parity); these kernels run them over Arrow batches with cheap vectorized
pre-gates (length/prefix via pyarrow.compute) so the per-row Python work
only runs on plausible rows.  A ``reject_reason`` column replaces the
reference's ValueError/None signalling (cf. cli output/discard split,
/root/reference/courlan/cli.py:143-176)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import urls as U


def check_urls_batch(arr, *, strict: bool = False,
                     language: str | None = None, with_nav: bool = False,
                     trailing_slash: bool = True) -> pa.Table:
    """(url) batch -> (url, url_norm, domain, valid, reject_reason)."""
    raw = arr.to_pylist() if hasattr(arr, "to_pylist") else list(arr)
    n = len(raw)
    norm = np.full(n, "", dtype=object)
    dom = np.full(n, "", dtype=object)
    reason = np.full(n, "", dtype=object)

    # vectorized basic gate first (the cheap C pass)
    s = pa.array([u if isinstance(u, str) else "" for u in raw], pa.string())
    ln = pc.utf8_length(s).to_numpy(zero_copy_only=False)
    pref = pc.starts_with(s, pattern="http").to_numpy(zero_copy_only=False)
    plausible = pref & (ln >= 10) & (ln < 500)
    reason[~plausible] = "basic"

    for i in np.flatnonzero(plausible):
        got = U.check_url(raw[i], strict=strict, language=language,
                          with_nav=with_nav, trailing_slash=trailing_slash)
        if got is None:
            reason[i] = "rejected"
        else:
            norm[i], dom[i] = got

    valid = reason == ""
    return pa.table({
        "url": s,
        "url_norm": pa.array(norm, pa.string()),
        "domain": pa.array(dom, pa.string()),
        "valid": pa.array(valid),
        "reject_reason": pa.array(reason, pa.string()),
    })


def host_path_batch(arr) -> pa.Table:
    """(url) -> (hostinfo, path) — the groupby key extractor
    (cf. urlutils.py:83-96)."""
    raw = arr.to_pylist() if hasattr(arr, "to_pylist") else list(arr)
    hosts, paths = [], []
    for u in raw:
        try:
            h, p = U.get_host_and_path(u)
        except (ValueError, TypeError, AttributeError):
            h, p = "", "/"
        hosts.append(h)
        paths.append(p)
    return pa.table({"url": pa.array(raw, pa.string()),
                     "hostinfo": pa.array(hosts, pa.string()),
                     "path": pa.array(paths, pa.string())})
