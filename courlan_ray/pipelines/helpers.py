"""Ray ports of the reference's helper scripts (parity surface).

- ``wordpress_sources``: /root/reference/helpers/find-wordpress-urls.py —
  extract canonical WordPress site roots from a URL stream (regex cascade
  + platform blocklist + path-depth cap + first-seen-host dedup).
- ``cc_normalize``: /root/reference/helpers/common-crawl-normalize.py —
  revert Common-Crawl reversed-host index lines (``de.example.www/p:http``)
  to plain URLs.

Both mirror the reference line-for-line in semantics (tests run the
ACTUAL reference scripts as subprocess oracles); the regex cascades are
per-row like the originals, compiled once per module — these are
URL-stream utilities, not batch-hot dedup kernels.  Note the reference's
``line is not lastseen`` consecutive-dedup is an identity comparison that
never fires for ordinary strings; mirrored as a no-op for parity.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

# --- find-wordpress-urls.py:60-91 (find_target) ---
# ordered=True parity mode collects the line stream on the driver; cap it
# (~60 B/row -> ~300 MB) so the scale path must be chosen explicitly
_ORDERED_PARITY_MAX_ROWS = 5_000_000

_WP_HOST = re.compile(r"https?://.+?\.wordpress\.[a-z]{2,3}")
_WP_FILES = re.compile(r"\.files\.wordpress\.")
_WP_HOST_CAP = re.compile(r"(htt.+?\.wordpress\.[a-z]{2,3})/?")
_WP_KO = re.compile(r"(.+?)(/wp/|/wordpress/|/wp-content/)")
_WP_TAGCAT = re.compile(r"(.+?)(/tag/|/category/|\?cat=)")
_WP_QUERY_S = re.compile(r"/\?p=|\?page_id=|\?paged=/")
_WP_QUERY_M = re.compile(r"(https?://.+?/)(blog/|weblog/)?(\?p=|\?page_id=|\?paged=)")
_WP_TYPES_S = re.compile(r"/20[0-9]{2}/[0-9]{2}/|/archives/")
_WP_TYPES_M = re.compile(r"(https?://.+?/)(blog/|weblog/)?(20[0-9]{2}/[0-9]{2}/|/archives/)")
_WP_LAX_S = re.compile(r"/[a-z]+-[a-z]+-[a-z]+|/20[0-9]{2}/")
_WP_LAX_M = re.compile(r"(https?://.+?/)(blog/|weblog/)?(/[a-z]+-[a-z]+-[a-z]+|/20[0-9]{2}/)")
# outer-loop filters (find-wordpress-urls.py:101-116)
_WP_BLOCK = re.compile(
    r"\.blogspot\.|\.google\.|\.tumblr\.|\.typepad\.com|\.wp\.com"
    r"|\.archive\.|akamai|fbcdn|baidu\.com|\.gravatar\.")
_WP_POST = re.compile(r"=|\.php")
_WP_HOSTNORM = re.compile(r"https?://(www\.)?(.+?)/")


def find_wordpress_target(url: str, lax: bool = False) -> str | None:
    """Reference ``find_target`` (find-wordpress-urls.py:60-91), verbatim
    semantics."""
    if _WP_HOST.match(url):
        url = _WP_FILES.sub(".wordpress.", url)
        m = _WP_HOST_CAP.match(url)
        if m:
            return m.group(1).rstrip("/") + "/"
    m = _WP_KO.match(url)
    if m:
        return m.group(1).rstrip("/") + "/"
    m = _WP_TAGCAT.match(url)
    if m:
        return m.group(1).rstrip("/") + "/"
    if _WP_QUERY_S.search(url):
        m = _WP_QUERY_M.match(url)
        if m:
            if m.group(2) and m.group(3):
                return m.group(1) + m.group(2)
            return m.group(1).rstrip("/") + "/"
    if _WP_TYPES_S.search(url):
        m = _WP_TYPES_M.search(url)
        if m:
            if m.group(2) and m.group(3):
                return m.group(1) + m.group(2)
            return m.group(1).rstrip("/") + "/"
    if lax and _WP_LAX_S.search(url):
        m = _WP_LAX_M.search(url)
        if m:
            if m.group(2) and m.group(3):
                return m.group(1) + m.group(2)
            return m.group(1).rstrip("/") + "/"
    return None


def wordpress_sources(ds, *, lax: bool = False, text_col: str = "text",
                      ordered: bool = True):
    """URL-line Dataset -> WordPress site roots, one per host.

    ``ordered=True`` (parity mode): one target per FIRST-seen host in
    input order, exactly the sequential script's known_hosts semantics —
    this requires global line numbers, so the (bounded) line stream is
    collected once.  ``ordered=False`` (scale mode): fully distributed,
    keeps the lexicographically smallest target per host — deterministic
    and order-free, for inputs too large to number on one node."""
    from ..stages.agg import grouped_agg

    def kernel(b: pa.Table) -> pa.Table:
        targets, hosts, lines = [], [], []
        if "__line" in b.schema.names:
            line_no = b["__line"].to_numpy(zero_copy_only=False)
        else:
            line_no = np.zeros(b.num_rows, dtype=np.int64)
        for i, raw in enumerate(b[text_col].to_pylist()):
            url = raw.lower().rstrip("\n")
            if not (url.startswith("http") and len(url) > 11) \
                    or _WP_BLOCK.search(url):
                continue
            t = find_wordpress_target(url, lax)
            if not t or _WP_POST.search(t) or t.count("/") > 4:
                continue
            m = _WP_HOSTNORM.search(t)
            if not m:
                continue
            targets.append(t)
            hosts.append(m.group(2))
            lines.append(int(line_no[i]))
        return pa.table({"host": pa.array(hosts, pa.string()),
                         "target": pa.array(targets, pa.string()),
                         "__line": pa.array(lines, pa.int64())})

    import ray.data as rd
    from ..stages.joins import join

    if not ordered:
        cand = ds.map_batches(kernel, batch_format="pyarrow")
        firsts = grouped_agg(cand, ["host"], [("target", "min", "target")])
        return firsts.select_columns(["host", "target"])

    # parity mode: global line numbers (bounded input; order matters).
    # Guarded like every other driver-side path: refuse before collecting
    # rather than OOM the driver on an unbounded crawl list.  At most
    # cap + 1 rows are ever materialized; within the cap that one
    # materialization is the input itself.
    cap = _ORDERED_PARITY_MAX_ROWS
    ds = ds.limit(cap + 1).materialize()
    if ds.count() > cap:
        raise ValueError(
            f"wordpress_sources(ordered=True) is the bounded reference-"
            f"parity mode (<= {cap} rows); got more than {cap} rows. "
            f"Use ordered=False (distributed, order-free) at scale.")
    tbl = ds.to_pandas()
    tbl["__line"] = np.arange(len(tbl), dtype=np.int64)
    cand = rd.from_pandas(tbl).map_batches(kernel, batch_format="pyarrow")
    firsts = grouped_agg(cand, ["host"], [("__line", "min", "__first")])
    joined = join(cand, firsts, "inner", ["host"])

    def keep_first(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keep = pc.equal(b["__line"], b["__first"])
        return b.filter(keep).select(["host", "target", "__line"])

    out = joined.map_batches(keep_first, batch_format="pyarrow")
    return out.sort("__line").drop_columns(["__line"])


# --- common-crawl-normalize.py:36-64 ---
_CC_TAIL = re.compile(r":http$")
_CC_DOT = re.compile(r"\./")
_CC_CORE = re.compile(r"(.+?)/")
_CC_ELEM = re.compile(r".+?\.")
_CC_LAST = re.compile(r"\.([^\.]+)$")
_CC_PATH = re.compile(r"^.+?/")


def cc_normalize_line(line: str) -> str | None:
    """One reversed-host index line -> plain URL (or None when the line is
    not an ``:http`` record or is malformed, mirroring the script's
    'Curious one' skips)."""
    line = line.rstrip()
    if not _CC_TAIL.search(line):
        return None
    line = _CC_TAIL.sub("", line)
    line = _CC_DOT.sub("/", line, 1)
    m = _CC_CORE.match(line)
    if not m:
        return None
    core = m.group(1)
    if "." not in core:
        return None
    elements = _CC_ELEM.findall(core)
    m = _CC_LAST.search(core)
    if not m:
        return None
    lastone = m.group(1)
    core = "".join(reversed(elements))
    core = re.sub(r"\.$", "", core)
    line = _CC_PATH.sub("/", line)
    return "http://" + lastone + "." + core + line


def cc_normalize(ds, *, text_col: str = "text"):
    """Dataset of index lines -> Dataset of normalized URLs (order
    preserved; non-record lines dropped)."""
    def kernel(b: pa.Table) -> pa.Table:
        out = [u for u in (cc_normalize_line(x)
                           for x in b[text_col].to_pylist()) if u]
        return pa.table({"url": pa.array(out, pa.string())})

    return ds.map_batches(kernel, batch_format="pyarrow")
