"""HTML link-extraction pipeline: synthetic-corpus determinism, the
order-independence invariant its oracle relies on, and plumbing parity
between the Dataset pipeline and the scalar kernel.  (The full
Ray-vs-DuckDB value comparison runs in tests/test_oracles.py.)"""

import numpy as np
import pyarrow as pa

from courlan_ray.functions.urls import extract_links
from courlan_ray.sources.htmlsynth import (KIND_NAMES, make_page,
                                           synth_html_table)

SF = "/root/testdata/sf0.01"


def test_synth_html_deterministic():
    a = synth_html_table(60, 42)
    b = synth_html_table(60, 42)
    assert a.equals(b)
    c = synth_html_table(60, 43)
    assert not a.equals(c)
    assert a.column_names == ["page_id", "base_url", "html"]


def test_corpus_covers_every_link_kind():
    htmls = " ".join(synth_html_table(200, 42)["html"].to_pylist())
    # one marker substring per kind template
    markers = ["/a", "SITE", "utm_source", "/d", 'href="f', "//ext",
               "https://ext", "nofollow", "mailto:", ".jpg", "/feed",
               "#sec", "http://s.o/"]
    assert len(markers) == len(KIND_NAMES)
    for m in markers:
        assert m in htmls, f"kind marker {m!r} missing from corpus"


def _kept(i: int) -> set[str]:
    _, base, html = make_page(i, 42)
    return extract_links(html, url=base, external_bool=False,
                         strict=False, with_nav=True)


def test_no_variant_collisions_within_page():
    """The oracle's exactness relies on per-page kept sets having no
    +-slash / http<->https variant pairs (is_known_link's variant dedup is
    set-iteration-order dependent; exact duplicates are not)."""
    for i in range(300):
        links = _kept(i)
        for u in links:
            flip = u.rstrip("/") if u.endswith("/") else u + "/"
            other = "http" + u[5:] if u.startswith("https") else \
                "https" + u[4:]
            assert flip not in links
            assert other not in links and \
                (other.rstrip("/") if other.endswith("/")
                 else other + "/") not in links


def test_kept_links_are_canonical_and_internal():
    for i in range(50):
        host = f"site{i % 50}.org"
        for u in _kept(i):
            assert u.startswith(f"https://{host}/"), u
            assert "utm_" not in u and ":443" not in u
            assert not u.endswith((".jpg", "/feed"))
            assert u == u.lower() or "#" in u  # host+path lowercase


def test_pipeline_matches_scalar_kernel(ray_session):
    """The Dataset pipeline's per-url page counts equal a driver-side
    recomputation with the scalar kernel over the same corpus."""
    from collections import Counter

    from courlan_ray.pipelines.extras import _HTML_ROWS, html_extract_links

    out = html_extract_links(SF).to_pandas()
    want: Counter = Counter()
    for i in range(_HTML_ROWS["0.01"]):
        for u in _kept(i):
            want[u] += 1
    got = dict(zip(out["url"], out["n_pages"]))
    assert got == dict(want)
