"""Helper-pipeline parity: run the ACTUAL reference scripts as oracles."""

import subprocess
import sys

import pyarrow as pa
import ray.data as rd

WP_URLS = [
    "https://myblog.wordpress.com/2014/05/01/post/",
    "https://photos.files.wordpress.com/pic.jpg",
    "http://example.org/wp-content/themes/x.css",
    "http://example.org/another/page/",       # second hit, same host
    "https://site.net/blog/2019/03/article.html",
    "http://other.com/tag/cooking/recipe",
    "https://qsite.io/?p=123",
    "http://bad.blogspot.com/2014/05/x/",     # blocklisted platform
    "ftp://not-http.example.com/wp/",         # not http
    "https://deep.example.com/a/b/c/d/e/wp/", # path depth > 4
    "HTTPS://UPPER.example.com/WP-CONTENT/x", # lowercased first
    "https://php.example.com/index.php/wp/",  # .php filtered
]

CC_LINES = [
    "com.example.www/path/page.html:http",
    "org.wikipedia.de/wiki/Ray:http",
    "net.host/:http",
    "no-record-line",
    "malformed:http",
    "de.blog.a.b/x?q=1:http",
]


def _run_reference(script, lines, extra=()):
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        fin, fout = os.path.join(d, "in.txt"), os.path.join(d, "out.txt")
        with open(fin, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        subprocess.run([sys.executable,
                        f"/root/reference/helpers/{script}",
                        "-i", fin, "-o", fout, *extra],
                       check=True, capture_output=True)
        with open(fout) as fh:
            return [l.rstrip("\n") for l in fh if l.strip()]


def test_wordpress_sources_matches_reference():
    want = _run_reference("find-wordpress-urls.py", WP_URLS)
    ds = rd.from_arrow(pa.table({"text": pa.array(WP_URLS)}))
    from courlan_ray.pipelines.helpers import wordpress_sources
    got = wordpress_sources(ds).to_pandas()["target"].tolist()
    assert got == want and len(got) >= 4


def test_wordpress_sources_lax_matches_reference():
    urls = WP_URLS + ["https://lax.example.com/some-three-words-here/x"]
    want = _run_reference("find-wordpress-urls.py", urls, extra=("-l",))
    ds = rd.from_arrow(pa.table({"text": pa.array(urls)}))
    from courlan_ray.pipelines.helpers import wordpress_sources
    got = wordpress_sources(ds, lax=True).to_pandas()["target"].tolist()
    assert got == want


def test_cc_normalize_matches_reference():
    want = _run_reference("common-crawl-normalize.py", CC_LINES)
    ds = rd.from_arrow(pa.table({"text": pa.array(CC_LINES)}))
    from courlan_ray.pipelines.helpers import cc_normalize
    got = cc_normalize(ds).to_pandas()["url"].tolist()
    assert got == want and len(got) >= 3


def test_wordpress_sources_unordered_scale_mode():
    ds = rd.from_arrow(pa.table({"text": pa.array(WP_URLS)}))
    from courlan_ray.pipelines.helpers import wordpress_sources
    got = wordpress_sources(ds, ordered=False).to_pandas()
    ordered = wordpress_sources(ds).to_pandas()
    # same host set; one row per host; targets all valid roots
    assert sorted(got["host"]) == sorted(ordered["host"])
    assert got["target"].str.startswith(("http://", "https://")).all()


def test_wordpress_ordered_mode_refuses_oversize(ray_session, monkeypatch):
    """ordered=True is the bounded driver-parity path: it must refuse an
    input past its declared cap instead of collecting it."""
    import pytest
    import ray.data as rd
    from courlan_ray.pipelines import helpers

    monkeypatch.setattr(helpers, "_ORDERED_PARITY_MAX_ROWS", 3)
    ds = rd.from_items([{"text": u} for u in WP_URLS])
    with pytest.raises(ValueError, match="ordered=False"):
        helpers.wordpress_sources(ds, ordered=True)
    # the scale path still works on the same input
    assert helpers.wordpress_sources(ds, ordered=False).count() >= 1


def test_wordpress_ordered_mode_accepts_input_at_cap(ray_session, monkeypatch):
    """An input of exactly the cap is accepted, and the capped run gives
    the same rows as an uncapped one."""
    import ray.data as rd
    from courlan_ray.pipelines import helpers

    ds = rd.from_items([{"text": u} for u in WP_URLS])
    want = helpers.wordpress_sources(ds, ordered=True).to_pandas()
    monkeypatch.setattr(helpers, "_ORDERED_PARITY_MAX_ROWS", len(WP_URLS))
    got = helpers.wordpress_sources(ds, ordered=True).to_pandas()
    assert len(got) >= 4
    assert got.equals(want)
