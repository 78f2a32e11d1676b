"""Reference conformance corpus (FIXTURES.md §B): the reference's own
golden assertion matrices transplanted against this engine's functions.

Sources (all /root/reference/tests/unit_tests.py):
  normalization goldens        :518-588
  query-element ordering       :590-621
  check_url accept/reject      :624-758
  domain_filter edge cases     :761-804
  mocked redirect resolution   :807-836

These pin exactly the places where this repo substitutes dependencies —
the embedded public-suffix subset for `tld` and the ISO-639-1 table for
`babel` — so divergence shows up here first.
"""

import pytest

from courlan_ray import check_url, normalize_url
from courlan_ray.functions.urls import domain_filter, extract_domain, get_tldinfo


NORMALIZATION_GOLDENS = [
    ("HTTPS://WWW.DWDS.DE/", {}, "https://www.dwds.de/"),
    ("http://test.net/foo.html#bar", {"strict": True}, "http://test.net/foo.html"),
    ("http://test.net/foo.html#bar", {"strict": False},
     "http://test.net/foo.html#bar"),
    ("http://test.net/foo.html#:~:text=night-,vision", {},
     "http://test.net/foo.html#:~:text=night-,vision"),
    ("http://www.example.org:80/test.html", {},
     "http://www.example.org/test.html"),
    ("http://www.example.org:80?p=123", {}, "http://www.example.org/?p=123"),
    ("https://hanxiao.io//404.html", {}, "https://hanxiao.io/404.html"),
    # IPv6 default ports
    ("http://[::1]:80/", {}, "http://[::1]/"),
    ("https://[::1]:443/", {}, "https://[::1]/"),
    ("http://[::1]:8080/", {}, "http://[::1]:8080/"),
    # punycode
    ("http://xn--Mnchen-3ya.de", {}, "http://münchen.de"),
    ("http://Mnchen-3ya.de", {}, "http://mnchen-3ya.de"),
    ("http://xn--München.de", {}, "http://xn--münchen.de"),
    # particular characters
    ("https://www.deutschlandfunknova.de/beitrag/nord--und-s%C3%BCdgaza-israels-armee-verk%C3%BCndet-teilung-des-gazastreifens",
     {},
     "https://www.deutschlandfunknova.de/beitrag/nord--und-s%C3%BCdgaza-israels-armee-verk%C3%BCndet-teilung-des-gazastreifens"),
    ("https://taz.de/Zukunft-des-49-Euro-Tickets/!5968518/", {},
     "https://taz.de/Zukunft-des-49-Euro-Tickets/!5968518/"),
    # trackers
    ("http://test.org/?s_cid=123&clickid=1", {}, "http://test.org/"),
    ("http://test.org/?aftr_source=0", {}, "http://test.org/"),
    ("http://test.org/?fb_ref=0", {}, "http://test.org/"),
    ("http://test.org/?this_affiliate=0", {}, "http://test.org/"),
    ("http://test.org/?utm_source=rss&utm_medium=rss", {}, "http://test.org/"),
    ("http://test.org/?utm_source=rss&#038;utm_medium=rss", {},
     "http://test.org/"),
    ("http://test.org/#partnerid=123", {}, "http://test.org/"),
    ("http://test.org/#mtm_campaign=documentation&mtm_keyword=demo&catpage=3",
     {}, "http://test.org/#catpage=3"),
    ("http://test.org/#page2", {}, "http://test.org/#page2"),
    # query-element ordering (unit_tests.py:590-621)
    ("http://test.net/foo.html?utm_source=twitter", {},
     "http://test.net/foo.html"),
    ("http://test.net/foo.html?testid=1", {}, "http://test.net/foo.html?testid=1"),
    ("http://test.net/foo.html?testid=1", {"strict": True},
     "http://test.net/foo.html"),
    ("http://test.net/foo.html?testid=1&post=abc&page=2", {},
     "http://test.net/foo.html?page=2&post=abc&testid=1"),
    ("http://test.net/foo.html?testid=1&post=abc&page=2", {"strict": True},
     "http://test.net/foo.html?page=2&post=abc"),
    ("http://test.net/foo.html?page=2&itemid=10&lang=en", {},
     "http://test.net/foo.html?itemid=10&lang=en&page=2"),
]


@pytest.mark.parametrize("url,kwargs,want", NORMALIZATION_GOLDENS)
def test_normalization_goldens(url, kwargs, want):
    assert normalize_url(url, **kwargs) == want


def test_qelems_language_raises():
    with pytest.raises(ValueError):
        normalize_url("http://test.net/foo.html?page=2&lang=en", language="de")
    with pytest.raises(ValueError):
        normalize_url(
            "http://www.evolanguage.de/index.php?page=deutschkurse_fuer_aerzte&amp;language=ES",
            language="de")


def test_urlcheck_goldens():
    assert check_url("AAA") is None
    assert check_url("1234") is None
    assert check_url("http://ab") is None
    assert check_url("ftps://example.org/") is None
    assert check_url("http://t.g/test") is None
    assert check_url("https://www.dwds.de/test?param=test&amp;other=test",
                     strict=True) == ("https://www.dwds.de/test", "dwds.de")
    assert check_url("http://example.com/index.html#term", strict=True) is None
    assert check_url("http://example.com/index.html#term",
                     strict=False)[0] == "http://example.com/index.html#term"
    assert check_url("http://example.com/test.js") is None
    assert check_url("http://twitter.com/", strict=True) is None
    assert check_url("http://twitter.com/", strict=False) is not None
    assert check_url("{mylink}") is None


def test_urlcheck_type_and_spam():
    assert check_url("http://example.org/wp-json/oembed/") is None
    assert check_url("http://livecams.com/", strict=False) == (
        "http://livecams.com", "livecams.com")
    assert check_url("http://livecams.com/", strict=True) is None
    assert check_url("https://denkiterm.wordpress.com/impressum/",
                     strict=True) is None
    assert check_url(
        "http://www.fischfutter-index.de/improvit-trocken-frostfutter-fur-fast-alle-fische/",
        strict=True) is not None


def test_urlcheck_language():
    assert check_url("http://example.com/test.html?lang=en", language="de") is None
    assert check_url("http://example.com/test.html?lang=en", language=None) is not None
    assert check_url("http://example.com/test.html?lang=en", language="en") is not None
    assert check_url("http://example.com/de/test.html", language="de") is not None
    assert check_url("http://example.com/en/test.html", language="de") is None
    assert check_url("http://example.com/en/test.html", language=None) is not None
    assert check_url("http://example.com/en/test.html", language="en") is not None
    assert check_url(
        "https://www.myswitzerland.com/de-ch/erlebnisse/veranstaltungen/wild-im-sternen/",
        language="de") is not None
    assert check_url(
        "https://www.myswitzerland.com/en-id/accommodations/other-types-of-accommodations/on-the-farm/farm-experiences-search/",
        language="en") is not None
    assert check_url(
        "https://www.myswitzerland.com/EN-ID/accommodations/other-types-of-accommodations/on-the-farm/farm-experiences-search/",
        language="en") is not None
    # impressum and index
    assert check_url("http://www.example.org/index", strict=True) is None
    assert check_url("http://www.example.org/index.html", strict=True) is None
    assert check_url("http://concordia-hagen.de/impressum.html",
                     strict=True) is None
    assert check_url("http://concordia-hagen.de/de/impressum", strict=True) is None
    assert check_url("http://parkkralle.de/detail/index/sArticle/2704",
                     strict=True) is not None
    assert check_url(
        "https://www.katholisch-in-duisdorf.de/kontakt/links/index.html",
        strict=True) is not None
    # language-prefixed hosts: lax keeps, strict drops (host-language cue)
    assert check_url(
        "https://de.nachrichten.yahoo.com/bundesliga-schiri-boss-fr%C3%B6hlich-f%C3%BCr-175850830.html",
        language="de") is not None
    assert check_url(
        "https://de.nachrichten.yahoo.com/bundesliga-schiri-boss-fr%C3%B6hlich-f%C3%BCr-175850830.html",
        language="de", strict=True) is None
    assert check_url(
        "https://de.nachrichten.other.com/bundesliga-schiri-boss-fr%C3%B6hlich-f%C3%BCr-175850830.html",
        language="en") is not None
    assert check_url(
        "https://de.nachrichten.other.com/bundesliga-schiri-boss-fr%C3%B6hlich-f%C3%BCr-175850830.html",
        language="en", strict=True) is None


def test_urlcheck_domain():
    assert check_url("http://-100x100.webp") is None
    assert check_url("http://0.gravata.html") is None
    assert check_url("http://https:") is None
    assert check_url("http://127.0.0.1") is not None
    assert check_url("http://111.111.111.111") is not None
    assert check_url("http://0127.0.0.1") is None
    assert check_url("http://2001:0db8:85a3:0000:0000:8a2e:0370:7334") is not None
    assert check_url("http://[2001:0db8:85a3:0000:0000:8a2e:0370:7334]") is None
    assert check_url("http://1:2:3:4:5:6:7:8:9") is None


def test_urlcheck_port():
    assert check_url("http://example.com:80") is not None
    assert check_url("http://example.com:80:80") is None


DOMAIN_FILTER_GOLDENS = [
    ("", False),
    ("a" * 254 + ".com", False),            # exceeds DNS length limit
    ("a." * 125 + "abc", True),             # 253 chars — at the limit
    ("a." * 125 + "abcd", False),           # 254 chars — over
    ("too-long" + "g" * 60 + ".org", False),
    ("long" + "g" * 50 + ".org", True),
    ("example.-com", False),
    ("example.", False),
    ("-example.com", False),
    ("_example.com", False),
    ("example.com:", False),
    ("a......b.com", False),
    ("*.example.com", False),
    ("exa-mple.co.uk", True),
    ("kräuter.de", True),
    ("xn--h1aagokeh.xn--p1ai", True),
    ("`$smarty.server.server_name`", False),
    ("$`)}if(a.tryconvertencoding)trycatch(e)const", False),
    ("00x200.jpg,", False),
    ("-100x100.webp", False),
    ("0.gravata.html", False),
    ("https:", False),
    ("127.0.0.1", True),
    ("::1", True),
    ("900.200.100.75", False),
    ("111.111.111", False),
    ("0127.0.0.1", False),
    ("abc.de", True),
    ("aced.de", True),
    ("dead.beef", True),
    ("example.jpg", False),
    ("example.html", False),
    ("0.gravatar.com", False),
    ("12345.org", False),
]


@pytest.mark.parametrize("domain,want", DOMAIN_FILTER_GOLDENS)
def test_domain_filter_goldens(domain, want):
    assert domain_filter(domain) is want


def test_strict_blacklist():
    """Strict mode applies the shipped BLACKLIST (core.py:115-119)."""
    from courlan_ray.settings import BLACKLIST
    assert "facebook" in BLACKLIST and "youtube" in BLACKLIST
    for url in ("http://facebook.com/page", "https://www.youtube.com/watch?v=1",
                "https://amazon.com/dp/123"):
        assert check_url(url, strict=False) is not None
        assert check_url(url, strict=True) is None
    # override: empty blacklist disables
    assert check_url("http://facebook.com/page", strict=True,
                     blacklist=set()) is not None
    # extract_domain applies a caller blacklist directly (urlutils.py:45-58)
    assert extract_domain("http://facebook.com/page",
                          blacklist={"facebook"}) is None


def test_tldinfo_multilabel_fallback():
    """Generic second-level labels under ccTLDs missing from the compact
    suffix table register three labels (ADVICE round 1)."""
    assert get_tldinfo("http://example.com.bd/x")[1] == "example.com.bd"
    assert get_tldinfo("http://www.shop.org.pk/y")[1] == "shop.org.pk"
    assert get_tldinfo("http://example.co.uk/")[1] == "example.co.uk"
    assert get_tldinfo("http://example.com/")[1] == "example.com"


def test_scrub_empty_markup():
    """REMAINING_MARKUP uses {,4} == {0,4}: empty tags are stripped too
    (ADVICE round 1; reference clean.py:22)."""
    from courlan_ray.functions.urls import scrub_url
    assert scrub_url("http://x.org/a<>b") == "http://x.org/ab"
    assert scrub_url("http://x.org/a</>b") == "http://x.org/ab"


def test_lang_filter_two_occurrence_parity():
    """Two path-language segments: the reference scores nothing (babel
    TypeError swallowed) and keeps the URL — mirrored deliberately."""
    from courlan_ray.functions.urls import lang_filter
    assert lang_filter("https://site.com/de/page/fr/x/", language="en") is True


def test_urlcheck_redirects_with_fake_fetcher():
    """Mirror of unit_tests.py:807-836 with an injectable fetcher."""
    from courlan_ray.stages.redirects import redirection_test

    def resolver_ok(url):
        return redirection_test(url, fetcher=lambda u: (200, "http://example.org"))

    assert check_url(
        "https://httpbun.org/redirect-to?url=http%3A%2F%2Fexample.org",
        with_redirects=True, redirect_resolver=resolver_ok,
    ) == ("http://example.org", "example.org")

    def resolver_404(url):
        return redirection_test(url, fetcher=lambda u: (404, u))

    assert check_url("https://httpbun.org/status/404", with_redirects=True,
                     redirect_resolver=resolver_404) is None

    def resolver_boom(url):
        def boom(u):
            raise OSError("unreachable")
        return redirection_test(url, fetcher=boom)

    assert check_url("https://www.ht.or", with_redirects=True,
                     redirect_resolver=resolver_boom) is None

    # geturl() -> None (urllib3 2.x): fall back to the request URL
    def resolver_none(url):
        return redirection_test(url, fetcher=lambda u: (200, None))

    assert check_url("http://example.org/page", with_redirects=True,
                     redirect_resolver=resolver_none) == (
        "http://example.org/page", "example.org")


def test_redirect_resolver_stage():
    """The actor-pool stage resolves a batch with an injected fetcher."""
    import pyarrow as pa
    from courlan_ray.stages.redirects import RedirectResolver

    def factory():
        table = {"http://a.example/1": (301, "http://a.example/final"),
                 "http://b.example/2": (404, None)}
        return lambda u: table.get(u, (200, u))

    stage = RedirectResolver(fetcher_factory=factory)
    out = stage(pa.table({"url": ["http://a.example/1", "http://b.example/2",
                                  "http://c.example/3"]}))
    assert out["url_final"].to_pylist() == ["http://a.example/final", "",
                                            "http://c.example/3"]
    assert out["redirect_ok"].to_pylist() == [True, False, True]


@pytest.fixture
def redirect_server():
    """Stdlib HTTP server on 127.0.0.1 with a relative redirect chain
    (/start -302-> hop -301-> final?x=1) and a 404 route."""
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    routes = {"/start": (302, "hop"), "/hop": (301, "final?x=1"),
              "/final?x=1": (200, None)}

    class Handler(BaseHTTPRequestHandler):
        def do_HEAD(self):
            status, location = routes.get(self.path, (404, None))
            self.send_response(status)
            if location:
                self.send_header("Location", location)
            self.send_header("Content-Length", "0")
            self.end_headers()

        do_GET = do_HEAD

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


def test_redirection_test_live_http(redirect_server):
    """The urllib3 fetcher against a live server: relative Location headers
    resolve to the absolute final URL, a 404 raises, and the Dataset stage
    reports the same final URL."""
    import ray.data as rd
    from courlan_ray.stages.redirects import redirection_test, resolve_redirects

    final = f"{redirect_server}/final?x=1"
    assert redirection_test(f"{redirect_server}/start") == final
    with pytest.raises(ValueError):
        redirection_test(f"{redirect_server}/missing")

    urls = [f"{redirect_server}/start", f"{redirect_server}/missing"]
    out = resolve_redirects(rd.from_items([{"url": u} for u in urls]),
                            concurrency=1).to_pandas()
    assert dict(zip(out["url"], out["url_final"])) == {urls[0]: final,
                                                       urls[1]: ""}
    assert dict(zip(out["url"], out["redirect_ok"])) == {urls[0]: True,
                                                         urls[1]: False}


def test_fast_tldinfo_matches_reference_regex_shortcut():
    """fast=True mirrors the reference's regex shortcut EXACTLY — including
    its deliberate lumping of vanity suffixes (alice.github.io ->
    ('github', 'github.io')); only the slow path consults the PSL
    (reference urlutils.py:11-17,29-36: DOMAIN_REGEX keeps the last two
    labels and never looks at a suffix table)."""
    from courlan_ray.functions.urls import get_tldinfo

    assert get_tldinfo("http://alice.github.io/page", fast=True) == \
        ("github", "github.io")
    assert get_tldinfo("http://a.blogspot.com/x", fast=True) == \
        ("blogspot", "blogspot.com")
    # slow path applies the embedded suffix table instead
    assert get_tldinfo("http://alice.github.io/page") == \
        ("alice", "alice.github.io")
