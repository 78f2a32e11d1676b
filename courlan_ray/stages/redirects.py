"""Redirect resolution: the reference's network layer as an actor-pool stage.

Mirrors ``courlan/network.py:14-72``: a urllib3 pool with a retry strategy
issues HEAD requests; acceptable status codes resolve to the final URL
seen, anything else raises ``ValueError``.  The Ray-native shape is an
actor pool — one connection pool per actor, built once in ``__init__``
(the actor-pool-with-client pattern, SURVEY.md §2.4) — with an
**injectable fetcher** so tests (and offline runs) swap the network out,
mirroring the reference's mocked-pool tests
(``tests/unit_tests.py:807-836``).

A fetcher is ``fetch(url) -> (status:int, final_url:str|None)``; it may
raise on transport failure.
"""

from __future__ import annotations

import pyarrow as pa

# cf. network.py:14-38
RETRY_TOTAL = 2
RETRY_REDIRECT = 2
RETRY_BACKOFF = 1
RETRY_STATUS_FORCELIST = [429, 499, 500, 502, 503, 504, 509, 520, 521,
                          522, 523, 524, 525, 526, 527, 530, 598]
ACCEPTABLE_CODES = {200, 300, 301, 302, 303, 304, 305, 306, 307, 308}


def make_urllib3_fetcher(timeout: int = 10, num_pools: int = 100):
    """Real-network fetcher on a shared urllib3 pool (network.py:39-41).
    Built lazily so offline environments only pay on first use."""
    from urllib.parse import urljoin

    import urllib3

    urllib3.disable_warnings(urllib3.exceptions.InsecureRequestWarning)
    retry = urllib3.util.Retry(
        total=RETRY_TOTAL, redirect=RETRY_REDIRECT, raise_on_redirect=False,
        status_forcelist=RETRY_STATUS_FORCELIST, backoff_factor=RETRY_BACKOFF)
    pool = urllib3.PoolManager(cert_reqs="CERT_NONE", num_pools=num_pools,
                               retries=retry, timeout=timeout)

    def fetch(url: str):
        # geturl() is the request path or the raw Location header, not an
        # absolute URL: replay the redirect history onto the request URL
        rhead = pool.request("HEAD", url)
        final = url
        for hop in rhead.retries.history if rhead.retries else ():
            if hop.redirect_location:
                final = urljoin(hop.url, hop.redirect_location)
        return rhead.status, final

    return fetch


def redirection_test(url: str, fetcher=None) -> str:
    """Final URL after redirects, or ``ValueError`` (network.py:47-72).

    ``fetcher`` defaults to a lazily-built urllib3 fetcher; inject a fake
    for tests/offline."""
    if fetcher is None:
        fetcher = make_urllib3_fetcher()
    try:
        status, final = fetcher(url)
    except Exception as err:
        raise ValueError(f"cannot reach URL: {url}") from err
    if status in ACCEPTABLE_CODES:
        return final or url
    raise ValueError(f"cannot reach URL: {url}")


class RedirectResolver:
    """Actor-pool stage: resolve each URL of a batch to its final
    location.  ``map_batches(RedirectResolver, fn_constructor_kwargs=...,
    concurrency=N, num_cpus=small)`` — I/O bound, so many cheap actors.

    ``fetcher_factory`` is called once per actor (connection pool setup in
    ``__init__``, never per batch); defaults to the urllib3 fetcher.
    Output adds ``url_final`` ('' on failure) and ``redirect_ok``."""

    def __init__(self, fetcher_factory=None, url_col: str = "url",
                 cache_size: int = 4096):
        self.fetch = (fetcher_factory or make_urllib3_fetcher)()
        self.url_col = url_col
        self._cache: dict[str, tuple[str, bool]] = {}
        self._cache_size = cache_size

    def _resolve(self, url: str) -> tuple[str, bool]:
        hit = self._cache.get(url)
        if hit is not None:
            return hit
        try:
            out = (redirection_test(url, self.fetch), True)
        except ValueError:
            out = ("", False)
        if len(self._cache) >= self._cache_size:
            self._cache.pop(next(iter(self._cache)))
        self._cache[url] = out
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        res = [self._resolve(u) for u in batch[self.url_col].to_pylist()]
        return (batch
                .append_column("url_final",
                               pa.array([r[0] for r in res], pa.string()))
                .append_column("redirect_ok",
                               pa.array([r[1] for r in res], pa.bool_())))


def resolve_redirects(ds, *, url_col: str = "url", fetcher_factory=None,
                      concurrency: int = 16, batch_size: int = 256):
    """Dataset stage wrapper: URL rows -> rows + (url_final, redirect_ok).
    I/O-bound: fractional ``num_cpus`` so the pool oversubscribes cores."""
    return ds.map_batches(
        RedirectResolver,
        fn_constructor_kwargs={"fetcher_factory": fetcher_factory,
                               "url_col": url_col},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=0.25)
