"""north_rule frontier-service extensions: robots.txt policy cache,
priority-queue generate order, politeness routing (one fetch task per
routed block), hot-host salt."""

import pyarrow.parquet as pq
import pytest

from webcollector_ray.config import CrawlerConfig
from webcollector_ray.model import STATUS_DB_FAILED, STATUS_DB_SUCCESS, CrawlDatum
from webcollector_ray.pipelines.crawler import RamCrawler
from webcollector_ray.sources.pagestore import PageStoreReader, SynthPageStore
from webcollector_ray.state.robots import RobotsCache, RobotsPolicy
from webcollector_ray.synth import SynthSpec, row_for_url

REGEX = r"http://site[0-9]+\.test/(list|show)-[0-9]+\.html"


# ----------------------------------------------------------- policy unit


def test_robots_policy_parse_and_match():
    text = """
# comment
User-agent: *
Disallow: /private/
Allow: /private/ok
Disallow: /tmp

User-agent: special-bot
Disallow: /
"""
    p = RobotsPolicy.parse(text, "MyCrawler/1.0")
    assert p.allowed("/anything")
    assert not p.allowed("/private/x")
    assert p.allowed("/private/ok/page.html")  # longest-prefix Allow wins
    assert not p.allowed("/tmp/file")
    p2 = RobotsPolicy.parse(text, "special-bot")
    assert not p2.allowed("/anything")


def test_robots_policy_rfc9309_wildcards():
    text = """
User-agent: *
Disallow: /*.pdf
Disallow: /cgi-*/run
Disallow: /exact.html$
Allow: /*.pdf$
"""
    p = RobotsPolicy.parse(text, "anybot")
    # '*' spans any char run mid-pattern
    assert not p.allowed("/docs/report.pdfx")       # /*.pdf (no anchor)
    assert not p.allowed("/cgi-bin/run")
    assert p.allowed("/cgi-bin/walk")
    # '$' anchors the end; Allow /*.pdf$ is longer than Disallow /*.pdf
    assert p.allowed("/docs/report.pdf")
    # trailing-$ rule matches only the exact path
    assert not p.allowed("/exact.html")
    assert p.allowed("/exact.html?q=1")


def test_robots_cache_keyed_by_scheme():
    class FakeReader:
        def get(self, url):
            if url.startswith("https://"):
                return {"code": 200, "html": b"User-agent: *\nDisallow: /\n"}
            return None  # http robots 404s -> allow all

    c = RobotsCache(FakeReader())
    assert c.allowed("http://h.test/page.html")
    assert not c.allowed("https://h.test/page.html")


def test_robots_policy_empty_and_missing_group():
    assert RobotsPolicy.parse("", "*").allowed("/x")
    p = RobotsPolicy.parse("User-agent: other\nDisallow: /\n", "mybot")
    assert p.allowed("/x")  # no matching group -> allow


# ------------------------------------------------------ cache over store


def test_robots_cache_from_synth_store():
    spec = SynthSpec(num_sites=2, robots_rules=["Disallow: /show-"])
    reader = PageStoreReader(SynthPageStore(spec).handle())
    cache = RobotsCache(reader, shared=False)  # isolate the len() check
    assert cache.allowed("http://site0.test/list-0.html")
    assert not cache.allowed("http://site0.test/show-3.html")
    # host without robots (out of range) -> allow all
    assert cache.allowed("http://elsewhere.example/show-1.html")
    # cached: second lookup hits the dict
    assert not cache.allowed("http://site0.test/show-9.html")
    assert len(cache._cache) == 2


def test_synth_robots_row():
    spec = SynthSpec(num_sites=1, robots_rules=["Disallow: /bad-"])
    row = row_for_url(spec, "http://site0.test/robots.txt")
    assert row is not None and row["code"] == 200
    assert b"Disallow: /bad-" in row["html"]
    assert row_for_url(SynthSpec(num_sites=1), "http://site0.test/robots.txt") is None


# --------------------------------------------------------- crawl w/robots


def test_crawl_obeys_robots(ray_session):
    spec = SynthSpec(num_sites=2, robots_rules=["Disallow: /show-"])
    cfg = CrawlerConfig(
        fetch_concurrency=2, merge_num_buckets=4, obey_robots=True,
        max_execute_count=0,
    )
    c = RamCrawler(SynthPageStore(spec), config=cfg, deterministic_time=True)
    c.add_seed(spec.seeds())
    c.add_regex(REGEX)
    res = c.start(10)
    df = res.crawldb.to_pandas().set_index("key")
    shows = df[df.index.str.contains("/show-")]
    lists = df[df.index.str.contains("/list-")]
    assert len(shows) > 0 and (shows["status"] == STATUS_DB_FAILED).all()
    assert (shows["meta"].str.contains("s_robots")).all()
    assert (lists["status"] == STATUS_DB_SUCCESS).all()


def test_crawl_without_robots_flag_ignores_rules(ray_session):
    spec = SynthSpec(num_sites=1, robots_rules=["Disallow: /show-"])
    cfg = CrawlerConfig(fetch_concurrency=2, merge_num_buckets=4)
    c = RamCrawler(SynthPageStore(spec), config=cfg, deterministic_time=True)
    c.add_seed(spec.seeds())
    c.add_regex(REGEX)
    res = c.start(10)
    df = res.crawldb.to_pandas().set_index("key")
    shows = df[df.index.str.contains("/show-")]
    assert (shows["status"] == STATUS_DB_SUCCESS).all()


# -------------------------------------------------------- priority queue


def test_priority_queue_generate_order(ray_session):
    spec = SynthSpec(num_sites=3)
    cfg = CrawlerConfig(
        fetch_concurrency=2, merge_num_buckets=4,
        priority_meta_key="pri", topn=1,
    )
    c = RamCrawler(SynthPageStore(spec), config=cfg, deterministic_time=True)
    for s, pri in [(0, 1.0), (1, 9.0), (2, 5.0)]:
        d = CrawlDatum(f"http://site{s}.test/list-0.html")
        d.set_meta("pri", pri)
        c.add_seed(d)
    c.add_regex(REGEX)
    res = c.start(1)
    # topn=1 + priority order -> only the pri=9 seed is fetched
    assert res.depths[0].generated == 1
    df = res.crawldb.to_pandas().set_index("key")
    assert df.loc["http://site1.test/list-0.html", "status"] == STATUS_DB_SUCCESS
    assert df.loc["http://site0.test/list-0.html", "status"] == 0
    assert df.loc["http://site2.test/list-0.html", "status"] == 0


# ------------------------------ politeness path: one task per routed block


def test_politeness_budget_same_results(ray_session):
    """politeness routing + per-host budget (one task per routed block)
    must not change the crawl's final state, only its pacing."""
    spec = SynthSpec(num_sites=2)
    base = CrawlerConfig(fetch_concurrency=2, merge_num_buckets=4)
    polite = base.replace(politeness_budget_ms=1, host_salt_threshold=5)

    out = {}
    for name, cfg in [("plain", base), ("polite", polite)]:
        c = RamCrawler(SynthPageStore(spec), config=cfg, deterministic_time=True)
        c.add_seed(spec.seeds())
        c.add_regex(REGEX)
        df = c.start(10).crawldb.to_pandas().set_index("key").sort_index()
        out[name] = df[["url", "status", "execute_count", "code"]]
    assert out["plain"].equals(out["polite"])


# ------------------------------------------------------- output helpers


def test_politeness_host_single_block(ray_session):
    """The politeness invariant: after routing, every host's rows live
    in exactly one block — the fetch wave runs one task per routed
    block, so two fetch tasks can never interleave one host and the
    per-task token bucket is globally serializing."""
    import ray
    import ray.data as rd

    from webcollector_ray.model import CrawlDatum, datums_to_table
    from webcollector_ray.pipelines.crawler import RamCrawler
    from webcollector_ray.sources.pagestore import SynthPageStore
    from webcollector_ray.synth import SynthSpec

    from webcollector_ray.config import CrawlerConfig

    spec = SynthSpec(num_sites=6)
    cfg = CrawlerConfig(politeness_budget_ms=1, fetch_concurrency=3)
    c = RamCrawler(SynthPageStore(spec), config=cfg, deterministic_time=True)
    datums = [
        CrawlDatum(f"http://site{s}.test/show-{j}.html", execute_time=0)
        for s in range(spec.num_sites)
        for j in range(spec.shows_per_site)
    ]
    routed = c._route_by_host(rd.from_arrow(datums_to_table(datums)))
    blocks = [ray.get(r) for r in routed.to_arrow_refs()]
    host_block: dict = {}
    for bi, t in enumerate(blocks):
        if t is None or len(t) == 0:
            continue
        for u in t["url"].to_pylist():
            host = u.split("/")[2]
            assert host_block.setdefault(host, bi) == bi, (
                f"host {host} split across blocks"
            )
    assert len(host_block) == spec.num_sites


def test_politeness_global_rate_wall_clock(ray_session):
    """Behavioral pin of the GLOBAL per-host rate: 16 same-host seeds
    under a 40 ms budget must take >= 15 * 40 ms of wall time within
    the depth. If two fetch tasks ever split the host, each would hold
    its own token bucket and the wall time would halve."""
    import time

    from webcollector_ray.config import CrawlerConfig
    from webcollector_ray.pipelines.crawler import RamCrawler
    from webcollector_ray.sources.pagestore import SynthPageStore
    from webcollector_ray.synth import SynthSpec

    spec = SynthSpec(num_sites=1)
    # fetch_concurrency must leave CPU headroom for the routing
    # exchange's own tasks on the 4-cpu test cluster
    cfg = CrawlerConfig(
        politeness_budget_ms=40, fetch_concurrency=2, merge_num_buckets=4,
    )
    c = RamCrawler(SynthPageStore(spec), config=cfg)
    c.add_seed(
        [f"http://site0.test/show-{j}.html" for j in range(spec.shows_per_site)]
    )
    c.add_regex(r"-no-follow-")  # fetch only the seeds
    t0 = time.time()
    res = c.start(1)
    elapsed = time.time() - t0
    assert res.depths[0].fetch_success == spec.shows_per_site
    assert elapsed >= 0.6, f"host interleaved across fetch tasks? {elapsed:.2f}s"


def test_fs_output_path():
    from webcollector_ray.functions.output import fs_output_path

    assert fs_output_path("http://a.com") == "a.com/index.html"
    assert fs_output_path("http://a.com/dir/") == "a.com/dir/index.html"
    assert fs_output_path("http://a.com/dir/page") == "a.com/dir/page.html"
    assert fs_output_path("http://a.com/dir/page.php") == "a.com/dir/page.php"
    assert (
        fs_output_path("http://a.com/p.php?id=2&x=1") == "a.com/p.php_id=2&x=1"
    )
    assert fs_output_path("not a url") is None


def test_datum_to_string_and_hashset_filter():
    from webcollector_ray.functions.output import (
        HashSetNextFilter,
        datum_to_string,
    )

    d = CrawlDatum("http://a/1", status=STATUS_DB_SUCCESS, execute_time=0,
                   execute_count=2, code=200)
    d.set_meta("depth", 3)
    s = datum_to_string(d)
    assert "KEY: http://a/1" in s and "STATUS: success" in s
    assert "META[0]: (depth,3)" in s

    nf = HashSetNextFilter({"http://a/2"})
    assert nf(CrawlDatum("http://a/2"), d) is None
    assert nf(CrawlDatum("http://a/3"), d) is not None


def test_hosts_of_array_matches_host_of():
    from webcollector_ray.urls import host_of, hosts_of_array

    cases = [
        "http://site0.test/a.html",
        "HTTPS://Ex.COM:8080/p?q#f",
        "mailto:x@y",
        "//cdn.host/x",
        "relative/path",
        "",
        "http://user:pw@h.test/x",
        "http://h.test?query-only",
    ]
    assert list(hosts_of_array(cases)) == [host_of(u) for u in cases]


def test_hot_host_census_salts_only_hot(ray_session):
    """Distributed census: a host above host_salt_threshold is split
    over multiple salted routes; hosts below keep their plain route.
    The census runs through the host-hash exchange — only hosts above
    the threshold ever reach the driver."""
    import ray
    import ray.data as rd

    from webcollector_ray.config import CrawlerConfig
    from webcollector_ray.model import CrawlDatum, datums_to_table
    from webcollector_ray.pipelines.crawler import RamCrawler
    from webcollector_ray.sources.pagestore import SynthPageStore
    from webcollector_ray.synth import SynthSpec

    spec = SynthSpec(num_sites=2)
    cfg = CrawlerConfig(fetch_concurrency=3, host_salt_threshold=10)
    c = RamCrawler(SynthPageStore(spec), config=cfg, deterministic_time=True)
    datums = [
        CrawlDatum(f"http://hot.test/p{i}.html", execute_time=0)
        for i in range(60)
    ] + [CrawlDatum(f"http://cold{i}.test/x.html", execute_time=0)
         for i in range(5)]
    routed = c._route_by_host(rd.from_arrow(datums_to_table(datums)))
    # recompute the routes the way the blocks were formed: group blocks,
    # hot host must appear in >1 block only via salted routes — observe
    # indirectly: with 60 rows and threshold 10 the salt count is 7, so
    # hot.test rows may span several blocks while each cold host still
    # lives in exactly one
    blocks = [ray.get(r) for r in routed.to_arrow_refs()]
    cold_block: dict = {}
    hot_blocks = set()
    n_rows = 0
    for bi, t in enumerate(blocks):
        if t is None or len(t) == 0:
            continue
        n_rows += len(t)
        for u in t["url"].to_pylist():
            host = u.split("/")[2]
            if host == "hot.test":
                hot_blocks.add(bi)
            else:
                assert cold_block.setdefault(host, bi) == bi
    assert n_rows == 65  # routing loses no rows
    assert len(hot_blocks) >= 2, "hot host was not spread by salting"
