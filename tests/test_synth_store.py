"""SynthPageStore on-demand page regeneration == the materialized
synthetic web, and merge hash-shuffle edge cases."""

import pyarrow as pa

import ray.data as rd

from webcollector_ray.model import CrawlDatum, datums_to_table
from webcollector_ray.sources.pagestore import PageStoreReader, SynthPageStore
from webcollector_ray.stages.merge import dedupe_by_key
from webcollector_ray.synth import SynthSpec, row_for_url, synth_pages_table


def test_row_for_url_matches_table():
    spec = SynthSpec(num_sites=2)
    table = synth_pages_table(spec)
    for i in range(len(table)):
        url = table["url"][i].as_py()
        row = row_for_url(spec, url)
        assert row is not None, url
        assert row["html"] == table["html"][i].as_py()
        assert row["code"] == table["code"][i].as_py()
        assert row["location"] == table["location"][i].as_py()
        assert row["text"] == table["text"][i].as_py()
        # a fetch skips only the golden text
        lean = row_for_url(spec, url, text=False)
        assert lean["text"] is None
        assert {**lean, "text": row["text"]} == row


def test_row_for_url_no_route():
    spec = SynthSpec(num_sites=2)
    assert row_for_url(spec, "http://site9.test/list-0.html") is None  # site oob
    assert row_for_url(spec, "http://site0.test/list-99.html") is None  # idx oob
    assert row_for_url(spec, "http://elsewhere.example/x") is None
    assert row_for_url(spec, "http://site0.test/other-0.html") is None


def test_synth_store_reader(ray_session):
    spec = SynthSpec(num_sites=2)
    reader = PageStoreReader(SynthPageStore(spec).handle())
    got = reader.get("http://site0.test/show-0.html")
    assert got is not None and got["code"] == 200
    assert b"<html>" in got["html"]
    assert reader.get("http://site0.test/nope.html") is None


def test_dedupe_single_bucket_and_empty_blocks(ray_session):
    # num_buckets=1 exercises the num_returns==1 split path; an empty
    # dataset contributes empty blocks that reduce must tolerate
    a = rd.from_arrow(datums_to_table([CrawlDatum("http://x/1"), CrawlDatum("http://x/1")]))
    empty = rd.from_arrow(datums_to_table([CrawlDatum("http://zz")]).slice(0, 0))
    out = dedupe_by_key([(a, 0), (empty, 1)], num_buckets=1).to_pandas()
    assert list(out["key"]) == ["http://x/1"]


def test_crawl_via_bucketed_store_matches_broadcast(ray_session, tmp_path):
    """The disk-bucketed store path (100 TB scale path) must produce the
    same crawl as the broadcast store."""
    from webcollector_ray.config import CrawlerConfig
    from webcollector_ray.pipelines.crawler import RamCrawler
    from webcollector_ray.sources.pagestore import build_bucketed_store

    spec = SynthSpec(num_sites=2)
    pages = synth_pages_table(spec)
    store = build_bucketed_store(pages, str(tmp_path / "store"), num_buckets=8)
    cfg = CrawlerConfig(fetch_concurrency=2, merge_num_buckets=4)
    regex = r"http://site[0-9]+\.test/(list|show)-[0-9]+\.html"

    out = {}
    for name, src in [("broadcast", pages), ("bucketed", store)]:
        c = RamCrawler(src, config=cfg, deterministic_time=True)
        c.add_seed(spec.seeds())
        c.add_regex(regex)
        df = c.start(10).crawldb.to_pandas().set_index("key").sort_index()
        out[name] = df[["url", "status", "execute_count", "code"]]
    assert out["broadcast"].equals(out["bucketed"])
