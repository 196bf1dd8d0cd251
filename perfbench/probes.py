"""Fixed-size layer probes, run in the benchmark process after the traced
crawl.

Kernel probes time one engine kernel on a fixed input, so a kernel
speed-up can be told apart from a scheduling one. The other probes give
the layers a workload's own crawl does not exercise (host routing, the
seen filter, checkpoint + resume) a number on every workload, measured
on that workload's final crawldb.
"""

from __future__ import annotations

import os
import statistics
import time
import zlib

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

from webcollector_ray.charset import decode_html, guess_encoding
from webcollector_ray.config import CrawlerConfig
from webcollector_ray.extractor import get_news_by_html
from webcollector_ray.functions import joins
from webcollector_ray.links import fast_links_by_regex
from webcollector_ray.model import FRONTIER_SCHEMA
from webcollector_ray.regex_rule import RegexRule
from webcollector_ray.sources.pagestore import PageStoreReader, SynthPageStore
from webcollector_ray.stages.merge import dedupe_by_key_refs
from webcollector_ray.state.frontier import CheckpointStore
from webcollector_ray.state.seen import ShardedSeenFilter

from spans import Tracer
import workloads

REPEATS = 3
PROBE_PAGES = 600  # pages per pagestore / link-scan pass
PROBE_ARTICLES = 120  # articles per CEPF pass
MERGE_ROWS = 60_000  # rows in the fixed merge-kernel frontier
SEEN_PROBE_KEYS = 100_000  # never-inserted keys checked against the filter


def _rate(n: int, fn) -> float:
    """Median items/s of REPEATS passes of fn over n items."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return n / statistics.median(times)


def _urls(spec, n: int, kinds=("list", "show")) -> list:
    out = []
    for s in range(spec.num_sites):
        for kind in kinds:
            count = spec.lists_per_site if kind == "list" else spec.shows_per_site
            out += [f"http://site{s}.test/{kind}-{i}.html" for i in range(count)]
        if len(out) >= n:
            break
    return out[:n]


def kernel_probes(w: "workloads.Workload") -> dict:
    """Per-page kernels on this workload's own pages, plus the merge
    kernel on a fixed synthetic frontier (the same on every workload)."""
    reader = PageStoreReader(SynthPageStore(w.spec).handle())
    urls = _urls(w.spec, PROBE_PAGES)
    articles = _urls(w.spec, PROBE_ARTICLES, kinds=("show",))

    def html(u):
        body = reader.get(u)["html"]
        return decode_html(body, guess_encoding(body))

    pages = [(u, html(u)) for u in urls]
    article_pages = [(u, html(u)) for u in articles]
    rule = RegexRule([workloads.LINK_REGEX])
    return {
        "pagestore.gets_per_s": _rate(
            len(urls), lambda: [reader.get(u) for u in urls]),
        "extract.cepf_pages_per_s": _rate(
            len(article_pages),
            lambda: [get_news_by_html(h, u) for u, h in article_pages]),
        "links.fast_pages_per_s": _rate(
            len(pages),
            lambda: [fast_links_by_regex(h, u, rule) for u, h in pages]),
        "merge.kernel_rows_per_s": _merge_kernel_rate(),
    }


def _frontier(keys: list, status: int, ecount: int) -> pa.Table:
    n = len(keys)
    return pa.table({
        "key": keys, "url": keys,
        "status": pa.array([status] * n, pa.int8()),
        "execute_time": pa.array([1] * n, pa.int64()),
        "execute_count": pa.array([ecount] * n, pa.int32()),
        "code": pa.array([200] * n, pa.int32()),
        "location": pa.nulls(n, pa.string()),
        "meta": [""] * n,
    }, schema=FRONTIER_SCHEMA)


def _merge_kernel_rate() -> float:
    """dedupe_by_key_refs over a fixed crawldb + fetch + link frontier
    (half the link keys are new, half repeat crawldb keys)."""
    third = MERGE_ROWS // 3
    key = "http://k{}.test/p.html".format
    crawldb = _frontier([key(i) for i in range(third)], 0, 0)
    fetch = _frontier([key(i) for i in range(0, third, 2)], 5, 1)
    link = _frontier([key(i) for i in range(third // 2, third // 2 + third)],
                     0, 0)
    rows = len(crawldb) + len(fetch) + len(link)

    def blocks(t):
        return rd.from_arrow([t.slice(i, 2048) for i in range(0, len(t), 2048)])

    parts = [(blocks(fetch), 0), (blocks(crawldb), 1), (blocks(link), 2)]

    def once():
        out = dedupe_by_key_refs(parts, CrawlerConfig().merge_num_buckets)
        refs = [r for group in out for r in group]
        ray.wait(refs, num_returns=len(refs), fetch_local=False)

    once()  # warm: first use ships the remote functions to workers
    return _rate(rows, once)


def route_probe(crawldb, num_cpus: int) -> dict:
    """The polite-mode host route (crawler._route_by_host): tag rows
    with crc32(host) % buckets, one exchange_reduce, per-bucket host
    order. Timed through the tracer's exchange_reduce span."""
    n_buckets = max(num_cpus * 2, 4)

    def add_route(batch: pa.Table) -> pa.Table:
        from webcollector_ray.urls import hosts_of_array

        hosts = hosts_of_array(batch["url"])
        bk = [zlib.crc32(h.encode()) % n_buckets for h in hosts]
        batch = batch.append_column("__host", pa.array(hosts, pa.string()))
        return batch.append_column("__bucket", pa.array(bk, pa.int32()))

    def order(t: pa.Table) -> pa.Table:
        return t.sort_by([("__host", "ascending"), ("key", "ascending")]) \
            .select(FRONTIER_SCHEMA.names)

    tr = Tracer()
    with tr.installed():
        routed = joins.exchange_reduce(
            crawldb.map_batches(add_route, batch_format="pyarrow"),
            order, FRONTIER_SCHEMA.empty_table(), n_buckets)
    (span,) = tr.spans_named("route")
    dt = span["end"] - span["start"]
    return {"route.s": dt, "route.rows_per_s": routed.count() / dt}


def seen_probe(keys: list, seen=None) -> dict:
    """check() SEEN_PROBE_KEYS never-inserted keys against `seen` (the
    crawl's own filter) or, for a crawl without one, a filter holding
    the crawl's final keys."""
    own = seen is None
    if own:
        cfg = CrawlerConfig()
        seen = ShardedSeenFilter(cfg.seen_shards, cfg.seen_bits_per_shard,
                                 backend=cfg.seen_backend)
        seen.add_and_check(keys)
    try:
        size = seen.approx_size()
        fresh = [f"http://never{i}.invalid/x.html"
                 for i in range(SEEN_PROBE_KEYS)]
        t0 = time.perf_counter()
        hits = seen.check(fresh)
        dt = time.perf_counter() - t0
    finally:
        if own:
            seen.shutdown()
    return {"seen.approx_size": size,
            "seen.fp_ratio": float(np.mean(hits)),
            "seen.check_keys_per_s": SEEN_PROBE_KEYS / dt}


def checkpoint_metrics(tr: Tracer, root: str, rows: int) -> dict:
    size = _du(root)
    return {
        "checkpoint.write_s": tr.seconds("checkpoint.write"),
        "checkpoint.writes": len(tr.spans_named("checkpoint.write")),
        "checkpoint.read_s": tr.seconds("checkpoint.read"),
        "checkpoint.bytes": size,
        "checkpoint.bytes_per_row": size / rows,
    }


def checkpoint_probe(w, sample, num_cpus: int, scratch: str):
    """For a crawl without checkpoints: checkpoint its final crawldb and
    resume a new BreadthCrawler from it to exhaustion. Returns
    (metrics, resumed crawldb, root); the caller gates and removes root."""
    root = os.path.join(scratch, f"ckpt-probe-{time.time_ns()}")
    last = sample.depths[-1].depth
    tr = Tracer()
    with tr.installed():
        store = CheckpointStore(root)
        store.write_table(sample.crawldb, last, "crawldb")
        store.write_manifest(last, {"depth": last})
        t0 = time.perf_counter()
        res = workloads.crawler(w, num_cpus, 0, root).start(workloads.MAX_DEPTHS)
        resume_s = time.perf_counter() - t0
    m = checkpoint_metrics(tr, root, res.crawldb.count())
    m["checkpoint.resume_s"] = resume_s
    return m, res.crawldb, root


def _du(root: str) -> int:
    total = 0
    for d, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total
