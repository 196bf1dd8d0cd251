"""End-to-end crawl conformance (FIXTURES.md F3/F4).

A dict-based sequential crawler (below) independently implements the
reference semantics (merge precedence RocksDBManager.java:160-197,
generate filters Generator.java:49-78, fetch/status bookkeeping
Fetcher.java:244-274); the distributed engine must produce identical
per-depth generated key sets, final URL-seen set, statuses and
execute counts.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from webcollector_ray.charset import decode_html
from webcollector_ray.config import CrawlerConfig
from webcollector_ray.dispatch import Visitor, VisitorMethodDispatcher
from webcollector_ray.model import (
    FRONTIER_SCHEMA,
    STATUS_DB_FAILED,
    STATUS_DB_SUCCESS,
    CrawlDatum,
    CrawlDatums,
)
from webcollector_ray.page import Page
from webcollector_ray.pipelines.crawler import BreadthCrawler, RamCrawler
from webcollector_ray.regex_rule import RegexRule
from webcollector_ray.stages.execute import SUCCESS_CODES
from webcollector_ray.stages.merge import (
    ROW_TARGET,
    dedupe_by_key_refs,
    size_buckets,
)
from webcollector_ray.state.frontier import (
    CheckpointCorruptError,
    CheckpointStore,
)
from webcollector_ray.synth import SynthSpec, synth_pages_table

SPEC = SynthSpec(num_sites=2, redirects_per_site=1, failures_per_site=1)
REGEX = r"http://site[0-9]+\.test/(list|show)-[0-9]+\.html"


def sequential_crawl(
    pages, seeds, rules, depth, config, visitor=None, next_filter=None,
    generator_filter=None,
):
    """Single-process reference model over plain dicts."""
    store = {}
    d = pages.to_pydict()
    for i in range(len(pages)):
        store[d["url"][i]] = {k: d[k][i] for k in pages.column_names}
    rule = RegexRule(rules)
    dispatcher = VisitorMethodDispatcher(
        visitor or Visitor(), auto_parse=True, regex_rule=rule
    )
    crawldb = {}
    for s in seeds:
        crawldb.setdefault(s, CrawlDatum(s, execute_time=0))
    per_depth_generated = []
    for _i in range(depth):
        gen = [
            dm
            for k, dm in sorted(crawldb.items())
            if dm.status != STATUS_DB_SUCCESS
            and dm.execute_count <= config.max_execute_count
        ]
        if generator_filter is not None:  # G4 on a copy, once per datum
            gen = [
                r for r in (
                    generator_filter(CrawlDatum.from_row(dm.to_row()))
                    for dm in gen
                ) if r is not None
            ]
        if config.topn > 0:
            gen = gen[: config.topn]
        if not gen:
            break
        per_depth_generated.append({dm.key for dm in gen})
        fetch_rows, link_rows = [], []
        for dm in gen:
            nxt = CrawlDatums()
            try:
                row = store.get(dm.url)
                if row is None:
                    raise RuntimeError("no route")
                dm.code = row["code"]
                if row["location"] is not None:
                    dm.location = row["location"]
                if row["code"] not in SUCCESS_CODES:
                    raise RuntimeError("bad code")
                page = Page(dm, row["content_type"], row["html"])
                dispatcher.dispatch(page, nxt)
                if next_filter is not None:
                    nxt2 = CrawlDatums()
                    for nd in nxt:
                        r = next_filter(nd, dm)
                        if r is not None:
                            nxt2.add(r)
                    nxt = nxt2
                dm.status = STATUS_DB_SUCCESS
            except Exception:
                dm.status = STATUS_DB_FAILED
            dm.execute_count += 1
            fetch_rows.append(dm)
            if dm.status == STATUS_DB_SUCCESS and len(nxt):
                link_rows.extend(nxt)
        # merge: fetch overwrites, link insert-if-absent (tie: min url/meta)
        for dm in fetch_rows:
            crawldb[dm.key] = dm
        link_sorted = sorted(
            link_rows, key=lambda x: (x.key, x.url, str(sorted(x.meta_map.items())))
        )
        for dm in link_sorted:
            crawldb.setdefault(dm.key, dm)
    return crawldb, per_depth_generated


@pytest.fixture(scope="module")
def pages():
    return synth_pages_table(SPEC)


def _final_state(res):
    df = res.crawldb.to_pandas().set_index("key").sort_index()
    return df


def test_bfs_matches_sequential_model(ray_session, pages, tmp_path):
    cfg = CrawlerConfig(fetch_concurrency=2, merge_num_buckets=8)
    seeds = SPEC.seeds()
    expected_db, expected_gen = sequential_crawl(pages, seeds, [REGEX], 10, cfg)

    c = BreadthCrawler(
        str(tmp_path / "crawl"), True, pages, config=cfg, deterministic_time=True
    )
    c.add_seed(seeds)
    c.add_regex(REGEX)
    res = c.start(10)

    # per-depth generated key sets (canonical order)
    for i, m in enumerate(res.depths):
        fdir = os.path.join(str(tmp_path / "crawl"), f"depth={m.depth}", "fetch")
        if m.generated == 0:
            continue
        got = set(pq.read_table(fdir, columns=["key"])["key"].to_pylist())
        assert got == expected_gen[i], f"depth {i}"
    assert len(res.depths) - 1 == len(expected_gen)  # +1 empty final round

    df = _final_state(res)
    assert set(df.index) == set(expected_db.keys())
    for k, dm in expected_db.items():
        row = df.loc[k]
        assert int(row["status"]) == dm.status, k
        assert int(row["execute_count"]) == dm.execute_count, k
        assert int(row["code"]) == dm.code, k


def _arrow_crawldb(res) -> pa.Table:
    """The final crawldb as one key-sorted FRONTIER_SCHEMA table."""
    import ray

    blocks = ray.get(list(res.crawldb.to_arrow_refs()))
    return pa.concat_tables(blocks).select(FRONTIER_SCHEMA.names).sort_by("key")


def _fetched_per_depth(root: str, res) -> list:
    """Each depth's fetched keys, read back from its checkpoint."""
    out = []
    for m in res.depths:
        fdir = os.path.join(root, f"depth={m.depth}", "fetch")
        keys = (
            pq.read_table(fdir, columns=["key"])["key"].to_pylist()
            if m.generated else []
        )
        out.append(sorted(keys))
    return out


def test_crawl_is_bucket_invariant(ray_session, pages, tmp_path):
    """The merge bucket count changes the layout, never the crawl: the
    same final crawldb (every column) and the same per-depth fetch
    lists at 1, 3 and 64 buckets and at 0 (sized to the data) — also
    when a crawl checkpointed at 64 buckets resumes at 0."""
    seeds = SPEC.seeds()

    def crawl(root, buckets, depth, resumable=False):
        cfg = CrawlerConfig(
            fetch_concurrency=2, merge_num_buckets=buckets,
            resumable=resumable,
        )
        c = BreadthCrawler(root, True, pages, config=cfg,
                           deterministic_time=True)
        c.add_seed(seeds)
        c.add_regex(REGEX)
        return c.start(depth)

    runs = {}
    for b in (1, 3, 64, 0):
        root = str(tmp_path / f"b{b}")
        res = crawl(root, b, 10)
        runs[b] = (_arrow_crawldb(res), _fetched_per_depth(root, res))
        if b:
            assert all(m.merge_buckets == b for m in res.depths)
    db_ref, fetched_ref = runs[1]
    assert len(db_ref) and sum(map(len, fetched_ref))
    for b, (db, fetched) in runs.items():
        assert db.equals(db_ref), b
        assert fetched == fetched_ref, b

    root = str(tmp_path / "resumed")
    crawl(root, 64, 2)
    res = crawl(root, 0, 8, resumable=True)
    assert _arrow_crawldb(res).equals(db_ref)
    assert _fetched_per_depth(root, res) == fetched_ref[2:]
    # a few dozen rows on 4 CPUs: the rule picks 4 at every depth
    assert [m.merge_buckets for m in res.depths] == [4] * len(res.depths)


def _segment_keys(root: str, depth: int, name: str) -> list:
    """A checkpointed segment's keys, part by part ([] when no part)."""
    d = os.path.join(root, f"depth={depth}", name)
    parts = sorted(os.listdir(d)) if os.path.isdir(d) else []
    return [
        k for p in parts if p.endswith(".parquet")
        for k in pq.read_table(os.path.join(d, p), columns=["key"])[
            "key"].to_pylist()
    ]


def test_seen_filter_state_carried_across_depths(ray_session, pages,
                                                 tmp_path):
    """Each depth's probe must be handed the filter state the previous
    depth returned: no kept link may be a seed or a link kept at an
    earlier depth, and nothing new may be dropped (fp ~ 0 at the
    default bits), so seeds + kept links are exactly the crawldb."""
    root = str(tmp_path / "crawl")
    cfg = CrawlerConfig(fetch_concurrency=2, approximate_seen=True)
    c = BreadthCrawler(root, True, pages, config=cfg,
                       deterministic_time=True)
    c.add_seed(SPEC.seeds())
    c.add_regex(REGEX)
    res = c.start(10)
    known = {d.key for d in c._seeds}
    links_total = 0
    for m in res.depths:
        keys = _segment_keys(root, m.depth, "link")
        assert len(keys) == m.links, m.depth
        assert not known & set(keys), m.depth
        known |= set(keys)
        links_total += len(keys)
    assert links_total
    assert known == set(_arrow_crawldb(res)["key"].to_pylist())


@pytest.mark.parametrize("approx", [True, False])
def test_depth_metrics_seen_size(ray_session, pages, approx):
    """seen_size is the filter's insert count after each depth: the
    whole final crawldb by the last depth, 0 with the filter off."""
    cfg = CrawlerConfig(fetch_concurrency=2, approximate_seen=approx)
    c = RamCrawler(pages, config=cfg, deterministic_time=True)
    c.add_seed(SPEC.seeds())
    c.add_regex(REGEX)
    res = c.start()
    sizes = [m.seen_size for m in res.depths]
    if approx:
        assert sizes == sorted(sizes)
        assert sizes[-1] == res.crawldb.count()
    else:
        assert sizes == [0] * len(sizes)


def test_merge_num_buckets_zero_sizes_to_data(ray_session):
    """0 buckets means "size to the data", not "no reduce tasks": a
    3-site crawl at 0 fetches the whole web, and every depth records
    the count the rule chose (4 CPUs, a few dozen rows: 4 buckets)."""
    from webcollector_ray.sources.pagestore import SynthPageStore

    spec = SynthSpec(num_sites=3)
    cfg = CrawlerConfig(fetch_concurrency=2, merge_num_buckets=0)
    c = RamCrawler(SynthPageStore(spec), config=cfg, deterministic_time=True)
    c.add_seed(spec.seeds())
    c.add_regex(REGEX)
    res = c.start(10)
    n_pages = spec.num_sites * (spec.lists_per_site + spec.shows_per_site)
    assert res.total_fetched == res.crawldb.count() == n_pages
    assert len(res.depths) > 2
    assert [m.merge_buckets for m in res.depths] == [4] * len(res.depths)
    assert res.crawldb.num_blocks() == 4


def test_negative_merge_buckets_rejected(ray_session):
    import ray.data as rd

    from webcollector_ray.model import datums_to_table

    with pytest.raises(ValueError, match="merge_num_buckets"):
        CrawlerConfig(merge_num_buckets=-1)
    ds = rd.from_arrow(datums_to_table([CrawlDatum("http://a.test/")]))
    with pytest.raises(ValueError, match="num_buckets"):
        dedupe_by_key_refs([(ds, 0)], -1)


def test_merge_sizes_from_block_metadata(ray_session):
    """Without a count, the exchange sizes itself from the row counts
    in its inputs' block metadata: one output block per bucket. Block
    ref lists have no metadata, so they need the count."""
    import ray
    import ray.data as rd

    from webcollector_ray.model import datums_to_table

    t = datums_to_table([CrawlDatum(f"http://a.test/{i}") for i in range(10)])
    ds = rd.from_arrow([t.slice(0, 4), t.slice(4)])
    refs, counts, _ = dedupe_by_key_refs([(ds, 0)])
    assert len(refs) == size_buckets(0, 10) == 4
    assert sum(ray.get(counts)) == 10

    # a ref list carries no metadata: the caller passes the row count,
    # and the exchange comes out the same
    blocks = [ray.put(t.slice(0, 4)), ray.put(t.slice(4))]
    refs, counts, _ = dedupe_by_key_refs([(blocks, 0)], rows=10)
    assert len(refs) == 4
    assert sum(ray.get(counts)) == 10
    with pytest.raises(ValueError, match="rows"):
        dedupe_by_key_refs([(blocks, 0)])


def test_common_path_holds_block_refs(ray_session, pages, monkeypatch):
    """A common-path crawl passes block ref lists between its task
    waves: the only Dataset it builds is the returned crawldb, and it
    never unwraps one."""
    import ray.data as rd

    calls = {"from_arrow_refs": 0, "to_arrow_refs": 0,
             "iter_internal_ref_bundles": 0}

    def counting(owner, name):
        orig = getattr(owner, name)

        def wrapper(*a, **kw):
            calls[name] += 1
            return orig(*a, **kw)

        monkeypatch.setattr(owner, name, wrapper)

    counting(rd, "from_arrow_refs")
    counting(rd.Dataset, "to_arrow_refs")
    counting(rd.Dataset, "iter_internal_ref_bundles")
    c = RamCrawler(pages, config=CrawlerConfig(fetch_concurrency=2),
                   deterministic_time=True)
    c.add_seed(SPEC.seeds())
    c.add_regex(REGEX)
    res = c.start()
    assert len(res.depths) > 2
    assert calls == {"from_arrow_refs": 1, "to_arrow_refs": 0,
                     "iter_internal_ref_bundles": 0}
    monkeypatch.undo()
    assert res.crawldb.count() == res.depths[-1].crawldb_size


@pytest.mark.parametrize("cpus", [1, 3, 4, 32])
def test_size_buckets_rule(cpus):
    for rows in (0, 1, 100, ROW_TARGET - 1, ROW_TARGET, ROW_TARGET + 1,
                 13_000_000, 10**10):
        n = size_buckets(0, rows, cpus)
        assert n & (n - 1) == 0, (rows, n)  # a power of two
        assert n >= cpus
        assert rows <= n * ROW_TARGET       # no bucket above the target
        # ... and the smallest count with those properties
        assert n == 1 or n // 2 < cpus or rows > n // 2 * ROW_TARGET
    for explicit in (1, 3, 64, 1000):
        assert size_buckets(explicit, 10**10, cpus) == explicit
    with pytest.raises(ValueError):
        size_buckets(-1, 10, cpus)


def test_failed_pages_retry_until_max(ray_session, pages):
    bad = f"http://site0.test/bad-0.html"
    cfg = CrawlerConfig(fetch_concurrency=2, merge_num_buckets=4, max_execute_count=2)
    c = RamCrawler(pages, config=cfg, deterministic_time=True)
    c.add_seed(bad)
    c.add_regex(REGEX)
    res = c.start(10)
    df = _final_state(res)
    row = df.loc[bad]
    assert int(row["status"]) == STATUS_DB_FAILED
    # generated while execute_count <= 2, i.e. attempts at counts 0,1,2
    assert int(row["execute_count"]) == 3
    assert int(row["code"]) == 500
    assert [m.generated for m in res.depths] == [1, 1, 1, 0]


def test_redirect_row_is_success_with_location(ray_session, pages):
    old = "http://site0.test/old-0.html"
    c = RamCrawler(pages, config=CrawlerConfig(fetch_concurrency=2, merge_num_buckets=4), deterministic_time=True)
    c.add_seed(old)
    c.add_regex(REGEX)
    res = c.start(3)
    df = _final_state(res)
    row = df.loc[old]
    assert int(row["status"]) == STATUS_DB_SUCCESS  # 301 is a success code
    assert int(row["code"]) == 301
    assert row["location"] == "/list-0.html"


def test_topn_limits_per_depth_in_key_order(ray_session, pages):
    cfg = CrawlerConfig(fetch_concurrency=2, merge_num_buckets=4, topn=3)
    seeds = SPEC.seeds()
    expected_db, expected_gen = sequential_crawl(pages, seeds, [REGEX], 4, cfg)
    c = RamCrawler(pages, config=cfg, deterministic_time=True)
    c.add_seed(seeds)
    c.add_regex(REGEX)
    res = c.start(4)
    assert [m.generated for m in res.depths] == [len(s) for s in expected_gen]
    assert all(m.generated <= 3 for m in res.depths)
    df = _final_state(res)
    assert set(df.index) == set(expected_db.keys())


def test_next_filter_blocklist(ray_session, pages):
    # HashSetNextFilter (plugin/nextfilter/HashSetNextFilter.java:28-40)
    blocked = {f"http://site0.test/show-{j}.html" for j in range(0, 12, 2)}

    def nf(datum, referer):
        return None if datum.key in blocked else datum

    cfg = CrawlerConfig(fetch_concurrency=2, merge_num_buckets=4)
    expected_db, _ = sequential_crawl(
        pages, SPEC.seeds(), [REGEX], 10, cfg, next_filter=nf
    )
    c = RamCrawler(pages, config=cfg, next_filter=nf, deterministic_time=True)
    c.add_seed(SPEC.seeds())
    c.add_regex(REGEX)
    res = c.start(10)
    df = _final_state(res)
    assert set(df.index) == set(expected_db.keys())
    assert not (blocked & set(df.index))


def test_generator_filter(ray_session, pages):
    # G4: user hook drops site1 urls at generate time
    def gf(datum):
        return None if "site1" in datum.url else datum

    cfg = CrawlerConfig(fetch_concurrency=2, merge_num_buckets=4)
    c = RamCrawler(pages, config=cfg, generator_filter=gf, deterministic_time=True)
    c.add_seed(SPEC.seeds())
    c.add_regex(REGEX)
    res = c.start(10)
    df = _final_state(res)
    fetched = df[df["status"] == STATUS_DB_SUCCESS]
    assert all("site1" not in u for u in fetched.index)


@pytest.mark.parametrize("topn", [0, 3])
def test_generator_filter_runs_once(ray_session, pages, topn):
    """G4 runs exactly once per generated row, whether the fetch task
    applies it to its crawldb bucket (topn=0) or generate does before
    the wave (topn>0, task filter off): the final crawldb equals the
    sequential model's, meta included."""
    def _append_marker(datum):
        # not idempotent: two runs on one generation leave "xx"
        return datum.set_meta("g4", (datum.meta("g4") or "") + "x")

    cfg = CrawlerConfig(merge_num_buckets=4, topn=topn, max_execute_count=2)
    seeds = SPEC.seeds() + ["http://site0.test/bad-0.html"]  # retried
    expected_db, _ = sequential_crawl(
        pages, seeds, [REGEX], 10, cfg, generator_filter=_append_marker,
    )
    c = RamCrawler(pages, config=cfg, generator_filter=_append_marker,
                   deterministic_time=True)
    c.add_seed(seeds)
    c.add_regex(REGEX)
    df = _final_state(c.start(10))
    assert set(df.index) == set(expected_db.keys())
    retried = 0
    for k, dm in expected_db.items():
        row = df.loc[k]
        got = CrawlDatum.from_row({"key": k, **row.to_dict()})
        assert int(row["status"]) == dm.status, k
        assert int(row["execute_count"]) == dm.execute_count, k
        assert got.meta_map == dm.meta_map, k
        assert (dm.meta("g4") or "") == "x" * dm.execute_count, k
        retried += dm.execute_count > 1
    assert retried  # failed pages were regenerated: the marker grew


def test_run_execute_one_task_per_block(ray_session):
    """run_execute: k block refs -> k fetch refs in block order, each
    block's fetch rows, link rows and tallies equal to an in-process
    ExecuteStage run over it (after generate.filter_block when the
    blocks are raw crawldb buckets); with S seen shards each link slice
    holds only keys with hash64 % S == s."""
    import numpy as np
    import pyarrow.compute as pc
    import ray

    from webcollector_ray.model import STATUS_DB_UNEXECUTED, datums_to_table
    from webcollector_ray.sources.pagestore import SynthPageStore
    from webcollector_ray.stages.execute import ExecuteStage, run_execute
    from webcollector_ray.stages.generate import filter_block
    from webcollector_ray.state.seen import HASH_COLUMN, hash64_batch

    spec = SynthSpec(num_sites=4, failures_per_site=1)
    store = SynthPageStore(spec)
    rule = RegexRule([REGEX])
    cfg = CrawlerConfig(fetch_batch_size=3)
    done = CrawlDatum("http://site3.test/list-1.html", execute_time=0)
    done.status = STATUS_DB_SUCCESS  # G1 drops it
    spent = CrawlDatum("http://site3.test/show-0.html", execute_time=0)
    spent.execute_count = cfg.max_execute_count + 1  # G2 drops it
    urls = [f"http://site{s}.test/list-{j}.html"
            for s in range(3) for j in range(2)]
    blocks = [
        datums_to_table([CrawlDatum(u, execute_time=0) for u in urls[:4]]),
        datums_to_table([]),
        datums_to_table([CrawlDatum(u, execute_time=0) for u in urls[4:]]
                        + [CrawlDatum("http://nowhere.test/x.html",
                                      execute_time=0), done, spent]),
    ]
    kw = dict(regex_rule=rule, config=cfg, execute_time_ms=777)
    stage = ExecuteStage(store_handle=store.handle(), **kw)

    def expected(block, generate):
        if generate:
            block = filter_block(block, cfg.max_execute_count)
        out = stage(block) if len(block) else None
        if out is None:
            return [], [], {"n_fetch": 0, "n_link": 0, "ok": 0, "fail": 0}
        fmask = pc.equal(out["seg"], "fetch").to_pylist()
        rows = out.drop_columns(["seg"]).to_pylist()
        fetch = [r for r, f in zip(rows, fmask) if f]
        link = [r for r, f in zip(rows, fmask) if not f]
        ok = sum(r["status"] == STATUS_DB_SUCCESS for r in fetch)
        return fetch, link, {"n_fetch": len(fetch), "n_link": len(link),
                             "ok": ok, "fail": len(fetch) - ok}

    refs = [ray.put(b) for b in blocks]
    for generate in (True, False):
        res = run_execute(refs, store.handle(), generate=generate,
                          **kw).materialize()
        assert len(res.fetch_refs) == len(blocks) == len(res.link_refs)
        stats = res.stats()
        for b, block in enumerate(blocks):
            fetch, link, tally = expected(block, generate)
            assert ray.get(res.fetch_refs[b]).to_pylist() == fetch
            assert ray.get(res.link_refs[b][0]).to_pylist() == link
            assert stats[b] == tally
        assert res.count() == sum(s["n_fetch"] + s["n_link"] for s in stats)
        assert stats[2]["n_fetch"] == (3 if generate else 5)
        assert stats[2]["fail"] >= 1  # the missing page

    shards = 4
    res = run_execute(refs, store.handle(), generate=True,
                      seen_shards=shards, **kw).materialize()
    for b, block in enumerate(blocks):
        _, link, _ = expected(block, True)
        slices = res.link_refs[b]
        assert len(slices) == shards
        got = []
        for s, ref in enumerate(slices):
            t = ray.get(ref)
            if t is None or len(t) == 0:
                continue
            keys = t["key"].to_pylist()
            h = hash64_batch(keys)
            assert (h % np.uint64(shards) == s).all()
            assert t[HASH_COLUMN].to_pylist() == h.tolist()
            got += t.drop_columns([HASH_COLUMN]).to_pylist()
        key = lambda r: (r["key"], r["url"])  # noqa: E731
        assert sorted(got, key=key) == sorted(link, key=key)
        assert all(r["status"] == STATUS_DB_UNEXECUTED for r in got)


def test_depth_metrics_stage_seconds(ray_session, pages, tmp_path):
    """Every depth that fetched times its fetch wave, and the merge and
    execute waves fit inside the depth's wall time; both reach the
    checkpoint manifest."""
    cfg = CrawlerConfig(merge_num_buckets=4)
    root = str(tmp_path / "m")
    c = BreadthCrawler(root, True, pages, config=cfg, deterministic_time=True)
    c.add_seed(SPEC.seeds())
    c.add_regex(REGEX)
    res = c.start(10)
    assert any(m.merge_s > 0 for m in res.depths)
    for m in res.depths:
        if m.generated:
            assert m.execute_s > 0, m
        else:
            assert m.execute_s == 0, m
        assert m.merge_s + m.execute_s <= m.seconds, m
        man = CheckpointStore(root).read_manifest(m.depth)
        assert man["merge_s"] == m.merge_s
        assert man["execute_s"] == m.execute_s


def test_resume_equivalence(ray_session, pages, tmp_path):
    """Run 2 depths, then resume for 8 more == straight run of 10
    (resumable semantics crawler/Crawler.java:101-110) — also with
    checkpoint_readback, where every depth re-reads its own parquet."""
    seeds = SPEC.seeds()
    cols = ["url", "status", "execute_count", "code"]
    finals = []
    for readback in (False, True):
        cfg = CrawlerConfig(
            fetch_concurrency=2, merge_num_buckets=8,
            checkpoint_readback=readback,
        )
        root = tmp_path / f"readback{int(readback)}"

        straight = BreadthCrawler(
            str(root / "a"), True, pages, config=cfg,
            deterministic_time=True,
        )
        straight.add_seed(seeds)
        straight.add_regex(REGEX)
        df_a = _final_state(straight.start(10))

        part1 = BreadthCrawler(
            str(root / "b"), True, pages, config=cfg,
            deterministic_time=True,
        )
        part1.add_seed(seeds)
        part1.add_regex(REGEX)
        part1.start(2)

        part2 = BreadthCrawler(
            str(root / "b"), True, pages,
            config=cfg.replace(resumable=True), deterministic_time=True,
        )
        part2.add_seed(seeds)
        part2.add_regex(REGEX)
        df_b = _final_state(part2.start(8))

        assert df_a[cols].equals(df_b[cols])
        finals.append(df_a[cols])
    assert finals[0].equals(finals[1])


def test_checkpoint_store_round_trip(ray_session, tmp_path):
    """write_table/read_dataset keep what Dataset.write_parquet and
    read_parquet gave: the row count, no file for an empty block, and
    exactly the frontier schema back (no `depth` column from the
    `depth=<k>` directory name), for a Dataset and for a list of block
    refs alike."""
    import ray
    import ray.data as rd

    from webcollector_ray.model import datums_to_table

    t1 = datums_to_table([CrawlDatum(f"http://a.test/{i}") for i in range(5)])
    t2 = datums_to_table(
        [CrawlDatum(f"http://b.test/{i}", meta={"k": "v"}) for i in range(3)]
    )
    empty = FRONTIER_SCHEMA.empty_table()
    store = CheckpointStore(str(tmp_path / "ckpt"))

    ds = rd.from_arrow_refs([ray.put(t1), ray.put(empty), ray.put(t2)])
    assert store.write_table(ds, 3, "crawldb") == 8
    assert sorted(os.listdir(store.table_dir(3, "crawldb"))) == [
        "part-00000.parquet", "part-00002.parquet",
    ]
    assert store.has_table(3, "crawldb")
    back = pa.concat_tables(
        ray.get(list(store.read_dataset(3, "crawldb").to_arrow_refs()))
    )
    assert back.schema.equals(FRONTIER_SCHEMA, check_metadata=True)
    assert back.equals(pa.concat_tables([t1, t2]))

    # the crawler hands over plain block ref lists
    assert store.write_table([ray.put(t2), ray.put(empty)], 3, "fetch") == 3
    assert os.listdir(store.table_dir(3, "fetch")) == ["part-00000.parquet"]
    back = pa.concat_tables(
        ray.get(list(store.read_dataset(3, "fetch").to_arrow_refs()))
    )
    assert back.equals(t2)

    ds = rd.from_arrow_refs([ray.put(empty), ray.put(empty)])
    assert store.write_table(ds, 3, "link") == 0
    assert os.listdir(store.table_dir(3, "link")) == []
    assert not store.has_table(3, "link")
    back = pa.concat_tables(
        ray.get(list(store.read_dataset(3, "link").to_arrow_refs()))
    )
    assert back.schema.equals(FRONTIER_SCHEMA) and len(back) == 0


@pytest.mark.parametrize("damage,table", [
    ("missing", "crawldb"), ("truncated", "link"), ("extra", "fetch"),
])
def test_resume_refuses_damaged_checkpoint(ray_session, pages, tmp_path,
                                           damage, table):
    """A part file of the newest complete depth that was deleted,
    truncated or added after its manifest was written must fail the
    resume loudly, not resume from a shorter (or longer) frontier."""
    cfg = CrawlerConfig(fetch_concurrency=2, merge_num_buckets=8)
    root = str(tmp_path / "c")
    c1 = BreadthCrawler(root, True, pages, config=cfg, deterministic_time=True)
    c1.add_seed(SPEC.seeds())
    c1.add_regex(REGEX)
    c1.start(2)

    store = CheckpointStore(root)
    last = store.latest_complete_depth()
    assert last == 1
    tdir = store.table_dir(last, table)
    part = os.path.join(tdir, sorted(os.listdir(tdir))[0])
    if damage == "missing":
        os.remove(part)
    elif damage == "truncated":
        with open(part, "r+b") as f:
            f.truncate(os.path.getsize(part) // 2)
    else:
        with open(part, "rb") as src, \
                open(os.path.join(tdir, "part-99999.parquet"), "wb") as dst:
            dst.write(src.read())

    c2 = BreadthCrawler(
        root, True, pages, config=cfg.replace(resumable=True),
        deterministic_time=True,
    )
    c2.add_seed(SPEC.seeds())
    c2.add_regex(REGEX)
    with pytest.raises(CheckpointCorruptError):
        c2.start(8)


def test_forced_seed_overwrites(ray_session, pages, tmp_path):
    cfg = CrawlerConfig(fetch_concurrency=2, merge_num_buckets=4)
    url = "http://site0.test/list-0.html"
    # first run: crawl completes, status=5
    c1 = BreadthCrawler(str(tmp_path / "c"), True, pages, config=cfg, deterministic_time=True)
    c1.add_seed(url)
    c1.add_regex(REGEX)
    c1.start(1)
    # resume with a forced seed: overwrites back to unexecuted
    c2 = BreadthCrawler(
        str(tmp_path / "c"), True, pages,
        config=cfg.replace(resumable=True), deterministic_time=True,
    )
    c2.add_seed(url, force=True)
    c2.add_regex(REGEX)
    res = c2.start(1)
    assert res.depths[0].generated >= 1  # the forced seed was re-fetched


def test_extracted_text_through_crawl(ray_session, pages):
    """Crawl then extract: per-url text byte-identical to golden column."""
    from webcollector_ray.stages.extract import extract_news_batch

    out = extract_news_batch(pages)
    got = dict(zip(out["url"].to_pylist(), out["content"].to_pylist()))
    pd_pages = pages.to_pydict()
    for url, text in zip(pd_pages["url"], pd_pages["text"]):
        if text is not None:
            assert got[url] == text, url


def test_fast_path_matches_dispatch_path(ray_session):
    """The pure-autoParse fast kernel must emit byte-identical output to
    the per-record visitor dispatch path (forced by passing an explicit
    bare Visitor) — success pages, missing pages, and non-success codes
    alike."""
    from webcollector_ray.config import CrawlerConfig
    from webcollector_ray.dispatch import Visitor
    from webcollector_ray.model import CrawlDatum, datums_to_table
    from webcollector_ray.regex_rule import RegexRule
    from webcollector_ray.sources.pagestore import SynthPageStore
    from webcollector_ray.stages.execute import ExecuteStage
    from webcollector_ray.synth import SynthSpec

    spec = SynthSpec(num_sites=4)
    store = SynthPageStore(spec)
    rule = RegexRule([r"http://site[0-9]+\.test/(list|show)-[0-9]+\.html"])
    datums = [
        CrawlDatum(f"http://site{s}.test/list-{j}.html", execute_time=0)
        for s in range(4) for j in range(2)
    ] + [
        CrawlDatum("http://nowhere.test/missing.html", execute_time=0),
        CrawlDatum("http://site0.test/show-0.html", execute_time=0,
                   meta={"depth": "2", "k": "v"}),
    ]
    batch = datums_to_table(datums)
    kw = dict(
        store_handle=store.handle(), regex_rule=rule,
        config=CrawlerConfig(), execute_time_ms=777,
    )
    fast = ExecuteStage(**kw)
    slow = ExecuteStage(visitor=Visitor(), **kw)
    assert fast._fast and not slow._fast
    out_f = fast(batch)
    out_s = slow(batch)
    assert out_f.equals(out_s), (
        out_f.to_pandas().compare(out_s.to_pandas())
        if len(out_f) == len(out_s) else (len(out_f), len(out_s))
    )
    assert len(out_f) > len(batch)  # links actually extracted


def test_resume_completed_crawl_terminates_fast(ray_session, pages, tmp_path):
    """Resuming a crawl that already reached its fixed point must break
    on the first depth via the generate-eligible short-circuit (no
    execute pipeline spins) and leave the crawldb unchanged."""
    cfg = CrawlerConfig(fetch_concurrency=2, merge_num_buckets=4)
    c1 = BreadthCrawler(
        str(tmp_path / "z"), True, pages, config=cfg, deterministic_time=True
    )
    c1.add_seed(SPEC.seeds())
    c1.add_regex(REGEX)
    df_a = _final_state(c1.start(10))

    c2 = BreadthCrawler(
        str(tmp_path / "z"), True, pages,
        config=cfg.replace(resumable=True), deterministic_time=True,
    )
    c2.add_seed(SPEC.seeds())
    c2.add_regex(REGEX)
    res = c2.start(5)
    assert len(res.depths) == 1
    assert res.depths[0].generated == 0
    df_b = _final_state(res)
    cols = ["url", "status", "execute_count", "code"]
    assert df_a[cols].equals(df_b[cols])
