"""Execute — the fused fetch + visit stage, one raw Ray task per block.

The reference's per-record contract is Executor.execute(datum, next)
= fetch + dispatch-visit + collect next datums, with failure of either
half marking the record FAILED (fetcher/Executor.java:26-28,
fetcher/Fetcher.java:244-274, crawler/AutoParseCrawler.java:86-91).
Fusing fetch and parse into ONE task keeps the html bytes task-local:
only compact frontier rows cross the object store, never page bodies
(SURVEY.md §7.4 "avoid carrying html past the parse stage").

run_execute launches one task per frontier block, so every block is
fetched on its own CPU (a Dataset map_batches bundles small blocks up
to batch_size rows into one task) and a depth starts no streaming
executor. Each task also runs the generate filter on a raw crawldb
bucket and splits its output into fetch rows, tallies and link rows.
The page-store reader and the visitor dispatch table are built once
per worker process per call (_PROC_STAGE_CACHE) and reused across
tasks and batches. Politeness (F4): the reference sleeps
EXECUTE_INTERVAL per worker after every record (Fetcher.java:275-281)
— replicated — plus the north_rule per-host token bucket
(politeness_budget_ms) which the reference lacks.

Fetch semantics (plugin/net/OkHttpRequester.java):
- url missing from the page store == connection error -> FAILED
- success codes {200, 301, 302, 404} (:48-55); anything else throws ->
  FAILED (:107-112)
- datum.code / datum.location always set from the response (:104-105)
- body bytes capped at max_receive_size (Config.java:28)

Output: FRONTIER_SCHEMA + `seg` column: one 'fetch' row per input datum
(status SUCCESS/FAILED, execute_count+1, execute_time), plus 'link'
rows for every next-datum when the record succeeded and next is
non-empty (Fetcher.java:267-274).
"""

from __future__ import annotations

import time
import uuid
from typing import Callable, List, Optional

import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data.block import BlockAccessor

from ..config import CrawlerConfig
from ..dispatch import Visitor, VisitorMethodDispatcher
from ..model import (
    CODE_NOT_SET,
    FRONTIER_SCHEMA,
    STATUS_DB_FAILED,
    STATUS_DB_SUCCESS,
    CrawlDatum,
    CrawlDatums,
    meta_to_text,
)
from ..page import Page
from ..regex_rule import RegexRule
from ..sources.pagestore import PageStoreReader
from ..state.seen import split_by_shard
from ..urls import host_of
from .generate import filter_block

SUCCESS_CODES = frozenset({200, 301, 302, 404})

EXECUTE_OUT_SCHEMA = pa.schema(
    list(FRONTIER_SCHEMA) + [pa.field("seg", pa.string())]
)


class FetchError(Exception):
    pass


class ExecuteStage:
    """Fetch + visit over one frontier batch: pa.Table -> seg-tagged
    EXECUTE_OUT_SCHEMA rows. run_execute's tasks call it per
    fetch_batch_size slice."""

    def __init__(
        self,
        store_handle: dict,
        visitor: Optional[Visitor] = None,
        executor: Optional[Callable[[Page, CrawlDatums], None]] = None,
        auto_parse: bool = True,
        regex_rule: Optional[RegexRule] = None,
        config: Optional[CrawlerConfig] = None,
        next_filter: Optional[Callable] = None,
        execute_time_ms: Optional[int] = None,
    ):
        self.config = config or CrawlerConfig()
        self.reader = PageStoreReader(store_handle)
        self.next_filter = next_filter
        self.execute_time_ms = execute_time_ms
        self._last_fetch_by_host: dict = {}
        self.robots = None
        if self.config.obey_robots:
            from ..state.robots import RobotsCache

            self.robots = RobotsCache(self.reader, self.config.user_agent)
        if executor is not None:
            # bare-executor mode (crawler/Crawler.java:51-54): user function
            # replaces the visitor dispatch entirely
            self._execute_visit = executor
        else:
            dispatcher = VisitorMethodDispatcher(
                visitor or Visitor(),
                auto_parse=auto_parse,
                regex_rule=regex_rule,
                auto_detect_img=self.config.auto_detect_img,
            )
            self._execute_visit = dispatcher.dispatch
        # pure-autoParse fast path (VERDICT r2 §next.5): no user hook
        # can observe the CrawlDatum/Page objects, so the batch runs
        # without building them (or the DOM) at all — link extraction
        # is the SAX scan in links.fast_links_by_regex
        self._auto_parse = auto_parse
        self._regex_rule = regex_rule
        self._fast = (
            executor is None and visitor is None and next_filter is None
        )

    # -- fetch one datum against the page store (OkHttpRequester.java) --
    def _fetch(self, datum: CrawlDatum) -> Page:
        if self.robots is not None and not self.robots.allowed(datum.url):
            # north_rule: robots-denied == permanent fetch failure;
            # marked in meta so it is distinguishable from transient errors
            datum.set_meta("s_robots", "denied")
            raise FetchError(f"robots.txt disallows {datum.url}")
        row = self.reader.get(datum.url)
        if row is None:
            raise FetchError(f"no route to {datum.url}")
        code = row["code"] if row["code"] is not None else self.config.default_http_code
        datum.code = code
        if row["location"] is not None:
            datum.location = row["location"]
        if code not in SUCCESS_CODES:
            raise FetchError(f"invalid response code {code} for {datum.url}")
        content = row["html"] or b""
        if len(content) > self.config.max_receive_size:
            content = content[: self.config.max_receive_size]
        return Page(datum, content_type=row["content_type"], content=content)

    def _politeness(self, url: str) -> None:
        # Scope note: the token-bucket state lives for one depth (each
        # run_execute call builds new stages), so the budget is enforced
        # WITHIN a depth; between depths the merge/generate exchange
        # inserts a gap that in practice exceeds any realistic budget.
        # Within a depth the invariant is global: host-coherent routing
        # puts all of a host's rows in one block = one task = one stage
        # (crawler._route_by_host; test_politeness_host_single_block).
        budget = self.config.politeness_budget_ms
        if budget > 0:
            host = host_of(url)
            now = time.monotonic()
            last = self._last_fetch_by_host.get(host)
            if last is not None:
                wait = budget / 1000.0 - (now - last)
                if wait > 0:
                    time.sleep(wait)
            self._last_fetch_by_host[host] = time.monotonic()
        if self.config.execute_interval_ms > 0:
            time.sleep(self.config.execute_interval_ms / 1000.0)

    def _call_fast(self, batch: pa.Table) -> pa.Table:
        """Pure-autoParse batch kernel: identical output to the
        per-record visitor path (pinned by
        test_fast_path_matches_dispatch_path), minus the CrawlDatum /
        Page / DOM object churn. Meta strings pass through unparsed
        (json round-trip is identity for engine-written meta); the only
        meta mutation on this path is the robots-denial marker."""
        from ..charset import decode_html, guess_encoding
        from ..links import fast_links_by_regex
        from ..model import STATUS_DB_UNEXECUTED, text_to_meta

        exec_time = (
            self.execute_time_ms
            if self.execute_time_ms is not None
            else int(time.time() * 1000)
        )
        urls = batch["url"].to_pylist()
        keys = batch["key"].to_pylist()
        ecounts = batch["execute_count"].to_pylist()
        codes = batch["code"].to_pylist()
        locs = batch["location"].to_pylist()
        metas = batch["meta"].to_pylist()

        rule = self._regex_rule
        want_links = (
            self._auto_parse and rule is not None and not rule.is_empty()
        )
        parse_src = self.config.auto_detect_img
        max_size = self.config.max_receive_size
        default_code = self.config.default_http_code

        c_key: list = []
        c_url: list = []
        c_status: list = []
        c_etime: list = []
        c_ecount: list = []
        c_code: list = []
        c_loc: list = []
        c_meta: list = []
        c_seg: list = []

        for i, url in enumerate(urls):
            self._politeness(url)
            code_out = codes[i]
            loc_out = locs[i]
            meta_out = metas[i]
            links: list = []
            try:
                if self.robots is not None and not self.robots.allowed(url):
                    m = text_to_meta(meta_out)
                    m["s_robots"] = "denied"
                    meta_out = meta_to_text(m)
                    raise FetchError(f"robots.txt disallows {url}")
                row = self.reader.get(url)
                if row is None:
                    raise FetchError(f"no route to {url}")
                code_out = (
                    row["code"] if row["code"] is not None else default_code
                )
                if row["location"] is not None:
                    loc_out = row["location"]
                if code_out not in SUCCESS_CODES:
                    raise FetchError(f"invalid response code {code_out}")
                if want_links:
                    ct = row["content_type"]
                    if ct is not None and "text/html" in ct:
                        content = row["html"] or b""
                        if len(content) > max_size:
                            content = content[:max_size]
                        html = decode_html(content, guess_encoding(content))
                        links = fast_links_by_regex(
                            html, url or "", rule, parse_src
                        )
                status = STATUS_DB_SUCCESS
            except Exception:
                status = STATUS_DB_FAILED
                links = []
            c_key.append(keys[i])
            c_url.append(url)
            c_status.append(status)
            c_etime.append(exec_time)
            c_ecount.append(ecounts[i] + 1)
            c_code.append(code_out)
            c_loc.append(loc_out)
            c_meta.append(meta_out)
            c_seg.append("fetch")
            for u in links:
                c_key.append(u)
                c_url.append(u)
                c_status.append(STATUS_DB_UNEXECUTED)
                c_etime.append(exec_time)
                c_ecount.append(0)
                c_code.append(CODE_NOT_SET)
                c_loc.append(None)
                c_meta.append("")
                c_seg.append("link")
        if not c_key:
            return EXECUTE_OUT_SCHEMA.empty_table()
        return pa.table(
            {
                "key": c_key,
                "url": c_url,
                "status": c_status,
                "execute_time": c_etime,
                "execute_count": c_ecount,
                "code": c_code,
                "location": c_loc,
                "meta": c_meta,
                "seg": c_seg,
            },
            schema=EXECUTE_OUT_SCHEMA,
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._fast:
            return self._call_fast(batch)
        exec_time = (
            self.execute_time_ms
            if self.execute_time_ms is not None
            else int(time.time() * 1000)
        )
        # columnar output accumulators — a depth emits O(gen + links)
        # rows, so per-row dict building is a real cost at scale
        c_key: list = []
        c_url: list = []
        c_status: list = []
        c_etime: list = []
        c_ecount: list = []
        c_code: list = []
        c_loc: list = []
        c_meta: list = []
        c_seg: list = []

        def emit(d: CrawlDatum, seg: str) -> None:
            c_key.append(d.key)
            c_url.append(d.url)
            c_status.append(d.status)
            c_etime.append(d.execute_time)
            c_ecount.append(d.execute_count)
            c_code.append(d.code)
            c_loc.append(d.location)
            c_meta.append(meta_to_text(d.meta_map))
            c_seg.append(seg)

        cols = batch.column_names
        pydict = batch.to_pydict()
        for i in range(len(batch)):
            datum = CrawlDatum.from_row({c: pydict[c][i] for c in cols})
            self._politeness(datum.url)
            next_datums = CrawlDatums()
            try:
                page = self._fetch(datum)
                self._execute_visit(page, next_datums)
                if self.next_filter is not None:
                    filtered = CrawlDatums()
                    for nd in next_datums:
                        r = self.next_filter(nd, datum)
                        if r is not None:
                            filtered.add(r)
                    next_datums = filtered
                datum.status = STATUS_DB_SUCCESS
            except Exception:
                datum.status = STATUS_DB_FAILED
            datum.incr_execute_count(1)
            datum.execute_time = exec_time
            emit(datum, "fetch")
            if datum.status == STATUS_DB_SUCCESS and len(next_datums):
                for nd in next_datums:
                    nd.execute_time = exec_time
                    emit(nd, "link")
        if not c_key:
            return EXECUTE_OUT_SCHEMA.empty_table()
        return pa.table(
            {
                "key": c_key,
                "url": c_url,
                "status": c_status,
                "execute_time": c_etime,
                "execute_count": c_ecount,
                "code": c_code,
                "location": c_loc,
                "meta": c_meta,
                "seg": c_seg,
            },
            schema=EXECUTE_OUT_SCHEMA,
        )


# Per-worker-process stage cache: Ray reuses worker processes across
# tasks, so the page-store index / dispatch table are built once per
# (process, run_execute call) instead of once per task or per batch.
_PROC_STAGE_CACHE: dict = {}


def _split_output(table: pa.Table, seen_shards: int):
    """Executed rows -> (fetch rows, tallies, link rows): the links as
    one table, or with a seen filter as seen_shards split_by_shard
    slices."""
    fmask = pc.equal(table["seg"], "fetch")
    fetch = table.filter(fmask).drop_columns(["seg"])
    link = table.filter(pc.invert(fmask)).drop_columns(["seg"])
    ok = int(
        pc.sum(
            pc.cast(pc.equal(fetch["status"], STATUS_DB_SUCCESS), pa.int64())
        ).as_py()
        or 0
    )
    stats = {
        "n_fetch": len(fetch),
        "n_link": len(link),
        "ok": ok,
        "fail": len(fetch) - ok,
    }
    if seen_shards:
        return (fetch, stats, *split_by_shard(link, seen_shards))
    return fetch, stats, link


@ray.remote(num_cpus=1)
def _execute_block(box: list, cache_key: str, generate: Optional[tuple],
                   seen_shards: int, block):
    """One frontier block -> 2 + max(1, seen_shards) returns: fetch
    rows, {n_fetch, n_link, ok, fail}, link rows (or their seen-shard
    slices). `box` holds the ray.put stage kwargs inside a list, so the
    task only fetches them when its process has no cached stage for
    this call; `generate` is (max_execute_count, generator_filter) when
    the block is a raw crawldb bucket still to be filtered."""
    stage = _PROC_STAGE_CACHE.get(cache_key)
    if stage is None:
        stage = ExecuteStage(**ray.get(box[0]))
        _PROC_STAGE_CACHE.clear()  # one live stage per worker process
        _PROC_STAGE_CACHE[cache_key] = stage
    table = BlockAccessor.for_block(block).to_arrow()
    if "key" not in table.column_names:  # schema-less empty block
        table = FRONTIER_SCHEMA.empty_table()
    if generate is not None:
        table = filter_block(table, *generate)
    step = max(1, stage.config.fetch_batch_size)
    outs = [stage(table.slice(o, step)) for o in range(0, len(table), step)]
    out = pa.concat_tables(outs) if outs else EXECUTE_OUT_SCHEMA.empty_table()
    return _split_output(out, seen_shards)


class ExecuteResult:
    """The refs of one execute wave, one entry per input block in block
    order: fetch table refs, tally refs and, per block, its link refs
    (one table, or one slice per seen shard)."""

    def __init__(self, fetch_refs: list, stat_refs: list, link_refs: list):
        self.fetch_refs = fetch_refs
        self.stat_refs = stat_refs
        self.link_refs = link_refs

    def materialize(self) -> "ExecuteResult":
        """Wait for the whole wave; returns self."""
        if self.stat_refs:
            ray.wait(self.stat_refs, num_returns=len(self.stat_refs),
                     fetch_local=False)
        return self

    def stats(self) -> List[dict]:
        """Per-block {n_fetch, n_link, ok, fail} tallies."""
        return ray.get(self.stat_refs)

    def count(self) -> int:
        """Fetch + link rows, before any seen-filter probe."""
        return sum(s["n_fetch"] + s["n_link"] for s in self.stats())


def run_execute(
    blocks: list,
    store_handle: dict,
    *,
    config: CrawlerConfig,
    execute_time_ms: Optional[int] = None,
    generate: bool = False,
    generator_filter: Optional[Callable] = None,
    seen_shards: int = 0,
    **stage_kwargs,
) -> ExecuteResult:
    """Frontier block refs -> ExecuteResult: ONE task per block, never
    merged or split, each running ExecuteStage over its block in
    fetch_batch_size slices and splitting the output into fetch rows,
    tallies and link rows. With `generate` the blocks are raw crawldb
    buckets and each task first applies generate.filter_block (G1/G2 +
    `generator_filter`); the caller turns it off when generate already
    ran (topN, priority, routed fetch lists). One block is one task, so
    host-routed blocks keep every host inside one stage instance."""
    box = [ray.put(dict(
        store_handle=store_handle,
        config=config,
        execute_time_ms=execute_time_ms,
        **stage_kwargs,
    ))]
    cache_key = uuid.uuid4().hex
    gen = (config.max_execute_count, generator_filter) if generate else None
    task = _execute_block.options(num_returns=2 + max(1, seen_shards))
    fetch_refs, stat_refs, link_refs = [], [], []
    for block in blocks:
        f_ref, s_ref, *l_refs = task.remote(
            box, cache_key, gen, seen_shards, block
        )
        fetch_refs.append(f_ref)
        stat_refs.append(s_ref)
        link_refs.append(l_refs)
    return ExecuteResult(fetch_refs, stat_refs, link_refs)
