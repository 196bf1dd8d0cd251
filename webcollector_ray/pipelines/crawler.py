"""Crawler driver loop — BreadthCrawler / RamCrawler equivalents.

Reference lifecycle (crawler/Crawler.java:95-148, SURVEY.md §3.1):
setup -> inject seeds -> for each depth: merge previous segments into
crawldb, generate (filters + topN), fetch+visit every generated datum,
write fetch/link segments; break early when totalGenerate == 0.

Ray mapping: the driver holds every table as a list of Arrow block
refs, and each depth is two raw task waves over them:

    crawldb = merge(crawldb, fetch_seg, link_seg)   # ONE shuffle
    fetch_seg, link_seg = run_execute(crawldb)      # one task per bucket:
                                                    # generate filter +
                                                    # fetch + visit + split
                                                    # (+ seen probe, + parts)

Every depth's crawldb is one merge result: the inject merge, the depth's
own merge, or on resume the checkpoint's tables merged at the first
resumed depth. A Dataset is built only where an API needs one: the
returned crawldb and the generate path that topN, priority, politeness
routing and bucketed stores run (with the routing exchange) before the
fetch wave. A resume reads its checkpoint as read-task refs.

Each fetch task finishes its own rows. With the approximate seen filter
it drops the links the filter's state (as the previous depth left it,
handed over as read-only group state refs) has seen, and returns the
kept key hashes; the driver then launches one insert task per filter
group that nothing waits for, and the next depth's fetch tasks are
ordered after it by the state refs. With checkpoints each fetch task
writes its fetch and link rows as `fetch/part-<block>` and
`link/part-<block>` and returns their lineage in its tallies, and the
crawldb parts are written by raw tasks nothing waits for. Depth i
commits (its `seen_size`, then its manifest from the returned lineage)
once depth i+1's merge, or the final fold, is launched: the manifest
is still written after every part of depth i exists, so it stays the
commit point, but the driver never waits on a write wave.

The merged crawldb and the segments are either checkpointed to
Parquet (`crawl_path` mode == reference BreadthCrawler with RocksDB,
plugin/rocks/BreadthCrawler.java:32-48) or pinned in the object store
(`RamCrawler`, plugin/ram/RamCrawler.java:28-44).

totalGenerate == number of fetch-segment rows (every generated datum
writes exactly one fetch row, Fetcher.java:267), so the termination
count is summed from the fetch wave's per-block tallies, and the
frontier size from the merge's per-bucket counts — no extra pass over
the frontier.

Divergence note: on depth-exhaustion the reference leaves the last
segments unmerged until a hypothetical next run's first merge; this
driver folds them with a final merge so the returned crawldb is the
fixed point (identical to what the reference would hold after its next
start()).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import pyarrow as pa

import ray
import ray.data as rd

from ..config import CrawlerConfig
from ..dispatch import Visitor
from ..model import FRONTIER_SCHEMA, CrawlDatum, datums_to_table
from ..regex_rule import RegexRule
from ..sources.pagestore import BroadcastPageStore, BucketedPageStore
from ..stages.execute import run_execute
from ..stages.generate import generate
from ..stages.merge import (
    dedupe_by_key_refs,
    merge_segments,
    segment_parts,
    size_buckets,
)
from ..stages.merge import dedupe_by_key  # noqa: F401  (perfbench/spans.py binds it)
from ..state.frontier import CheckpointStore
from ..state.seen import ShardedSeenFilter


@dataclass
class DepthMetrics:
    depth: int
    generated: int = 0
    fetch_success: int = 0
    fetch_failed: int = 0
    links: int = 0
    crawldb_size: int = 0
    merge_buckets: int = 0  # buckets of the merge that built this
                            # depth's crawldb
    seen_size: int = 0      # seen-filter inserts after this depth;
                            # 0 when the filter is off
    merge_s: float = 0.0    # this depth's merge wave until its count
                            # refs return; 0 when no merge ran in it
    execute_s: float = 0.0  # the fetch wave until its tallies return
    seconds: float = 0.0


@dataclass
class CrawlResult:
    depths: List[DepthMetrics] = field(default_factory=list)
    crawldb = None  # ray.data.Dataset of the final frontier, one
                    # block per bucket of its last merge
    seconds: float = 0.0

    @property
    def total_fetched(self) -> int:
        return sum(d.generated for d in self.depths)

    @property
    def total_links(self) -> int:
        return sum(d.links for d in self.depths)


class Crawler:
    """Engine driver. `pages` is the web: a pyarrow Table (broadcast), a
    BroadcastPageStore / BucketedPageStore, or a path to a bucketed
    store dir."""

    def __init__(
        self,
        pages: Union[pa.Table, BroadcastPageStore, BucketedPageStore, str],
        *,
        crawl_path: Optional[str] = None,
        visitor: Optional[Visitor] = None,
        executor: Optional[Callable] = None,
        auto_parse: bool = True,
        config: Optional[CrawlerConfig] = None,
        next_filter: Optional[Callable] = None,
        generator_filter: Optional[Callable] = None,
        deterministic_time: bool = False,
    ):
        self._pages = pages
        self.crawl_path = crawl_path
        self.visitor = visitor
        self.executor = executor
        self.auto_parse = auto_parse
        self.config = config or CrawlerConfig()
        self.next_filter = next_filter
        self.generator_filter = generator_filter
        self.deterministic_time = deterministic_time
        self.regex_rule = RegexRule()
        self._seeds: List[CrawlDatum] = []
        self._forced_seeds: List[CrawlDatum] = []
        self.seen: Optional[ShardedSeenFilter] = None

    # --- seeds (crawler/Crawler.java:169-330 addSeed variants) ---
    def add_seed(self, seed, force: bool = False, type: Optional[str] = None):
        target = self._forced_seeds if force else self._seeds
        if isinstance(seed, CrawlDatum):
            target.append(seed)
        elif isinstance(seed, str):
            d = CrawlDatum(seed)
            if type is not None:
                d.set_type(type)
            target.append(d)
        else:
            for s in seed:
                self.add_seed(s, force=force, type=type)
        return self

    def add_regex(self, rule: str):
        self.regex_rule.add_rule(rule)
        return self

    # --- page store ---
    def _store_handle(self) -> dict:
        p = self._pages
        if isinstance(p, pa.Table):
            p = BroadcastPageStore(p)
        elif isinstance(p, str):
            p = BucketedPageStore(p)
        self._pages = p
        return p.handle()

    # --- inject (crawldb/Injector.java; DBManager.inject :49-86):
    # forced seeds overwrite existing keys, plain seeds insert-if-absent.
    # Only a fresh crawl injects, so there is no crawldb to merge into.
    def _inject(self):
        """-> the inject merge: (table, count, eligible refs)."""
        cfg = self.config
        seed_tbls = []
        if self._forced_seeds:
            seed_tbls.append(([ray.put(datums_to_table(self._dedupe_seeds(self._forced_seeds, last_wins=True)))], 0))
        if self._seeds:
            seed_tbls.append(([ray.put(datums_to_table(self._dedupe_seeds(self._seeds, last_wins=False)))], 2))
        if not seed_tbls:
            raise ValueError("Please add at least one seed")  # Crawler.java:106-109
        return dedupe_by_key_refs(
            seed_tbls, cfg.merge_num_buckets,
            eligible_max_count=cfg.max_execute_count,
            rows=len(self._seeds) + len(self._forced_seeds),
        )

    @staticmethod
    def _dedupe_seeds(datums: List[CrawlDatum], last_wins: bool) -> List[CrawlDatum]:
        seen: dict = {}
        for d in datums:
            if last_wins or d.key not in seen:
                seen[d.key] = d
        return list(seen.values())

    # --- host-coherent routing for politeness (north_rule F4) ---
    def _route_by_host(self, generated):
        """Route the fetch list so each host's rows land in EXACTLY ONE
        output block: routes are hash-bucketed and each bucket becomes
        one block of the exchange. run_execute runs one task per block,
        so all of a host's fetches run inside one ExecuteStage instance
        and its per-host token bucket is globally serializing — two
        tasks can never interleave one host (the invariant the per-stage
        budget state depends on; pinned by
        test_politeness_host_single_block).

        Hot-host skew handling: hosts with more than
        `host_salt_threshold` rows this depth get a salt suffix
        (url-hash modulo ceil(n/threshold)) so one mega-host spreads
        over several buckets/tasks instead of serializing the whole
        depth — deliberately trading per-host rate precision (the
        budget then applies per salt shard) for wall-clock, documented
        in SURVEY.md §4 'skew / hot hosts'."""
        import numpy as np
        import pandas as pd

        generated = generated.materialize()
        threshold = self.config.host_salt_threshold

        from ..functions.joins import exchange_reduce
        from ..urls import hosts_of_array, url_hash64

        hot: dict = {}
        # if the whole frontier holds <= threshold rows no host can be
        # hot — skip the census execution (count() is metadata-free on a
        # materialized dataset)
        n_generated = generated.count()
        if threshold > 0 and n_generated > threshold:
            # hot-host census, distributed (VERDICT r2 §wrong.3): each
            # block emits per-host PARTIAL counts (vectorized extract +
            # value_counts), one host-hash exchange sums them, and only
            # hosts ABOVE the threshold come back to the driver — the
            # hot list is tiny by definition, the all-hosts dict never
            # exists anywhere.
            import zlib as _zlib

            # sized like a merge of the fetch list (its row count bounds
            # the per-block host counts the census exchanges)
            census_buckets = size_buckets(0, n_generated)

            def census_local(batch: pa.Table) -> pa.Table:
                hosts = hosts_of_array(batch["url"])
                vc = pd.Series(hosts).value_counts()
                hs = vc.index.to_numpy(dtype=object)
                bk = np.fromiter(
                    (_zlib.crc32(h.encode()) % census_buckets for h in hs),
                    dtype=np.int32, count=len(hs),
                )
                return pa.table({
                    "host": pa.array(hs, pa.string()),
                    "n": pa.array(vc.to_numpy(), pa.int64()),
                    "__bucket": pa.array(bk),
                })

            def census_hot(t: pa.Table) -> pa.Table:
                g = t.to_pandas().groupby("host", sort=False)["n"].sum()
                g = g[g > threshold]
                return pa.table({
                    "host": pa.array(g.index.to_numpy(dtype=object), pa.string()),
                    "salts": pa.array(
                        (g.to_numpy() // threshold + 1), pa.int64()
                    ),
                })

            census_empty = pa.table({
                "host": pa.array([], pa.string()),
                "salts": pa.array([], pa.int64()),
            })
            # concat arrow refs (Dataset.to_pandas drops the schema
            # when every block is 0-row — the usual no-hot-host case)
            hot_tbl = pa.concat_tables(
                ray.get(
                    list(
                        exchange_reduce(
                            generated.map_batches(
                                census_local, batch_format="pyarrow"
                            ),
                            census_hot, census_empty, census_buckets,
                        ).to_arrow_refs()
                    )
                ),
                promote_options="permissive",
            )
            hot = dict(
                zip(
                    hot_tbl["host"].to_pylist(),
                    hot_tbl["salts"].to_pylist(),
                )
            )

        n_buckets = max(self.config.fetch_concurrency * 2, 4)

        def add_route(batch: pa.Table) -> pa.Table:
            import zlib as _zlib

            hosts = hosts_of_array(batch["url"])
            codes, uniques = pd.factorize(hosts)
            routes = uniques.astype(object)[codes]
            if hot:
                # per-URL salt only for rows on hot hosts (rare rows)
                hot_mask = np.isin(uniques, list(hot.keys()))[codes]
                if hot_mask.any():
                    urls = np.asarray(batch["url"].to_pylist(), dtype=object)
                    for i in np.nonzero(hot_mask)[0]:
                        h = routes[i]
                        routes[i] = f"{h}#{url_hash64(urls[i]) % hot[h]}"
            # crc32 per DISTINCT route, broadcast back through codes
            rcodes, runiq = pd.factorize(pd.Series(routes, dtype="object"))
            rbk = np.fromiter(
                (_zlib.crc32(x.encode()) % n_buckets for x in runiq),
                dtype=np.int32, count=len(runiq),
            )
            batch = batch.append_column(
                "__host", pa.array(routes, pa.string())
            )
            return batch.append_column(
                "__bucket", pa.array(rbk[rcodes], pa.int32())
            )

        def one_block_per_bucket(t: "pa.Table") -> "pa.Table":
            # INTERLEAVE hosts (round-robin by per-host rank) instead of
            # grouping each host contiguously: consecutive same-host
            # fetches are then separated by the other hosts' work, so
            # the per-host token bucket rarely has to sleep — per-task
            # wall time drops from sum(host_pages)*budget to
            # ~max(total_work, max_host_pages*budget). The invariant is
            # untouched: a host still lives in exactly one block/task.
            df = t.to_pandas().sort_values(
                ["__host", "key"], kind="mergesort"
            )
            df["__rank"] = df.groupby("__host", sort=False).cumcount()
            df = df.sort_values(
                ["__rank", "__host", "key"], kind="mergesort"
            ).drop(columns=["__host", "__bucket", "__rank"])
            return pa.Table.from_pandas(df, preserve_index=False).select(
                FRONTIER_SCHEMA.names
            )

        # the raw-task exchange replaces a per-depth sort shuffle;
        # frontier rows are compact (no html), so this is cheap
        empty = FRONTIER_SCHEMA.empty_table()
        return exchange_reduce(
            generated.map_batches(add_route, batch_format="pyarrow"),
            one_block_per_bucket, empty, n_buckets,
        )

    # --- store-bucket-coherent routing (scale path J3) ---
    def _route_by_store_bucket(self, generated, num_buckets: int):
        """Group the fetch list by the bucketed page store's own
        md5(url) % B partition id, so each fetch task's batch touches
        O(1) store buckets and the per-worker LRU bucket cache actually
        hits — without this, random batches read ~batch_size distinct
        buckets each at 100 TB store scale.

        Physical plan: the same raw-task bucket exchange every other
        wide step uses (store-bucket id folded into a bounded number of
        exchange buckets, rows ordered by (store bucket, key) inside
        each output block) — not a global Dataset.sort, which costs a
        sample + per-block sort + merge wave per depth (VERDICT r2
        §next.8)."""
        import numpy as np
        import pandas as pd

        from ..functions.joins import exchange_reduce
        from ..urls import url_hash64

        n_x = max(4, min(num_buckets, self.config.fetch_concurrency * 2))

        def add_bucket(batch: pa.Table) -> pa.Table:
            # md5 only the DISTINCT urls, broadcast through factorize
            # codes (same pattern as add_route's crc32) — the md5 must
            # equal the store's own partitioning hash, so it can't be
            # swapped for a vectorized hash, but it never runs per row
            codes, uniq = pd.factorize(
                batch["url"].to_pandas(), use_na_sentinel=False
            )
            ub = np.fromiter(
                (url_hash64(u) % num_buckets for u in uniq),
                dtype=np.int64, count=len(uniq),
            )
            sb = ub[codes]
            batch = batch.append_column(
                "__sbucket", pa.array(sb, pa.int32())
            )
            return batch.append_column(
                "__bucket", pa.array(sb % n_x, pa.int32())
            )

        def order_block(t: pa.Table) -> pa.Table:
            return t.sort_by(
                [("__sbucket", "ascending"), ("key", "ascending")]
            ).select(FRONTIER_SCHEMA.names)

        return exchange_reduce(
            generated.map_batches(add_bucket, batch_format="pyarrow"),
            order_block, FRONTIER_SCHEMA.empty_table(), n_x,
        )

    # --- the depth loop ---
    def start(self, depth: int) -> CrawlResult:
        cfg = self.config
        t0 = time.time()
        store_handle = self._store_handle()
        result = CrawlResult()

        ckpt: Optional[CheckpointStore] = (
            CheckpointStore(self.crawl_path) if self.crawl_path else None
        )

        def commit(m: DepthMetrics, size_refs: list, db_writes: list,
                   parts: dict) -> None:
            """Finish a depth off the critical path: its seen-filter
            size, then (checkpointing) the manifest, once every part of
            the depth exists."""
            if size_refs:
                m.seen_size = sum(ray.get(size_refs))
            if ckpt is not None:
                parts = dict(crawldb=[e for e in ray.get(db_writes) if e],
                             **parts)
                ckpt.write_manifest(m.depth, dataclasses.asdict(m),
                                    partitions=parts)

        # tables are block ref lists (None: known empty). `merged` is the
        # pending merge (table, count and eligible refs) that builds the
        # next depth's crawldb; every merge is sized from the rows the
        # driver already knows: seeds at inject, then the previous
        # depth's crawldb_size + generated + links. `pending` is the
        # previous depth's `commit` arguments.
        crawldb = fetch_seg = link_seg = merged = pending = None
        merge_rows = 0
        start_depth = 0
        if ckpt is not None:
            if not cfg.resumable:
                ckpt.clear()  # Crawler.java:101-110
            else:
                last = ckpt.latest_complete_depth()
                if last is not None:
                    crawldb = ckpt.read_refs(last, "crawldb")
                    fetch_seg, link_seg = (
                        ckpt.read_refs(last, name)
                        if ckpt.has_table(last, name) else None
                        for name in ("fetch", "link")
                    )
                    man = ckpt.read_manifest(last)
                    merge_rows = sum(
                        man.get(k, 0)
                        for k in ("crawldb_size", "generated", "links")
                    )
                    start_depth = last + 1

        if cfg.approximate_seen and self.seen is None:
            self.seen = ShardedSeenFilter(
                cfg.seen_shards, cfg.seen_bits_per_shard,
                backend=cfg.seen_backend,
            )

        if crawldb is None:  # a fresh crawl
            merged = self._inject()
            if self.seen is not None:
                # ONE batched insert, not awaited: its mask is unused, and
                # the depth-0 probe is ordered after it by the state ref
                self.seen.insert(
                    [d.key for d in self._seeds + self._forced_seeds]
                )

        for i in range(start_depth, start_depth + depth):
            dt0 = time.perf_counter()
            m = DepthMetrics(depth=i)

            # 1. merge the previous segments (Fetcher.fetchAll step a),
            # or, on resume, the checkpoint's tables: raw-task hash
            # exchange; frontier sizes and the A2 early-termination input
            # (each bucket's generate-eligible count under the default
            # G1/G2 predicate; user filters/topN can only DROP among
            # those rows) ride back on tiny count refs
            t_merge = None
            if merged is None:
                t_merge = time.perf_counter()
                merged = dedupe_by_key_refs(
                    segment_parts(crawldb, fetch_seg, link_seg),
                    cfg.merge_num_buckets,
                    eligible_max_count=cfg.max_execute_count,
                    rows=merge_rows,
                )
            # the previous depth commits while this merge runs
            if pending is not None:
                commit(*pending)
                pending = None
            crawldb, count_refs, elig_refs = merged
            merged = None
            m.merge_buckets = len(crawldb)
            db_writes: list = []
            if ckpt is not None:
                ckpt.clear_depth(i)
                db_writes = ckpt.write_parts(crawldb, i, "crawldb")
            m.crawldb_size = sum(ray.get(count_refs))
            eligible = sum(ray.get(elig_refs))
            if t_merge is not None:
                m.merge_s = time.perf_counter() - t_merge
            if ckpt is not None and cfg.checkpoint_readback:
                # with readback the crawler holds the parquet copies'
                # refs, so the object store can evict frontier state
                # (100TB mode)
                ray.get(db_writes)
                crawldb = ckpt.read_refs(i, "crawldb")

            # A2: no eligible row, no fetch wave; the depth ends the crawl
            fetch_seg = link_seg = None
            parts: dict = {}
            size_refs: list = []
            if eligible:
                # 2. generate: on the common path each fetch task filters
                # its own crawldb bucket (G1/G2/G4); topN and priority need
                # a global step and routing a wide one, so those run
                # generate here and hand the fetch wave filtered blocks
                polite = cfg.politeness_budget_ms > 0
                bucketed = store_handle.get("kind") == "bucketed"
                in_task = not (cfg.topn > 0 or cfg.priority_meta_key
                               or polite or bucketed)
                if in_task:
                    blocks = crawldb
                else:
                    generated = generate(
                        rd.from_arrow_refs(crawldb), cfg, self.generator_filter
                    )
                    if polite:  # politeness wins (hosts) over store locality
                        generated = self._route_by_host(generated)
                    elif bucketed:
                        generated = self._route_by_store_bucket(
                            generated, store_handle["num_buckets"]
                        )
                    # materialized first: to_arrow_refs on a lazy plan
                    # re-runs it (the sort too) under limit(1) for the schema
                    blocks = generated.materialize().to_arrow_refs()

                # 3. execute: one raw task per block runs fetch + visit,
                # splits its output into fetch rows, tallies (A3) and link
                # rows, drops the links the seen filter's snapshot has
                # seen and writes its own checkpoint parts; the kept
                # hashes go into the filter by one task per shard group
                # that nothing waits for (the next depth's probe is
                # ordered after it by the state ref)
                part_dirs = None if ckpt is None else tuple(
                    ckpt.new_table_dir(i, name) for name in ("fetch", "link"))
                t_exec = time.perf_counter()
                exec_out = run_execute(
                    blocks,
                    store_handle,
                    config=cfg,
                    execute_time_ms=(1_000_000 + i) if self.deterministic_time else None,
                    generate=in_task,
                    generator_filter=self.generator_filter,
                    seen=self.seen,
                    part_dirs=part_dirs,
                    visitor=self.visitor,
                    executor=self.executor,
                    auto_parse=self.auto_parse,
                    regex_rule=self.regex_rule,
                    next_filter=self.next_filter,
                ).materialize()
                stats = exec_out.stats()
                m.execute_s = time.perf_counter() - t_exec
                m.generated = sum(s["n_fetch"] for s in stats)
                m.links = sum(s["n_link"] for s in stats)
                m.fetch_success = sum(s["ok"] for s in stats)
                m.fetch_failed = sum(s["fail"] for s in stats)
                fetch_seg = exec_out.fetch_refs
                link_seg = exec_out.link_refs
                if self.seen is not None:
                    size_refs = self.seen.insert_hashes(exec_out.hash_refs)
                if ckpt is not None:
                    parts = {name: [e for s in stats for e in s["parts"][name]]
                             for name in ("fetch", "link")}
                    if cfg.checkpoint_readback:
                        fetch_seg = ckpt.read_refs(i, "fetch")
                        link_seg = ckpt.read_refs(i, "link")
            elif self.seen is not None:
                size_refs = self.seen.size_refs()

            merge_rows = m.crawldb_size + m.generated + m.links
            m.seconds = time.perf_counter() - dt0
            result.depths.append(m)
            pending = (m, size_refs, db_writes, parts)
            if m.generated == 0:  # Crawler.java:141-144
                fetch_seg = link_seg = None
                break

        if merged is not None:  # start(0): no depth took the inject merge
            crawldb = merged[0]
        # fold trailing segments so the returned crawldb is the fixed
        # point; the last depth commits while the fold runs
        fold = fetch_seg is not None or link_seg is not None
        if fold:
            result.crawldb = merge_segments(
                crawldb, fetch_seg, link_seg, cfg.merge_num_buckets,
                rows=merge_rows,
            )
        if pending is not None:
            commit(*pending)
        if not fold:
            result.crawldb = rd.from_arrow_refs(crawldb)
        elif ckpt is not None:
            final_depth = result.depths[-1].depth if result.depths else 0
            ckpt.write_table(result.crawldb, final_depth, "crawldb_final")
        result.seconds = time.time() - t0
        return result


class BreadthCrawler(Crawler):
    """plugin/rocks/BreadthCrawler.java equivalent: checkpointed crawldb
    + visitor + autoParse."""

    def __init__(self, crawl_path: str, auto_parse: bool, pages, **kw):
        super().__init__(pages, crawl_path=crawl_path, auto_parse=auto_parse, **kw)


class RamCrawler(Crawler):
    """plugin/ram/RamCrawler.java equivalent: in-memory crawl;
    start() runs until frontier exhaustion (RamCrawler.java:40-42)."""

    def __init__(self, pages, auto_parse: bool = True, **kw):
        super().__init__(pages, crawl_path=None, auto_parse=auto_parse, **kw)

    def start(self, depth: Optional[int] = None) -> CrawlResult:
        return super().start(depth if depth is not None else 2**31 - 1)
