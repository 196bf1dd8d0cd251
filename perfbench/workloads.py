"""Crawl workloads over the deterministic synthetic web.

Each workload is one crawl job of the real engine, with NewsVisitor
(CEPF on every article) and autoParse. A sample runs the job
once, from constructing the crawler to frontier exhaustion, and returns
what the correctness gate and the metrics need. The workload seed only
shuffles the seed-URL order: the final crawldb must not depend on it.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from webcollector_ray.config import CrawlerConfig
from webcollector_ray.pipelines.autonews import NewsVisitor
from webcollector_ray.pipelines.crawler import BreadthCrawler, RamCrawler
from webcollector_ray.sources.pagestore import SynthPageStore
from webcollector_ray.synth import SynthSpec

LINK_REGEX = r"http://site[0-9]+\.test/(list|show)-[0-9]+\.html"
MAX_DEPTHS = 1000  # BreadthCrawler.start needs a bound; every job exhausts first


@dataclass(frozen=True)
class Workload:
    name: str
    spec: SynthSpec
    checkpoint: bool  # BreadthCrawler with Parquet checkpoints + resume
    # CrawlerConfig fields that differ from the engine defaults, besides
    # fetch_concurrency, which is capped at the CPUs Ray is given
    overrides: Tuple[Tuple[str, object], ...] = ()
    stop_after: int = 0  # depths in the first leg of a checkpointed job

    def config(self, num_cpus: int) -> CrawlerConfig:
        cfg = CrawlerConfig()
        cfg = cfg.replace(
            fetch_concurrency=min(cfg.fetch_concurrency, num_cpus),
            **dict(self.overrides))
        if self.checkpoint:
            cfg = cfg.replace(approximate_seen=True)
        return cfg

    def seeds(self, seed: int) -> List[str]:
        seeds = self.spec.seeds()
        random.Random(seed).shuffle(seeds)
        return seeds


# On 4 logical CPUs a news_crawl sample takes 4-5 s. A checkpoint_resume
# sample takes ~20 s at any size from 10 to 100 sites: at the default 64
# merge buckets and 16 seen-filter shards its cost is per depth and per
# crawler, not per page.
_FULL = {
    "news_crawl": dict(num_sites=200, lists_per_site=2, shows_per_list=8),
    "checkpoint_resume": dict(num_sites=100, lists_per_site=4,
                              shows_per_list=4),
}
# Minimal sizes for the self-test: same link structure, a few sites.
_MINI = {
    "news_crawl": dict(num_sites=3, lists_per_site=2, shows_per_list=8),
    "checkpoint_resume": dict(num_sites=3, lists_per_site=4,
                              shows_per_list=4),
}

NAMES = tuple(_FULL)

# bench.py's headline crawl config
HEADLINE = (("merge_num_buckets", 32), ("fetch_batch_size", 512))


def get(name: str, size: str = "full") -> Workload:
    shape = (_FULL if size == "full" else _MINI)[name]
    spec = SynthSpec(**shape)
    if name == "news_crawl":
        return Workload(name, spec, checkpoint=False, overrides=HEADLINE)
    return Workload(name, spec, checkpoint=True, stop_after=3)


@dataclass
class Sample:
    wall_s: float  # constructing the first crawler -> exhaustion
    depths: list  # DepthMetrics of every leg, in order
    crawldb: object  # final ray.data Dataset
    legs: list = field(default_factory=list)  # per-leg wall seconds
    resume_s: float = 0.0
    resumed_at: Optional[int] = None  # first depth of the resumed leg
    checkpoint_root: Optional[str] = None
    seen: object = None  # the resumed crawler's seen filter, if any

    @property
    def fetched(self) -> int:
        """Pages fetched over all legs; the gate requires each page of
        the web exactly once."""
        return sum(d.generated for d in self.depths)

    @property
    def frontier_rows(self) -> int:
        return sum(d.crawldb_size for d in self.depths)


def crawler(w: Workload, num_cpus: int, seed: int, root: Optional[str]):
    """A RamCrawler, or with `root` a resumable BreadthCrawler: a second
    crawler on the same root picks up the first one's checkpoint."""
    cfg = w.config(num_cpus)
    kw = dict(deterministic_time=True, visitor=NewsVisitor())
    store = SynthPageStore(w.spec)
    c = (BreadthCrawler(root, True, store,
                        config=cfg.replace(resumable=True), **kw)
         if root is not None else RamCrawler(store, config=cfg, **kw))
    c.add_seed(w.seeds(seed))
    c.add_regex(LINK_REGEX)
    return c


def run_sample(w: Workload, num_cpus: int, seed: int, scratch: str,
               between_legs: Optional[Callable[[str], None]] = None
               ) -> Sample:
    """One timed crawl. For the checkpointed job, the first crawler stops
    after `stop_after` depths and a new crawler resumes from its
    checkpoint to exhaustion; the wall time covers both legs.
    `between_legs(root)` runs after the first leg (the self-test uses it
    to break the checkpoint)."""
    if not w.checkpoint:
        t0 = time.perf_counter()
        res = crawler(w, num_cpus, seed, None).start()
        wall = time.perf_counter() - t0
        return Sample(wall, list(res.depths), res.crawldb, legs=[wall])
    root = os.path.join(scratch, f"ckpt-{time.time_ns()}")
    t0 = time.perf_counter()
    first = crawler(w, num_cpus, seed, root)
    try:
        r1 = first.start(w.stop_after)
    finally:
        if first.seen is not None:
            first.seen.shutdown()
    if between_legs is not None:
        between_legs(root)
    t1 = time.perf_counter()
    second = crawler(w, num_cpus, seed, root)
    r2 = second.start(MAX_DEPTHS)
    t2 = time.perf_counter()
    return Sample(t2 - t0, list(r1.depths) + list(r2.depths), r2.crawldb,
                  legs=[t1 - t0, t2 - t1], resume_s=t2 - t1,
                  resumed_at=r2.depths[0].depth if r2.depths else None,
                  checkpoint_root=root, seen=second.seen)


def release(s: Sample) -> None:
    """Free what a sample holds: seen-filter actors and checkpoint files."""
    if s.seen is not None:
        s.seen.shutdown()
        s.seen = None
    if s.checkpoint_root is not None:
        shutil.rmtree(s.checkpoint_root, ignore_errors=True)
        s.checkpoint_root = None
    s.crawldb = None


def warm_up(num_cpus: int) -> None:
    """Untimed tiny crawl at bench.py's warm-up config: spawns and
    import-warms every Ray worker."""
    w = Workload("warm", SynthSpec(num_sites=10, lists_per_site=2,
                                   shows_per_list=3), checkpoint=False,
                 overrides=(("merge_num_buckets", 8),
                            ("fetch_batch_size", 4)))
    crawler(w, num_cpus, 0, None).start()
