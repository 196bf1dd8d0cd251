"""Crawler configuration.

Mirrors the reference's typed key-value Configuration with its defaults
(reference: conf/Configuration.java:194-214 and util/Config.java:27-42),
re-expressed as a frozen dataclass that is shipped into Ray tasks
and UDF closures (reference propagation:
util/ConfigurationUtils.java:14-22).

Extra fields beyond the reference (marked "north_rule") configure the
scale path: seen-filter sharding, host salting, merge bucketing.

Every field is read by the engine; a reference knob with no effect here
is left out rather than accepted and ignored. Connect/read timeouts and
redirects belong to the page store (`net.HttpRequester`, which never
follows redirects itself), and checkpointing is on exactly when the
crawler is given a `crawl_path`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


DEFAULT_USER_AGENT = (
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36"
)


@dataclass(frozen=True)
class CrawlerConfig:
    # --- reference defaults (util/Config.java:27-42) ---
    topn: int = 0                      # TOP_N: per-depth generate cap, 0 = unlimited
    max_execute_count: int = 10        # MAX_EXECUTE_COUNT: retry limit per datum
    execute_interval_ms: int = 0       # EXECUTE_INTERVAL: politeness delay
    max_receive_size: int = 10 * 1024 * 1024  # MAX_RECEIVE_SIZE: body byte cap
    user_agent: str = DEFAULT_USER_AGENT
    auto_detect_img: bool = False      # AUTO_DETECT_IMG: parse *[src] links too
    default_http_code: int = 200       # code assumed for rows without a code column

    # --- Ray execution knobs (this engine, not the reference) ---
    fetch_concurrency: int = 8         # routing width of polite and bucketed-
                                       # store fetch lists: ~2x this many
                                       # blocks (at least 4), one fetch task
                                       # each
    fetch_batch_size: int = 256        # frontier rows per fetch batch
    merge_num_buckets: int = 0         # hash buckets for every merge exchange
                                       # (A1): 0 sizes each merge to its input
                                       # rows and the cluster CPUs
                                       # (stages/merge.size_buckets); > 0
                                       # fixes the layout, that many output
                                       # buckets, while the number of merge
                                       # tasks still follows the data
    resumable: bool = False            # keep / reuse the crawl_path checkpoints
    checkpoint_readback: bool = False  # re-read each depth's parquet instead
                                       # of keeping object-store refs: lets
                                       # the store evict frontier state at
                                       # 100TB scale, at one extra read
                                       # task wave per table per depth

    # --- north_rule scale path ---
    seen_shards: int = 16              # seen-filter logical shard count
                                       # (packed into min(S, CPUs) state
                                       # groups, one task per group a call)
    seen_bits_per_shard: int = 1 << 23 # bloom bits per shard (1 MiB each)
    approximate_seen: bool = False     # pre-drop probably-seen links via bloom
                                       # (inexact: a false positive drops a new
                                       # URL; it saves no shuffle, the links
                                       # cross the object store for the probe
                                       # and again for the merge; OFF for
                                       # reference-parity runs)
    seen_backend: str = "bloom"        # "bloom" (cheapest) or "cuckoo"
                                       # (deletable fingerprints — recrawl)
    host_salt_threshold: int = 10000   # frontier rows per host before salting
    politeness_budget_ms: int = 0      # per-host min interval inside fetchers
    obey_robots: bool = False          # consult per-host robots.txt caches
                                       # in the fetch stage (reference has no
                                       # robots support; north_rule adds it)
    priority_meta_key: str = ""        # when set, generate orders the fetch
                                       # list by this meta key DESC (then key
                                       # ASC) — the per-depth priority queue;
                                       # "" keeps canonical key order

    def __post_init__(self):
        if self.merge_num_buckets < 0:
            raise ValueError(
                f"merge_num_buckets must be >= 0 (0 = size to the data), "
                f"got {self.merge_num_buckets}"
            )

    def replace(self, **kw) -> "CrawlerConfig":
        return dataclasses.replace(self, **kw)
