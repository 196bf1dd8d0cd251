"""Merge — the per-depth wide shuffle (A1 in SURVEY.md §2.9).

Reference semantics (plugin/rocks/RocksDBManager.java:160-197):
crawldb <- fetch (fetch OVERWRITES crawldb by key), then crawldb <- link
(link inserted ONLY if key absent). Expressed distribution-first as one
bucketed dedupe: tag every source row with a precedence
(fetch=0 < crawldb=1 < link=2), hash-partition by key, and take the
min-precedence row per key inside each bucket. Within equal precedence
(duplicate link keys in one depth) the tie-break is deterministic and
order-free: lexicographically smallest (url, meta, status) — the
reference's first-write-wins depends on KV iteration order and thread
interleaving, which is not reproducible even by the reference itself.

The same primitive implements seed injection (J1: force-seeds
overwrite, non-force insert-if-absent; crawldb/DBManager.java:49-86).

Physical plan: a DIRECT two-round hash shuffle built from raw Ray
tasks over block refs (SURVEY.md §7.0); the inputs are the block ref
lists the crawler holds, or Datasets:

    split: one task per group of input blocks (as many groups as an
           auto-sized exchange has buckets) -> `num_buckets`
           sub-tables (num_returns=num_buckets, so each reduce fetches
           only its own partition slices); the slicing is the engine's
           one split kernel, functions/joins.bucket_slices, launched
           through joins.fan_out
    reduce: one task per bucket -> concat + vectorized first-by-key

This replaces ``union().groupby(bucket).map_groups(...)``: Ray Data's
sort-based groupby costs ~0.1 s of fixed overhead per *input block*
(boundary sampling + per-block sort + merge tasks) which dominated the
per-depth wall time — with block counts compounding each depth — while
the direct exchange is two task waves and caps the output at one
block per bucket regardless of input fragmentation. Buckets are the
reduce unit, not distinct keys, so tiny-group overhead and key skew
never appear.

Bucket count: every exchange is sized to its data by `size_buckets`,
next_pow2(max(cluster CPUs, ceil(input rows / ROW_TARGET))), unless
the caller forces a positive count. A fixed count pays its per-bucket
task and slice-ref cost at every size: 64 buckets cost a 100-row
inject as much as a 10M-row merge, and are too many for a 2.6M-row
merge on 4 CPUs (BASELINE.md, frontier-probe bucket sweep). Powers of
two keep layouts nested: h mod 2n refines h mod n.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd
from ray.data import Dataset
from ray.data.block import BlockAccessor

from ..functions.joins import _bucket_ids, bucket_slices, fan_out
from ..model import FRONTIER_SCHEMA
from .generate import count_eligible

_HELPER_COLS = ["__prec"]

# rows per bucket above which the sizing rule adds buckets. In the
# frontier-probe sweep (BASELINE.md, 4 CPUs) the merge rate is flat
# from ~2^17 to ~2^19.5 rows per bucket at 2.6M and 13M input rows and
# drops outside it; 2^18 sits inside and gives 64 buckets at 13M rows
ROW_TARGET = 1 << 18


def cluster_cpus() -> int:
    """The cluster's CPU count, at least 1."""
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def size_buckets(num_buckets: int, rows: int,
                 cpus: Optional[int] = None) -> int:
    """The bucket count of one exchange over `rows` input rows: a
    positive `num_buckets` is returned unchanged (explicit override),
    0 means size to the data, next_pow2(max(cpus, ceil(rows /
    ROW_TARGET))) — one bucket per CPU at least, and no bucket above
    ROW_TARGET rows on an even hash. `cpus` defaults to the cluster's."""
    if num_buckets < 0:
        raise ValueError(f"num_buckets must be >= 0, got {num_buckets}")
    if num_buckets:
        return num_buckets
    if cpus is None:
        cpus = cluster_cpus()
    need = max(1, cpus, math.ceil(rows / ROW_TARGET))
    return 1 << (need - 1).bit_length()


@ray.remote
def _split_blocks(num_buckets: int, precs: List[int], *tables):
    """A group of input blocks -> num_buckets sub-tables (None when
    empty), keys routed by joins._bucket_ids. Bucket routing is
    internal to one exchange, so the hash only has to be stable within
    a run."""
    tagged = []
    for prec, t in zip(precs, tables):
        t = BlockAccessor.for_block(t).to_arrow()
        if len(t) == 0 or "key" not in t.column_names:
            continue
        tagged.append(
            t.append_column(
                "__prec", pa.array(np.full(len(t), prec, dtype=np.int8))
            )
        )
    if not tagged:
        return bucket_slices(None, None, num_buckets)
    table = pa.concat_tables(tagged, promote_options="permissive")
    return bucket_slices(
        table, _bucket_ids(table["key"], num_buckets), num_buckets
    )


def _dedupe_bucket(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_values(
        ["key", "__prec", "url", "meta", "status"], kind="mergesort"
    )
    return df.drop_duplicates("key", keep="first")


def _restore_schema(batch: pa.Table) -> pa.Table:
    batch = batch.drop_columns(
        [c for c in _HELPER_COLS if c in batch.column_names]
    )
    cols = [
        batch[name].cast(FRONTIER_SCHEMA.field(name).type)
        for name in FRONTIER_SCHEMA.names
    ]
    return pa.table(dict(zip(FRONTIER_SCHEMA.names, cols)), schema=FRONTIER_SCHEMA)


@ray.remote(num_returns=3)
def _reduce_bucket(eligible_max_count, *parts):
    """-> (merged bucket table, row count, generate-eligible count).
    The eligible count rides back with the merge so the crawler's A2
    early-termination check costs no extra task wave."""
    tables = [t for t in parts if t is not None and len(t)]
    if not tables:
        return FRONTIER_SCHEMA.empty_table(), 0, 0
    cat = pa.concat_tables(tables, promote_options="permissive")
    df = _dedupe_bucket(cat.to_pandas())
    out = _restore_schema(pa.Table.from_pandas(df, preserve_index=False))
    return out, len(out), count_eligible(out, eligible_max_count)


def dedupe_by_key_refs(
    parts: List[Tuple[Union[List["ray.ObjectRef"], Dataset], int]],
    num_buckets: int = 0,
    eligible_max_count: int = 2**62,
    rows: Optional[int] = None,
):
    """The raw exchange: -> (bucket table refs, bucket row-count refs,
    generate-eligible count refs), one of each per bucket. Counts ride
    back as separate tiny refs so the driver can report frontier sizes
    (and decide A2 termination) without a Dataset count() execution.

    A part is (blocks, precedence), its blocks either a list of block
    refs or a Dataset. `rows`, the input row count, sizes the exchange
    (`size_buckets`: the bucket count at `num_buckets=0`, and the split
    groups). The crawler passes the count it already holds; without it
    the count is summed from the Dataset parts' block metadata, and a
    ref-list part, which carries none, raises ValueError."""
    if not parts:
        raise ValueError("no parts to merge")
    pairs, meta_rows = [], 0
    for blocks, prec in parts:
        if not isinstance(blocks, Dataset):
            if rows is None:
                raise ValueError("a ref-list part needs the input `rows`")
            pairs += [(prec, r) for r in blocks]
            continue
        for bundle in blocks.iter_internal_ref_bundles():
            for block_ref, meta in bundle.blocks:
                pairs.append((prec, block_ref))
                meta_rows += meta.num_rows or 0
    if not pairs:
        raise ValueError("no blocks to merge")
    if rows is None:
        rows = meta_rows
    # the split wave is sized to the data like the reduce: as many
    # tasks as an auto-sized exchange over these rows has buckets, so
    # a depth's many small fetch and link blocks share split tasks
    # instead of paying one task each. Grouped like
    # joins.fan_out_grouped; each group's precedence list keeps this
    # loop here
    cpus = cluster_cpus()
    ngroups = min(len(pairs), size_buckets(0, rows, cpus))
    num_buckets = size_buckets(num_buckets, rows, cpus)
    split_refs = []
    for g in range(ngroups):
        group = pairs[g::ngroups]
        split_refs.append(fan_out(
            _split_blocks, num_buckets,
            [p for p, _ in group], *[r for _, r in group],
        ))
    table_refs, count_refs, elig_refs = [], [], []
    for b in range(num_buckets):
        t_ref, c_ref, e_ref = _reduce_bucket.remote(
            eligible_max_count, *[sr[b] for sr in split_refs]
        )
        table_refs.append(t_ref)
        count_refs.append(c_ref)
        elig_refs.append(e_ref)
    return table_refs, count_refs, elig_refs


def dedupe_by_key(
    parts: List[Tuple[Dataset, int]],
    num_buckets: int = 0,
) -> Dataset:
    """Union datasets and keep, per key, the row from the lowest-precedence
    source (ties broken deterministically). Returns a FRONTIER_SCHEMA
    Dataset of one hash-partitioned block per bucket; `num_buckets=0`
    sizes the exchange to the input rows (`size_buckets`)."""
    table_refs, _, _ = dedupe_by_key_refs(parts, num_buckets)
    return rd.from_arrow_refs(table_refs)


def segment_parts(crawldb, fetch_seg, link_seg) -> list:
    """A depth's merge sources as `dedupe_by_key_refs` parts, tagged
    fetch > crawldb > link (RocksDBManager.java:160-197). Each source is
    a list of block refs, a Dataset, or None when it is known empty."""
    return [(t, p) for t, p in ((fetch_seg, 0), (crawldb, 1), (link_seg, 2))
            if t is not None]


def merge_segments(crawldb, fetch_seg, link_seg, num_buckets: int = 0,
                   rows: Optional[int] = None) -> Dataset:
    """Per-depth merge of the `segment_parts` sources, at least one of
    them present. `num_buckets` and `rows` size the exchange as in
    `dedupe_by_key_refs`. Returns the merged crawldb as a Dataset of one
    block per bucket."""
    parts = segment_parts(crawldb, fetch_seg, link_seg)
    if not parts:
        raise ValueError("merge called with no inputs")
    table_refs, _, _ = dedupe_by_key_refs(parts, num_buckets, rows=rows)
    return rd.from_arrow_refs(table_refs)
