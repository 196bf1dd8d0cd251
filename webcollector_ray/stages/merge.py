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

    split:  one task per group of input blocks (as many groups as an
            auto-sized exchange has buckets) tags each row with its
            precedence and bucket and routes it to the reduce task that
            owns the bucket (num_returns=reduce tasks, so each reduce
            fetches only its own slices); the slicing is the engine's
            one split kernel, functions/joins.bucket_slices, launched
            through joins.fan_out
    reduce: as many tasks as an auto-sized exchange has buckets, at
            most one per bucket, each owning a contiguous bucket range
            (`reduce_ranges`) -> concat + one Arrow sort + first row
            per key (`first_per_key`) -> one table, row count and
            eligible count per bucket

This replaces ``union().groupby(bucket).map_groups(...)``: Ray Data's
sort-based groupby costs ~0.1 s of fixed overhead per *input block*
(boundary sampling + per-block sort + merge tasks) which dominated the
per-depth wall time — with block counts compounding each depth — while
the direct exchange is two task waves and caps the output at one
block per bucket regardless of input fragmentation. Bucket ranges are
the reduce unit, not distinct keys, so tiny-group overhead and key skew
never appear.

Bucket count: every exchange is sized to its data by `size_buckets`,
next_pow2(max(cluster CPUs, ceil(input rows / ROW_TARGET))), unless
the caller forces a positive count. A forced count fixes the layout
only: the same bucket ids and one output table, count and eligible
count per bucket, while both task waves keep the data's width, so a
small merge at 32 buckets runs 4 reduce tasks on 4 CPUs, not 32 (each
task has a fixed cost of a few ms that 6-300 rows never repay).
Powers of two keep layouts nested: h mod 2n refines h mod n.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data import Dataset
from ray.data.block import BlockAccessor

from ..functions.joins import _bucket_ids, bucket_slices, fan_out
from ..model import FRONTIER_SCHEMA
from .generate import eligible_mask

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


def reduce_ranges(num_buckets: int, ntasks: int) -> List[range]:
    """The reduce wave's layout: task t owns the contiguous buckets b
    with b * ntasks // num_buckets == t (the split's routing rule), so
    with ntasks <= num_buckets every task owns at least one bucket."""
    return [range(-(-t * num_buckets // ntasks),
                  -(-(t + 1) * num_buckets // ntasks))
            for t in range(ntasks)]


@ray.remote
def _split_blocks(ntasks: int, num_buckets: int, precs: List[int], *tables):
    """A group of input blocks -> ntasks sub-tables (None when empty),
    each row tagged with its precedence and its bucket
    (joins._bucket_ids) and routed to the reduce task that owns the
    bucket. Bucket routing is internal to one exchange, so the hash
    only has to be stable within a run."""
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
        return bucket_slices(None, None, ntasks)
    table = pa.concat_tables(tagged, promote_options="permissive")
    buckets = _bucket_ids(table["key"], num_buckets)
    table = table.append_column("__bucket", pa.array(buckets))
    task = buckets.astype(np.int64) * ntasks // num_buckets
    return bucket_slices(table, task, ntasks)


_SORT_KEYS = [(c, "ascending") for c in
              ("__bucket", "key", "__prec", "url", "meta", "status")]


def first_per_key(table: pa.Table) -> pa.Table:
    """The reduce kernel: `table`'s rows (tagged with __bucket and
    __prec) sorted stably by (bucket, key, precedence, url, meta,
    status), nulls last, and only the first row of each key kept —
    the min-precedence row, ties broken by the smallest (url, meta,
    status), then by input order."""
    order = pc.sort_indices(table, sort_keys=_SORT_KEYS,
                            null_placement="at_end")
    if len(order) < 2:
        return table.take(order)
    key = table["key"].take(order).combine_chunks()
    cur, prev = key[1:], key[:-1]
    dup = pc.equal(cur, prev)
    if key.null_count:  # null keys are one key, as in pandas
        dup = pc.or_kleene(dup, pc.and_(pc.is_null(cur), pc.is_null(prev)))
    keep = pa.concat_arrays(
        [pa.array([True]), pc.invert(pc.fill_null(dup, False))])
    return table.take(order.filter(keep))


@ray.remote
def _reduce_buckets(lo: int, hi: int, eligible_max_count: int, *parts):
    """Buckets lo..hi-1 -> their merged tables, then their row counts,
    then their generate-eligible counts (3 * (hi - lo) returns). The
    eligible counts ride back with the merge so the crawler's A2
    early-termination check costs no extra task wave."""
    n = hi - lo
    tables = [t for t in parts if t is not None and len(t)]
    if not tables:
        return (FRONTIER_SCHEMA.empty_table(),) * n + (0,) * (2 * n)
    out = first_per_key(pa.concat_tables(tables, promote_options="permissive"))
    buckets = out["__bucket"].to_numpy()
    out = out.select(FRONTIER_SCHEMA.names).cast(FRONTIER_SCHEMA)
    bounds = np.searchsorted(buckets, np.arange(lo, hi + 1))
    # G1/G2 eligibility, summed per bucket through a prefix sum
    elig = pc.fill_null(eligible_mask(out, eligible_max_count), False)
    csum = np.concatenate([[0], np.cumsum(elig.to_numpy())])
    spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    return (
        tuple(out.slice(a, b - a) for a, b in spans)
        + tuple(b - a for a, b in spans)
        + tuple(int(csum[b] - csum[a]) for a, b in spans)
    )


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
    (`size_buckets`: the bucket count at `num_buckets=0`, and the width
    of both task waves at any count). The crawler passes the count it
    already holds; without it the count is summed from the Dataset
    parts' block metadata, and a ref-list part, which carries none,
    raises ValueError."""
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
    # both task waves are as wide as an auto-sized exchange over these
    # rows has buckets: a depth's many small fetch and link blocks share
    # split tasks, and a forced bucket count fixes the hash layout and
    # the outputs, not the number of reduce tasks. Grouped like
    # joins.fan_out_grouped; each group's precedence list keeps this
    # loop here
    cpus = cluster_cpus()
    width = size_buckets(0, rows, cpus)
    ngroups = min(len(pairs), width)
    num_buckets = size_buckets(num_buckets, rows, cpus)
    ranges = reduce_ranges(num_buckets, min(width, num_buckets))
    split_refs = []
    for g in range(ngroups):
        group = pairs[g::ngroups]
        split_refs.append(fan_out(
            _split_blocks, len(ranges), num_buckets,
            [p for p, _ in group], *[r for _, r in group],
        ))
    table_refs, count_refs, elig_refs = [], [], []
    for t, r in enumerate(ranges):
        refs = _reduce_buckets.options(num_returns=3 * len(r)).remote(
            r.start, r.stop, eligible_max_count,
            *[sr[t] for sr in split_refs],
        )
        table_refs += refs[:len(r)]
        count_refs += refs[len(r):2 * len(r)]
        elig_refs += refs[2 * len(r):]
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
