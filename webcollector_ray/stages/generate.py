"""Generate: frontier -> fetch list (per-depth).

Reference: crawldb/Generator.java:49-78 composing
- G1 StatusGeneratorFilter: drop status == SUCCESS
  (crawldb/StatusGeneratorFilter.java:7-14),
- G2 executeCount > maxExecuteCount skip (Generator.java:65-67,
  strictly-greater),
- G4 pluggable per-datum filter (crawldb/GeneratorFilter.java:6-14; may
  REPLACE the datum, not just drop),
- G3 TopN global cap in KV-iteration order == lexicographic key order
  (Generator.java:50-55; RocksGenerator.java:44-54 seekToFirst) — the
  canonical order of this engine is sort-by-key, matching RocksDB byte
  order for ASCII keys.

G1/G2 are vectorized pyarrow predicates; G4 is row-wise only when a
user filter is installed. TopN is the rare global-sort path. Without
topN or priority, generate needs no global step: the crawler skips
this module's Dataset plan and each fetch task applies filter_block
to its own crawldb bucket (stages/execute.run_execute).
"""

from __future__ import annotations

from typing import Callable, Optional

import pyarrow as pa
import pyarrow.compute as pc

from ..config import CrawlerConfig
from ..model import STATUS_DB_SUCCESS, CrawlDatum


def eligible_mask(batch: pa.Table, max_count: int):
    """G1/G2, the one copy of the predicate: status != SUCCESS and
    execute_count <= max_count."""
    return pc.and_(
        pc.not_equal(batch["status"], STATUS_DB_SUCCESS),
        pc.less_equal(batch["execute_count"], max_count),
    )


def filter_block(
    batch: pa.Table,
    max_count: int,
    generator_filter: Optional[Callable[[CrawlDatum], Optional[CrawlDatum]]] = None,
) -> pa.Table:
    """G1/G2 + G4 on one block: the per-block half of generate, which
    the fetch task runs itself on the crawler's common path (no topN,
    no priority, no routing)."""
    out = batch.filter(eligible_mask(batch, max_count))
    if generator_filter is not None and len(out):
        keep_rows = []
        for i in range(len(out)):
            d = CrawlDatum.from_row({c: out[c][i].as_py() for c in out.column_names})
            r = generator_filter(d)
            if r is not None:
                keep_rows.append(r.to_row())
        if not keep_rows:
            return out.schema.empty_table()
        cols = {n: [r[n] for r in keep_rows] for n in out.column_names}
        return pa.table(cols, schema=out.schema)
    return out


def generate(
    frontier,
    config: CrawlerConfig,
    generator_filter: Optional[Callable[[CrawlDatum], Optional[CrawlDatum]]] = None,
):
    """frontier: ray.data.Dataset with FRONTIER_SCHEMA -> filtered Dataset."""
    max_count = config.max_execute_count

    def gfilter(batch: pa.Table) -> pa.Table:
        return filter_block(batch, max_count, generator_filter)

    ds = frontier.map_batches(gfilter, batch_format="pyarrow")
    if config.priority_meta_key:
        # north_rule priority queue: order the fetch list by a numeric
        # meta key DESC (ties -> canonical key ASC). The reference has
        # no priority concept — its order is KV iteration order.
        pkey = config.priority_meta_key

        def add_priority(batch: pa.Table) -> pa.Table:
            import json

            pri = []
            for m in batch["meta"].to_pylist():
                try:
                    v = json.loads(m).get(pkey, 0) if m else 0
                    pri.append(float(v))
                except Exception:
                    pri.append(0.0)
            return batch.append_column(
                "__priority", pa.array(pri, pa.float64())
            )

        if config.topn > 0:
            # capped priority queue: local top-n per block + one reduce
            # over n x blocks survivors — no distributed sort
            from ..functions.ranking import global_top_n

            with_p = ds.map_batches(add_priority, batch_format="pyarrow")
            top = global_top_n(
                with_p, order_col="__priority", n=config.topn,
                descending=True, tie_col="key",
            )
            ds = top.map_batches(
                lambda b: b.drop_columns(["__priority"]),
                batch_format="pyarrow",
            )
        else:
            # full-frontier priority ORDERING (no cap): inherently a
            # global sort — the only remaining Dataset.sort in the loop
            ds = (
                ds.map_batches(add_priority, batch_format="pyarrow")
                .sort(["__priority", "key"], descending=[True, False])
                .map_batches(
                    lambda b: b.drop_columns(["__priority"]),
                    batch_format="pyarrow",
                )
            )
    elif config.topn > 0:
        # G3: first-N in canonical key order (KV-iteration order) via
        # local top-n + single reduce (SURVEY.md §7.4) — replaces the
        # frontier-wide sort+limit
        from ..functions.ranking import global_top_n

        ds = global_top_n(ds, order_col="key", n=config.topn,
                          descending=False)
    return ds
