"""Grouped ranking: top-N per key — the `row_number() OVER (PARTITION
BY k ORDER BY v DESC)` shape Ray Data has no primitive for.

Hash-bucket the keys, ONE raw-task hash exchange (joins.exchange_reduce),
vectorized per-bucket pandas (sort + groupby-head) — never one
map_groups group per key, never a sort-based Dataset shuffle.
"""

from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa


def global_top_n(
    ds,
    *,
    order_col: str,
    n: int,
    descending: bool = True,
    tie_col: str | list[str] | None = None,
):
    """Global top-n WITHOUT a full sort: each batch keeps its local
    top-n (vectorized pandas sort-head), then one final reduce over the
    n x num_blocks survivors. At 10^10 rows this moves n rows per block
    instead of shuffling the entire dataset through a distributed sort.
    Deterministic: ties on order_col break by tie_col ascending —
    a list of tie columns breaks ties lexicographically (no need to
    pack a composite key into one int, which overflows past 2^32
    keys)."""
    ties = (
        [tie_col] if isinstance(tie_col, str) else list(tie_col or [])
    )
    keys = [(order_col, "descending" if descending else "ascending")] + [
        (t, "ascending") for t in ties
    ]

    def local_topn(batch: pa.Table) -> pa.Table:
        # Arrow-native sort+take: preserves the input schema EXACTLY
        # (a pandas roundtrip degrades all-null columns to null type)
        import pyarrow.compute as pc

        if len(batch) <= n:
            idx = pc.sort_indices(batch, sort_keys=keys)
            return batch.take(idx)
        return batch.take(pc.sort_indices(batch, sort_keys=keys).slice(0, n))

    import ray
    import ray.data as rd

    @ray.remote
    def final_reduce(*blocks):
        import pyarrow.compute as pc

        tabs = [t for t in blocks if t is not None and len(t)]
        if not tabs:
            return None
        cat = pa.concat_tables(tabs, promote_options="permissive")
        return cat.take(pc.sort_indices(cat, sort_keys=keys).slice(0, n))

    local = ds.map_batches(local_topn, batch_format="pyarrow")
    # materialized first: no limit(1) schema probe re-running the map
    out_ref = final_reduce.remote(*local.materialize().to_arrow_refs())
    out = ray.get(out_ref)
    if out is None:
        # all-empty input: recover the schema (plain .schema() can be
        # None after execution on an empty dataset)
        schema = ds.schema(fetch_if_missing=True)
        out = pa.table(
            {nm: pa.nulls(0, t) for nm, t in zip(schema.names, schema.types)}
        ) if schema is not None else pa.table({})
    return rd.from_arrow(out)


def top_n_per_group(
    ds,
    *,
    key_col: str,
    order_col: str,
    n: int,
    descending: bool = True,
    tie_col: str | None = None,
    num_buckets: int = 32,
):
    """-> input columns + `rank` (1..n per key). Deterministic: ties on
    order_col break by tie_col ascending (required for a stable
    result)."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        from .joins import _bucket_ids

        b = _bucket_ids(batch[key_col], num_buckets)
        return batch.append_column("__bucket", pa.array(b))

    sort_cols = [key_col, order_col] + ([tie_col] if tie_col else [])
    asc = [True, not descending] + ([True] if tie_col else [])

    schema = ds.schema()
    empty_cols = {
        nm: pa.nulls(0, t) for nm, t in zip(schema.names, schema.types)
    }
    empty_cols["rank"] = pa.nulls(0, pa.int64())
    empty = pa.table(empty_cols)

    def bucket_topn(t: pa.Table) -> pa.Table:
        df = t.to_pandas().drop(columns=["__bucket"]).sort_values(
            sort_cols, ascending=asc, kind="mergesort"
        )
        out = df.groupby(key_col, sort=False).head(n).copy()
        out["rank"] = out.groupby(key_col, sort=False).cumcount() + 1
        return pa.Table.from_pandas(out, preserve_index=False)

    from .joins import exchange_reduce

    return exchange_reduce(
        ds.map_batches(add_bucket, batch_format="pyarrow"),
        bucket_topn, empty, num_buckets,
    )


def argmin_by(
    ds,
    *,
    key_col: str,
    order_col: str,
    tie_col: str,
    num_buckets: int = 32,
):
    """Distributed ARGMIN join: for every key, the full row holding the
    minimum of order_col (ties broken by tie_col ascending — required
    for a deterministic result). The SQL shape is
    `row_number() OVER (PARTITION BY key ORDER BY order_col, tie_col)
    = 1`, the classic min-cost-supplier-per-part idiom (TPC-H Q2's
    core).

    Scale shape: each batch keeps its LOCAL per-key argmin first
    (vectorized pandas sort + drop_duplicates), so the key-hash
    exchange moves at most one row per (key, block) — never the full
    fact table; one per-bucket reduce repeats the same fold."""
    schema = ds.schema()
    empty = pa.table(
        {nm: pa.nulls(0, t) for nm, t in zip(schema.names, schema.types)}
    )
    sort_cols = [key_col, order_col, tie_col]

    def local_argmin(batch: pa.Table) -> pa.Table:
        from .joins import _bucket_ids

        df = batch.to_pandas().sort_values(sort_cols, kind="mergesort")
        out = df.drop_duplicates(key_col, keep="first")
        t = pa.Table.from_pandas(out, preserve_index=False).cast(
            empty.schema
        )
        return t.append_column(
            "__bucket", pa.array(_bucket_ids(t[key_col], num_buckets))
        )

    def bucket_argmin(t: pa.Table) -> pa.Table:
        df = t.drop_columns(["__bucket"]).to_pandas().sort_values(
            sort_cols, kind="mergesort"
        )
        return pa.Table.from_pandas(
            df.drop_duplicates(key_col, keep="first"),
            preserve_index=False,
        ).cast(empty.schema)

    from .joins import exchange_reduce

    return exchange_reduce(
        ds.map_batches(local_argmin, batch_format="pyarrow"),
        bucket_argmin, empty, num_buckets,
    )


def _rank_nrows_and_add(refs, rank_col):
    """Prefix-sum offsets over range buckets, then stamp ranks."""
    import ray

    @ray.remote
    def _nrows(t):
        return 0 if t is None else len(t)

    @ray.remote
    def _stamp(t, off):
        # empty buckets (low-cardinality first column) must still gain
        # the rank column or the output dataset has mixed block schemas
        return t.append_column(
            rank_col,
            pa.array(np.arange(off + 1, off + len(t) + 1), pa.int64()),
        )

    counts = ray.get([_nrows.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return [_stamp.remote(r, int(o)) for r, o in zip(refs, offsets)]


def global_rank(
    ds,
    *,
    order_cols,
    rank_col: str = "rnk",
    num_buckets: int = 32,
    sample_per_block: int = 64,
):
    """EXACT global row_number over a total order — `row_number() OVER
    (ORDER BY c1 [DESC], c2, ...)` — without a driver-side sort and
    without Ray Data's sort operator. order_cols is a list of
    (name, 'ascending'|'descending'); include a unique tiebreaker so
    the order is total.

    Shape: a sampling pass picks num_buckets-1 range boundaries on the
    FIRST order column (broadcast, tiny); every row is tagged with its
    range bucket via one vectorized searchsorted — rows with EQUAL
    first-column values always land in the same bucket, so cross-bucket
    order never depends on the tiebreaker; ONE order-preserving
    exchange sorts each bucket locally; per-bucket row counts (tiny)
    prefix-sum into offsets and a final stamp adds offset + local
    position. Hot-value skew concentrates one value's rows in one
    bucket — the correctness trade for exact ties; salt-free by design.
    Output ranks are block-layout-independent (pinned by test)."""
    import ray

    from .joins import exchange_reduce

    order_cols = [
        (c, "ascending") if isinstance(c, str) else tuple(c)
        for c in order_cols
    ]
    first_col, first_dir = order_cols[0]
    desc_first = first_dir == "descending"

    def sample(batch: pa.Table) -> pa.Table:
        v = np.sort(
            batch[first_col].to_numpy(zero_copy_only=False)
        )
        if len(v) > sample_per_block:
            idx = np.linspace(
                0, len(v) - 1, sample_per_block
            ).astype(np.int64)
            v = v[idx]
        return pa.table({"v": pa.array(v, type=batch[first_col].type)})

    cand = np.sort(
        ds.map_batches(sample, batch_format="pyarrow")
        .to_pandas()["v"].to_numpy()
    )
    if len(cand) == 0:
        num_boundaries = 0
        bounds = cand
    else:
        pos = np.linspace(0, len(cand) - 1, num_buckets + 1).astype(
            np.int64
        )[1:-1]
        bounds = np.unique(cand[pos])
        num_boundaries = len(bounds)
    nb = num_boundaries + 1
    bounds_ref = ray.put(bounds)

    def tag(batch: pa.Table) -> pa.Table:
        b = ray.get(bounds_ref)
        v = batch[first_col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(b, v, side="right") if len(b) else (
            np.zeros(len(v), np.int64)
        )
        if desc_first:
            idx = (nb - 1) - idx
        return batch.append_column(
            "__bucket", pa.array(idx.astype(np.int32))
        )

    sch = ds.schema()
    empty = pa.table(
        {nm: pa.nulls(0, t) for nm, t in zip(sch.names, sch.types)}
    )

    def sort_bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.drop_columns(["__bucket"])
        return t.take(pc.sort_indices(t, sort_keys=order_cols))

    ranked = exchange_reduce(
        ds.map_batches(tag, batch_format="pyarrow"),
        sort_bucket, empty, nb,
    )
    import ray.data as rd

    refs = list(ranked.to_arrow_refs())
    assert len(refs) == nb, (
        f"bucket layout broken: {len(refs)} blocks != {nb} buckets"
    )
    return rd.from_arrow_refs(
        _rank_nrows_and_add(refs, rank_col)
    )
