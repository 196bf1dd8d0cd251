"""Data-profiling census: per-column row/null counts, EXACT distinct
counts, and min/max — the table-health stage every ingest pipeline
runs before training-data work (nulls exploding, cardinality drift,
range regressions).

Scale shape:
- n_rows / n_nulls / min / max: one partial row per (block, column),
  folded in a single tiny reduce — NO shuffle, state is
  O(columns x blocks).
- n_distinct: EXACT, via ONE (column, value)-hash exchange of
  per-batch distinct partials (the word_counts shape); buckets
  partition the value space, so per-bucket distinct counts sum
  without double counting. Wire volume is bounded by per-column
  cardinality, never row count.

Supported column types: integers and strings (min/max render as
strings; int rendering matches SQL's CAST(x AS VARCHAR), so the
DuckDB oracle hash-matches). Floats/timestamps are rejected loudly —
their string renderings are not cross-engine stable.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def profile_columns(ds, columns, *, num_buckets: int = 16):
    """-> Dataset with one row per profiled column:
    (column, n_rows, n_nulls, n_distinct, min_value, max_value);
    min/max as strings (NULL when the column is all-null), distinct
    and min/max computed over non-null values only."""
    from .joins import exchange_reduce, fold_single

    columns = list(columns)
    schema = dict(zip(ds.schema().names, ds.schema().types))
    for c in columns:
        t = schema[c]
        if pa.types.is_uint64(t):
            # the int partials are int64: values >= 2^63 would overflow
            raise ValueError(
                f"profile_columns: column {c!r} is uint64, which its int64 "
                "min/max partials cannot hold; cast it first"
            )
        if not (pa.types.is_integer(t) or pa.types.is_string(t)
                or pa.types.is_large_string(t)):
            raise ValueError(
                f"profile_columns supports int/string columns; {c} is "
                f"{t} (float/timestamp renderings are not cross-engine "
                "stable)"
            )
    int_cols = {c for c in columns if pa.types.is_integer(schema[c])}

    # ---- scalar partials: one row per (block, column), tiny fold
    def scalar_partial(batch: pa.Table) -> pa.Table:
        rows = {"column": [], "n_rows": [], "n_nulls": [],
                "min_i": [], "max_i": [], "min_s": [], "max_s": []}
        for c in columns:
            col = batch[c]
            n = len(col)
            nulls = col.null_count
            vals = col.drop_null()
            rows["column"].append(c)
            rows["n_rows"].append(n)
            rows["n_nulls"].append(nulls)
            if c in int_cols:
                v = vals.to_numpy(zero_copy_only=False) if len(vals) \
                    else np.array([], np.int64)
                rows["min_i"].append(int(v.min()) if len(v) else None)
                rows["max_i"].append(int(v.max()) if len(v) else None)
                rows["min_s"].append(None)
                rows["max_s"].append(None)
            else:
                v = vals.to_pylist()
                rows["min_i"].append(None)
                rows["max_i"].append(None)
                rows["min_s"].append(min(v) if v else None)
                rows["max_s"].append(max(v) if v else None)
        return pa.table(
            {
                "column": pa.array(rows["column"], pa.string()),
                "n_rows": pa.array(rows["n_rows"], pa.int64()),
                "n_nulls": pa.array(rows["n_nulls"], pa.int64()),
                "min_i": pa.array(rows["min_i"], pa.int64()),
                "max_i": pa.array(rows["max_i"], pa.int64()),
                "min_s": pa.array(rows["min_s"], pa.string()),
                "max_s": pa.array(rows["max_s"], pa.string()),
            }
        )

    # ---- exact distinct: per-batch distinct -> (col, value) exchange
    def distinct_partial(batch: pa.Table) -> pa.Table:
        cs, vs = [], []
        for c in columns:
            vals = batch[c].drop_null()
            if c in int_cols:
                u = np.unique(vals.to_numpy(zero_copy_only=False)) \
                    if len(vals) else []
                sv = [str(int(x)) for x in u]
            else:
                sv = sorted(set(vals.to_pylist()))
            cs.extend([c] * len(sv))
            vs.extend(sv)
        keys = [a + "\x1f" + b for a, b in zip(cs, vs)]
        b = (
            pd.util.hash_array(
                np.asarray(keys, dtype=object), categorize=False
            ) % np.uint64(num_buckets)
        ).astype(np.int32) if keys else np.zeros(0, dtype=np.int32)
        return pa.table(
            {
                "column": pa.array(cs, pa.string()),
                "v": pa.array(vs, pa.string()),
                "__bucket": pa.array(b),
            }
        )

    d_empty = pa.table(
        {"column": pa.array([], pa.string()),
         "nd": pa.array([], pa.int64())}
    )

    def distinct_reduce(t: pa.Table) -> pa.Table:
        df = t.select(["column", "v"]).to_pandas().drop_duplicates()
        g = df.groupby("column", as_index=False).size()
        return pa.table(
            {
                "column": pa.array(g["column"], pa.string()),
                "nd": pa.array(g["size"].astype(np.int64)),
            }
        )

    nd = exchange_reduce(
        ds.map_batches(distinct_partial, batch_format="pyarrow"),
        distinct_reduce, d_empty, num_buckets,
    )

    out_empty = pa.table(
        {
            "column": pa.array([], pa.string()),
            "n_rows": pa.array([], pa.int64()),
            "n_nulls": pa.array([], pa.int64()),
            "n_distinct": pa.array([], pa.int64()),
            "min_value": pa.array([], pa.string()),
            "max_value": pa.array([], pa.string()),
        }
    )

    scalars = ds.map_batches(scalar_partial, batch_format="pyarrow")

    def fold(t: pa.Table) -> pa.Table:
        # plain-list fold over the tiny partial table: pandas would
        # coerce the nullable min_i/max_i int64 columns to float64
        # (the nd-tagged rows pad them with NULLs) and silently round
        # values above 2^53 — to_pylist keeps exact Python ints
        kind = t["kind"].to_pylist()
        coln = t["column"].to_pylist()
        n_rows_l = t["n_rows"].to_pylist()
        n_nulls_l = t["n_nulls"].to_pylist()
        min_i_l = t["min_i"].to_pylist()
        max_i_l = t["max_i"].to_pylist()
        min_s_l = t["min_s"].to_pylist()
        max_s_l = t["max_s"].to_pylist()
        out = []
        for c in columns:
            sc_idx = [j for j, (k, cc) in enumerate(zip(kind, coln))
                      if k == "sc" and cc == c]
            ndv = sum(
                n_rows_l[j] for j, (k, cc) in enumerate(zip(kind, coln))
                if k == "nd" and cc == c
            )
            if c in int_cols:
                mins = [min_i_l[j] for j in sc_idx
                        if min_i_l[j] is not None]
                maxs = [max_i_l[j] for j in sc_idx
                        if max_i_l[j] is not None]
                mn = str(min(mins)) if mins else None
                mx = str(max(maxs)) if maxs else None
            else:
                mins = [min_s_l[j] for j in sc_idx
                        if min_s_l[j] is not None]
                maxs = [max_s_l[j] for j in sc_idx
                        if max_s_l[j] is not None]
                mn = min(mins) if mins else None
                mx = max(maxs) if maxs else None
            out.append(
                (c, sum(n_rows_l[j] for j in sc_idx),
                 sum(n_nulls_l[j] for j in sc_idx), int(ndv), mn, mx)
            )
        cols = list(zip(*out)) if out else [[]] * 6
        return pa.table(
            {
                "column": pa.array(cols[0], pa.string()),
                "n_rows": pa.array(cols[1], pa.int64()),
                "n_nulls": pa.array(cols[2], pa.int64()),
                "n_distinct": pa.array(cols[3], pa.int64()),
                "min_value": pa.array(cols[4], pa.string()),
                "max_value": pa.array(cols[5], pa.string()),
            }
        )

    # union the two partial streams under one schema, tag, one fold
    def tag_sc(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "kind", pa.array(["sc"] * len(batch), pa.string())
        )

    def tag_nd(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "column": batch["column"],
                "n_rows": batch["nd"],  # reused as the nd carrier
                "n_nulls": pa.nulls(len(batch), pa.int64()),
                "min_i": pa.nulls(len(batch), pa.int64()),
                "max_i": pa.nulls(len(batch), pa.int64()),
                "min_s": pa.nulls(len(batch), pa.string()),
                "max_s": pa.nulls(len(batch), pa.string()),
                "kind": pa.array(["nd"] * len(batch), pa.string()),
            }
        )

    both = scalars.map_batches(tag_sc, batch_format="pyarrow").union(
        nd.map_batches(tag_nd, batch_format="pyarrow")
    )
    return fold_single(both, fold, out_empty)
