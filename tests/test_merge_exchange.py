"""The merge exchange's pieces: the reduce kernel (`first_per_key`)
against a pandas model of the first-per-key dedupe, the reduce wave's
bucket ranges, the forced-layout outputs of `dedupe_by_key_refs` at
every exchange width, and `_bucket_ids` on string columns."""

import random

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from webcollector_ray.functions.joins import _bucket_ids
from webcollector_ray.model import FRONTIER_SCHEMA
from webcollector_ray.stages.merge import (
    dedupe_by_key_refs,
    first_per_key,
    reduce_ranges,
    size_buckets,
)

_KEYS = ["http://a.test/", "http://b.test/x", "http://é.test/ü",
         "http://🦀.test/", "", "http://a.test/a"]
_TEXT = [None, "", "a", "b", "ä", "😀", "a b"]


def _pandas_first_per_key(table: pa.Table) -> pa.Table:
    """Model: one bucket at a time, in input order, a stable sort on
    (key, precedence, url, meta, status) and the first row per key."""
    buckets = table["__bucket"].to_numpy()
    out = []
    for b in sorted(set(buckets.tolist())):
        df = table.filter(pa.array(buckets == b)).to_pandas()
        df = df.sort_values(["key", "__prec", "url", "meta", "status"],
                            kind="mergesort")
        df = df.drop_duplicates("key", keep="first")
        out.append(pa.Table.from_pandas(df, preserve_index=False)
                   .select(FRONTIER_SCHEMA.names).cast(FRONTIER_SCHEMA))
    if not out:
        return FRONTIER_SCHEMA.empty_table()
    return pa.concat_tables(out)


def _random_table(rng: random.Random) -> pa.Table:
    n = rng.choice([0, 1, 2, rng.randint(3, 12), rng.randint(13, 60)])
    nkeys = rng.randint(1, len(_KEYS))
    keys = [rng.choice(_KEYS[:nkeys] + [None] * (rng.random() < 0.1))
            for _ in range(n)]

    def col(values):
        return [rng.choice(values) for _ in range(n)]

    t = pa.table({
        "key": pa.array(keys, pa.string()),
        "url": pa.array(col(_TEXT), pa.string()),
        "status": pa.array(col([None, 0, 1, 5]), pa.int8()),
        "execute_time": pa.array(range(n), pa.int64()),  # tells ties apart
        "execute_count": pa.array(col([0, 1, 3]), pa.int32()),
        "code": pa.array(col([None, 200, 404]), pa.int32()),
        "location": pa.array(col(_TEXT), pa.string()),
        "meta": pa.array(col(_TEXT), pa.string()),
        "__prec": pa.array(col([0, 1, 2]), pa.int8()),
    })
    nb = rng.choice([1, 2, 4])
    return t.append_column("__bucket", pa.array(_bucket_ids(t["key"], nb)))


def test_first_per_key_matches_pandas_model():
    rng = random.Random(20261020)
    sizes = set()
    for i in range(3000):
        t = _random_table(rng)
        sizes.add(min(len(t), 2))
        got = first_per_key(t).select(FRONTIER_SCHEMA.names) \
            .cast(FRONTIER_SCHEMA)
        want = _pandas_first_per_key(t)
        assert got.equals(want), (i, t.to_pandas(), got.to_pandas(),
                                  want.to_pandas())
    assert sizes == {0, 1, 2}


def test_first_per_key_keeps_input_order_on_full_ties():
    """Rows equal on every sort column resolve to the earliest input
    row, whatever its other columns hold."""
    n = 50
    t = pa.table({
        "key": ["http://k.test/"] * n, "url": ["u"] * n,
        "status": pa.array([0] * n, pa.int8()),
        "execute_time": pa.array(range(n, 0, -1), pa.int64()),
        "meta": [None] * n, "__prec": pa.array([2] * n, pa.int8()),
        "__bucket": pa.array([0] * n, pa.int32()),
    })
    assert first_per_key(t)["execute_time"].to_pylist() == [n]


@pytest.mark.parametrize("num_buckets", [1, 2, 3, 5, 7, 32, 64, 100])
def test_reduce_ranges_cover_buckets_once(num_buckets):
    for ntasks in range(1, num_buckets + 1):
        ranges = reduce_ranges(num_buckets, ntasks)
        assert len(ranges) == ntasks
        assert [b for r in ranges for b in r] == list(range(num_buckets))
        for t, r in enumerate(ranges):
            assert len(r) >= 1
            # the split routes bucket b to task b * ntasks // num_buckets
            assert all(b * ntasks // num_buckets == t for b in r)


@pytest.mark.parametrize("num_buckets", [1, 3, 4, 5, 32])
def test_forced_layout_at_every_width(ray_session, num_buckets):
    """A forced bucket count gives one table, count and eligible count
    per bucket, bucket b holding exactly its hashed keys, at widths
    below, at and above the bucket count."""
    import ray

    cpus = 4  # the test cluster's
    widths = set()
    for rows in (1, 40, 1 << 19, 1 << 21, 1 << 23, 1 << 24):
        width = size_buckets(0, rows, cpus)
        widths.add((width > num_buckets) - (width < num_buckets))
        # `rows` sets the exchange's width; the data itself stays small
        n = min(rows, 3000)
        keys = [f"http://h{i % 7}.test/p{i % (n // 2 + 1)}" for i in range(n)]
        t = pa.table({
            "key": keys, "url": keys,
            "status": pa.array([5 if i % 3 == 0 else 0 for i in range(n)],
                               pa.int8()),
            "execute_time": pa.array([0] * n, pa.int64()),
            "execute_count": pa.array([i % 4 for i in range(n)], pa.int32()),
            "code": pa.array([200] * n, pa.int32()),
            "location": pa.nulls(n, pa.string()),
            "meta": [""] * n,
        }, schema=FRONTIER_SCHEMA)
        blocks = [ray.put(t.slice(i, 500)) for i in range(0, n, 500)]
        tables, counts, eligs = dedupe_by_key_refs(
            [(blocks, 1)], num_buckets, eligible_max_count=2, rows=rows)
        assert len(tables) == len(counts) == len(eligs) == num_buckets, width
        tables = ray.get(tables)
        assert ray.get(counts) == [len(b) for b in tables]
        assert ray.get(eligs) == [
            sum(1 for s, c in zip(b["status"].to_pylist(),
                                  b["execute_count"].to_pylist())
                if s != 5 and c <= 2)
            for b in tables
        ]
        seen = []
        for b, out in enumerate(tables):
            assert out.schema == FRONTIER_SCHEMA
            got = out["key"].to_pylist()
            assert got == sorted(got)
            assert (_bucket_ids(out["key"], num_buckets) == b).all()
            seen += got
        assert sorted(seen) == sorted(set(keys))
    # widths 4..64 against the bucket count: below, at and/or above
    assert widths == {1: {1}, 3: {1}, 4: {0, 1}, 5: {-1, 1},
                      32: {-1, 0, 1}}[num_buckets]


def test_bucket_ids_of_strings_equal_pylist_path():
    def via_pylist(col, n):
        h = pd.util.hash_array(np.asarray(col.to_pylist(), dtype=object),
                               categorize=False)
        return (h % np.uint64(n)).astype(np.int32)

    values = ["http://a.test/", None, "http://é.test/ü", "🦀", "", "x" * 300]
    cases = [
        pa.array(values, pa.string()),
        pa.array(values, pa.large_string()),
        pa.chunked_array([pa.array(values[:2]), pa.array(values[2:])]),
        pa.chunked_array([pa.array(values, pa.large_string())]),
        pa.array([], pa.string()),
        pa.chunked_array([], pa.string()),
        pa.array([None, None], pa.string()),
    ]
    for col in cases:
        for n in (1, 7, 64):
            got = _bucket_ids(col, n)
            assert got.dtype == np.int32
            assert np.array_equal(got, via_pylist(col, n)), (col, n)
