"""Property tests for the exchange-based join operators: every plan
(pad/tag -> raw-task hash exchange -> per-bucket pandas) must agree with
a single-frame pandas reference on random inputs, including int64 keys
above 2^53 (the round-1 float64-coercion bug class)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from webcollector_ray.functions.joins import asof_join, bucket_slices, hash_join


def _collect(ds) -> pd.DataFrame:
    """Dataset -> pandas via its arrow blocks. Dataset.to_pandas() drops
    the schema when every block is 0-row (Ray quirk); concatenating the
    blocks keeps it."""
    import ray

    tables = [ray.get(r) for r in ds.to_arrow_refs()]
    return pa.concat_tables(tables).to_pandas()

BIG = 1 << 60  # far above float64's 2^53 integer range

keys = st.lists(st.integers(0, 6), min_size=0, max_size=12)


def _left_ds(ks):
    return rd.from_arrow(
        pa.table(
            {
                "k": pa.array([BIG + k for k in ks], pa.int64()),
                "lv": pa.array(list(range(len(ks))), pa.int64()),
            }
        )
    )


def _right_ds(ks):
    return rd.from_arrow(
        pa.table(
            {
                "rk": pa.array([BIG + k for k in ks], pa.int64()),
                "rv": pa.array([10 * k for k in range(len(ks))], pa.int64()),
            }
        )
    )


def _ref_frames(lks, rks):
    l = pd.DataFrame(
        {
            "k": pd.array([BIG + k for k in lks], dtype="int64"),
            "lv": pd.array(range(len(lks)), dtype="int64"),
        }
    )
    r = pd.DataFrame(
        {
            "rk": pd.array([BIG + k for k in rks], dtype="int64"),
            "rv": pd.array([10 * k for k in range(len(rks))], dtype="int64"),
        }
    )
    return l, r


@settings(max_examples=15, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(lks=keys, rks=keys)
def test_hash_join_inner_matches_pandas(ray_session, lks, rks):
    got = _collect(hash_join(
        _left_ds(lks), _right_ds(rks), on="k", right_on="rk",
        num_buckets=4,
    )).sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    l, r = _ref_frames(lks, rks)
    want = l.merge(r, left_on="k", right_on="rk").drop(columns="rk")
    want = want.sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=True)


@settings(max_examples=15, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(lks=keys, rks=keys)
def test_hash_join_semi_anti_match_pandas(ray_session, lks, rks):
    for how in ("semi", "anti"):
        got = _collect(hash_join(
            _left_ds(lks), _right_ds(rks), on="k", right_on="rk",
            how=how, num_buckets=4,
        )).sort_values(["k", "lv"]).reset_index(drop=True)
        l, r = _ref_frames(lks, rks)
        mask = l["k"].isin(set(r["rk"]))
        want = (l[mask] if how == "semi" else l[~mask]).sort_values(
            ["k", "lv"]
        ).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=True)


@settings(max_examples=10, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(
    lrows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50)),
                   min_size=1, max_size=10),
    rrows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50)),
                   min_size=1, max_size=10),
)
def test_asof_join_matches_pandas(ray_session, lrows, rrows):
    l = pd.DataFrame(
        {
            "by": pd.array([BIG + k for k, _ in lrows], dtype="int64"),
            "lt": pd.array([t for _, t in lrows], dtype="int64"),
            "lid": pd.array(range(len(lrows)), dtype="int64"),
        }
    )
    # unique (by, rt) pairs so the tie-break is not exercised here
    seen = set()
    rr = []
    for k, t in rrows:
        if (k, t) not in seen:
            seen.add((k, t))
            rr.append((k, t))
    r = pd.DataFrame(
        {
            "by": pd.array([BIG + k for k, _ in rr], dtype="int64"),
            "rt": pd.array([t for _, t in rr], dtype="int64"),
            "rid": pd.array(range(len(rr)), dtype="int64"),
        }
    )
    got = _collect(asof_join(
        rd.from_arrow(pa.Table.from_pandas(l, preserve_index=False)),
        rd.from_arrow(pa.Table.from_pandas(r, preserve_index=False)),
        by="by", left_on="lt", right_on="rt", num_buckets=4,
    )).sort_values(["lid"]).reset_index(drop=True)
    want = pd.merge_asof(
        l.sort_values("lt", kind="mergesort"),
        r.sort_values("rt", kind="mergesort"),
        left_on="lt", right_on="rt", by="by", direction="backward",
    ).sort_values("lid").reset_index(drop=True)
    # unmatched rows: engine emits nullable int64, pandas emits float64 —
    # compare values with the engine's (correct) nullable representation
    for c in ("rt", "rid"):
        want[c] = want[c].astype("Int64")
        got[c] = got[c].astype("Int64")
    pd.testing.assert_frame_equal(
        got[want.columns.tolist()], want, check_dtype=False
    )
    # the engine must NOT have coerced big ints through float64
    matched = got[got["rid"].notna()]
    if len(matched):
        assert (matched["by"] % BIG < (1 << 53)).all()  # sanity of setup
        assert matched["by"].gt(1 << 53).all()


@settings(max_examples=15, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(
    lrows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40)),
                   min_size=0, max_size=12),
    rrows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40)),
                   min_size=0, max_size=12),
    lo=st.integers(-5, 5),
    width=st.integers(0, 10),
)
def test_range_join_matches_pandas(ray_session, lrows, rrows, lo, width):
    from webcollector_ray.functions.joins import range_join

    hi = lo + width
    l = pd.DataFrame(
        {
            "by": pd.array([BIG + k for k, _ in lrows], dtype="int64"),
            "lt": pd.array([t for _, t in lrows], dtype="int64"),
            "lid": pd.array(range(len(lrows)), dtype="int64"),
        }
    )
    r = pd.DataFrame(
        {
            "by": pd.array([BIG + k for k, _ in rrows], dtype="int64"),
            "rt": pd.array([t for _, t in rrows], dtype="int64"),
            "rid": pd.array(range(len(rrows)), dtype="int64"),
        }
    )
    got = _collect(range_join(
        rd.from_arrow(pa.Table.from_pandas(l, preserve_index=False)),
        rd.from_arrow(pa.Table.from_pandas(r, preserve_index=False)),
        by="by", left_on="lt", right_on="rt",
        lower=lo, upper=hi, num_buckets=4,
    ))
    m = l.merge(r, on="by")
    want = m[(m["lt"] >= m["rt"] + lo) & (m["lt"] <= m["rt"] + hi)]
    key = ["lid", "rid"]
    assert (
        sorted(map(tuple, got[key].to_numpy().tolist()))
        == sorted(map(tuple, want[key].to_numpy().tolist()))
    )


def test_bucket_slices_none_empty_and_single():
    """None or empty input -> every slice None; n == 1 returns the one
    slice bare (Ray's num_returns=1 contract), not a 1-tuple."""
    assert bucket_slices(None, None, 3) == (None, None, None)
    assert bucket_slices(None, None, 1) is None
    empty = pa.table({"v": pa.array([], pa.int64())})
    assert bucket_slices(empty, np.zeros(0, np.int32), 2) == (None, None)
    t = pa.table({"v": [3, 1, 2]})
    one = bucket_slices(t, np.zeros(3, np.int32), 1)
    assert isinstance(one, pa.Table) and one.equals(t)


@settings(max_examples=30, deadline=None)
@given(
    ids=st.lists(st.integers(0, 4), min_size=1, max_size=40),
    extra=st.integers(0, 3),
)
def test_bucket_slices_partition_rows_in_order(ids, extra):
    """Every row lands in exactly the slice its id names, rows keep
    their input order inside a bucket, empty buckets are None."""
    n = max(ids) + 1 + extra
    b = np.asarray(ids, dtype=np.int32)
    t = pa.table({"row": pa.array(np.arange(len(ids)))})
    out = bucket_slices(t, b, n)
    out = [out] if n == 1 else list(out)
    assert len(out) == n
    for k, sl in enumerate(out):
        want = np.nonzero(b == k)[0].tolist()
        if not want:
            assert sl is None
        else:
            assert sl["row"].to_pylist() == want
    assert sum(len(sl) for sl in out if sl is not None) == len(ids)


def test_range_join_mega_key_bounded(ray_session):
    """One key holding 1e5 rows must NOT materialize the per-key cross
    product (1e10 rows) — the searchsorted window kernel's intermediate
    is O(matches) (VERDICT r2 §next.2). With window [0, 1] over integer
    timestamps 0..N-1 the expected match count is exactly 2N-1."""
    n = 100_000
    ts = np.arange(n, dtype=np.int64)
    t = pa.table({
        "by": pa.array(np.zeros(n, dtype=np.int64)),
        "lt": pa.array(ts),
        "lid": pa.array(ts),
    })
    rtab = pa.table({
        "by": pa.array(np.zeros(n, dtype=np.int64)),
        "rt": pa.array(ts),
        "rid": pa.array(ts),
    })
    from webcollector_ray.functions.joins import range_join

    out = range_join(
        rd.from_arrow(t), rd.from_arrow(rtab),
        by="by", left_on="lt", right_on="rt",
        lower=0, upper=1, num_buckets=4,
    )
    assert out.count() == 2 * n - 1


def test_bloom_semi_join_equals_exact_semi(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from webcollector_ray.functions.joins import bloom_semi_join, hash_join

    rng = np.random.default_rng(7)
    left = pa.table({
        "k": rng.integers(0, 1000, 5000).astype("int64"),
        "v": np.arange(5000, dtype="int64"),
    })
    right = pa.table({"rk": rng.integers(0, 300, 400).astype("int64")})
    got = (
        bloom_semi_join(
            rd.from_arrow(left), rd.from_arrow(right),
            on="k", right_on="rk", m_bits=1 << 14,
        )
        .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    )
    want = (
        hash_join(
            rd.from_arrow(left), rd.from_arrow(right),
            on="k", right_on="rk", how="semi",
        )
        .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    )
    assert got.equals(want)
    # string keys take the siphash path
    ls = pa.table({"k": pa.array([f"u{i%50}" for i in range(500)]),
                   "v": pa.array(list(range(500)), pa.int64())})
    rs = pa.table({"rk": pa.array([f"u{i}" for i in range(0, 50, 3)])})
    got_s = bloom_semi_join(
        rd.from_arrow(ls), rd.from_arrow(rs), on="k", right_on="rk",
        m_bits=1 << 12,
    ).to_pandas()
    assert set(got_s["k"].unique()) == {f"u{i}" for i in range(0, 50, 3)}


def test_bloom_semi_join_grouped_build_path(ray_session):
    """Pin the grouped bloom-build stripes (many build blocks per
    _key_bloom_block task): a >max_build_tasks build side must fold
    every block — a striping bug (skipped/overlapping refs) would drop
    keys and shrink the result below the exact semi-join."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd

    from webcollector_ray.functions.joins import bloom_semi_join, hash_join

    rng = np.random.default_rng(11)
    left = pa.table({
        "k": rng.integers(0, 2000, 8000).astype("int64"),
        "v": np.arange(8000, dtype="int64"),
    })
    rk = rng.integers(0, 600, 900).astype("int64")
    # 45 single-block refs -> ngroups = max_build_tasks(8) with stripes
    # of 5-6 blocks, exercising the varargs multi-block fold
    right_refs = [
        ray.put(pa.table({"rk": pa.array(rk[i::45])})) for i in range(45)
    ]
    right = rd.from_arrow_refs(right_refs)
    got = (
        bloom_semi_join(
            rd.from_arrow(left), right, on="k", right_on="rk",
            m_bits=1 << 14, max_build_tasks=8,
        )
        .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    )
    want = (
        hash_join(
            rd.from_arrow(left), rd.from_arrow(pa.table({"rk": rk})),
            on="k", right_on="rk", how="semi",
        )
        .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    )
    assert got.equals(want)
    # empty build side: early-guard all-zero bloom, empty result
    empty_right = rd.from_arrow(pa.table({"rk": pa.array([], pa.int64())}))
    assert bloom_semi_join(
        rd.from_arrow(left), empty_right, on="k", right_on="rk",
        m_bits=1 << 12,
    ).count() == 0
