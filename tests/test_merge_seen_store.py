"""Merge shuffle, sharded bloom seen filter, bucketed page store."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from webcollector_ray.model import CrawlDatum, datums_to_table
from webcollector_ray.stages.merge import dedupe_by_key, merge_segments
from webcollector_ray.sources.pagestore import (
    BroadcastPageStore,
    PageStoreReader,
    build_bucketed_store,
)
from webcollector_ray.state.seen import ShardedSeenFilter, hash64_batch
from webcollector_ray.synth import SynthSpec, synth_pages_table


def _ds(rows):
    return rd.from_arrow(datums_to_table([CrawlDatum(**r) for r in rows]))


def test_merge_precedence(ray_session):
    # fetch overwrites crawldb; link only if absent (RocksDBManager.java:160-197)
    crawldb = _ds([
        dict(url="http://a/1", status=0, execute_time=1),
        dict(url="http://a/2", status=5, execute_time=1),
    ])
    fetch = _ds([dict(url="http://a/1", status=5, execute_time=2, execute_count=1)])
    link = _ds([
        dict(url="http://a/2", status=0, execute_time=2),   # loses to crawldb
        dict(url="http://a/3", status=0, execute_time=2),   # new -> inserted
        dict(url="http://a/3", status=0, execute_time=2, meta={"referer": "zzz"}),  # dup link
    ])
    out = merge_segments(crawldb, fetch, link, num_buckets=4).to_pandas().set_index("key")
    assert len(out) == 3
    assert out.loc["http://a/1", "status"] == 5        # fetch overwrote
    assert out.loc["http://a/1", "execute_count"] == 1
    assert out.loc["http://a/2", "status"] == 5        # crawldb kept over link
    # deterministic link tie-break: smallest meta ('' < '{"referer"...}')
    assert out.loc["http://a/3", "meta"] == ""


def test_dedupe_single_source_removes_dups(ray_session):
    link = _ds([
        dict(url="http://a/x", status=0, execute_time=1),
        dict(url="http://a/x", status=0, execute_time=1),
    ])
    out = dedupe_by_key([(link, 0)], num_buckets=2).to_pandas()
    assert len(out) == 1


def test_merge_schema_stable(ray_session):
    out = merge_segments(
        _ds([dict(url="http://a/1", status=0, execute_time=1)]), None, None, 2
    )
    sch = out.schema()
    assert sch.names == [
        "key", "url", "status", "execute_time", "execute_count", "code",
        "location", "meta",
    ]
    t = out.to_arrow_refs()
    assert t is not None


def test_bloom_no_false_negatives(ray_session):
    f = ShardedSeenFilter(num_shards=4, bits_per_shard=1 << 16)
    keys = [f"http://h{i}.test/p{i}" for i in range(500)]
    first = f.add_and_check(keys)
    assert not first.any()          # nothing seen before
    second = f.check(keys)
    assert second.all()             # everything seen after (no false negatives)
    other = f.check([f"http://new{i}.test/" for i in range(500)])
    assert other.sum() < 25         # low fp rate at this load factor
    assert f.approx_size() == 500
    f.shutdown()


def test_hash64_deterministic():
    a = hash64_batch(["x", "y"])
    b = hash64_batch(["x", "y"])
    assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def pages_tbl():
    return synth_pages_table(SynthSpec(num_sites=3))


def test_bucketed_store_equals_broadcast(ray_session, pages_tbl, tmp_path):
    store_dir = str(tmp_path / "pstore")
    build_bucketed_store(pages_tbl, store_dir, num_buckets=7)
    broadcast = PageStoreReader(BroadcastPageStore(pages_tbl).handle())
    bucketed = PageStoreReader(
        {"kind": "bucketed", "dir": store_dir, "num_buckets": 7}, cache_buckets=3
    )
    urls = pages_tbl["url"].to_pylist()
    for u in urls:
        a, b = broadcast.get(u), bucketed.get(u)
        assert a == b, u
    assert bucketed.get("http://nope.test/") is None
    assert broadcast.get("http://nope.test/") is None


def test_bucketed_store_defaults_for_bare_schema(ray_session, tmp_path):
    # input_hint-only table: no code/location/content_type columns
    bare = pa.table({
        "url": ["http://x.test/a"],
        "warc_ts": pa.array([0], pa.timestamp("ms")),
        "html": [b"<body>hi</body>"],
        "text": ["hi"],
        "lang": ["en"],
    })
    r = PageStoreReader(BroadcastPageStore(bare).handle())
    row = r.get("http://x.test/a")
    assert row["code"] == 200 and row["content_type"] == "text/html"


def test_cuckoo_no_false_negatives_and_delete(ray_session):
    f = ShardedSeenFilter(
        num_shards=4, bits_per_shard=1 << 16, backend="cuckoo"
    )
    keys = [f"http://h{i}.test/p{i}" for i in range(500)]
    # delete-paired inserts go through the multiset add() (every add
    # stores a copy, so delete never strips another key's fingerprint)
    first = f.add(keys)
    assert not first.any()            # nothing seen before
    assert f.check(keys).all()        # no false negatives after insert
    other = f.check([f"http://new{i}.test/" for i in range(500)])
    assert other.sum() < 10           # 16-bit fp => ~0.1% fp rate
    assert f.approx_size() == 500

    # the cuckoo-only capability: unmark half the keys, the rest stay
    dropped = f.delete(keys[:250])
    assert dropped.all()
    assert not f.check(keys[:250]).any()
    assert f.check(keys[250:]).all()
    assert f.approx_size() == 250
    # deleting an absent key reports False and is a no-op
    assert not f.delete(["http://absent.test/"]).any()
    f.shutdown()


def test_cuckoo_multiset_add_keeps_colliding_key_after_delete(ray_session):
    # regression: two DISTINCT keys engineered to share fingerprint
    # (bits 48-63) and primary bucket (low bits) — under multiset
    # add(), deleting one must not create a false negative for the
    # other (add_and_check would have skipped the second insert on
    # the false-positive 'seen' and left delete() unbalanced)
    from webcollector_ray.state.seen import _CuckooShard

    s = _CuckooShard(1024)
    h1 = np.array([0x123456789ABCDEF0], dtype=np.uint64)
    h2 = h1 ^ np.uint64(1 << 20)  # same fp, same buckets, different key
    assert not s.add(h1)[0]
    assert s.add(h2)[0]    # collision: reported seen
    assert s.delete(h2)[0]  # removes h2's OWN copy
    assert s.check(h1)[0]   # h1 survives
    assert s.delete(h1)[0]
    assert not s.check(h1)[0]


def test_cuckoo_multiset_add_delete_balance(ray_session):
    # N adds of one key support exactly N deletes
    f = ShardedSeenFilter(num_shards=1, bits_per_shard=1 << 14,
                          backend="cuckoo")
    k = ["http://recrawl.test/"]
    assert not f.add(k)[0]
    assert f.add(k)[0]
    assert f.add(k)[0]
    assert f.delete(k)[0] and f.delete(k)[0] and f.delete(k)[0]
    assert not f.check(k)[0]
    assert not f.delete(k)[0]
    f.shutdown()


def test_cuckoo_eviction_chains_stay_exact(ray_session):
    # one tiny shard forced well past free-slot placement: eviction
    # kicks (and possibly the stash) must preserve no-false-negatives
    f = ShardedSeenFilter(num_shards=1, bits_per_shard=10 * 1024,
                          backend="cuckoo")
    keys = [f"http://dense{i}.test/" for i in range(900)]
    f.add_and_check(keys)
    assert f.check(keys).all()
    f.shutdown()


def test_cuckoo_intra_batch_duplicates_match_bloom_semantics(ray_session):
    # pre-state seen mask: duplicates within ONE batch all report
    # unseen (exact dedup is the merge's job, both backends agree)
    for backend in ("bloom", "cuckoo"):
        f = ShardedSeenFilter(num_shards=2, bits_per_shard=1 << 16,
                              backend=backend)
        dup = ["http://a.test/", "http://a.test/", "http://b.test/"]
        mask = f.add_and_check(dup)
        assert not mask.any(), backend
        assert f.check(dup).all(), backend
        f.shutdown()


def test_seen_filter_unknown_backend_raises(ray_session):
    with pytest.raises(ValueError):
        ShardedSeenFilter(num_shards=1, backend="what")


@pytest.mark.parametrize("backend", ["bloom", "cuckoo"])
@pytest.mark.parametrize("num_shards", [1, 3, 16])
def test_packed_seen_filter_matches_reference(ray_session, num_shards,
                                              backend):
    # S logical shards packed into min(S, CPUs) state groups must answer
    # exactly like S independent shards routed by hash64 % S; at 16
    # shards on the 4-CPU test cluster several shards share one group.
    # Small shards so false positives (and cuckoo kicks) do occur.
    import ray

    from webcollector_ray.state.seen import _BloomShard, _CuckooShard

    bits = 1 << 10
    cpus = int(ray.cluster_resources()["CPU"])
    f = ShardedSeenFilter(num_shards=num_shards, bits_per_shard=bits,
                          backend=backend)
    assert f.num_groups == min(num_shards, cpus)
    if backend == "bloom":
        ref = [_BloomShard(bits) for _ in range(num_shards)]
    else:
        ref = [_CuckooShard(max(1024, bits // 10)) for _ in range(num_shards)]

    def ref_call(method, keys):
        h = hash64_batch(keys)
        sid = (h % np.uint64(num_shards)).astype(np.int64)
        out = np.zeros(len(keys), dtype=bool)
        for s in range(num_shards):
            idx = np.nonzero(sid == s)[0]
            if len(idx):
                out[idx] = getattr(ref[s], method)(h[idx])
        return out

    try:
        for r in range(5):
            # each round: 300 new keys, 150 from the previous round and
            # an in-batch duplicate
            keys = [f"http://s{i % 37}.test/p{i}"
                    for i in range(r * 300 - 150 * (r > 0), (r + 1) * 300)]
            keys.append(keys[0])
            got = f.add_and_check(keys)
            assert np.array_equal(got, ref_call("add_and_check", keys)), r
            probe = [f"http://probe{r}-{i}.test/" for i in range(400)]
            got = f.check(probe)
            assert np.array_equal(got, ref_call("check", probe)), r
            assert f.approx_size() == sum(s.approx_size() for s in ref), r
    finally:
        f.shutdown()


@pytest.mark.parametrize("backend", ["bloom", "cuckoo"])
def test_unawaited_insert_is_seen_by_next_call(ray_session, backend):
    # insert() returns before its tasks run; the next call on the same
    # filter is ordered after it by the group state it is handed
    f = ShardedSeenFilter(num_shards=3, bits_per_shard=1 << 16,
                          backend=backend)
    keys = [f"http://ins{i}.test/" for i in range(300)]
    assert f.insert(keys) is None
    assert f.add_and_check(keys).all()
    assert f.approx_size() == 300
    f.shutdown()


def test_filters_do_not_share_state(ray_session):
    a = ShardedSeenFilter(num_shards=2, bits_per_shard=1 << 16)
    b = ShardedSeenFilter(num_shards=2, bits_per_shard=1 << 16)
    keys = [f"http://own{i}.test/" for i in range(200)]
    assert not a.add_and_check(keys).any()
    assert not b.check(keys).any()
    assert b.approx_size() == 0
    assert not b.add_and_check(keys).any()
    assert a.approx_size() == b.approx_size() == 200
    a.shutdown()
    b.shutdown()


@pytest.mark.parametrize("backend", ["bloom", "cuckoo"])
def test_check_leaves_state_unchanged(ray_session, backend):
    f = ShardedSeenFilter(num_shards=3, bits_per_shard=1 << 16,
                          backend=backend)
    old = [f"http://old{i}.test/" for i in range(100)]
    new = [f"http://new{i}.test/" for i in range(100)]
    f.add_and_check(old)
    assert f.check(old).all()
    assert not f.check(new).any()
    assert f.approx_size() == 100
    # the checked keys were not inserted: they are still new
    assert not f.add_and_check(new).any()
    assert f.approx_size() == 200
    f.shutdown()


def _same_shard(a, b) -> bool:
    va, vb = vars(a), vars(b)
    return va.keys() == vb.keys() and all(
        np.array_equal(va[k], vb[k]) if isinstance(va[k], np.ndarray)
        else va[k] == vb[k] for k in va)


@pytest.mark.parametrize("backend", ["bloom", "cuckoo"])
@pytest.mark.parametrize("num_shards", [1, 5])
def test_split_probe_matches_add_and_check(ray_session, backend, num_shards):
    """The crawler's probe is split: each fetch task runs check_snapshot
    on the filter's state as the previous depth left it, and one
    insert_hashes call then inserts every task's kept hashes. Depth by
    depth that equals ONE add_and_check per shard over the depth's
    concatenated batch: the same kept mask (duplicates inside a depth
    stay unseen), approx_size and shard arrays. Small shards, so bloom
    false positives and cuckoo kicks occur."""
    import ray

    from webcollector_ray.state.seen import (
        _BloomShard,
        _CuckooShard,
        check_snapshot,
    )

    bits = 1 << 11
    f = ShardedSeenFilter(num_shards=num_shards, bits_per_shard=bits,
                          backend=backend)
    ref = ([_BloomShard(bits) for _ in range(num_shards)]
           if backend == "bloom" else
           [_CuckooShard(max(1024, bits // 10)) for _ in range(num_shards)])
    rng = np.random.default_rng(3)

    def blocks(lo, hi, n):
        # keys drawn with replacement: repeats inside and across blocks
        keys = [f"http://s{i % 7}.test/p{i}"
                for i in rng.integers(lo, hi, size=n)]
        cut = sorted(rng.integers(0, n, size=2))
        return [keys[:cut[0]], [], keys[cut[0]:cut[1]], keys[cut[1]:]]

    # depths 2 and 4 repeat keys of earlier depths; depth 3 is all empty
    depths = [blocks(0, 900, 700), blocks(600, 1500, 700), [[], []],
              blocks(0, 2600, 1400)]
    try:
        for d, keys in enumerate(depths):
            hashes = [hash64_batch(k) for k in keys]
            states = [ray.get(s) if isinstance(s, ray.ObjectRef) else s
                      for s in f.snapshot()]
            kept = [~check_snapshot(states, num_shards, h) for h in hashes]

            cat = np.concatenate(hashes)
            want = np.zeros(len(cat), dtype=bool)
            sid = (cat % np.uint64(num_shards)).astype(np.int64)
            for s in range(num_shards):
                idx = np.nonzero(sid == s)[0]
                if len(idx):
                    want[idx] = ref[s].add_and_check(cat[idx])
            assert np.array_equal(np.concatenate(kept), ~want), d

            sizes = f.insert_hashes(
                [ray.put(h[k]) for h, k in zip(hashes, kept)])
            assert sum(ray.get(sizes)) == sum(r.approx_size() for r in ref)
            assert f.approx_size() == sum(r.approx_size() for r in ref), d
            for st in f.snapshot():
                for s, shard in ray.get(st).items():
                    assert _same_shard(shard, ref[s]), (d, s)
        inserted = sum(r.approx_size() for r in ref)
        distinct = len({k for blks in depths for b in blks for k in b})
        if backend == "bloom":  # a false positive dropped a new key
            assert inserted < distinct
        else:
            assert inserted == distinct
    finally:
        f.shutdown()
