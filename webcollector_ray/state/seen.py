"""Sharded bloom/cuckoo URL-seen filter (north_rule ST2).

The reference's URL-seen set IS the crawldb KV store, probed point-wise
on inject and bulk-merged per depth (plugin/rocks/RocksDBManager.java).
The exact-first-wins semantics live in the merge shuffle
(stages/merge.py); this filter is the SCALE-PATH accelerator layered on
top (SURVEY.md §2.5 ST2): a partitioned bloom filter over S =
`num_shards` logical shards, a key routed to shard
`hash64_batch(key) % S` (pandas' fixed-key siphash), so the mutable
seen-state is single-writer-per-shard and memory scales horizontally
(a 10^10-URL frontier at 10 bits/url is ~12 GB — far beyond one node,
hence sharding).

A shard is a unit of state, not a process: the S shard objects are
packed into G = min(S, cluster CPUs) groups, logical shard s in group
s % G, and each group lives in the object store as ONE state ref. An
operation is one plain task per group that receives the group's state:
a mutating call (`add_and_check`, `add`, `delete`, the crawler's link
probe) returns the new state next to its result and the driver swaps
in the new ref; `check` and `approx_size` return no state. Successive
calls on a group are ordered by that data dependency alone, so a call
may be submitted without waiting (`insert`). A group's shards are
built inside its first task from (shard class, arg, shard ids) — the
driver never allocates the bit arrays. Each shard sees exactly the key
batches it would see as its own process, so every mask and
`approx_size` is the same for any G, and a crawl starts no worker
process of its own (the tasks run in Ray's pooled workers).

Cost: a mutating task deep-copies its group's state before it touches
it (an object-store input is read-only, and a retried task must re-run
on the same input — which is also why a killed worker loses nothing).
That is one copy of the group's bits per mutating call (1 MiB per
default bloom shard), cheap at the crawler's one probe per depth but a
real cost for callers that stream many small batches.

Because blooms have false positives, pre-dropping "seen" links loses
(~fp_rate) genuinely-new URLs — so this is only used when
CrawlerConfig.approximate_seen=True; reference-parity runs keep it off
and rely on the exact merge alone. `add` is exact-time (no FNs): a URL
reported new by `check` may still be a duplicate (caught by the merge);
a URL reported seen has actually been added with probability
1 - fp_rate.

Two shard backends (pick via ShardedSeenFilter(backend=...)):
- "bloom" (_BloomShard, default): k=4 bit probes, cheapest per key,
  no deletion.
- "cuckoo" (_CuckooShard): partial-key cuckoo filter (Fan et al.,
  CoNEXT'14 — public algorithm): 16-bit fingerprints in 4-slot
  buckets, two candidate buckets i2 = i1 XOR hash(fp) (self-inverse,
  so eviction needs only the resident fingerprint). Same no-false-
  negative contract at ~0.1% fp for ~2 bytes/key, PLUS O(1) deletion
  — the backend a recrawl scheduler needs when URLs age out of the
  frontier and must become fetchable again (bloom bits can never be
  cleared without rebuilding the filter).
"""

from __future__ import annotations

import copy
from typing import List, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..functions.joins import bucket_slices
from ..model import FRONTIER_SCHEMA

# column carrying a link row's key hash from split_by_shard to the probe
HASH_COLUMN = "__h"


def hash64_batch(keys: Sequence[str]) -> np.ndarray:
    """Stable vectorized 64-bit string hash (pandas' fixed-key siphash,
    C-speed, identical across processes). The bloom state is in-memory
    per-crawl, so the hash function is internal — it only has to agree
    between the driver and every worker within one run."""
    if not len(keys):
        return np.zeros(0, dtype=np.uint64)
    return pd.util.hash_array(
        np.asarray(keys, dtype=object), categorize=False
    ).astype(np.uint64)


class _BloomShard:
    """One bloom partition; k=4 derived hash probes per key."""

    def __init__(self, num_bits: int):
        self.num_bits = num_bits
        self.words = np.zeros((num_bits + 63) // 64, dtype=np.uint64)
        self.count = 0

    def _positions(self, hashes: np.ndarray) -> np.ndarray:
        h1 = hashes
        h2 = (hashes >> np.uint64(17)) | (hashes << np.uint64(47))
        probes = [
            (h1 + np.uint64(i) * h2) % np.uint64(self.num_bits) for i in range(4)
        ]
        return np.stack(probes, axis=1)  # (n, 4)

    def add_and_check(self, hashes: np.ndarray) -> np.ndarray:
        """Set bits for every key; return mask of keys that were already
        (probably) present BEFORE this call."""
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(hashes)
        word_idx = pos >> 6
        bit = np.uint64(1) << (pos & np.uint64(63))
        seen = np.all((self.words[word_idx] & bit) != 0, axis=1)
        np.bitwise_or.at(self.words, word_idx, bit)
        # distinct new keys, as the cuckoo shard counts them: a key
        # repeated inside one batch is reported unseen each time but
        # inserted once
        self.count += len(np.unique(hashes[~seen]))
        return seen

    def check(self, hashes: np.ndarray) -> np.ndarray:
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(hashes)
        word_idx = pos >> 6
        bit = np.uint64(1) << (pos & np.uint64(63))
        return np.all((self.words[word_idx] & bit) != 0, axis=1)

    def approx_size(self) -> int:
        return self.count


class _CuckooShard:
    """One cuckoo-filter partition: (num_buckets, 4) uint16 fingerprint
    table. Lookups and the common-case two-bucket placement are fully
    vectorized; only eviction chains (rare below ~84% load) fall to a
    bounded per-key kick loop. Fingerprint 0 is the empty sentinel
    (real fps are forced nonzero), and `fill` tracks per-bucket
    occupancy so placement ranks batch-local collisions without
    re-scanning slots."""

    SLOTS = 4
    MAX_KICKS = 500

    def __init__(self, capacity: int):
        nb = 1
        # ~0.84 max load factor for 4-slot partial-key cuckoo
        while nb * self.SLOTS * 0.84 < capacity:
            nb <<= 1
        self.num_buckets = nb
        self.mask = np.uint64(nb - 1)
        self.table = np.zeros((nb, self.SLOTS), dtype=np.uint16)
        self.fill = np.zeros(nb, dtype=np.int64)
        # overflow keys after MAX_KICKS; counted so multiset add()
        # copies stay delete-balanced even in the stash
        self.stash: dict = {}
        self.count = 0
        self._kick_state = np.uint64(0x2545F4914F6CDD1D)

    # --- key derivation -------------------------------------------------
    def _fp(self, hashes: np.ndarray) -> np.ndarray:
        fp = (hashes >> np.uint64(48)).astype(np.uint16)
        fp[fp == 0] = 1
        return fp

    def _i1(self, hashes: np.ndarray) -> np.ndarray:
        return (hashes & self.mask).astype(np.int64)

    def _alt(self, idx: np.ndarray, fp: np.ndarray) -> np.ndarray:
        # self-inverse partner bucket: i XOR hash(fp)
        h = fp.astype(np.uint64) * np.uint64(0x5BD1E995)
        return ((idx.astype(np.uint64) ^ h) & self.mask).astype(np.int64)

    # --- vectorized membership ------------------------------------------
    def _contains(self, hashes: np.ndarray) -> np.ndarray:
        fp = self._fp(hashes)
        i1 = self._i1(hashes)
        i2 = self._alt(i1, fp)
        hit = (self.table[i1] == fp[:, None]).any(axis=1)
        hit |= (self.table[i2] == fp[:, None]).any(axis=1)
        if self.stash:
            hit |= np.fromiter(
                (int(h) in self.stash for h in hashes), bool, len(hashes)
            )
        return hit

    def check(self, hashes: np.ndarray) -> np.ndarray:
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        return self._contains(hashes)

    # --- vectorized placement -------------------------------------------
    def _place_wave(self, fp: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Try to place fp[j] into bucket idx[j]'s free slots; returns
        the placed mask. Batch-local collisions on one bucket are
        ranked by sort order so each key gets a distinct slot."""
        order = np.argsort(idx, kind="stable")
        sidx, sfp = idx[order], fp[order]
        uniq, start, cnt = np.unique(
            sidx, return_index=True, return_counts=True
        )
        rank = np.arange(len(sidx)) - np.repeat(start, cnt)
        slot = self.fill[sidx] + rank
        ok = slot < self.SLOTS
        self.table[sidx[ok], slot[ok]] = sfp[ok]
        np.add.at(self.fill, sidx[ok], 1)
        placed = np.zeros(len(fp), dtype=bool)
        placed[order[ok]] = True
        return placed

    def _kick_insert(self, fp: int, i1: int, key_hash: int) -> None:
        """Bounded random-walk eviction for one key (rare path)."""
        cur_fp, cur_idx = np.uint16(fp), int(i1)
        for _ in range(self.MAX_KICKS):
            if self.fill[cur_idx] < self.SLOTS:
                self.table[cur_idx, self.fill[cur_idx]] = cur_fp
                self.fill[cur_idx] += 1
                return
            # deterministic xorshift slot pick (reproducible tests)
            s = self._kick_state
            s ^= s << np.uint64(13)
            s ^= s >> np.uint64(7)
            s ^= s << np.uint64(17)
            self._kick_state = s
            slot = int(s % np.uint64(self.SLOTS))
            victim = self.table[cur_idx, slot]
            self.table[cur_idx, slot] = cur_fp
            cur_fp = victim
            cur_idx = int(
                self._alt(
                    np.asarray([cur_idx], np.int64),
                    np.asarray([cur_fp], np.uint16),
                )[0]
            )
        # table effectively full: keep exactness in the stash
        k = int(key_hash)
        self.stash[k] = self.stash.get(k, 0) + 1

    def _insert(self, hashes: np.ndarray) -> None:
        """Store one fingerprint copy per element (two-bucket wave,
        then bounded kick walk for the stragglers)."""
        fp = self._fp(hashes)
        i1 = self._i1(hashes)
        placed = self._place_wave(fp, i1)
        if not placed.all():
            i2 = self._alt(i1[~placed], fp[~placed])
            placed2 = self._place_wave(fp[~placed], i2)
            rem = np.flatnonzero(~placed)[~placed2]
            for j in rem:
                self._kick_insert(int(fp[j]), int(i1[j]), int(hashes[j]))
        self.count += len(hashes)

    def add_and_check(self, hashes: np.ndarray) -> np.ndarray:
        """Insert keys not (probably) present; return mask of keys
        (probably) present BEFORE this call (pre-state, matching
        _BloomShard: intra-batch duplicates are each reported unseen).

        Space-bounded under re-adds (a key re-encountered at every
        crawl depth never grows the table), but NOT delete-safe: a
        false-positive "seen" skips the insert, so a later delete()
        of that key would strip a DIFFERENT key's fingerprint and
        create a false negative. Keys that may be delete()d must go
        through the multiset add() instead."""
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        seen = self._contains(hashes)
        new_h = np.unique(hashes[~seen])  # insert each new key once
        if len(new_h):
            self._insert(new_h)
        return seen

    def add(self, hashes: np.ndarray) -> np.ndarray:
        """Multiset insert: EVERY element stores a fingerprint copy,
        even when already (probably) present — the standard cuckoo
        insert (Fan et al. CoNEXT'14 §3: deletion is safe only for
        items actually inserted), and the only add that pairs with
        delete(). Returns the pre-state mask like add_and_check."""
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        seen = self._contains(hashes)
        self._insert(hashes)
        return seen

    def delete(self, hashes: np.ndarray) -> np.ndarray:
        """Remove one occurrence of each key (the operation blooms
        can't do); returns the was-present mask. Holes are closed by
        swapping the bucket's last occupied slot down, keeping `fill`
        a valid occupancy count."""
        out = np.zeros(len(hashes), dtype=bool)
        if len(hashes) == 0:
            return out
        fp = self._fp(hashes)
        i1 = self._i1(hashes)
        i2 = self._alt(i1, fp)
        for j in range(len(hashes)):
            k = int(hashes[j])
            if k in self.stash:
                if self.stash[k] > 1:
                    self.stash[k] -= 1
                else:
                    del self.stash[k]
                out[j] = True
                self.count -= 1
                continue
            for b in (int(i1[j]), int(i2[j])):
                row = self.table[b]
                hits = np.flatnonzero(row[: self.fill[b]] == fp[j])
                if len(hits):
                    last = self.fill[b] - 1
                    row[hits[0]] = row[last]
                    row[last] = 0
                    self.fill[b] = last
                    out[j] = True
                    self.count -= 1
                    break
        return out

    def approx_size(self) -> int:
        return self.count


def _built(state) -> dict:
    """A group's state as {shard id: shard}: a dict as is, or a
    (shard class, arg, shard ids) spec built into empty shards."""
    if isinstance(state, tuple):
        shard_cls, arg, shard_ids = state
        return {s: shard_cls(arg) for s in shard_ids}
    return state


def _owned(state) -> dict:
    """A group's shards that this task may mutate: the object-store
    input is read-only and a retry must re-run on the same input, so a
    built state is deep-copied first."""
    if isinstance(state, tuple):
        return _built(state)
    return copy.deepcopy(state)


@ray.remote(num_returns=2)
def _group_update(state, method: str, batches: dict):
    """Mutating call on one group: {shard id: hashes} -> (new state,
    {shard id: mask})."""
    shards = _owned(state)
    return shards, {
        s: getattr(shards[s], method)(h) for s, h in batches.items()
    }


@ray.remote
def _group_read(state, method: str, batches: dict) -> dict:
    """Read-only call on one group: {shard id: hashes} -> {shard id: mask}."""
    shards = _built(state)
    return {s: getattr(shards[s], method)(h) for s, h in batches.items()}


@ray.remote
def _group_size(state) -> int:
    return sum(sh.approx_size() for sh in _built(state).values())


@ray.remote
def _group_filter(state, shard_ids, n_blocks: int, *parts):
    """The crawler's per-depth link probe for one group: `parts` holds
    each of its shards' slices (n_blocks per shard, shard-major, carrying
    HASH_COLUMN). ONE add_and_check per shard over its concatenated
    rows -> (new state, (kept rows, group inserts), kept table of each
    shard without HASH_COLUMN)."""
    shards = _owned(state)
    kept = []
    for j, s in enumerate(shard_ids):
        tables = [
            t for t in parts[j * n_blocks:(j + 1) * n_blocks]
            if t is not None and len(t)
        ]
        if not tables:
            kept.append(FRONTIER_SCHEMA.empty_table())
            continue
        cat = pa.concat_tables(tables, promote_options="permissive")
        seen = shards[s].add_and_check(cat[HASH_COLUMN].to_numpy())
        kept.append(cat.filter(pa.array(~seen)).drop_columns([HASH_COLUMN]))
    size = sum(sh.approx_size() for sh in shards.values())
    return (shards, (sum(len(t) for t in kept), size), *kept)


def split_by_shard(table: pa.Table, num_shards: int) -> list:
    """A key table -> num_shards slices by seen shard (None when empty),
    each row carrying its key hash as HASH_COLUMN so the probe does not
    re-hash."""
    if table is None or len(table) == 0:
        return [None] * num_shards
    hashes = hash64_batch(table["key"].to_pylist())
    sid = (hashes % np.uint64(num_shards)).astype(np.int64)
    out = bucket_slices(
        table.append_column(HASH_COLUMN, pa.array(hashes)), sid, num_shards
    )
    return [out] if num_shards == 1 else list(out)


class ShardedSeenFilter:
    """Driver-side handle: routes key batches to the shard groups and
    holds each group's current state ref."""

    def __init__(
        self,
        num_shards: int = 16,
        bits_per_shard: int = 1 << 23,
        backend: str = "bloom",
    ):
        self.num_shards = num_shards
        self.backend = backend
        if backend == "bloom":
            shard_cls, arg = _BloomShard, bits_per_shard
        elif backend == "cuckoo":
            # size the cuckoo table for the key count a bloom of the
            # same bit budget would hold at ~10 bits/key
            shard_cls, arg = _CuckooShard, max(1024, bits_per_shard // 10)
        else:
            raise ValueError(f"unknown seen-filter backend: {backend!r}")
        cpus = int(ray.cluster_resources().get("CPU", 1))
        self.num_groups = max(1, min(num_shards, cpus))
        # a group's state: its build spec until the first mutating call
        # returns the shards as an object ref
        self._states: List = [
            (shard_cls, arg, tuple(range(g, num_shards, self.num_groups)))
            for g in range(self.num_groups)
        ]

    def _submit(self, method: str, keys: Sequence[str]):
        """Route keys to their shards (hash64 % S) and launch ONE task
        per group carrying all its shards' batches -> (row indices per
        shard, result refs)."""
        hashes = hash64_batch(keys)
        shard_ids = (hashes % np.uint64(self.num_shards)).astype(np.int64)
        idx_of = {}
        batches: dict = {}
        for s in range(self.num_shards):
            idx = np.nonzero(shard_ids == s)[0]
            if len(idx):
                idx_of[s] = idx
                batches.setdefault(s % self.num_groups, {})[s] = hashes[idx]
        refs = []
        for g, b in batches.items():
            if method == "check":
                refs.append(_group_read.remote(self._states[g], method, b))
            else:
                self._states[g], r = _group_update.remote(
                    self._states[g], method, b
                )
                refs.append(r)
        return idx_of, refs

    def _call(self, method: str, keys: Sequence[str]) -> np.ndarray:
        """Run `method` on every key's shard; returns the per-key mask."""
        result = np.zeros(len(keys), dtype=bool)
        if not len(keys):
            return result
        idx_of, refs = self._submit(method, keys)
        for out in ray.get(refs):
            for s, mask in out.items():
                result[idx_of[s]] = mask
        return result

    def add_and_check(self, keys: Sequence[str]) -> np.ndarray:
        """Mark all keys seen; return already-seen mask (aligned to keys)."""
        return self._call("add_and_check", keys)

    def insert(self, keys: Sequence[str]) -> None:
        """add_and_check without waiting for (or returning) the mask;
        every later call on the filter still sees these keys."""
        if len(keys):
            self._submit("add_and_check", keys)

    def add(self, keys: Sequence[str]) -> np.ndarray:
        """Multiset insert (cuckoo: one fingerprint copy per call even
        for keys already reported seen; bloom: identical to
        add_and_check). The ONLY add that is safe to pair with
        delete(): under add_and_check a false-positive 'seen' skips
        the insert, so deleting that key later would strip a
        different key's fingerprint. Returns the already-seen mask."""
        return self._call(
            "add" if self.backend == "cuckoo" else "add_and_check", keys
        )

    def check(self, keys: Sequence[str]) -> np.ndarray:
        return self._call("check", keys)

    def delete(self, keys: Sequence[str]) -> np.ndarray:
        """Unmark keys (cuckoo backend only): the recrawl path — a URL
        whose fetch record expired becomes generatable again without
        rebuilding the filter. Returns the was-present mask. Only
        sound for keys admitted via the multiset add() (every add
        stores a copy, so a delete can never strip another key's
        fingerprint); keys from add_and_check must not be deleted."""
        if self.backend != "cuckoo":
            raise NotImplementedError(
                "delete() needs the cuckoo backend; bloom bits cannot "
                "be cleared (backend=%r)" % self.backend
            )
        return self._call("delete", keys)

    def filter_new(self, slices: List[list]):
        """Keep the probably-unseen rows of a link segment and mark
        them seen: `slices[b][s]` is block b's split_by_shard slice for
        shard s. One task per group, nothing awaited -> (kept table ref
        of each shard in shard order, one (kept rows, group inserts)
        ref per group)."""
        kept: list = [None] * self.num_shards
        counts = []
        for g in range(self.num_groups):
            ids = list(range(g, self.num_shards, self.num_groups))
            out = _group_filter.options(num_returns=2 + len(ids)).remote(
                self._states[g], ids, len(slices),
                *[sl[s] for s in ids for sl in slices],
            )
            self._states[g] = out[0]
            counts.append(out[1])
            for s, r in zip(ids, out[2:]):
                kept[s] = r
        return kept, counts

    def approx_size(self) -> int:
        return sum(ray.get([_group_size.remote(st) for st in self._states]))

    def shutdown(self) -> None:
        """Drop the state refs (the object store frees them)."""
        self._states = []
