"""Inverted-index sink/source: word-sharded posting lists as
partitioned Parquet — the search-index export of a training-data
pipeline, plus the lookup path that reads ONLY the shards of the
probed words.

Layout: <root>/shard=NNNN.parquet, rows (word, doc_id, tf) sorted by
(word, doc_id) within the shard; shard = word-hash % num_shards using
pd.util.hash_array (the repo-wide string hash), so a probe word maps
to exactly one shard file. The shard files are written INSIDE the
posting exchange's reduce tasks (one file per bucket, deterministic
names — the resumable-output shape of functions/output.py), and the
build returns a tiny manifest instead of re-materializing postings.

No reference equivalent (the reference has no index export); this is
training-pipeline / search-export surface beside BM25 and TF-IDF,
which already compute postings in flight but never persist them.

Like every file sink in this engine, `root` must be storage all nodes
and the driver share (object store / NFS / local disk on one node);
the build manifest written last makes a lost or partial index raise
at read time instead of serving silently-empty postings.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _shard_of(words, num_shards: int) -> np.ndarray:
    if len(words) == 0:
        return np.zeros(0, dtype=np.int32)
    return (
        pd.util.hash_array(
            np.asarray(words, dtype=object), categorize=False
        ) % np.uint64(num_shards)
    ).astype(np.int32)


def build_inverted_index(
    ds, root: str, *, text_col: str = "text", id_col: str = "doc_id",
    num_shards: int = 32, positions: bool = False,
):
    """Corpus -> word-sharded posting-list Parquet under `root`.

    One postings map pass (per-doc term frequencies, the tfidf kernel
    shape) tagged by word-hash shard, ONE exchange, and each reduce
    task sorts its shard by (word, doc_id) and writes
    shard=NNNN.parquet directly — postings cross the wire exactly
    once and are never collected. Returns the manifest as a pandas
    DataFrame (shard, n_words, n_postings) — also persisted LAST as
    root/manifest.parquet, so readers can tell a legitimately-empty
    shard from a lost/partial build (a crashed build leaves no
    manifest and every read raises). Rebuilding into an existing root
    first clears stale shard files, so a smaller rebuild can never
    serve the previous corpus's postings.

    `positions=True` adds a `pos` list<int32> column (1-based token
    positions per posting) — the positional index phrase search
    needs; tf stays == len(pos)."""
    from ..functions.joins import exchange_reduce

    os.makedirs(root, exist_ok=True)
    for f in os.listdir(root):
        if f.startswith("shard=") or f == "manifest.parquet":
            os.unlink(os.path.join(root, f))

    def postings(batch: pa.Table) -> pa.Table:
        ids, words, tfs, poss = [], [], [], []
        for i, t in zip(
            batch[id_col].to_pylist(), batch[text_col].to_pylist()
        ):
            toks = (t or "").lower().split()
            if positions:
                by_w: dict = {}
                for j, w in enumerate(toks, start=1):
                    by_w.setdefault(w, []).append(j)
                for w, pl in by_w.items():
                    ids.append(i)
                    words.append(w)
                    tfs.append(len(pl))
                    poss.append(pl)
            else:
                for w, f in Counter(toks).items():
                    ids.append(i)
                    words.append(w)
                    tfs.append(f)
        cols = {
            "word": pa.array(words, pa.string()),
            id_col: pa.array(ids, pa.int64()),
            "tf": pa.array(tfs, pa.int64()),
        }
        if positions:
            cols["pos"] = pa.array(poss, pa.list_(pa.int32()))
        cols["__bucket"] = pa.array(_shard_of(words, num_shards))
        return pa.table(cols)

    empty = pa.table(
        {
            "shard": pa.array([], pa.int32()),
            "n_words": pa.array([], pa.int64()),
            "n_postings": pa.array([], pa.int64()),
        }
    )

    def write_shard(t: pa.Table) -> pa.Table:
        keep = ["word", id_col, "tf"] + (["pos"] if positions else [])
        df = t.select(keep).to_pandas()
        if positions:
            # (word, doc) rows are unique by construction (each doc
            # lives in exactly one input block), so no partial-merge
            df = df.sort_values(["word", id_col], kind="mergesort")
        else:
            df = (
                df.groupby(
                    ["word", id_col], sort=False, as_index=False
                )["tf"]
                .sum()  # safety net: merge same-(word,doc) partials
                .sort_values(["word", id_col], kind="mergesort")
            )
        if not len(df):
            return empty
        shard = int(
            _shard_of(df["word"].to_numpy(object)[:1], num_shards)[0]
        )
        pq.write_table(
            pa.Table.from_pandas(df, preserve_index=False),
            f"{root}/shard={shard:04d}.parquet",
        )
        return pa.table(
            {
                "shard": pa.array([shard], pa.int32()),
                "n_words": pa.array([df["word"].nunique()], pa.int64()),
                "n_postings": pa.array([len(df)], pa.int64()),
            }
        )

    manifest = exchange_reduce(
        ds.map_batches(postings, batch_format="pyarrow"),
        write_shard, empty, num_shards,
    ).to_pandas().sort_values("shard").reset_index(drop=True)
    pq.write_table(
        pa.Table.from_pandas(manifest, preserve_index=False),
        f"{root}/manifest.parquet",
    )
    return manifest


def read_postings(
    root: str, words, *, num_shards: int = 32, id_col: str = "doc_id"
) -> pa.Table:
    """Pruned lookup: probe words hash to their shards, ONLY those
    shard files are opened, and the parquet read filters to the probe
    set — rows (word, doc_id, tf) sorted by (word, doc_id). Probe
    words are lowercased (the index stores lower().split() tokens).
    A shard listed in the build manifest but missing on disk raises
    instead of silently serving an empty result; no manifest at all
    means the build never completed — also an error."""
    wl = sorted({(w or "").lower() for w in words})
    if not wl:
        return pa.table(
            {
                "word": pa.array([], pa.string()),
                id_col: pa.array([], pa.int64()),
                "tf": pa.array([], pa.int64()),
            }
        )
    mpath = f"{root}/manifest.parquet"
    if not os.path.exists(mpath):
        raise FileNotFoundError(
            f"{mpath} missing — the index build never completed"
        )
    built = set(
        pq.read_table(mpath, columns=["shard"])["shard"].to_pylist()
    )
    shards = sorted(set(_shard_of(wl, num_shards).tolist()))
    parts = []
    for s in shards:
        path = f"{root}/shard={s:04d}.parquet"
        if not os.path.exists(path):
            if s in built:
                raise FileNotFoundError(
                    f"{path} listed in the build manifest but missing "
                    "— lost or partially-copied index"
                )
            continue  # legitimately empty: no postings hashed here
        parts.append(
            pq.read_table(path, filters=[("word", "in", wl)])
        )
    if not parts:
        return read_postings(root, [], num_shards=num_shards,
                             id_col=id_col)
    out = pa.concat_tables(parts).to_pandas()
    out = out.sort_values(["word", id_col], kind="mergesort")
    return pa.Table.from_pandas(out, preserve_index=False)


def _doc_shard_of(ids: np.ndarray, num_shards: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        return (
            (ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
            % np.uint64(num_shards)
        ).astype(np.int32)


def build_doclen_sidecar(
    ds, root: str, *, text_col: str = "text", id_col: str = "doc_id",
    num_shards: int = 32,
):
    """Doc-length sidecar + corpus stats for index-served BM25: one
    map pass emits (doc_id, dl); a doc-hash exchange writes
    doclen=NNNN.parquet per shard (sorted by doc_id) and returns
    (n_docs, total_tokens) partials the driver folds into
    stats.parquet. Empty docs are kept (BM25's N counts them).
    Rebuilds clear stale doclen/stats files first."""
    from ..functions.joins import exchange_reduce

    os.makedirs(root, exist_ok=True)
    for f in os.listdir(root):
        if f.startswith("doclen=") or f in ("stats.parquet",
                                            "doclen_manifest.parquet"):
            os.unlink(os.path.join(root, f))

    def lens(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        dl = np.array(
            [len((t or "").lower().split())
             for t in batch[text_col].to_pylist()],
            dtype=np.int64,
        )
        return pa.table(
            {
                id_col: pa.array(ids),
                "dl": pa.array(dl),
                "__bucket": pa.array(_doc_shard_of(ids, num_shards)),
            }
        )

    empty = pa.table(
        {
            "shard": pa.array([], pa.int32()),
            "n_docs": pa.array([], pa.int64()),
            "total_tokens": pa.array([], pa.int64()),
        }
    )

    def write_shard(t: pa.Table) -> pa.Table:
        df = t.select([id_col, "dl"]).to_pandas().sort_values(
            id_col, kind="mergesort"
        )
        if not len(df):
            return empty
        shard = int(
            _doc_shard_of(
                df[id_col].to_numpy(np.int64)[:1], num_shards
            )[0]
        )
        pq.write_table(
            pa.Table.from_pandas(df, preserve_index=False),
            f"{root}/doclen={shard:04d}.parquet",
        )
        return pa.table(
            {
                "shard": pa.array([shard], pa.int32()),
                "n_docs": pa.array([len(df)], pa.int64()),
                "total_tokens": pa.array(
                    [int(df["dl"].sum())], pa.int64()
                ),
            }
        )

    parts = exchange_reduce(
        ds.map_batches(lens, batch_format="pyarrow"),
        write_shard, empty, num_shards,
    ).to_pandas().sort_values("shard").reset_index(drop=True)
    pq.write_table(
        pa.Table.from_pandas(parts, preserve_index=False),
        f"{root}/doclen_manifest.parquet",
    )
    stats = pa.table(
        {
            "n_docs": pa.array([int(parts["n_docs"].sum())], pa.int64()),
            "total_tokens": pa.array(
                [int(parts["total_tokens"].sum())], pa.int64()
            ),
        }
    )
    pq.write_table(stats, f"{root}/stats.parquet")
    return parts


def read_doclens(root: str, doc_ids, *, num_shards: int = 32,
                 id_col: str = "doc_id"):
    """Pruned doc-length lookup: candidate ids hash to their shards,
    only those doclen files are opened and filtered. Returns a
    pandas Series doc_id -> dl."""
    ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    if not len(ids):
        return pd.Series(dtype=np.int64)
    mpath = f"{root}/doclen_manifest.parquet"
    if not os.path.exists(mpath):
        raise FileNotFoundError(
            f"{mpath} missing — the doclen sidecar build never completed"
        )
    built = set(
        pq.read_table(mpath, columns=["shard"])["shard"].to_pylist()
    )
    shards = sorted(set(_doc_shard_of(ids, num_shards).tolist()))
    parts = []
    for s in shards:
        path = f"{root}/doclen={s:04d}.parquet"
        if not os.path.exists(path):
            if s in built:
                raise FileNotFoundError(
                    f"{path} listed in the doclen manifest but missing "
                    "— lost or partially-copied sidecar"
                )
            continue
        parts.append(
            pq.read_table(
                path, filters=[(id_col, "in", ids.tolist())]
            ).to_pandas()
        )
    if not parts:
        return pd.Series(dtype=np.int64)
    df = pd.concat(parts)
    return df.set_index(id_col)["dl"]


def search_bm25(
    root: str, terms, *, top_k: int = 10, num_shards: int = 32,
    k1: float = 1.2, b: float = 0.75, id_col: str = "doc_id",
):
    """Index-served BM25 top-k: postings of the probe terms (pruned
    read) + candidate doc lengths (pruned read) + stats.parquet —
    NEVER a corpus scan. The per-term expression tree is
    textstats.bm25_scores verbatim (linear idf, mul/div/add only,
    term-order accumulation), so scores hash-match the scan-side
    kernel and the SQL oracle; candidates are exactly the docs with a
    posting for >= 1 term, i.e. the score > 0 set. Returns a pandas
    DataFrame (doc_id, score), top_k rows by (score desc, doc_id).
    Probe terms are lowercased (the index stores lowercased tokens)."""
    terms = tuple((t or "").lower() for t in terms)
    post = read_postings(
        root, terms, num_shards=num_shards, id_col=id_col
    ).to_pandas()
    stats = pq.read_table(f"{root}/stats.parquet").to_pandas()
    n_docs = int(stats["n_docs"][0])
    avgdl = float(stats["total_tokens"][0]) / float(max(1, n_docs))
    cand = np.unique(post[id_col].to_numpy(np.int64))
    if not len(cand):
        return pd.DataFrame(
            {id_col: pd.array([], dtype="int64"),
             "score": pd.array([], dtype="float64")}
        )
    doclens = read_doclens(root, cand, num_shards=num_shards, id_col=id_col)
    missing = np.setdiff1d(cand, doclens.index.to_numpy(np.int64))
    if len(missing):
        # a candidate without a doc length would score NaN, silently
        shown = ", ".join(str(x) for x in missing[:20])
        more = f" (+{len(missing) - 20} more)" if len(missing) > 20 else ""
        raise ValueError(
            f"{root}: the doclen sidecar does not cover candidate "
            f"{id_col}s {shown}{more} — rebuild it with "
            "build_doclen_sidecar"
        )
    dl = doclens.reindex(cand).to_numpy(np.float64)
    dlt = k1 * ((1.0 - b) + b * (dl / avgdl))
    k1p1 = k1 + 1.0
    s = np.zeros(len(cand), dtype=np.float64)
    for t in terms:  # term order = the kernel's accumulation order
        tp = post[post["word"] == t]
        df_t = len(tp)
        idf = float((n_docs - df_t) + 0.5) / float(df_t + 0.5)
        tf = (
            tp.set_index(id_col)["tf"]
            .reindex(cand).fillna(0).to_numpy(np.float64)
        )
        s = s + idf * (tf * k1p1) / (tf + dlt)
    order = np.lexsort((cand, -s))[:top_k]
    return pd.DataFrame(
        {id_col: cand[order], "score": s[order]}
    ).reset_index(drop=True)


def search_and(root: str, terms, *, num_shards: int = 32,
               id_col: str = "doc_id") -> np.ndarray:
    """Conjunctive boolean retrieval: doc_ids containing EVERY probe
    term, from pruned postings reads alone — intersection starts from
    the rarest term's postings (classic AND-query evaluation order).
    Returns a sorted int64 array. Probe terms are lowercased."""
    terms = list(dict.fromkeys((t or "").lower() for t in terms))
    if not terms:
        return np.array([], dtype=np.int64)
    post = read_postings(
        root, terms, num_shards=num_shards, id_col=id_col
    ).to_pandas()
    lists = []
    for t in terms:
        ids = post.loc[post["word"] == t, id_col].to_numpy(np.int64)
        if not len(ids):
            return np.array([], dtype=np.int64)
        lists.append(ids)
    lists.sort(key=len)
    acc = lists[0]
    for ids in lists[1:]:
        acc = acc[np.isin(acc, ids)]
        if not len(acc):
            break
    return np.sort(acc)


def search_phrase(root: str, phrase, *, num_shards: int = 32,
                  id_col: str = "doc_id"):
    """Exact phrase retrieval over a POSITIONAL index
    (build_inverted_index(..., positions=True)): docs where the terms
    occur at consecutive positions, with the match count per doc —
    the classic positional-postings intersection (Manning/Raghavan/
    Schuetze IR ch.2). Pruned postings reads only; candidates are the
    AND set, verified per doc by vectorized position-offset
    intersection. Returns a pandas DataFrame (doc_id, n_matches)
    sorted by doc_id. Probe terms are lowercased."""
    terms = [(t or "").lower() for t in phrase]
    if not terms:
        return pd.DataFrame(
            {id_col: pd.array([], dtype="int64"),
             "n_matches": pd.array([], dtype="int64")}
        )
    post = read_postings(
        root, terms, num_shards=num_shards, id_col=id_col
    ).to_pandas()
    if not len(post):
        # no term has postings at all — an empty hit set, regardless
        # of index flavor (the empty-result schema carries no pos col)
        return search_phrase(root, [], num_shards=num_shards,
                             id_col=id_col)
    if "pos" not in post.columns:
        raise ValueError(
            "search_phrase needs a positional index — rebuild with "
            "build_inverted_index(..., positions=True)"
        )
    per_term = []
    for t in terms:
        tp = post[post["word"] == t]
        if not len(tp):
            return search_phrase(root, [], num_shards=num_shards,
                                 id_col=id_col)
        per_term.append(
            dict(zip(tp[id_col].to_numpy(np.int64), tp["pos"]))
        )
    cand = set(per_term[0])
    for m in per_term[1:]:
        cand &= set(m)
    out_d, out_n = [], []
    for d in sorted(cand):
        acc = np.asarray(per_term[0][d], dtype=np.int64)
        for off, m in enumerate(per_term[1:], start=1):
            acc = acc[np.isin(acc + off, np.asarray(m[d], np.int64))]
            if not len(acc):
                break
        if len(acc):
            out_d.append(d)
            out_n.append(len(acc))
    return pd.DataFrame(
        {id_col: pd.array(out_d, dtype="int64"),
         "n_matches": pd.array(out_n, dtype="int64")}
    )
