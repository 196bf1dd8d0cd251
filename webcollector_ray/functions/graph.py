"""Link-graph analytics over one bucketed layout: PageRank (Page et
al. 1999), HITS, degree / component / reciprocity / triangle / k-core
/ assortativity censuses, label propagation, link prediction, landmark
BFS and SCCs — the web-corpus quality and structure signals.

Fixed-iteration, FIXED-POINT integer PageRank so the whole fixpoint
is cross-engine exact (kmeans_fixed precedent): ranks live as int64
micro-units (SCALE = 10^12), per-edge contributions are floor
divisions r // outdeg, and the damping update is
``base + (85 * s) // 100`` with ``base = (15 * (SCALE // N)) // 100``
— integer adds are order-free, so the distributed sums equal the SQL
oracle bit-for-bit regardless of block order.

Every layout is built in one place and shares ONE node hash
(`joins._bucket_ids`):
- `_edge_blocks`: (src, dst) bucketed by src or by dst, one exchange
  each (a dst copy derives from the src copy, so the input lineage
  runs once);
- `_node_blocks`: the sorted distinct src ∪ dst per bucket, aligned
  with both edge copies;
- `_canon_edge_blocks`: the undirected simple graph as (a < b) pairs
  bucketed by a (triangles, k-core, assortativity);
- `_sym_simple_edges`: both directions of each undirected edge,
  bucketed by the label provider (label propagation, link
  prediction).

Per-iteration distribution shape (PageRank; HITS, BFS and SCC follow
the same pattern): raw task waves over the bucket-aligned blocks —
(1) ranks zip onto their co-bucketed edges, emitting (dst, r // outdeg)
split by the dst hash; (2) contributions sum per dst onto the node
markers with the damping update applied in place (no-inlink nodes get
the base). No per-step Dataset plans, nothing all-to-all beyond the
bucket hash, and rank state never collects on the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from .dedup import cluster_pairs_minlabel
from .joins import (
    _bucket_ids,
    bucket_slices,
    df_or_empty,
    exchange_reduce,
    fan_out,
    hash_join,
)
from .ranking import global_top_n
from .sketches import _md5le64

SCALE = 10**12


def _bucket_refs(ds, num_buckets: int):
    """to_arrow_refs() with the bucket-layout contract ASSERTED:
    exchange_reduce emits exactly one block per bucket, in bucket
    order, and every zip-by-index alignment in this module (ranks
    onto co-bucketed edges, scores onto node markers) depends on it.
    If a future Ray version splits or coalesces blocks during
    materialize()/to_arrow_refs(), fail loudly here instead of
    silently producing misaligned ranks."""
    refs = list(ds.to_arrow_refs())
    assert len(refs) == num_buckets, (
        f"bucket layout broken: {len(refs)} blocks != {num_buckets} "
        "buckets — Ray changed exchange_reduce's block layout"
    )
    return refs


def _tag(batch: pa.Table, cols, key_col: str, num_buckets: int) -> pa.Table:
    """`cols` of `batch` plus each row's `__bucket` by its `key_col`
    node: the one tagging step in front of every exchange here."""
    out = batch.select(cols)
    return out.append_column(
        "__bucket",
        pa.array(_bucket_ids(out[key_col].to_pylist(), num_buckets)),
    )


def _edge_blocks(edges, key_col: str, src_col: str, dst_col: str,
                 num_buckets: int, reduce_fn=None):
    """(src, dst) edge blocks bucketed by the `key_col` node, one block
    per bucket. `edges` is a Dataset or the refs of an earlier call
    (so a dst copy re-buckets the exchanged src copy and the input
    lineage runs once). `reduce_fn` sees each bucket's two columns and
    must keep their types; the default passes them through."""
    cols = [src_col, dst_col]
    if isinstance(edges, list):
        edges = rd.from_arrow_refs(edges)
    reduce_fn = reduce_fn or (lambda t: t)
    empty = pa.table({c: pa.array([], pa.string()) for c in cols})
    return _bucket_refs(
        exchange_reduce(
            edges.map_batches(
                lambda b: _tag(b, cols, key_col, num_buckets),
                batch_format="pyarrow",
            ),
            lambda t: reduce_fn(t.select(cols)), reduce_fn(empty),
            num_buckets,
        ),
        num_buckets,
    )


def _node_rows(batch: pa.Table, src_col: str, dst_col: str,
               num_buckets: int) -> pa.Table:
    vs = list(
        dict.fromkeys(batch[src_col].to_pylist() + batch[dst_col].to_pylist())
    )
    return pa.table(
        {"url": pa.array(vs, pa.string()),
         "__bucket": pa.array(_bucket_ids(vs, num_buckets))}
    )


def _node_blocks(edge_refs, src_col: str, dst_col: str, num_buckets: int):
    """Node markers: the sorted distinct src ∪ dst of each bucket, one
    block per bucket, aligned with every `_edge_blocks` copy."""
    return _bucket_refs(
        exchange_reduce(
            rd.from_arrow_refs(edge_refs).map_batches(
                lambda b: _node_rows(b, src_col, dst_col, num_buckets),
                batch_format="pyarrow",
            ),
            lambda t: pa.table(
                {"url": pa.array(sorted(set(t["url"].to_pylist())),
                                 pa.string())}
            ),
            pa.table({"url": pa.array([], pa.string())}), num_buckets,
        ),
        num_buckets,
    )


def _canon_edge_blocks(edges_ds, src_col: str, dst_col: str,
                       num_buckets: int):
    """The undirected simple graph as canonical (a < b) pairs, bucketed
    by a: direction dropped, self-loops dropped, duplicates removed
    (every duplicate of (a, b) shares a, hence the bucket, so the
    per-bucket drop is globally exact). -> materialized Dataset."""

    def canon(batch: pa.Table) -> pa.Table:
        df = batch.select([src_col, dst_col]).to_pandas()
        df = df[df[src_col] != df[dst_col]]
        a = df[[src_col, dst_col]].min(axis=1)
        b = df[[src_col, dst_col]].max(axis=1)
        und = pd.DataFrame({"a": a, "b": b}).drop_duplicates()
        return _tag(
            pa.table({"a": pa.array(und["a"], pa.string()),
                      "b": pa.array(und["b"], pa.string())}),
            ["a", "b"], "a", num_buckets,
        )

    return exchange_reduce(
        edges_ds.map_batches(canon, batch_format="pyarrow"),
        lambda t: pa.Table.from_pandas(
            t.select(["a", "b"]).to_pandas().drop_duplicates(),
            preserve_index=False,
        ),
        pa.table({"a": pa.array([], pa.string()),
                  "b": pa.array([], pa.string())}),
        num_buckets,
    ).materialize()


def _endpoint_rows(batch: pa.Table, num_buckets: int) -> pa.Table:
    """Each canonical edge (a, b) as two `v` rows, one in each
    endpoint's bucket: the input of a per-node degree count."""
    vs = batch["a"].to_pylist() + batch["b"].to_pylist()
    return pa.table(
        {"v": pa.array(vs, pa.string()),
         "__bucket": pa.array(_bucket_ids(vs, num_buckets))}
    )


def _pad_union(edges, key_col: str, nodes, types: dict, num_buckets: int):
    """Edge rows keyed by `key_col` and `v`-keyed node rows, both
    null-padded to the `types` columns and tagged, as ONE Dataset: the
    input of an exchange that joins node values onto edges in-bucket
    (an edge row is the one whose `v` is null)."""

    def pad(batch: pa.Table, key: str) -> pa.Table:
        n = len(batch)
        out = pa.table(
            {c: (batch[c] if c in batch.column_names else pa.nulls(n, t))
             for c, t in types.items()}
        )
        return _tag(out, list(types), key, num_buckets)

    return edges.map_batches(
        lambda b: pad(b, key_col), batch_format="pyarrow"
    ).union(nodes.map_batches(lambda b: pad(b, "v"), batch_format="pyarrow"))


def pagerank_fixed(
    edges_ds,
    *,
    iters: int = 3,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int = 32,
):
    """edges (src, dst; multi-edges count) -> Dataset (url, pr_fp) with
    pr_fp the int64 fixed-point rank after `iters` damped iterations.
    N (node count) is the only scalar on the driver."""
    return _pagerank(edges_ds, None, iters, src_col, dst_col, num_buckets)


def pagerank_seeded(
    edges_ds,
    seeds,
    *,
    iters: int = 3,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int = 32,
):
    """Personalized PageRank: teleport mass restricted to a seed set
    (Haveliwala 2002) — the seed-quality propagation signal web
    curation uses to score pages by proximity to a trusted list.

    Same integer fixed-point contract and layout as pagerank_fixed; the
    only changes are the init vector (SCALE // |seeds| on seeds, 0
    elsewhere) and the damping base (seeds only). The seed set is a
    human-curated LIST by definition (bounded), broadcast once via
    ray.put."""
    seed_set = frozenset(seeds)
    if not seed_set:
        raise ValueError("pagerank_seeded needs a non-empty seed set")
    return _pagerank(edges_ds, seed_set, iters, src_col, dst_col, num_buckets)


def _pagerank(edges_ds, seed_set, iters: int, src_col: str, dst_col: str,
              num_buckets: int):
    """Both PageRanks: `seed_set` is the teleport set, None = every
    node (so pagerank_fixed == pagerank_seeded over all nodes)."""

    def with_outdeg(t: pa.Table) -> pa.Table:
        # each src's edges are co-located: count outdeg in place
        src = t[src_col].to_pandas()
        outdeg = src.groupby(src, sort=False).transform("size")
        return t.append_column(
            "outdeg", pa.array(outdeg.to_numpy(np.int64), pa.int64())
        )

    # edges stay src-bucketed for every iteration; nodes and every rank
    # vector share the same node hash
    es_refs = _edge_blocks(
        edges_ds, src_col, src_col, dst_col, num_buckets, with_outdeg
    )
    node_refs = _node_blocks(es_refs, src_col, dst_col, num_buckets)
    if seed_set is None:
        n_nodes = sum(ray.get([_hits_block_len.remote(r) for r in node_refs]))
        r_init = SCALE // n_nodes
    else:
        r_init = SCALE // len(seed_set)
    base = (15 * r_init) // 100
    seeds_ref = ray.put(seed_set)

    rank_refs = [_pr_init.remote(r, seeds_ref, r_init) for r in node_refs]
    for _ in range(iters):
        parts = [
            fan_out(
                _pr_zip_contrib, num_buckets, src_col, dst_col, e, rk
            )
            for e, rk in zip(es_refs, rank_refs)
        ]
        rank_refs = [
            _pr_update.remote(
                node_refs[b], seeds_ref, base, *[p[b] for p in parts]
            )
            for b in range(num_buckets)
        ]
    return rd.from_arrow_refs(rank_refs)


def _teleport(nodes_block: pa.Table, seed_set, v: int) -> np.ndarray:
    """`v` on every teleport node of the block (all when seed_set is
    None), 0 elsewhere."""
    if seed_set is None:
        return np.full(len(nodes_block), v, dtype=np.int64)
    return np.array(
        [v if u in seed_set else 0 for u in nodes_block["url"].to_pylist()],
        dtype=np.int64,
    )


@ray.remote
def _pr_init(nodes_block: pa.Table, seed_set, r_init: int) -> pa.Table:
    return pa.table(
        {"url": nodes_block["url"],
         "pr_fp": pa.array(_teleport(nodes_block, seed_set, r_init))}
    )


@ray.remote
def _pr_zip_contrib(
    num_buckets: int, src_col: str, dst_col: str,
    edges_block, ranks_block,
):
    """Ranks merge onto the co-bucketed edges by src; per-edge
    contribution r // outdeg splits by the dst hash."""
    if (
        edges_block is None or ranks_block is None
        or len(edges_block) == 0 or len(ranks_block) == 0
    ):
        return bucket_slices(None, None, num_buckets)
    e = edges_block.select([src_col, dst_col, "outdeg"]).to_pandas()
    r = ranks_block.to_pandas().rename(columns={"url": src_col})
    m = e.merge(r, on=src_col)
    c = m["pr_fp"].to_numpy(np.int64) // m["outdeg"].to_numpy(np.int64)
    vs = m[dst_col].tolist()
    t = pa.table(
        {
            "v": pa.array(vs, pa.string()),
            "c": pa.array(c),
        }
    )
    return bucket_slices(t, _bucket_ids(vs, num_buckets), num_buckets)


@ray.remote
def _pr_update(nodes_block: pa.Table, seed_set, base: int, *parts) -> pa.Table:
    """Sum contributions per node over the markers and apply the
    damping update base + (85 * s) // 100, the base on teleport nodes
    only (no-inlink ones get just the base)."""
    urls = nodes_block["url"].to_pandas()
    tabs = [t for t in parts if t is not None and len(t)]
    if tabs:
        cat = pa.concat_tables(tabs).to_pandas()
        s = cat.groupby("v", sort=False)["c"].sum().astype("int64")
        sv = urls.map(s).fillna(0).astype("int64").to_numpy()
    else:
        sv = np.zeros(len(urls), dtype=np.int64)
    new_r = _teleport(nodes_block, seed_set, base) + (85 * sv) // 100
    return pa.table(
        {"url": nodes_block["url"],
         "pr_fp": pa.array(new_r.astype(np.int64))}
    )


HITS_SCALE = 10**9


def hits_fixed(
    edges_ds,
    *,
    iters: int = 2,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int = 32,
):
    """Integer fixed-point HITS (Kleinberg 1999): hub/authority scores
    over the link multiset, the complementary link-quality signal to
    PageRank (authorities = heavily-cited content pages, hubs = link
    directories — both curation features for web corpora).

    Exactness contract (pagerank_fixed precedent): scores live as
    int64 units of HITS_SCALE; each half-iteration is an integer
    contribution sum followed by L1 normalization
    ``score * SCALE // total`` — when ``raw * SCALE`` could exceed
    int64 the normalize falls back to Python big-ints per bucket
    (node-count-bounded), so the fixpoint equals the SQL oracle
    bit-for-bit in any block order.

    Distribution shape: every block set here — nodes, the two edge
    copies, and every score vector — is partitioned by the SAME node
    hash, so all score joins are bucket-ALIGNED zips (task b reads
    edge block b + score block b; no union, no re-shuffle of the score
    side). Each half-iteration is exactly three raw task waves:
    (1) per-bucket merge of scores onto the co-bucketed edges,
    emitting contributions split by the emit node's hash; (2)
    per-bucket contribution sum onto the node markers (returns the
    raw vector + a per-bucket subtotal — the driver folds only
    #buckets ints into the global L1 total); (3) map-only normalize.
    Score state never collects on the driver beyond that scalar."""
    es_refs = _edge_blocks(edges_ds, src_col, src_col, dst_col, num_buckets)
    ed_refs = _edge_blocks(es_refs, dst_col, src_col, dst_col, num_buckets)
    node_refs = _node_blocks(es_refs, src_col, dst_col, num_buckets)
    n_nodes = sum(ray.get([_hits_block_len.remote(r) for r in node_refs]))
    s0 = HITS_SCALE // max(1, n_nodes)

    score_refs = [
        _hits_init_scores.remote(r, s0) for r in node_refs
    ]

    def half(edge_refs, scores, join_col, emit_col):
        parts = [
            fan_out(
                _hits_zip_contrib, num_buckets, join_col, emit_col, e, s
            )
            for e, s in zip(edge_refs, scores)
        ]
        raw_sub = [
            _hits_sum_raw.remote(node_refs[b], *[p[b] for p in parts])
            for b in range(num_buckets)
        ]
        total = sum(ray.get([rs[1] for rs in raw_sub]))
        return [
            _hits_norm.remote(node_refs[b], raw_sub[b][0], total)
            for b in range(num_buckets)
        ]

    hub, auth = score_refs, None
    for _ in range(iters):
        auth = half(es_refs, hub, src_col, dst_col)
        hub = half(ed_refs, auth, dst_col, src_col)

    out_refs = [
        _hits_zip_out.remote(node_refs[b], hub[b], auth[b])
        for b in range(num_buckets)
    ]
    return rd.from_arrow_refs(out_refs)


@ray.remote
def _hits_block_len(t: pa.Table) -> int:
    return len(t)


@ray.remote
def _hits_init_scores(nodes_block: pa.Table, s0: int) -> pa.Table:
    return pa.table(
        {"url": nodes_block["url"],
         "s": pa.array(np.full(len(nodes_block), s0, dtype=np.int64))}
    )


@ray.remote
def _hits_zip_contrib(
    num_buckets: int, join_col: str, emit_col: str,
    edges_block, scores_block,
):
    """Bucket-aligned zip: scores merge onto the co-bucketed edges by
    `join_col`; contributions (emit node, score) split by the emit
    node's hash for the summing wave."""
    if (
        edges_block is None or scores_block is None
        or len(edges_block) == 0 or len(scores_block) == 0
    ):
        return bucket_slices(None, None, num_buckets)
    e = edges_block.select([join_col, emit_col]).to_pandas()
    r = scores_block.to_pandas().rename(columns={"url": join_col})
    m = e.merge(r, on=join_col)
    vs = m[emit_col].tolist()
    t = pa.table(
        {
            "v": pa.array(vs, pa.string()),
            "c": pa.array(m["s"].to_numpy(np.int64)),
        }
    )
    return bucket_slices(t, _bucket_ids(vs, num_buckets), num_buckets)


@ray.remote(num_returns=2)
def _hits_sum_raw(nodes_block: pa.Table, *parts):
    """Sum contributions per node over the node markers; returns the
    raw int64 vector (aligned to nodes_block row order) and this
    bucket's subtotal — the driver folds only #buckets subtotals."""
    urls = nodes_block["url"].to_pandas()
    tabs = [t for t in parts if t is not None and len(t)]
    if not tabs:
        z = np.zeros(len(urls), dtype=np.int64)
        return z, 0
    cat = pa.concat_tables(tabs).to_pandas()
    s = cat.groupby("v", sort=False)["c"].sum().astype("int64")
    raw = urls.map(s).fillna(0).astype("int64").to_numpy()
    return raw, int(raw.sum(dtype=np.int64))


@ray.remote
def _hits_norm(nodes_block: pa.Table, raw, total: int) -> pa.Table:
    """L1 normalize: s = raw * HITS_SCALE // total. Vectorized int64
    when the multiply provably fits; per-bucket Python big-int
    fallback otherwise (exact either way)."""
    if total <= 0:
        vals = np.zeros(len(raw), dtype=np.int64)
    elif len(raw) and int(raw.max()) <= (2**63 - 1) // HITS_SCALE:
        vals = (raw * np.int64(HITS_SCALE)) // np.int64(total)
    else:
        vals = np.array(
            [int(x) * HITS_SCALE // total for x in raw], dtype=np.int64
        )
    return pa.table(
        {"url": nodes_block["url"], "s": pa.array(vals, pa.int64())}
    )


@ray.remote
def _hits_zip_out(
    nodes_block: pa.Table, hub_block: pa.Table, auth_block: pa.Table
) -> pa.Table:
    """hub and auth vectors are node-aligned by construction — the
    final zip is a column concat, no join."""
    return pa.table(
        {
            "url": nodes_block["url"],
            "hub_fp": hub_block["s"],
            "auth_fp": auth_block["s"],
        }
    )


def degree_histogram(
    edges_ds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int = 32,
):
    """In/out-degree distribution census of a link graph — the first
    diagnostic of web-corpus link structure (hub pages, orphan pages,
    spam link farms show up as histogram mass).

    Zero-degree nodes count: the node set is src UNION dst, and a node
    with no out-edges (resp. in-edges) lands in the degree-0 bar.

    Distribution shape (hits_fixed precedent): nodes and both edge
    copies share the node-hash partitioning, so each bucket's degree
    count is a bucket-aligned zip (node markers + co-bucketed edges);
    per-bucket HISTOGRAM partials (degree -> n_nodes, bounded by the
    distinct-degree count, not the node count) then fold in one tiny
    reduce. Output: (kind 'in'|'out', degree, n_nodes)."""
    es_refs = _edge_blocks(edges_ds, src_col, src_col, dst_col, num_buckets)
    ed_refs = _edge_blocks(es_refs, dst_col, src_col, dst_col, num_buckets)
    node_refs = _node_blocks(es_refs, src_col, dst_col, num_buckets)

    parts = [
        _deg_hist_block.remote("out", node_refs[b], es_refs[b], src_col)
        for b in range(num_buckets)
    ] + [
        _deg_hist_block.remote("in", node_refs[b], ed_refs[b], dst_col)
        for b in range(num_buckets)
    ]
    return rd.from_arrow(
        ray.get(_hist_fold.remote(["kind", "degree"], "n_nodes", *parts))
    )


@ray.remote
def _deg_hist_block(
    kind: str, nodes_block, edges_block, key_col: str
) -> pa.Table:
    """Per-bucket degree histogram partial: count the co-bucketed
    edges per node marker (0 for nodes with none), histogram the
    counts — output is bounded by the distinct degrees in the
    bucket."""
    if nodes_block is None or len(nodes_block) == 0:
        return pa.table(
            {"kind": pa.array([], pa.string()),
             "degree": pa.array([], pa.int64()),
             "n_nodes": pa.array([], pa.int64())}
        )
    urls = nodes_block["url"].to_pandas()
    if edges_block is not None and len(edges_block):
        cnt = (
            pd.Series(edges_block[key_col].to_pandas())
            .value_counts()
        )
        deg = urls.map(cnt).fillna(0).astype("int64")
    else:
        deg = pd.Series(np.zeros(len(urls), dtype=np.int64))
    h = deg.value_counts()
    return pa.table(
        {
            "kind": pa.array([kind] * len(h), pa.string()),
            "degree": pa.array(h.index.to_numpy(np.int64)),
            "n_nodes": pa.array(h.to_numpy(np.int64)),
        }
    )


@ray.remote
def _hist_fold(keys, count_col: str, *parts) -> pa.Table:
    """Fold per-bucket histogram partials: sum `count_col` per `keys`,
    sorted by `keys`, in the partials' column types."""
    cat = pa.concat_tables([p for p in parts if p is not None and len(p)])
    df = cat.to_pandas().groupby(keys, as_index=False)[count_col].sum()
    df = df.sort_values(keys).reset_index(drop=True)
    return pa.table(
        {f.name: pa.array(df[f.name], f.type) for f in cat.schema}
    )


def component_size_census(
    edges_ds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int = 32,
):
    """Connected-component size distribution of a link graph — the
    corpus-level connectivity census (site islands, the giant
    component, orphan clusters).

    Rides the dedup CC machinery: string nodes map to int64 labels by
    md5-le64 (collision odds ~n^2/2^64 — negligible below ~10^8
    nodes and only ever MERGING two components in the census, never
    corrupting a label); components resolve by distributed min-label
    propagation with star contraction (dedup.cluster_pairs_minlabel
    — two task waves per round, no driver union-find); sizes count in
    one label-hash exchange; the final histogram is bounded by the
    distinct-size count. Output: (size, n_components)."""

    def to_ids(batch: pa.Table) -> pa.Table:
        a = [
            _md5le64(u) - 2**63
            for u in batch[src_col].to_pylist()
        ]
        b = [
            _md5le64(u) - 2**63
            for u in batch[dst_col].to_pylist()
        ]
        return pa.table(
            {
                "id_a": pa.array(a, pa.int64()),
                "id_b": pa.array(b, pa.int64()),
            }
        )

    pairs = edges_ds.map_batches(to_ids, batch_format="pyarrow")
    labels = cluster_pairs_minlabel(
        pairs, id_col="node", num_buckets=num_buckets
    )

    def tag_cluster(batch: pa.Table) -> pa.Table:
        c = batch["cluster"].to_numpy(zero_copy_only=False)
        bk = (
            c.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            % np.uint64(num_buckets)
        ).astype(np.int32)
        return batch.append_column("__bucket", pa.array(bk))

    empty = pa.table(
        {"size": pa.array([], pa.int64()),
         "n_components": pa.array([], pa.int64())}
    )

    def size_hist(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        sizes = df.groupby("cluster", sort=False).size()
        h = sizes.value_counts()
        return pa.table(
            {
                "size": pa.array(h.index.to_numpy(np.int64)),
                "n_components": pa.array(h.to_numpy(np.int64)),
            }
        )

    parts = exchange_reduce(
        labels.map_batches(tag_cluster, batch_format="pyarrow"),
        size_hist, empty, num_buckets,
    )
    # fold the bounded per-bucket histograms
    return rd.from_arrow(
        ray.get(_hist_fold.remote(["size"], "n_components",
                                  *parts.to_arrow_refs()))
    )


def reciprocity_census(
    edges_ds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int = 32,
):
    """Link reciprocity: how much of the graph links back — (n_edges
    directed-distinct, n_reciprocal) in one row. Reciprocal = both
    (a,b) and (b,a) exist (self-loops excluded from both counts).

    Shape: ONE exchange keyed by the UNORDERED pair hash — both
    directions of a pair co-locate, so each bucket counts its pairs
    completely; the fold sums #buckets partial rows."""

    def by_pair(batch: pa.Table) -> pa.Table:
        df = batch.select([src_col, dst_col]).to_pandas()
        df = df[df[src_col] != df[dst_col]].drop_duplicates()
        a = df[[src_col, dst_col]].min(axis=1)
        b = df[[src_col, dst_col]].max(axis=1)
        key = (a + "\x00" + b).to_numpy(dtype=object)
        bk = _bucket_ids(key, num_buckets)
        return pa.table(
            {
                src_col: pa.array(df[src_col], pa.string()),
                dst_col: pa.array(df[dst_col], pa.string()),
                "__bucket": pa.array(bk),
            }
        )

    empty = pa.table(
        {"n_edges": pa.array([], pa.int64()),
         "n_reciprocal": pa.array([], pa.int64())}
    )

    def count(t: pa.Table) -> pa.Table:
        df = t.select([src_col, dst_col]).to_pandas().drop_duplicates()
        a = df[[src_col, dst_col]].min(axis=1)
        b = df[[src_col, dst_col]].max(axis=1)
        und = pd.DataFrame({"a": a, "b": b})
        sizes = und.groupby(["a", "b"], sort=False).size()
        return pa.table(
            {
                "n_edges": pa.array([len(df)], pa.int64()),
                "n_reciprocal": pa.array(
                    [int((sizes == 2).sum()) * 2], pa.int64()
                ),
            }
        )

    parts = df_or_empty(
        exchange_reduce(
            edges_ds.map_batches(by_pair, batch_format="pyarrow"),
            count, empty, num_buckets,
        ),
        empty,
    )
    return rd.from_arrow(
        pa.table(
            {
                "n_edges": pa.array(
                    [int(parts["n_edges"].sum())], pa.int64()
                ),
                "n_reciprocal": pa.array(
                    [int(parts["n_reciprocal"].sum())], pa.int64()
                ),
            }
        )
    )


def triangle_count(
    edges_ds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int = 32,
):
    """Exact triangle count of the undirected simple graph (direction
    and self-loops dropped) — the clustering-structure census, via the
    classic two-round wedge-check (Suri & Vassilvitskii 2011):

    round 1: canonical edges (a < b) co-locate per LOW endpoint; each
    bucket emits its nodes' wedges (v, w) keyed by the wedge's own
    pair hash; round 2: wedges meet the co-bucketed canonical edge
    markers — a wedge that matches an edge closes a triangle. Shuffle
    volume is O(#wedges); at web scale emit wedges from the
    lower-DEGREE endpoint to tame hub explosion (id-order here; the
    synthetic web's max degree is bounded)."""
    edges = _canon_edge_blocks(edges_ds, src_col, dst_col, num_buckets)

    w_empty = pa.table({"n": pa.array([], pa.int64())})

    def wedges(batch: pa.Table) -> pa.Table:
        # per low endpoint: all pairs of its higher neighbours —
        # vectorized by degree class (all endpoints with equal degree
        # d share one np.triu_indices(d), pairs emitted as one fancy-
        # index over a (endpoints, d) neighbor matrix)
        df = batch.select(["a", "b"]).to_pandas().sort_values(
            ["a", "b"], kind="mergesort"
        )
        nbr_v = df["b"].to_numpy(dtype=object)
        _, starts, sizes = np.unique(
            df["a"].to_numpy(dtype=object),
            return_index=True, return_counts=True,
        )
        vs_p: list = []
        ws_p: list = []
        for d in np.unique(sizes):
            d = int(d)
            if d < 2:
                continue
            sel = starts[sizes == d]
            nb = nbr_v[sel[:, None] + np.arange(d)[None, :]]
            iu, ju = np.triu_indices(d, k=1)
            vs_p.append(nb[:, iu].ravel())
            ws_p.append(nb[:, ju].ravel())
        vs = list(np.concatenate(vs_p)) if vs_p else []
        ws = list(np.concatenate(ws_p)) if ws_p else []
        kinds = ["W"] * len(vs)
        # edge markers ride the same exchange under their pair hash
        vs += df["a"].tolist()
        ws += df["b"].tolist()
        kinds += ["E"] * len(df)
        key = np.asarray(
            [f"{v}\x00{w}" for v, w in zip(vs, ws)], dtype=object
        )
        bk = _bucket_ids(key, num_buckets)
        return pa.table(
            {
                "v": pa.array(vs, pa.string()),
                "w": pa.array(ws, pa.string()),
                "kind": pa.array(kinds, pa.string()),
                "__bucket": pa.array(bk),
            }
        )

    def close(t: pa.Table) -> pa.Table:
        df = t.select(["v", "w", "kind"]).to_pandas()
        e = df[df["kind"] == "E"][["v", "w"]].drop_duplicates()
        wdg = df[df["kind"] == "W"][["v", "w"]]
        if not len(e) or not len(wdg):
            return pa.table({"n": pa.array([0], pa.int64())})
        m = wdg.merge(e, on=["v", "w"])
        return pa.table({"n": pa.array([len(m)], pa.int64())})

    parts = df_or_empty(
        exchange_reduce(
            edges.map_batches(wedges, batch_format="pyarrow"),
            close, w_empty, num_buckets,
        ),
        w_empty,
    )
    return rd.from_arrow(
        pa.table(
            {"n_triangles": pa.array([int(parts["n"].sum())], pa.int64())}
        )
    )


def kcore_peel(
    edges_ds,
    *,
    k: int = 3,
    rounds: int = 3,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int = 32,
):
    """Fixed-round k-core peeling of the undirected simple graph:
    each round drops every node whose current degree is below k (and
    its edges), `rounds` times. When the peel converges within the
    round budget the result IS the k-core (extra rounds are no-ops);
    a fixed budget keeps the whole fixpoint SQL-unrollable (pagerank
    / HITS precedent). Returns (url, degree) for nodes with >= 1
    surviving edge.

    Per round: one degree exchange (each edge contributes to both
    endpoints' buckets; alive = deg >= k) and two survivor-filter
    exchanges (edges re-keyed by each endpoint filter against the
    co-bucketed alive markers) — all bounded, nothing on the
    driver."""
    und = _canon_edge_blocks(edges_ds, src_col, dst_col, num_buckets)
    e_empty = pa.table(
        {"a": pa.array([], pa.string()), "b": pa.array([], pa.string())}
    )
    types = {"a": pa.string(), "b": pa.string(), "v": pa.string()}
    cols = list(types)

    def ends(batch: pa.Table) -> pa.Table:
        return _endpoint_rows(batch, num_buckets)

    a_empty = pa.table({"v": pa.array([], pa.string())})

    for _ in range(rounds):
        def alive_rows(t: pa.Table) -> pa.Table:
            s = pd.Series(t["v"].to_pylist()).value_counts()
            keep = s[s >= k].index.tolist()
            return pa.table({"v": pa.array(keep, pa.string())})

        # degree: every edge lands in BOTH endpoints' buckets
        alive = exchange_reduce(
            und.map_batches(ends, batch_format="pyarrow"),
            alive_rows, a_empty, num_buckets,
        ).materialize()

        def filt(key):
            def f(t: pa.Table) -> pa.Table:
                df = t.select(cols).to_pandas()
                ok = set(df[df["a"].isna()]["v"])
                e = df[df["a"].notna()]
                e = e[e[key].isin(ok)]
                return pa.table(
                    {
                        "a": pa.array(e["a"], pa.string()),
                        "b": pa.array(e["b"], pa.string()),
                    }
                )
            return f

        step1 = exchange_reduce(
            _pad_union(und, "a", alive, types, num_buckets),
            filt("a"), e_empty, num_buckets,
        )
        und = exchange_reduce(
            _pad_union(step1, "b", alive, types, num_buckets),
            filt("b"), e_empty, num_buckets,
        ).materialize()

    d_empty = pa.table(
        {"url": pa.array([], pa.string()),
         "degree": pa.array([], pa.int64())}
    )

    def final_deg(t: pa.Table) -> pa.Table:
        s = pd.Series(t["v"].to_pylist()).value_counts()
        return pa.table(
            {
                "url": pa.array(s.index.tolist(), pa.string()),
                "degree": pa.array(s.to_numpy(np.int64)),
            }
        )

    return exchange_reduce(
        und.map_batches(ends, batch_format="pyarrow"),
        final_deg, d_empty, num_buckets,
    )


def assortativity_sums(
    edges_ds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int = 32,
):
    """Degree-assortativity components of the undirected simple graph
    (Newman 2002): one row of EXACT int64 sums over edges (m, s_jk =
    sum du*dv, s_j = sum du+dv, s_j2 = sum du^2+dv^2) — the Pearson
    correlation is r = (s_jk/m - (s_j/2m)^2) / (s_j2/2m - (s_j/2m)^2),
    left to the consumer so the operator output stays float-free and
    order-free (the hubs-link-to-hubs vs hubs-link-to-leaves census).

    Shape: canonical-edge exchange, both-endpoint degree exchange,
    then two attach exchanges (da by endpoint a, db by endpoint b)
    whose second reduce collapses each bucket to ONE partial-sums row;
    the driver folds #buckets rows."""
    und = _canon_edge_blocks(edges_ds, src_col, dst_col, num_buckets)

    d_empty = pa.table(
        {"v": pa.array([], pa.string()), "d": pa.array([], pa.int64())}
    )

    def deg_count(t: pa.Table) -> pa.Table:
        s = pd.Series(t["v"].to_pylist()).value_counts()
        return pa.table(
            {
                "v": pa.array(s.index.tolist(), pa.string()),
                "d": pa.array(s.to_numpy(np.int64)),
            }
        )

    deg = exchange_reduce(
        und.map_batches(
            lambda b: _endpoint_rows(b, num_buckets), batch_format="pyarrow"
        ),
        deg_count, d_empty, num_buckets,
    ).materialize()

    types = {"a": pa.string(), "b": pa.string(), "v": pa.string(),
             "d": pa.int64(), "da": pa.int64()}
    cols = list(types)

    ea_empty = pa.table(
        {"a": pa.array([], pa.string()), "b": pa.array([], pa.string()),
         "da": pa.array([], pa.int64())}
    )

    def attach_da(t: pa.Table) -> pa.Table:
        df = t.select(cols).to_pandas()
        dmap = df[df["v"].notna()].set_index("v")["d"]
        e = df[df["v"].isna()][["a", "b"]]
        da = e["a"].map(dmap).astype("int64")
        return pa.table(
            {
                "a": pa.array(e["a"], pa.string()),
                "b": pa.array(e["b"], pa.string()),
                "da": pa.array(da.to_numpy(np.int64)),
            }
        )

    j1 = exchange_reduce(
        _pad_union(und, "a", deg, types, num_buckets),
        attach_da, ea_empty, num_buckets,
    )

    s_empty = pa.table(
        {"m": pa.array([], pa.int64()), "s_jk": pa.array([], pa.int64()),
         "s_j": pa.array([], pa.int64()),
         "s_j2": pa.array([], pa.int64())}
    )

    def attach_db_and_sum(t: pa.Table) -> pa.Table:
        df = t.select(cols).to_pandas()
        dmap = df[df["v"].notna()].set_index("v")["d"]
        e = df[df["v"].isna()][["a", "b", "da"]]
        if not len(e):
            return s_empty
        da = e["da"].to_numpy(np.int64)
        db = e["b"].map(dmap).astype("int64").to_numpy(np.int64)
        return pa.table(
            {
                "m": pa.array([len(e)], pa.int64()),
                "s_jk": pa.array([int((da * db).sum())], pa.int64()),
                "s_j": pa.array([int((da + db).sum())], pa.int64()),
                "s_j2": pa.array(
                    [int((da * da + db * db).sum())], pa.int64()
                ),
            }
        )

    parts = df_or_empty(
        exchange_reduce(
            _pad_union(j1, "b", deg, types, num_buckets),
            attach_db_and_sum, s_empty, num_buckets,
        ),
        s_empty,
    )
    return rd.from_arrow(
        pa.table(
            {
                c: pa.array([int(parts[c].sum())], pa.int64())
                for c in ["m", "s_jk", "s_j", "s_j2"]
            }
        )
    )


def _sym_simple_edges(edges_ds, src_col: str, dst_col: str,
                      num_buckets: int):
    """Symmetrized SIMPLE edge blocks (ctr, nbr), ctr-hash bucketed:
    direction and self-loops dropped, parallel edges collapsed. Both
    copies of an undirected edge land in their own ctr bucket; the
    per-bucket drop_duplicates is globally exact because every
    duplicate of (ctr, nbr) shares ctr and therefore the bucket."""

    def sym(batch: pa.Table) -> pa.Table:
        df = batch.select([src_col, dst_col]).to_pandas()
        df = df[df[src_col] != df[dst_col]]
        ctr = pd.concat([df[src_col], df[dst_col]], ignore_index=True)
        nbr = pd.concat([df[dst_col], df[src_col]], ignore_index=True)
        out = pd.DataFrame({"ctr": ctr, "nbr": nbr}).drop_duplicates()
        return _tag(
            pa.table({"ctr": pa.array(out["ctr"], pa.string()),
                      "nbr": pa.array(out["nbr"], pa.string())}),
            ["ctr", "nbr"], "ctr", num_buckets,
        )

    s_empty = pa.table(
        {"ctr": pa.array([], pa.string()), "nbr": pa.array([], pa.string())}
    )
    return exchange_reduce(
        edges_ds.map_batches(sym, batch_format="pyarrow"),
        lambda t: pa.Table.from_pandas(
            t.select(["ctr", "nbr"]).to_pandas().drop_duplicates(),
            preserve_index=False,
        ),
        s_empty, num_buckets,
    ).materialize()


@ray.remote
def _lp_init(sym_block: pa.Table) -> pa.Table:
    urls = sorted(set(sym_block["ctr"].to_pylist()))
    return pa.table(
        {"url": pa.array(urls, pa.string()),
         "label": pa.array(urls, pa.string())}
    )


@ray.remote
def _lp_zip(num_buckets: int, sym_block, labels_block):
    """Labels merge onto the co-bucketed sym edges by provider (ctr);
    each (nbr, label-of-ctr) vote splits by the RECEIVER's hash."""
    if (
        sym_block is None or labels_block is None
        or len(sym_block) == 0 or len(labels_block) == 0
    ):
        return bucket_slices(None, None, num_buckets)
    e = sym_block.select(["ctr", "nbr"]).to_pandas()
    lab = labels_block.to_pandas().rename(columns={"url": "ctr"})
    m = e.merge(lab, on="ctr")
    vs = m["nbr"].tolist()
    t = pa.table(
        {
            "v": pa.array(vs, pa.string()),
            "label": pa.array(m["label"].tolist(), pa.string()),
        }
    )
    return bucket_slices(t, _bucket_ids(vs, num_buckets), num_buckets)


@ray.remote
def _lp_vote(labels_block: pa.Table, *parts) -> pa.Table:
    """Per-node majority vote: most frequent incoming label, ties to
    the lexicographically smallest label. Every node in this engine's
    node set has degree >= 1 (nodes are derived from edges), but a
    node whose votes are absent keeps its current label anyway."""
    cur = labels_block.to_pandas()
    tabs = [t for t in parts if t is not None and len(t)]
    if not tabs:
        return labels_block
    cat = pa.concat_tables(tabs).to_pandas()
    counts = (
        cat.groupby(["v", "label"], sort=False).size().reset_index(name="c")
    )
    counts = counts.sort_values(
        ["v", "c", "label"], ascending=[True, False, True], kind="mergesort"
    )
    win = counts.drop_duplicates("v", keep="first")[["v", "label"]]
    merged = cur.drop(columns=["label"]).merge(
        win.rename(columns={"v": "url", "label": "new"}),
        on="url", how="left",
    )
    new = merged["new"].fillna(cur["label"]).tolist()
    return pa.table(
        {"url": labels_block["url"], "label": pa.array(new, pa.string())}
    )


def label_propagation(
    edges_ds,
    *,
    iters: int = 3,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int = 32,
):
    """Synchronous label-propagation communities (Raghavan et al.
    2007) on the undirected simple graph -> Dataset (url, community).
    Init: every node labels itself with its own url. Per iteration
    (SYNCHRONOUS, so the result is order-free and cross-engine exact):
    new label = the most frequent label among the node's neighbors,
    ties to the lexicographically SMALLEST label. A fixed iteration
    count makes sync oscillation a non-issue and keeps the SQL oracle
    an unrolled CTE chain (kcore precedent).

    Shape: pagerank_fixed's layout — ONE node-hash partitioning shared
    by the symmetrized edge blocks (bucketed by the label PROVIDER)
    and every label vector; each iteration is exactly two raw task
    waves (zip labels onto co-bucketed edges splitting votes by the
    receiver hash; per-bucket majority vote updating in place). Label
    state never collects on the driver."""
    sym = _sym_simple_edges(edges_ds, src_col, dst_col, num_buckets)
    sym_refs = _bucket_refs(sym, num_buckets)
    # node set = distinct ctr per bucket (every node appears as ctr in
    # its own bucket after symmetrization), already hash-aligned
    label_refs = [_lp_init.remote(r) for r in sym_refs]
    for _ in range(iters):
        parts = [
            fan_out(
                _lp_zip, num_buckets, e, lb
            )
            for e, lb in zip(sym_refs, label_refs)
        ]
        label_refs = [
            _lp_vote.remote(label_refs[b], *[p[b] for p in parts])
            for b in range(num_buckets)
        ]

    @ray.remote
    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["url", "community"])

    return rd.from_arrow_refs([rename.remote(r) for r in label_refs])


def ra_link_prediction(
    edges_ds,
    *,
    k: int = 50,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int = 32,
    max_center_degree: int | None = None,
):
    """Resource-Allocation link prediction (Zhou, Lü & Zhang 2009):
    for every NON-adjacent pair (a, b) of the undirected simple graph
    sharing >= 1 common neighbor w, score ra_fp = sum over w of
    SCALE // deg(w) — int64 fixed point, so the distributed sum is
    cross-engine exact (Adamic-Adar's 1/log would not be). Returns the
    top-k candidate pairs by (ra_fp DESC, a ASC, b ASC) as a Dataset
    (a, b, ra_fp).

    Shape: wedges emit from each CENTER's ctr-bucketed neighbor list
    (weight fixed by the center's degree, known in-bucket); existing-
    edge markers ride the same pair-hash exchange (triangle_count
    precedent), so the anti-join is in-bucket; the per-pair sum is one
    exchange and the top-k is global_top_n's n-per-block reduce.
    Shuffle volume is O(#wedges) = sum deg(w)^2 — at web scale cap hub
    centers with max_center_degree (drops their wedges, a documented
    approximation; default None = exact)."""
    sym = _sym_simple_edges(edges_ds, src_col, dst_col, num_buckets)

    def wedges(batch: pa.Table) -> pa.Table:
        # vectorized by DEGREE CLASS: all centers of equal degree d
        # share one np.triu_indices(d) and emit their pairs as one
        # (centers, pairs)-shaped fancy-index — no per-center Python
        df = batch.select(["ctr", "nbr"]).to_pandas().sort_values(
            ["ctr", "nbr"], kind="mergesort"
        )
        nbr_v = df["nbr"].to_numpy(dtype=object)
        _, starts, sizes = np.unique(
            df["ctr"].to_numpy(dtype=object),
            return_index=True, return_counts=True,
        )
        a_parts: list = []
        b_parts: list = []
        w_parts: list = []
        for d in np.unique(sizes):
            d = int(d)
            if d < 2 or (
                max_center_degree is not None and d > max_center_degree
            ):
                continue
            sel = starts[sizes == d]
            nb = nbr_v[sel[:, None] + np.arange(d)[None, :]]
            iu, ju = np.triu_indices(d, k=1)
            a_parts.append(nb[:, iu].ravel())
            b_parts.append(nb[:, ju].ravel())
            w_parts.append(
                np.full(len(sel) * len(iu), SCALE // d, dtype=np.int64)
            )
        cat = lambda xs: (  # noqa: E731
            np.concatenate(xs) if xs else np.zeros(0, dtype=object)
        )
        a_o = list(cat(a_parts))
        b_o = list(cat(b_parts))
        w_o = list(cat(w_parts).astype(np.int64)) if w_parts else []
        # canonical existing-edge markers (ctr < nbr rows appear
        # exactly once globally) ride the same pair-hash exchange
        e = df[df["ctr"] < df["nbr"]]
        a_o += e["ctr"].tolist()
        b_o += e["nbr"].tolist()
        w_o += [-1] * len(e)
        key = np.asarray(
            [f"{a}\x00{b}" for a, b in zip(a_o, b_o)], dtype=object
        )
        bk = _bucket_ids(key, num_buckets)
        return pa.table(
            {
                "a": pa.array(a_o, pa.string()),
                "b": pa.array(b_o, pa.string()),
                "w": pa.array(w_o, pa.int64()),
                "__bucket": pa.array(bk),
            }
        )

    p_empty = pa.table(
        {
            "a": pa.array([], pa.string()),
            "b": pa.array([], pa.string()),
            "ra_fp": pa.array([], pa.int64()),
        }
    )

    def score(t: pa.Table) -> pa.Table:
        df = t.select(["a", "b", "w"]).to_pandas()
        adj = df[df["w"] < 0][["a", "b"]]
        wdg = df[df["w"] >= 0]
        if not len(wdg):
            return p_empty
        s = wdg.groupby(["a", "b"], sort=False)["w"].sum().reset_index()
        s = s.merge(adj, on=["a", "b"], how="left", indicator=True)
        s = s[s["_merge"] == "left_only"]
        return pa.table(
            {
                "a": pa.array(s["a"], pa.string()),
                "b": pa.array(s["b"], pa.string()),
                "ra_fp": pa.array(
                    s["w"].to_numpy(np.int64), pa.int64()
                ),
            }
        )

    scored = exchange_reduce(
        sym.map_batches(wedges, batch_format="pyarrow"),
        score, p_empty, num_buckets,
    )
    return global_top_n(
        scored, order_col="ra_fp", n=k, descending=True,
        tie_col=["a", "b"],
    )


# ------------------------------------------------- landmark BFS distances


def bfs_landmarks(
    edges_ds,
    landmarks,
    *,
    max_depth: int = 6,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int = 32,
):
    """Exact min-hop distances from a FIXED landmark list to every
    node reachable within `max_depth` directed hops — the classic
    landmark / sketch-based proximity feature (Potamias et al. 2009)
    behind distance oracles, seed-proximity curation and crawl-depth
    audits. Output: (url, lm_idx, dist) rows, dist in [0, max_depth],
    one row per (reached node, landmark) pair.

    Distribution shape (pagerank_fixed precedent): edges src-bucketed
    once, nodes and the per-bucket distance state share the SAME node
    hash, and every BFS round is exactly two bucket-ALIGNED raw task
    waves — (1) the nodes settled last round zip onto their
    co-bucketed out-edges, emitting deduped (dst, lm) candidate pairs
    split by the dst hash; (2) per-bucket min-assign: a pair lands
    only where the (node, landmark) cell is still unreached, so each
    cell is written once, at its true BFS depth. Rounds are bounded by
    `max_depth` (== the oracle's recursion bound), per-bucket state is
    an (n_bucket_nodes x k) int16 matrix, and nothing ever collects on
    the driver.

    `landmarks` is a bounded curated list by definition (the seed
    list, a trust list): k multiplies per-node state, so keep it
    O(tens) — broadcast once via ray.put as url -> index."""
    landmarks = list(landmarks)
    if not landmarks:
        raise ValueError("bfs_landmarks needs a non-empty landmark list")
    if len(set(landmarks)) != len(landmarks):
        raise ValueError("duplicate landmark urls")

    es_refs = _edge_blocks(edges_ds, src_col, src_col, dst_col, num_buckets)
    node_refs = _node_blocks(es_refs, src_col, dst_col, num_buckets)
    lm_map_ref = ray.put({u: i for i, u in enumerate(landmarks)})

    dist_refs = [
        _bfsl_init.remote(r, lm_map_ref, len(landmarks))
        for r in node_refs
    ]
    for d in range(1, max_depth + 1):
        parts = [
            fan_out(
                _bfsl_frontier, num_buckets, src_col, dst_col, e, nb, dm, d
            )
            for e, nb, dm in zip(es_refs, node_refs, dist_refs)
        ]
        dist_refs = [
            _bfsl_update.remote(
                node_refs[b], dist_refs[b], d, *[p[b] for p in parts]
            )
            for b in range(num_buckets)
        ]
    out_refs = [
        _bfsl_emit.remote(nb, dm)
        for nb, dm in zip(node_refs, dist_refs)
    ]
    return rd.from_arrow_refs(out_refs)


@ray.remote
def _bfsl_init(nodes_block: pa.Table, lm_map, k: int) -> np.ndarray:
    dist = np.full((len(nodes_block), k), -1, dtype=np.int16)
    for i, u in enumerate(nodes_block["url"].to_pylist()):
        j = lm_map.get(u)
        if j is not None:
            dist[i, j] = 0
    return dist


@ray.remote
def _bfsl_frontier(
    num_buckets: int, src_col: str, dst_col: str,
    edges_block, nodes_block, dist, d: int,
):
    """Wave 1: (node, lm) cells settled at depth d-1 zip onto the
    co-bucketed out-edges; emit deduped (dst, lm) pairs split by the
    dst hash."""
    ni, lj = np.where(dist == d - 1)
    if (
        edges_block is None or len(edges_block) == 0 or not len(ni)
    ):
        return bucket_slices(None, None, num_buckets)
    urls = np.asarray(nodes_block["url"].to_pylist(), dtype=object)
    fr = pd.DataFrame({src_col: urls[ni], "lm": lj.astype(np.int16)})
    e = edges_block.select([src_col, dst_col]).to_pandas()
    m = e.merge(fr, on=src_col)[[dst_col, "lm"]].drop_duplicates()
    if not len(m):
        return bucket_slices(None, None, num_buckets)
    vs = m[dst_col].tolist()
    t = pa.table(
        {
            "v": pa.array(vs, pa.string()),
            "lm": pa.array(m["lm"].to_numpy(np.int16)),
        }
    )
    return bucket_slices(t, _bucket_ids(vs, num_buckets), num_buckets)


@ray.remote
def _bfsl_update(
    nodes_block: pa.Table, dist: np.ndarray, d: int, *parts
) -> np.ndarray:
    tabs = [t for t in parts if t is not None and len(t)]
    if not tabs:
        return dist
    cat = pa.concat_tables(tabs)
    pos = pd.Index(nodes_block["url"].to_pylist()).get_indexer(
        cat["v"].to_pylist()
    )
    lm = cat["lm"].to_numpy(zero_copy_only=False).astype(np.int64)
    out = dist.copy()
    hit = (pos >= 0) & (out[pos, lm] < 0)
    out[pos[hit], lm[hit]] = d
    return out


@ray.remote
def _bfsl_emit(nodes_block: pa.Table, dist: np.ndarray) -> pa.Table:
    ni, lj = np.where(dist >= 0)
    urls = np.asarray(nodes_block["url"].to_pylist(), dtype=object)
    return pa.table(
        {
            "url": pa.array(urls[ni], pa.string()),
            "lm_idx": pa.array(lj.astype(np.int64)),
            "dist": pa.array(dist[ni, lj].astype(np.int64)),
        }
    )


# ---------------------------------------------------------------------------
# Strongly connected components — FW-BW coloring (Multistep, Slota et
# al. IPDPS 2014; the Pregel SCC idiom). The reference has no graph
# code at all; this is the directed complement to the undirected
# min-label components in dedup.py (cluster_pairs_minlabel), giving
# the crawl the classic "core vs tendril" web-graph decomposition
# (Broder et al. 2000's bow-tie) for frontier auditing.
# ---------------------------------------------------------------------------


def scc_coloring(
    edges_ds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    num_buckets: int = 32,
    max_rounds: int = 4096,
    max_iters: int = 65536,
):
    """Exact SCC decomposition of a directed multigraph -> Dataset
    (url, scc_id, scc_size) with scc_id = the lexicographically
    smallest member url (the oracle's min over the mutual-reach set).

    Algorithm, per round over the still-unsettled subgraph:
      1. COLOR: forward min-label fixpoint — every active node starts
         at its own url; labels flow along edge direction, so
         color(v) = min url over v's active ancestors (incl. v).
      2. SETTLE: nodes whose color == own url are roots; a backward
         BFS from each root, restricted to its own color class,
         settles exactly SCC(root) (standard FW-BW argument: within
         color c, the nodes that can reach c are mutually reachable
         with c). Settled nodes drop out; repeat.

    Distribution shape (bfs_landmarks precedent): edges exchanged
    ONCE into a src-bucketed copy (forward waves), which is re-bucketed
    into a dst-bucketed copy (backward waves); node blocks and all per-node
    state (color / scc / delta masks) are bucket-ALIGNED object-store
    arrays. Every fixpoint iteration is two raw task waves with
    DELTA propagation (only nodes whose state changed last wave
    emit), and the driver sees one int per bucket per wave (change
    counts) — never node state. Rounds are bounded by the
    condensation depth (web graphs: a handful — one giant SCC plus
    tendrils settle in the first rounds); each round settles >=1
    whole SCC per color class, so termination is certain.
    """
    fwd_refs = _edge_blocks(edges_ds, src_col, src_col, dst_col, num_buckets)
    rev_refs = _edge_blocks(fwd_refs, dst_col, src_col, dst_col, num_buckets)
    node_refs = _node_blocks(fwd_refs, src_col, dst_col, num_buckets)

    scc_refs = [_scc_blank.remote(nb) for nb in node_refs]
    n_active = sum(ray.get([_scc_n_active.remote(s) for s in scc_refs]))

    rounds = 0
    while n_active:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(
                f"scc_coloring did not settle in {max_rounds} rounds"
            )
        # 1. COLOR: forward min-label fixpoint with delta emission.
        state = [
            _scc_color_init.options(num_returns=2).remote(nb, s)
            for nb, s in zip(node_refs, scc_refs)
        ]
        color_refs = [s[0] for s in state]
        delta_refs = [s[1] for s in state]
        it = 0
        while True:
            it += 1
            if it > max_iters:
                raise RuntimeError("scc forward fixpoint did not converge")
            parts = [
                fan_out(
                    _scc_fwd_frontier, num_buckets,
                    src_col, dst_col, e, nb, c, s, dl,
                )
                for e, nb, c, s, dl in zip(
                    fwd_refs, node_refs, color_refs, scc_refs, delta_refs
                )
            ]
            upd = [
                _scc_fwd_update.options(num_returns=3).remote(
                    node_refs[b], color_refs[b], scc_refs[b],
                    *[p[b] for p in parts]
                )
                for b in range(num_buckets)
            ]
            color_refs = [u[0] for u in upd]
            delta_refs = [u[1] for u in upd]
            if sum(ray.get([u[2] for u in upd])) == 0:
                break
        # 2. SETTLE: roots, then backward BFS inside each color class.
        state = [
            _scc_bwd_init.options(num_returns=2).remote(nb, c, s)
            for nb, c, s in zip(node_refs, color_refs, scc_refs)
        ]
        scc_refs = [s[0] for s in state]
        front_refs = [s[1] for s in state]
        it = 0
        while True:
            it += 1
            if it > max_iters:
                raise RuntimeError("scc backward fixpoint did not converge")
            parts = [
                fan_out(
                    _scc_bwd_frontier, num_buckets,
                    src_col, dst_col, e, nb, c, fr,
                )
                for e, nb, c, fr in zip(
                    rev_refs, node_refs, color_refs, front_refs
                )
            ]
            upd = [
                _scc_bwd_update.options(num_returns=3).remote(
                    node_refs[b], color_refs[b], scc_refs[b],
                    *[p[b] for p in parts]
                )
                for b in range(num_buckets)
            ]
            scc_refs = [u[0] for u in upd]
            front_refs = [u[1] for u in upd]
            if sum(ray.get([u[2] for u in upd])) == 0:
                break
        n_active = sum(ray.get([_scc_n_active.remote(s) for s in scc_refs]))

    per_node = rd.from_arrow_refs(
        [
            _scc_emit.remote(nb, s, num_buckets)
            for nb, s in zip(node_refs, scc_refs)
        ]
    )
    # scc sizes: one hash exchange keyed by scc_id (the scc_id->size
    # map is #SCC-sized — ~half the nodes are singletons on real web
    # graphs — so it must never collect on the driver), then a
    # bucketed join back onto the per-node rows.
    sizes_empty = pa.table(
        {"scc_id": pa.array([], pa.string()),
         "scc_size": pa.array([], pa.int64())}
    )

    def count_sizes(t: pa.Table) -> pa.Table:
        df = t.select(["scc_id"]).to_pandas()
        g = df.groupby("scc_id", sort=False).size().reset_index(name="scc_size")
        return pa.Table.from_pandas(
            g.astype({"scc_size": "int64"}), preserve_index=False
        )

    sizes = exchange_reduce(per_node, count_sizes, sizes_empty, num_buckets)
    out = hash_join(
        per_node.map_batches(
            lambda t: t.select(["url", "scc_id"]), batch_format="pyarrow"
        ),
        sizes, on="scc_id", num_buckets=num_buckets,
    )
    return out


@ray.remote
def _scc_blank(nodes_block: pa.Table) -> np.ndarray:
    return np.full(len(nodes_block), None, dtype=object)


@ray.remote
def _scc_n_active(scc: np.ndarray) -> int:
    return int(sum(x is None for x in scc))


@ray.remote
def _scc_color_init(nodes_block: pa.Table, scc: np.ndarray):
    color = np.asarray(nodes_block["url"].to_pylist(), dtype=object)
    delta = np.asarray([x is None for x in scc], dtype=bool)
    return color, delta


@ray.remote
def _scc_fwd_frontier(
    num_buckets: int, src_col: str, dst_col: str,
    edges_block, nodes_block, color, scc, delta,
):
    """Forward wave 1: active srcs whose color changed last wave push
    their color along co-bucketed out-edges; per-dst min taken in the
    task, then split by the dst hash."""
    active = np.asarray([x is None for x in scc], dtype=bool)
    send = active & delta
    if edges_block is None or len(edges_block) == 0 or not send.any():
        return bucket_slices(None, None, num_buckets)
    urls = np.asarray(nodes_block["url"].to_pylist(), dtype=object)
    fr = pd.DataFrame({src_col: urls[send], "c": color[send]})
    e = edges_block.select([src_col, dst_col]).to_pandas()
    m = e.merge(fr, on=src_col)
    if not len(m):
        return bucket_slices(None, None, num_buckets)
    g = m.groupby(dst_col, sort=False)["c"].min().reset_index()
    vs = g[dst_col].tolist()
    t = pa.table(
        {
            "v": pa.array(vs, pa.string()),
            "c": pa.array(g["c"].tolist(), pa.string()),
        }
    )
    return bucket_slices(t, _bucket_ids(vs, num_buckets), num_buckets)


@ray.remote
def _scc_fwd_update(nodes_block: pa.Table, color, scc, *parts):
    """Forward wave 2: per-bucket min-assign onto active nodes; the
    delta mask for the next wave is exactly the cells that improved."""
    delta = np.zeros(len(nodes_block), dtype=bool)
    tabs = [t for t in parts if t is not None and len(t)]
    if not tabs:
        return color, delta, 0
    cat = pa.concat_tables(tabs)
    df = pd.DataFrame(
        {"v": cat["v"].to_pylist(), "c": cat["c"].to_pylist()}
    ).groupby("v", sort=False)["c"].min().reset_index()
    pos = pd.Index(nodes_block["url"].to_pylist()).get_indexer(df["v"])
    cand = df["c"].to_numpy(dtype=object)
    ok = pos >= 0
    pos, cand = pos[ok], cand[ok]
    active = np.asarray([x is None for x in scc], dtype=bool)
    cur = color[pos]
    win = active[pos] & (cand < cur)
    out = color.copy()
    out[pos[win]] = cand[win]
    delta[pos[win]] = True
    return out, delta, int(win.sum())


@ray.remote
def _scc_bwd_init(nodes_block: pa.Table, color, scc):
    """Roots: active nodes whose color is their own url settle
    immediately (they are the lexicographic min of their SCC)."""
    urls = np.asarray(nodes_block["url"].to_pylist(), dtype=object)
    out = scc.copy()
    active = np.asarray([x is None for x in scc], dtype=bool)
    root = active & (color == urls)
    out[root] = color[root]
    return out, root


@ray.remote
def _scc_bwd_frontier(
    num_buckets: int, src_col: str, dst_col: str,
    edges_block, nodes_block, color, front,
):
    """Backward wave 1: nodes settled last wave pull in-neighbours —
    rev edge blocks are dst-bucketed, so the frontier state is local;
    emit (src, color) split by the src hash."""
    if edges_block is None or len(edges_block) == 0 or not front.any():
        return bucket_slices(None, None, num_buckets)
    urls = np.asarray(nodes_block["url"].to_pylist(), dtype=object)
    fr = pd.DataFrame({dst_col: urls[front], "c": color[front]})
    e = edges_block.select([src_col, dst_col]).to_pandas()
    m = e.merge(fr, on=dst_col)[[src_col, "c"]].drop_duplicates()
    if not len(m):
        return bucket_slices(None, None, num_buckets)
    vs = m[src_col].tolist()
    t = pa.table(
        {
            "v": pa.array(vs, pa.string()),
            "c": pa.array(m["c"].tolist(), pa.string()),
        }
    )
    return bucket_slices(t, _bucket_ids(vs, num_buckets), num_buckets)


@ray.remote
def _scc_bwd_update(nodes_block: pa.Table, color, scc, *parts):
    """Backward wave 2: an unsettled node joins the SCC only when the
    arriving label matches its OWN color (the color-class restriction
    that makes FW-BW exact)."""
    front = np.zeros(len(nodes_block), dtype=bool)
    tabs = [t for t in parts if t is not None and len(t)]
    if not tabs:
        return scc, front, 0
    cat = pa.concat_tables(tabs)
    pos = pd.Index(nodes_block["url"].to_pylist()).get_indexer(
        cat["v"].to_pylist()
    )
    cand = np.asarray(cat["c"].to_pylist(), dtype=object)
    ok = pos >= 0
    pos, cand = pos[ok], cand[ok]
    out = scc.copy()
    unsettled = np.asarray([x is None for x in out], dtype=bool)
    hit = unsettled[pos] & (color[pos] == cand)
    out[pos[hit]] = cand[hit]
    front[pos[hit]] = True
    return out, front, int(hit.sum())


@ray.remote
def _scc_emit(nodes_block: pa.Table, scc: np.ndarray, num_buckets: int):
    urls = nodes_block["url"].to_pylist()
    t = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "scc_id": pa.array(list(scc), pa.string()),
        }
    )
    return t.append_column(
        "__bucket", pa.array(_bucket_ids(list(scc), num_buckets))
    )
