"""Partition invariance: every distributed operator must produce
IDENTICAL results whether its input arrives as one block or many
(the kmeans/quantile-sketch precedent) — this is the direct test of
the order-free/exactness claims the oracles rely on."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd


def _split_ds(table: pa.Table, n_blocks: int):
    n = len(table)
    cuts = np.linspace(0, n, n_blocks + 1).astype(int)
    refs = [
        ray.put(table.slice(lo, hi - lo))
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]
    return rd.from_arrow_refs(refs)


def _docs_table(n=60):
    rng = np.random.default_rng(7)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(3, 30)))
        for _ in range(n)
    ]
    return pa.table({"doc_id": list(range(n)), "text": texts})


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return df[sorted(df.columns)].sort_values(
        sorted(df.columns)
    ).reset_index(drop=True)


def test_pmi_partition_invariant(ray_session):
    from webcollector_ray.functions.textstats import pmi_bigrams

    t = _docs_table()
    a = _canon(
        pmi_bigrams(_split_ds(t, 1), min_count=2, top_n=50).to_pandas()
    )
    b = _canon(
        pmi_bigrams(_split_ds(t, 7), min_count=2, top_n=50).to_pandas()
    )
    pd.testing.assert_frame_equal(a, b)


def _graph_table():
    rng = np.random.default_rng(11)
    nodes = [f"n{i}" for i in range(30)]
    src = rng.choice(nodes, 150).tolist()
    dst = rng.choice(nodes, 150).tolist()
    return pa.table({"src": src, "dst": dst})


def _graph_ops():
    from webcollector_ray.functions import graph as G

    return {
        "pagerank_fixed": lambda ds, nb: G.pagerank_fixed(
            ds, iters=2, num_buckets=nb
        ),
        "hits_fixed": lambda ds, nb: G.hits_fixed(ds, iters=2, num_buckets=nb),
        "degree_histogram": lambda ds, nb: G.degree_histogram(
            ds, num_buckets=nb
        ),
        "component_size_census": lambda ds, nb: G.component_size_census(
            ds, num_buckets=nb
        ),
        "reciprocity_census": lambda ds, nb: G.reciprocity_census(
            ds, num_buckets=nb
        ),
        "triangle_count": lambda ds, nb: G.triangle_count(ds, num_buckets=nb),
        "kcore_peel": lambda ds, nb: G.kcore_peel(
            ds, k=3, rounds=2, num_buckets=nb
        ),
        "pagerank_seeded": lambda ds, nb: G.pagerank_seeded(
            ds, ["n0", "n1"], iters=2, num_buckets=nb
        ),
        "assortativity_sums": lambda ds, nb: G.assortativity_sums(
            ds, num_buckets=nb
        ),
        "label_propagation": lambda ds, nb: G.label_propagation(
            ds, iters=3, num_buckets=nb
        ),
        "ra_link_prediction": lambda ds, nb: G.ra_link_prediction(
            ds, k=20, num_buckets=nb
        ),
        "bfs_landmarks": lambda ds, nb: G.bfs_landmarks(
            ds, ["n0", "n1"], max_depth=3, num_buckets=nb
        ),
        "scc_coloring": lambda ds, nb: G.scc_coloring(ds, num_buckets=nb),
    }


def test_graph_ops_partition_invariant(ray_session):
    t = _graph_table()
    for name, fn in _graph_ops().items():
        a = _canon(fn(_split_ds(t, 1), 4).to_pandas())
        b = _canon(fn(_split_ds(t, 6), 4).to_pandas())
        pd.testing.assert_frame_equal(a, b, obj=name)
        # one bucket: every split task's single return comes back bare
        c = _canon(fn(_split_ds(t, 6), 1).to_pandas())
        pd.testing.assert_frame_equal(a, c, obj=name)


def test_pagerank_fixed_is_seeded_over_every_node(ray_session):
    """pagerank_fixed is pagerank_seeded with every node teleporting."""
    from webcollector_ray.functions.graph import pagerank_fixed, pagerank_seeded

    t = _graph_table()
    every = set(t["src"].to_pylist()) | set(t["dst"].to_pylist())
    for nb in (1, 4):
        a = _canon(
            pagerank_fixed(_split_ds(t, 3), iters=3, num_buckets=nb).to_pandas()
        )
        b = _canon(
            pagerank_seeded(
                _split_ds(t, 3), every, iters=3, num_buckets=nb
            ).to_pandas()
        )
        pd.testing.assert_frame_equal(a, b)


def test_graph_ops_run_no_limit_probe(ray_session, monkeypatch):
    """Each graph op runs every plan once: no Dataset.limit call, which
    in Ray 2.49 is the limit(1) schema probe that to_arrow_refs() and
    schema() start on a plan not yet run, re-running its map."""
    calls = []
    limit = rd.Dataset.limit

    def counting_limit(self, *args, **kwargs):
        calls.append(args)
        return limit(self, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "limit", counting_limit)
    t = _graph_table()
    probed = {}
    for name, fn in _graph_ops().items():
        n0 = len(calls)
        fn(_split_ds(t, 3), 4).to_pandas()
        if len(calls) > n0:
            probed[name] = len(calls) - n0
    assert probed == {}


def test_sketches_partition_invariant(ray_session):
    from webcollector_ray.functions.sketches import (
        approx_distinct_hll_by_key,
        cms_counts,
        mg_top_words,
    )

    rng = np.random.default_rng(3)
    keys = [f"k{i}" for i in rng.integers(0, 25, size=400)]
    t = pa.table({
        "event_type": keys,
        "user_id": rng.integers(0, 60, size=400),
        "text": [f"w{v} w{v + 1} w{v % 5}" for v in range(400)],
    })
    for fn in (
        lambda ds: cms_counts(ds, key_col="event_type", depth=2, width=64),
        lambda ds: mg_top_words(ds, text_col="text", n=10, capacity=2048),
        lambda ds: approx_distinct_hll_by_key(
            ds, key_col="event_type", col="user_id", num_buckets=4
        ),
    ):
        a = _canon(fn(_split_ds(t, 1)).to_pandas())
        b = _canon(fn(_split_ds(t, 9)).to_pandas())
        pd.testing.assert_frame_equal(a, b)


def test_bloom_decontaminate_partition_invariant(ray_session):
    from webcollector_ray.functions.decontam import (
        bloom_decontaminate,
        build_eval_gram_bloom,
    )

    t = _docs_table(50)
    ev = pa.table({
        "doc_id": [1000],
        "text": ["alpha beta gamma delta eps zeta alpha beta"],
    })
    outs = []
    for blocks in (1, 5):
        bloom = build_eval_gram_bloom(
            _split_ds(ev, 1), k=3, m_bits=256
        )
        outs.append(sorted(
            bloom_decontaminate(
                _split_ds(t, blocks), bloom, k=3, m_bits=256
            ).to_pandas()["doc_id"]
        ))
    assert outs[0] == outs[1]


def test_source_kl_partition_invariant(ray_session):
    from webcollector_ray.functions.lm import (
        source_kl_divergence,
        train_unigram_lm,
    )

    rng = np.random.default_rng(11)
    srcs = [f"s{i}" for i in rng.integers(0, 7, size=300)]
    t = pa.table({
        "source": pa.array(srcs, pa.string()),
        "text": [
            f"w{v % 13} w{(v * 3) % 17} w{v % 5}" for v in range(300)
        ],
    })
    m_ref, _ = train_unigram_lm(_split_ds(t, 1), top_v=16)
    a = _canon(
        source_kl_divergence(_split_ds(t, 1), m_ref).to_pandas()
    )
    b = _canon(
        source_kl_divergence(_split_ds(t, 8), m_ref).to_pandas()
    )
    pd.testing.assert_frame_equal(a, b)


def test_bfs_landmarks_exact_and_partition_invariant(ray_session):
    from collections import deque

    from webcollector_ray.functions.graph import bfs_landmarks

    rng = np.random.default_rng(7)
    nodes = [f"n{i}" for i in range(40)]
    src = rng.choice(nodes, 160).tolist()
    dst = rng.choice(nodes, 160).tolist()
    t = pa.table({"src": src, "dst": dst})
    lms = ["n0", "n3", "n7"]
    max_depth = 4

    # pure-Python reference BFS per landmark over the same digraph
    adj: dict = {}
    for s, d in zip(src, dst):
        adj.setdefault(s, set()).add(d)
    graph_nodes = set(src) | set(dst)
    want = {}
    for li, lm in enumerate(lms):
        if lm not in graph_nodes:
            continue
        seen = {lm: 0}
        q = deque([lm])
        while q:
            v = q.popleft()
            if seen[v] == max_depth:
                continue
            for w in adj.get(v, ()):
                if w not in seen:
                    seen[w] = seen[v] + 1
                    q.append(w)
        for v, dd in seen.items():
            want[(v, li)] = dd

    got = bfs_landmarks(
        _split_ds(t, 5), lms, max_depth=max_depth, num_buckets=4
    ).to_pandas()
    got_map = {
        (r.url, int(r.lm_idx)): int(r.dist) for r in got.itertuples()
    }
    assert got_map == want

    one = _canon(
        bfs_landmarks(
            _split_ds(t, 1), lms, max_depth=max_depth, num_buckets=1
        ).to_pandas()
    )
    many = _canon(got)
    pd.testing.assert_frame_equal(one, many)

    with pytest.raises(ValueError):
        bfs_landmarks(_split_ds(t, 1), [])
    with pytest.raises(ValueError):
        bfs_landmarks(_split_ds(t, 1), ["n0", "n0"])


def test_textrank_partition_invariant(ray_session):
    # drives the SAME code path as the vocab_textrank query:
    # textstats.cooccurrence_edges -> graph.pagerank_fixed
    import pandas as pd
    import pyarrow.parquet as pq

    from webcollector_ray.functions.graph import pagerank_fixed
    from webcollector_ray.functions.textstats import cooccurrence_edges

    t = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text"],
    )

    def run(nblocks, nb):
        ds = rd.from_arrow(t).repartition(nblocks)
        edges = cooccurrence_edges(ds, window=2, num_buckets=nb)
        out = pagerank_fixed(edges, iters=3).to_pandas()
        return out.sort_values(
            ["pr_fp", "url"], ascending=[False, True]
        ).head(20).reset_index(drop=True)

    a = run(2, 8)
    b = run(7, 16)
    assert a.equals(b)
