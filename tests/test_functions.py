"""Training-data-pipeline operators: text stats, dedup family,
similarity search, windows, multimodal plumbing."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from webcollector_ray.functions.dedup import (
    MinHasher,
    embedding_dedup_pairs,
    exact_dedup,
    minhash_dedup_pairs,
    ngram_jaccard,
    simhash64,
    simhash_dedup_pairs,
    verify_pairs_exact_jaccard,
)
from webcollector_ray.functions.multimodal import (
    DecodeStage,
    media_pipeline,
    synth_media_table,
)
from webcollector_ray.functions.similarity import knn_brute, knn_ivf
from webcollector_ray.functions.textstats import (
    LangIdStage,
    bpe_ish_token_count_batch,
    md5_fingerprint_batch,
    quality_batch,
    token_count_batch,
)
from webcollector_ray.functions.windows import session_windows, tumbling_window_agg


def test_token_count():
    t = pa.table({"text": ["a b  c", "", "  ", "one"]})
    out = token_count_batch(t)
    assert out["n_tokens"].to_pylist() == [3, 0, 0, 1]
    for s, n in zip(t["text"].to_pylist(), out["n_tokens"].to_pylist()):
        assert n == len(s.split())


def test_bpe_ish_tokens():
    t = pa.table({"text": ["hello, world 123"]})
    out = bpe_ish_token_count_batch(t)
    # hello | , | world | 123
    assert out["n_subtokens"].to_pylist() == [4]


def test_quality_features():
    t = pa.table({"text": ["Hi there. Ok!", ""]})
    out = quality_batch(t)
    assert out["n_chars"].to_pylist() == [13, 0]
    assert out["n_tokens"].to_pylist() == [3, 0]
    assert out["punct_ratio"].to_pylist()[0] == pytest.approx(2 / 13)
    assert out["alpha_ratio"].to_pylist()[1] == 0.0


def test_lang_id():
    stage = LangIdStage()
    assert stage.classify("the cat sat on the mat and it was happy for a while") == "en"
    assert stage.classify("der Hund ist nicht mit der Katze auf dem Sofa") == "de"
    assert stage.classify("le chat est dans la maison avec les enfants pour une heure") == "fr"
    assert stage.classify("el perro es una mascota que vive en la casa con su familia") == "es"
    assert stage.classify("这是一个中文句子，用来测试语言识别功能。") == "zh"
    assert stage.classify("Это русский текст для проверки определения языка") == "ru"
    assert stage.classify("") == "und"


def test_md5_fingerprint_matches_duckdb():
    import duckdb

    t = pa.table({"text": ["hello", "你好"]})
    out = md5_fingerprint_batch(t)
    for s, fp in zip(t["text"].to_pylist(), out["fp"].to_pylist()):
        assert duckdb.sql(f"SELECT md5('{s}')").fetchone()[0] == fp


def _docs(rows):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    }))


def test_exact_dedup(ray_session):
    ds = _docs([(1, "aaa"), (2, "bbb"), (3, "aaa"), (0, "aaa")])
    out = exact_dedup(ds, num_buckets=2).to_pandas().sort_values("doc_id")
    assert out["doc_id"].tolist() == [0, 2]  # min id per distinct text


BASE_TEXT = ("the quick brown fox jumps over the lazy dog and then runs far "
             "away into the deep green forest to hide from all the hunters")


def test_minhash_est_jaccard_sane():
    mh = MinHasher(num_perm=128)
    a = mh.signature(BASE_TEXT)
    b = mh.signature(BASE_TEXT)
    assert MinHasher.est_jaccard(a, b) == 1.0
    c = mh.signature(BASE_TEXT + " extra trailing words here")
    assert 0.4 < MinHasher.est_jaccard(a, c) < 1.0
    d = mh.signature("completely different content about other topics entirely today")
    assert MinHasher.est_jaccard(a, d) < 0.2


def test_minhash_lsh_finds_near_dups(ray_session):
    docs = [
        (0, BASE_TEXT),
        (1, BASE_TEXT),                                  # exact dup
        (2, BASE_TEXT.replace("lazy", "sleepy")),        # near dup
        (3, "an entirely unrelated document about ray data pipelines and arrow"),
        (4, "yet another distinct text mentioning parquet files and shuffles"),
    ]
    pairs = minhash_dedup_pairs(_docs(docs), threshold=0.6).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 1) in got
    assert (0, 2) in got or (1, 2) in got
    assert not any(3 in p or 4 in p for p in got)


def test_simhash_near_dup(ray_session):
    assert simhash64(BASE_TEXT) == simhash64(BASE_TEXT)
    docs = [
        (0, BASE_TEXT),
        (1, BASE_TEXT.replace("dog", "cat")),
        (2, "some wholly different words composing another document body"),
    ]
    pairs = simhash_dedup_pairs(_docs(docs), max_hamming=8).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 1) in got
    assert (0, 2) not in got and (1, 2) not in got


def test_ngram_jaccard_and_verify(ray_session):
    assert ngram_jaccard("a b c d", "a b c d") == 1.0
    assert ngram_jaccard("a b c d", "x y z w") == 0.0
    docs = [(0, BASE_TEXT), (1, BASE_TEXT), (2, "other words " * 10)]
    ds = _docs(docs)
    pairs = minhash_dedup_pairs(ds, threshold=0.5)
    verified = verify_pairs_exact_jaccard(pairs, ds, threshold=0.9).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(verified["id_a"], verified["id_b"])}
    assert got == {(0, 1)}


def test_verify_pairs_paths_identical(ray_session):
    # the broadcast-candidates path and the bucketed-join path must be
    # interchangeable (broadcast_limit=0 forces the join path)
    docs = [
        (0, BASE_TEXT),
        (1, BASE_TEXT),
        (2, BASE_TEXT.replace("lazy", "sleepy")),
        (3, "other words " * 10),
    ]
    ds = _docs(docs)
    pairs = minhash_dedup_pairs(ds, threshold=0.3)
    a = verify_pairs_exact_jaccard(pairs, ds, threshold=0.0).to_pandas()
    b = verify_pairs_exact_jaccard(
        pairs, ds, threshold=0.0, broadcast_limit=0
    ).to_pandas()
    key = ["id_a", "id_b"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    assert a[key + ["jaccard"]].equals(b[key + ["jaccard"]])


def test_verify_pairs_join_matches_direct(ray_session):
    # the bucketed-join text attach must yield exactly the jaccard a
    # direct computation gives (guards the de-broadcast rewrite)
    docs = [
        (0, BASE_TEXT),
        (1, BASE_TEXT),
        (2, BASE_TEXT.replace("lazy", "sleepy")),
        (3, BASE_TEXT + " with a small tail appended"),
        (4, "other words " * 10),
    ]
    ds = _docs(docs)
    pairs = minhash_dedup_pairs(ds, threshold=0.3)
    verified = verify_pairs_exact_jaccard(pairs, ds, threshold=0.0).to_pandas()
    assert len(verified) > 0
    texts = dict(docs)
    for _, row in verified.iterrows():
        expect = ngram_jaccard(texts[int(row["id_a"])], texts[int(row["id_b"])])
        assert row["jaccard"] == expect


def _emb_ds(n=50, d=8, seed=3):
    rng = np.random.RandomState(seed)
    M = rng.randn(n, d)
    M[7] = M[3] + 0.01 * rng.randn(d)  # planted near-dup
    return rd.from_arrow(pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([r.tolist() for r in M], pa.list_(pa.float32())),
    })), M


def test_embedding_dedup(ray_session):
    ds, _ = _emb_ds()
    pairs = embedding_dedup_pairs(ds, threshold=0.99, dim=8, n_planes=6).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (3, 7) in got


def test_cosine_pairs_blocked_matches_exact(ray_session):
    """The chunk-pair block-matmul scale path must emit exactly the
    brute-force pair set — including across chunk boundaries (tiny
    target_chunk_rows forces many chunks on 120 rows)."""
    from webcollector_ray.functions.similarity import (
        cosine_pairs_blocked,
        cosine_pairs_exact,
    )

    ds, M = _emb_ds(n=120, d=8, seed=11)
    Mu = M / np.linalg.norm(M, axis=1, keepdims=True)
    S = Mu @ Mu.T
    xs, ys = np.nonzero(np.triu(S >= 0.4, k=1))
    want = {(int(a), int(b)) for a, b in zip(xs, ys)}
    assert want, "threshold too high: vacuous test"

    got_b = cosine_pairs_blocked(
        ds, threshold=0.4, target_chunk_rows=16
    ).to_pandas()
    assert {(int(a), int(b)) for a, b in zip(got_b["id_a"], got_b["id_b"])} == want
    assert len(got_b) == len(want)  # no duplicate emissions

    got_e = cosine_pairs_exact(ds, threshold=0.4).to_pandas()
    assert {(int(a), int(b)) for a, b in zip(got_e["id_a"], got_e["id_b"])} == want


def test_cosine_pairs_exact_row_cap(ray_session):
    from webcollector_ray.functions.similarity import cosine_pairs_exact

    ds, _ = _emb_ds(n=30)
    with pytest.raises(ValueError, match="small-N"):
        cosine_pairs_exact(ds, threshold=0.9, max_rows=10)


def test_knn_brute_row_cap(ray_session):
    ds, M = _emb_ds(n=30)
    with pytest.raises(ValueError, match="small-N"):
        knn_brute(ds, M[0][None, :], k=3, max_rows=10)


def test_knn_brute_matches_numpy(ray_session):
    ds, M = _emb_ds()
    q = M[5]
    top = knn_brute(ds, q[None, :], k=5)
    # numpy reference
    Mu = M / np.linalg.norm(M, axis=1, keepdims=True)
    sims = Mu @ (q / np.linalg.norm(q))
    expected = np.lexsort((np.arange(len(M)), -sims))[:5].tolist()
    assert top["vec_id"].tolist() == expected
    assert top["rank"].tolist() == [1, 2, 3, 4, 5]


def test_knn_ivf_recall(ray_session):
    ds, M = _emb_ds(n=200)
    q = M[5]
    brute = set(knn_brute(ds, q[None, :], k=5)["vec_id"])
    approx = set(knn_ivf(ds, q[None, :], k=5, n_cells=8, nprobe=4)["vec_id"])
    assert len(brute & approx) >= 3  # decent recall on tiny data


def test_knn_ivf_pivot_matches_numpy_reference(ray_session):
    """Pivot-mode IVF is fully deterministic: re-derive pivot pick,
    assignment and per-query probe in pure numpy (same rules as the SQL
    oracle) and demand an exact match — including that a query never
    receives a vector that lives outside its own probed cells."""
    from webcollector_ray.functions.similarity import knn_ivf_pivot

    ds, M = _emb_ds(n=200)
    # float32 round-trip first: the Dataset column is list<float32>
    M32 = M.astype(np.float32).astype(np.float64)
    queries = M32[[5, 17]]
    n_cells, nprobe, k = 8, 3, 5

    ids = np.arange(len(M32), dtype=np.int64)
    h = ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    piv_ids = ids[np.lexsort((ids, h))[:n_cells]]
    Mu = M32 / np.linalg.norm(M32, axis=1, keepdims=True)
    C = Mu[piv_ids]
    assign = (Mu @ C.T).argmax(axis=1)
    qu = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    expected = {}
    for qi in range(len(qu)):
        cells = np.lexsort((np.arange(n_cells), -(qu[qi] @ C.T)))[:nprobe]
        cand = ids[np.isin(assign, cells)]
        s = Mu[cand] @ qu[qi]
        expected[qi] = cand[np.lexsort((cand, -s))[:k]].tolist()

    top = knn_ivf_pivot(ds, queries, k=k, n_cells=n_cells, nprobe=nprobe)
    for qi, exp in expected.items():
        assert top[top["query_id"] == qi]["vec_id"].tolist() == exp


def _events():
    import pandas as pd

    ts = pd.to_datetime(
        ["2024-01-01 00:05", "2024-01-01 00:40", "2024-01-01 02:10",
         "2024-01-01 00:10", "2024-01-02 00:10"]
    )
    return rd.from_arrow(pa.table({
        "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "value": pa.array([1.0, 2.0, 3.0, 4.0, 5.0], pa.float64()),
    }))


def test_tumbling_window(ray_session):
    out = tumbling_window_agg(_events(), window_sec=3600).to_pandas()
    out = out.sort_values(["user_id", "window_start"]).reset_index(drop=True)
    u1 = out[out["user_id"] == 1]
    assert u1["n_events"].tolist() == [2, 1]
    assert u1["sum_value"].tolist() == [3.0, 3.0]


def test_session_windows(ray_session):
    out = session_windows(_events(), gap_sec=3600).to_pandas().set_index("user_id")
    assert out.loc[1, "n_sessions"] == 2  # 00:05+00:40 | 02:10
    assert out.loc[2, "n_sessions"] == 2  # day apart
    assert out.loc[1, "n_events"] == 3


def test_media_pipeline_deterministic(ray_session):
    tbl = synth_media_table(8)
    a = media_pipeline(rd.from_arrow(tbl)).to_pandas().sort_values("media_id")
    b = media_pipeline(rd.from_arrow(tbl)).to_pandas().sort_values("media_id")
    assert [list(x) for x in a["features"]] == [list(x) for x in b["features"]]
    assert all(len(f) == 6 for f in a["features"])  # 3 means + 3 stds


def test_media_decode_rejects_unknown_format():
    # synth_media_table payloads are raw md5 bytes — not BMP/PPM — so the
    # real decoder must refuse them with a format error (the seam where
    # PIL would plug in for compressed formats).
    with pytest.raises(ValueError, match="unsupported image format"):
        DecodeStage(fake=False)(synth_media_table(1))


def test_frame_sample_stage(ray_session):
    from webcollector_ray.functions.multimodal import FrameSampleStage

    media = synth_media_table(n=6, kind="video")
    out = (
        rd.from_arrow(media)
        .map_batches(
            FrameSampleStage,
            fn_constructor_kwargs=dict(fake=True, num_frames=8, every=4),
            batch_format="pyarrow",
            concurrency=2,
        )
        .to_pandas()
    )
    # 2 sampled frames (0, 4) per payload, deterministic pixels
    assert len(out) == 12
    assert sorted(out["frame"].unique()) == [0, 4]
    again = FrameSampleStage(fake=True, num_frames=8, every=4)(media)
    a = list(out.sort_values(["media_id", "frame"])["pixels"].iloc[0])
    b = list(again.to_pandas().sort_values(["media_id", "frame"])["pixels"].iloc[0])
    assert a == b
    # synth_media_table payloads are raw digests, not P6 streams — the
    # real decoder must refuse them with a format error
    with pytest.raises(ValueError, match="P6"):
        FrameSampleStage(fake=False)(media)


def test_approximate_seen_crawl_same_seen_set(ray_session):
    """approximate_seen pre-drops links via the sharded bloom; at small
    scale (fp ~ 0) the final URL-seen set must equal the exact path."""
    from webcollector_ray.config import CrawlerConfig
    from webcollector_ray.pipelines.crawler import RamCrawler
    from webcollector_ray.sources.pagestore import SynthPageStore
    from webcollector_ray.synth import SynthSpec

    spec = SynthSpec(num_sites=2)
    regex = r"http://site[0-9]+\.test/(list|show)-[0-9]+\.html"
    out = {}
    for name, approx in [("exact", False), ("bloom", True)]:
        cfg = CrawlerConfig(
            fetch_concurrency=2, merge_num_buckets=4,
            approximate_seen=approx, seen_shards=2,
        )
        c = RamCrawler(SynthPageStore(spec), config=cfg, deterministic_time=True)
        c.add_seed(spec.seeds())
        c.add_regex(regex)
        df = c.start(10).crawldb.to_pandas()
        out[name] = set(df["key"])
    assert out["exact"] == out["bloom"]


def test_hopping_window_membership(ray_session):
    import pyarrow as pa

    from webcollector_ray.functions.windows import hopping_window_agg

    # one event at t=1000s, window=3600 hop=900: windows [ws, ws+3600)
    # with ws in {-1800, -900, 0, 900} contain it (4 = window/hop)
    t = pa.table({
        "user_id": [1],
        "ts": pa.array([1000 * 1_000_000], pa.int64()).cast(pa.timestamp("us")),
        "value": [2.0],
    })
    out = hopping_window_agg(rd.from_arrow(t)).to_pandas()
    assert sorted(out["window_start"]) == [-1800, -900, 0, 900]
    assert (out["n_events"] == 1).all() and (out["sum_value"] == 2.0).all()


def test_asof_join_basic(ray_session):
    import pandas as pd
    import pyarrow as pa

    from webcollector_ray.functions.joins import asof_join

    left = pa.table({
        "k": [1, 1, 2, 3],
        "t": [10, 25, 10, 10],
        "lv": ["a", "b", "c", "d"],
    })
    right = pa.table({
        "k": [1, 1, 2],
        "rt": [5, 20, 50],
        "rv": [100, 200, 300],
    })
    out = (
        asof_join(
            rd.from_arrow(left), rd.from_arrow(right),
            by="k", left_on="t", right_on="rt", num_buckets=4,
        )
        .to_pandas()
        .sort_values(["k", "t"])
        .reset_index(drop=True)
    )
    # k=1 t=10 -> rt=5; k=1 t=25 -> rt=20; k=2 t=10 -> none (rt=50 later);
    # k=3 -> no right rows
    assert out["rv"].tolist()[0] == 100
    assert out["rv"].tolist()[1] == 200
    assert pd.isna(out["rv"].tolist()[2]) and pd.isna(out["rv"].tolist()[3])


def test_range_join_basic(ray_session):
    import pyarrow as pa

    from webcollector_ray.functions.joins import range_join

    left = pa.table({"k": [1, 1, 2], "t": [10, 100, 10], "lv": ["a", "b", "c"]})
    right = pa.table({"k": [1, 1, 2], "rt": [8, 95, 50], "rv": [1, 2, 3]})
    out = (
        range_join(
            rd.from_arrow(left), rd.from_arrow(right),
            by="k", left_on="t", right_on="rt",
            lower=0, upper=5, num_buckets=4,
        )
        .to_pandas()
        .sort_values(["k", "t", "rt"])
        .reset_index(drop=True)
    )
    # k=1: (10 in [8,13]) and (100 in [95,100]); k=2: 10 not in [50,55]
    assert [(r["t"], r["rv"]) for _, r in out.iterrows()] == [(10, 1), (100, 2)]


def test_top_n_per_group(ray_session):
    import pyarrow as pa

    from webcollector_ray.functions.ranking import top_n_per_group

    t = pa.table({
        "k": [1, 1, 1, 2, 2],
        "v": [5.0, 9.0, 9.0, 1.0, 2.0],
        "i": [10, 11, 12, 20, 21],
    })
    out = (
        top_n_per_group(
            rd.from_arrow(t), key_col="k", order_col="v", n=2, tie_col="i",
            num_buckets=4,
        )
        .to_pandas()
        .sort_values(["k", "rank"])
        .reset_index(drop=True)
    )
    # k=1: v=9 tie -> i asc (11 then 12); k=2: 2.0 then 1.0
    assert out["i"].tolist() == [11, 12, 21, 20]
    assert out["rank"].tolist() == [1, 2, 1, 2]


def test_audio_feature_stage(ray_session):
    from webcollector_ray.functions.multimodal import AudioFeatureStage

    media = synth_media_table(n=4, kind="audio")
    out = (
        rd.from_arrow(media)
        .map_batches(
            AudioFeatureStage,
            fn_constructor_kwargs=dict(fake=True),
            batch_format="pyarrow",
            concurrency=2,
        )
        .to_pandas()
        .sort_values("media_id")
    )
    assert len(out) == 4
    assert (out["duration_s"] > 0).all() and (out["rms"] > 0).all()
    # deterministic across calls
    again = AudioFeatureStage(fake=True)(media).to_pandas().sort_values("media_id")
    assert out["rms"].tolist() == again["rms"].tolist()
    # raw digest payloads are not RIFF/WAV — real decoder refuses them
    with pytest.raises(ValueError, match="WAV"):
        AudioFeatureStage(fake=False)(media)


def test_cluster_pairs_minlabel(ray_session):
    import pyarrow as pa

    from webcollector_ray.functions.dedup import cluster_pairs_minlabel

    # chain 1-2-3 (needs 2+ propagation rounds), pair {5,6}, chain 10..13
    pairs = pa.table({"id_a": [1, 2, 5, 10, 11, 12], "id_b": [2, 3, 6, 11, 12, 13]})
    out = (
        cluster_pairs_minlabel(rd.from_arrow(pairs), id_col="doc_id")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    got = dict(zip(out["doc_id"], out["cluster"]))
    assert got == {1: 1, 2: 1, 3: 1, 5: 5, 6: 5, 10: 10, 11: 10, 12: 10, 13: 10}


def test_cluster_minlabel_long_chain_log_rounds(ray_session):
    # a 200-node path graph: star contraction must converge in
    # O(log n) rounds, far under max_iters=12 (plain propagation
    # would need ~200 rounds)
    from webcollector_ray.functions.dedup import cluster_pairs_minlabel

    n = 200
    pairs = pa.table(
        {
            "id_a": pa.array(range(n - 1), pa.int64()),
            "id_b": pa.array(range(1, n), pa.int64()),
        }
    )
    out = cluster_pairs_minlabel(
        rd.from_arrow(pairs), id_col="doc_id", max_iters=12
    ).to_pandas()
    assert len(out) == n
    assert (out["cluster"] == 0).all()


def test_kmeans_fixed_partition_invariant(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from webcollector_ray.functions.similarity import kmeans_fixed

    rng = np.random.RandomState(5)
    X = rng.randn(300, 8).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(range(300), pa.int64()),
        "embedding": pa.array([r.tolist() for r in X],
                              pa.list_(pa.float32())),
    })
    a = kmeans_fixed(rd.from_arrow(t).repartition(2), k=4, iters=2)
    b = kmeans_fixed(rd.from_arrow(t).repartition(9), k=4, iters=2)
    # fixed-point centroid sums are order-free -> identical assignments
    assert a.equals(b)
    assert a["n_vecs"].sum() == 300
    assert set(a["cluster"]) == {1, 2, 3, 4}


def test_tfidf_top_terms(ray_session):
    from webcollector_ray.functions.textstats import tfidf_top_terms

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": ["a b a", "a c", "c c d"],
        }
    )
    out = (
        tfidf_top_terms(rd.from_arrow(docs), n_docs=3, top_k=2)
        .to_pandas()
        .sort_values(["doc_id", "rank"])
        .reset_index(drop=True)
    )
    # df: a=2 b=1 c=2 d=1; score = tf*3/df; ties break word-asc
    got = list(
        zip(out["doc_id"], out["rank"], out["word"], out["tf"],
            out["df"], out["score"])
    )
    assert got == [
        (1, 1, "a", 2, 2, 3.0),
        (1, 2, "b", 1, 1, 3.0),
        (2, 1, "a", 1, 2, 1.5),
        (2, 2, "c", 1, 2, 1.5),
        (3, 1, "c", 2, 2, 3.0),
        (3, 2, "d", 1, 1, 3.0),
    ]


def test_fuzzy_clean_corpus_composition(ray_session):
    # minhash pairs -> min-label clusters -> drop non-representatives:
    # docs 1,2,5 share a text (cluster rep 1), 3 and 4 are unique
    from webcollector_ray.functions.dedup import (
        cluster_pairs_minlabel,
        minhash_dedup_pairs,
    )
    from webcollector_ray.functions.joins import hash_join

    dup = "the quick brown fox jumps over the lazy dog again and again"
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": [
                dup,
                dup,
                "completely different words in this one here now",
                "yet another unrelated document body of text",
                dup,
            ],
        }
    )
    ds = rd.from_arrow(docs)
    pairs = minhash_dedup_pairs(ds, threshold=0.5)
    labels = cluster_pairs_minlabel(pairs, id_col="doc_id")

    def non_reps(batch: pa.Table) -> pa.Table:
        if "doc_id" not in batch.column_names:
            return pa.table({"doc_id": pa.nulls(0, pa.int64())})
        import pyarrow.compute as _pc

        return batch.filter(
            _pc.not_equal(batch["doc_id"], batch["cluster"])
        ).select(["doc_id"])

    dropped = labels.map_batches(non_reps, batch_format="pyarrow")
    kept = hash_join(
        ds.select_columns(["doc_id"]), dropped, on="doc_id", how="anti"
    )
    assert sorted(kept.to_pandas()["doc_id"]) == [1, 3, 4]


def test_repetition_stats_matches_bruteforce():
    import collections

    from webcollector_ray.functions.textstats import repetition_stats_batch

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": [
                "a b a b a b",          # heavy 2-gram repetition
                "x y z x y z x y z",    # repeated 3-grams
                "all distinct words here now",
                "",                      # no words
                "solo",                  # single word: no 2/3-grams
            ],
        }
    )
    out = repetition_stats_batch(docs).to_pandas()
    ref = []
    for i, txt in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        w = txt.lower().split()

        def dup(k, w=w):
            gs = (
                [tuple(w[j : j + k]) for j in range(len(w) - k + 1)]
                if len(w) >= k else []
            )
            return 1.0 - len(set(gs)) / len(gs) if gs else 0.0

        c = collections.Counter(w)
        ref.append(
            (i, len(w), dup(2), dup(3),
             max(c.values()) / len(w) if w else 0.0)
        )
    import pandas as pd

    rdf = pd.DataFrame(ref, columns=list(out.columns))
    assert out.reset_index(drop=True).equals(rdf)


def test_write_partitioned_parquet_resume(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    from webcollector_ray.functions.output import write_partitioned_parquet

    t = pa.table(
        {
            "k": pa.array(list(range(200)), pa.int64()),
            "v": pa.array([f"v{i}" for i in range(200)]),
        }
    )
    root = str(tmp_path / "out")
    m1 = write_partitioned_parquet(
        rd.from_arrow(t), root, key_col="k", num_partitions=8
    )
    assert sum(m1.values()) == 200 and len(m1) == 8

    # simulate a partial failure: partition 3 lost its marker
    os.remove(os.path.join(root, "part=3", "_SUCCESS"))
    before = {
        p: os.path.getmtime(os.path.join(root, f"part={p}", "data.parquet"))
        for p in range(8) if p != 3
    }
    m2 = write_partitioned_parquet(
        rd.from_arrow(t), root, key_col="k", num_partitions=8
    )
    # only the incomplete partition is rewritten
    assert list(m2.keys()) == [3]
    after = {
        p: os.path.getmtime(os.path.join(root, f"part={p}", "data.parquet"))
        for p in range(8) if p != 3
    }
    assert before == after

    # full dataset reads back exactly, partition = f(key) deterministic
    got = pa.concat_tables(
        pq.read_table(os.path.join(root, f"part={p}", "data.parquet"))
        for p in range(8)
    )
    assert got.sort_by("k").equals(t)
    assert sum(m2.values()) == m1[3]


def test_pii_scrub_batch():
    from webcollector_ray.functions.pii import pii_scrub_batch

    t = pa.table({
        "doc_id": [1, 2, 3, 4, 5, 6],
        "text": [
            "mail me at a.b-c%d@mail.example.org thanks",
            "server 192.168.1.254 then call +1 (555) 123-4567",
            "nothing here",
            "two mails x@y.io and z@w.co plus 10.0.0.1",
            # prefix-less US forms must redact too (ADVICE r2)
            "fax 555-123-4567 today",
            "dial (555) 123-4567 now",
        ],
    })
    out = pii_scrub_batch(t)
    assert out["n_emails"].to_pylist() == [1, 0, 0, 2, 0, 0]
    assert out["n_ips"].to_pylist() == [0, 1, 0, 1, 0, 0]
    assert out["n_phones"].to_pylist() == [0, 1, 0, 0, 1, 1]
    assert out["text"].to_pylist() == [
        "mail me at <EMAIL> thanks",
        "server <IP> then call <PHONE>",
        "nothing here",
        "two mails <EMAIL> and <EMAIL> plus <IP>",
        "fax <PHONE> today",
        "dial <PHONE> now",
    ]


def test_decontamination(ray_session):
    from webcollector_ray.functions.decontam import (
        build_eval_gram_set,
        contamination_flags,
    )

    base = "w%d " * 20
    eval_text = " ".join(f"w{i}" for i in range(20))
    near_dup = " ".join(f"w{i}" for i in range(20)) + " extra tail words here"
    clean = " ".join(f"v{i}" for i in range(20))
    short_eval = "tiny doc"          # < k words -> whole-doc gram
    short_dup = "tiny doc"
    ev = rd.from_arrow(pa.table({
        "doc_id": [0, 1], "text": [eval_text, short_eval],
    }))
    train = rd.from_arrow(pa.table({
        "doc_id": [10, 11, 12], "text": [near_dup, clean, short_dup],
    }))
    ref = build_eval_gram_set(ev, k=8)
    flags = contamination_flags(train, ref, k=8).to_pandas()
    flags = flags.set_index("doc_id")["n_hits"]
    # near_dup shares the 13 distinct 8-grams of eval_text's 20 words
    assert flags[10] == 13
    assert flags[11] == 0
    assert flags[12] == 1  # short-doc whole-gram match


def test_unigram_lm_score(ray_session):
    import math

    from webcollector_ray.functions.lm import (
        train_unigram_lm,
        unigram_lm_score,
    )

    train = rd.from_arrow(pa.table({
        "doc_id": [0, 1],
        "text": ["a a a b", "b c"],
    }))
    # top_v=2 -> model keeps {a:3, b:2}; c is trained out (OOV path)
    model_ref, total = train_unigram_lm(train, top_v=2)
    assert total == 6
    score = rd.from_arrow(pa.table({
        "doc_id": [10, 11, 12],
        "text": ["a b", "zz", "   "],
    }))
    out = unigram_lm_score(score, model_ref).to_pandas()
    out = out.set_index("doc_id")
    denom = 6 + 2 + 1
    exp_ab = round((math.log(4 / denom) + math.log(3 / denom)) / 2, 6)
    assert out.loc[10, "lm_score"] == exp_ab
    assert out.loc[11, "lm_score"] == round(math.log(1 / denom), 6)  # OOV
    assert out.loc[12, "lm_score"] == 0.0 and out.loc[12, "n_tokens"] == 0


def test_mix_rebalance(ray_session):
    from webcollector_ray.functions.sketches import mix_rebalance

    t = pa.table({
        "doc_id": list(range(20)),
        "source": ["down"] * 5 + ["keep"] * 5 + ["up"] * 5 + ["two"] * 5,
    })
    w = {"down": 0.0, "keep": 1.0, "up": 1.5, "two": 2.0}
    out = mix_rebalance(
        rd.from_arrow(t), w, id_col="doc_id", strata_col="source"
    ).to_pandas()
    per = out.groupby("doc_id")["copy"].agg(["count", "max"])
    # down -> dropped entirely, keep -> exactly one copy
    assert not set(range(5)) & set(per.index)
    assert all(per.loc[i, "count"] == 1 for i in range(5, 10))
    # up -> 1 or 2 copies by the id-hash gate, deterministic
    for i in range(10, 15):
        exp = 1 + (1 if (i * 2654435761) % 1000 < 500 else 0)
        assert per.loc[i, "count"] == exp
    # two -> exactly two copies, copy indices 0..1
    assert all(per.loc[i, "count"] == 2 for i in range(15, 20))
    assert all(per.loc[i, "max"] == 1 for i in range(15, 20))
    # unknown source falls back to default_weight=1.0
    out2 = mix_rebalance(
        rd.from_arrow(pa.table({"doc_id": [99], "source": ["other"]})),
        w, id_col="doc_id", strata_col="source",
    ).to_pandas()
    assert len(out2) == 1 and out2["copy"].iloc[0] == 0


def test_chunk_documents_batch():
    import hashlib

    from webcollector_ray.functions.textstats import chunk_documents_batch

    t = pa.table({
        "doc_id": [1, 2, 3],
        "text": ["w0 w1 w2 w3 w4", "  a   b  ", ""],
    })
    out = chunk_documents_batch(t, chunk_tokens=2)
    assert out["doc_id"].to_pylist() == [1, 1, 1, 2]
    assert out["chunk_id"].to_pylist() == [0, 1, 2, 0]
    assert out["n_tokens"].to_pylist() == [2, 2, 1, 2]  # ragged tail
    assert out["chunk_fp"].to_pylist()[0] == hashlib.md5(b"w0 w1").hexdigest()
    # whitespace runs collapse in the fingerprint
    assert out["chunk_fp"].to_pylist()[3] == hashlib.md5(b"a b").hexdigest()


def test_packed_sequences_prefix_scan(ray_session):
    from webcollector_ray.functions.packing import packed_sequences

    # three blocks fed out of order — the scan must reorder by first
    # key (disjoint ranges) before computing block offsets
    import ray as _ray
    import ray.data as _rd

    t1 = pa.table({"doc_id": [1, 1, 2], "chunk_id": [0, 1, 0],
                   "n_tokens": [32, 10, 32]})
    t2 = pa.table({"doc_id": [3, 4], "chunk_id": [0, 0],
                   "n_tokens": [32, 20]})
    t3 = pa.table({"doc_id": [5], "chunk_id": [0], "n_tokens": [7]})
    ds = _rd.from_arrow_refs(
        [_ray.put(t3), _ray.put(t1), _ray.put(t2)]  # scrambled
    )
    out = packed_sequences(ds, seq_tokens=64).to_pandas()
    out = out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    # offsets: 0, 32, 42, 74, 106, 126 over seq_tokens=64
    assert out["seq_id"].tolist() == [0, 0, 0, 1, 1, 1]
    assert out["seq_pos"].tolist() == [0, 32, 42, 10, 42, 62]


def test_pagerank_fixed(ray_session):
    from webcollector_ray.functions.graph import SCALE, pagerank_fixed

    # star + chain: a->b, a->c, b->a, c->a
    edges = pa.table({
        "src": ["a", "a", "b", "c"],
        "dst": ["b", "c", "a", "a"],
    })
    out = pagerank_fixed(
        rd.from_arrow(edges), iters=2, src_col="src", dst_col="dst",
        num_buckets=4,
    ).to_pandas().set_index("url")["pr_fp"]
    # reference integer model
    r = {v: SCALE // 3 for v in "abc"}
    base = (15 * (SCALE // 3)) // 100
    deg = {"a": 2, "b": 1, "c": 1}
    for _ in range(2):
        s = {"a": 0, "b": 0, "c": 0}
        for src, dst in zip(edges["src"].to_pylist(), edges["dst"].to_pylist()):
            s[dst] += r[src] // deg[src]
        r = {v: base + (85 * s[v]) // 100 for v in r}
    assert dict(out) == r
    # 'a' receives from both leaves -> highest rank
    assert out["a"] > out["b"] == out["c"]


def test_hits_fixed(ray_session):
    from webcollector_ray.functions.graph import HITS_SCALE, hits_fixed

    # a is the authority (b, c, d all cite it); a is also a hub (-> b, c)
    edges = pa.table({
        "src": ["a", "a", "b", "c", "d"],
        "dst": ["b", "c", "a", "a", "a"],
    })
    out = hits_fixed(
        rd.from_arrow(edges), iters=2, src_col="src", dst_col="dst",
        num_buckets=4,
    ).to_pandas().set_index("url")
    # reference integer model: L1-normalized fixed-point half-steps
    nodes = ["a", "b", "c", "d"]
    E = list(zip(edges["src"].to_pylist(), edges["dst"].to_pylist()))
    h = {v: HITS_SCALE // len(nodes) for v in nodes}
    a = None
    for _ in range(2):
        raw = {v: 0 for v in nodes}
        for s_, d_ in E:
            raw[d_] += h[s_]
        tot = sum(raw.values())
        a = {v: raw[v] * HITS_SCALE // tot for v in nodes}
        raw = {v: 0 for v in nodes}
        for s_, d_ in E:
            raw[s_] += a[d_]
        tot = sum(raw.values())
        h = {v: raw[v] * HITS_SCALE // tot for v in nodes}
    assert dict(out["hub_fp"]) == h
    assert dict(out["auth_fp"]) == a
    # structure: a dominates authority; d (pure hub, never cited) has 0
    assert out["auth_fp"]["a"] > out["auth_fp"]["b"]
    assert out["auth_fp"]["d"] == 0


def test_packed_sequences_rejects_overlapping_blocks(ray_session):
    import ray as _ray
    import ray.data as _rd

    import pytest as _pytest

    from webcollector_ray.functions.packing import packed_sequences

    t1 = pa.table({"doc_id": [1, 5], "chunk_id": [0, 0], "n_tokens": [3, 3]})
    t2 = pa.table({"doc_id": [3], "chunk_id": [0], "n_tokens": [3]})
    ds = _rd.from_arrow_refs([_ray.put(t1), _ray.put(t2)])  # ranges overlap
    with _pytest.raises(ValueError, match="overlap"):
        packed_sequences(ds, seq_tokens=8)


def test_random_projection_batch():
    import hashlib
    import math

    from webcollector_ray.functions.similarity import random_projection_batch

    v = [float(i) for i in range(8)]
    t = pa.table({"vec_id": [7], "embedding": [v]})
    out = random_projection_batch(t, out_dim=4)
    assert out.column_names == ["vec_id", "p0", "p1", "p2", "p3"]
    # re-derive p2 by hand from the md5 sign definition
    s = [
        1.0 if int(hashlib.md5(f"rp-{i}-2".encode()).hexdigest()[0], 16) % 2 == 0
        else -1.0
        for i in range(8)
    ]
    exp = round(sum(x * y for x, y in zip(v, s)) / math.sqrt(4), 6)
    assert out["p2"][0].as_py() == exp
    # empty batch keeps the schema
    empty = random_projection_batch(t.slice(0, 0), out_dim=4)
    assert empty.column_names == out.column_names and len(empty) == 0


def test_retention_cohorts(ray_session):
    import datetime as dt

    from webcollector_ray.functions.windows import retention_cohorts

    def t(day, hour=0):
        return dt.datetime(2024, 1, day, hour)

    # u1 first seen d1, active d1+d2 (twice on d2 -> counted once);
    # u2 first seen d1, active d1 only; u3 first seen d2, active d2+d3
    ev = pa.table({
        "user_id": [1, 1, 1, 2, 3, 3],
        "ts": [t(1), t(2), t(2, 5), t(1), t(2), t(3)],
    })
    out = retention_cohorts(rd.from_arrow(ev), num_buckets=4).to_pandas()
    got = {
        (r.cohort_day, r.day): r.n_users for r in out.itertuples()
    }
    assert got == {
        ("2024-01-01", "2024-01-01"): 2,
        ("2024-01-01", "2024-01-02"): 1,
        ("2024-01-02", "2024-01-02"): 1,
        ("2024-01-02", "2024-01-03"): 1,
    }


def test_packed_sequences_empty_input_keeps_schema(ray_session):
    """Empty corpus must still yield the declared output schema
    (seq_id/seq_pos present) so downstream select_columns works."""
    from webcollector_ray.functions.packing import packed_sequences

    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "chunk_id": pa.array([], pa.int64()),
        "n_tokens": pa.array([], pa.int64()),
    }))
    out = packed_sequences(empty, seq_tokens=8)
    sel = out.select_columns(["doc_id", "chunk_id", "seq_id", "seq_pos"])
    assert sel.count() == 0
    assert {"seq_id", "seq_pos"} <= set(out.schema().names)


def test_mix_rebalance_uint64_wrap_matches_oracle_math(ray_session):
    """ids >= 2^32 must hash with uint64 wrap semantics on both sides
    (signed int64 silently wrapped differently; DuckDB BIGINT raised)."""
    import duckdb

    from webcollector_ray.functions.sketches import mix_rebalance

    big = [1, 2**33 + 5, 2**62 + 12345, 2**63 - 1]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(big, pa.int64()),
        "source": pa.array(["s"] * len(big)),
    }))
    out = mix_rebalance(ds, {"s": 0.5}).to_pandas()
    got = set(out["doc_id"])
    rows = duckdb.sql(
        "SELECT x FROM (SELECT unnest($ids) AS x) "
        "WHERE (CAST(x AS HUGEINT) * 2654435761) "
        "% 18446744073709551616 % 1000 < 500",
        params={"ids": big},
    ).fetchall()
    assert got == {r[0] for r in rows}


def test_token_budget_head(ray_session):
    from webcollector_ray.functions.packing import token_budget_head

    t = pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "n_tokens": pa.array([10, 20, 30, 5, 40, 1], pa.int64()),
    })
    # multi-block input (2 rows per block) exercises the cross-block scan
    ds = rd.from_arrow([t.slice(0, 2), t.slice(2, 2), t.slice(4, 2)])
    out = token_budget_head(ds, budget=65).to_pandas().sort_values("doc_id")
    # cumsum: 10,30,60,65,105,106 -> keep docs 0..3 (65 is INCLUSIVE)
    assert out["doc_id"].tolist() == [0, 1, 2, 3]
    assert out["cum_tokens"].tolist() == [10, 30, 60, 65]
    assert token_budget_head(ds, budget=9).to_pandas().empty
    assert len(token_budget_head(ds, budget=10**9).to_pandas()) == 6


def test_window_distinct_keys_matches_pandas(ray_session):
    import pandas as pd

    from webcollector_ray.functions.windows import window_distinct_keys

    rng = np.random.RandomState(5)
    n = 2000
    ts = pd.to_datetime(rng.randint(0, 6 * 3600, n), unit="s")
    users = rng.randint(0, 40, n).astype(np.int64)
    t = pa.table({
        "user_id": pa.array(users),
        "ts": pa.array(ts).cast(pa.timestamp("us")),  # parquet tables are us
    })
    got = (
        window_distinct_keys(rd.from_arrow(t), window_sec=3600)
        .to_pandas().sort_values("window_start").reset_index(drop=True)
    )
    ref = (
        pd.DataFrame({"u": users, "w": (ts.astype("int64") // (3600 * 10**9)) * 3600})
        .groupby("w")["u"].nunique().reset_index()
    )
    assert got["window_start"].tolist() == ref["w"].tolist()
    assert got["n_distinct"].tolist() == ref["u"].tolist()


def test_cosine_pairs_blocked_empty(ray_session):
    from webcollector_ray.functions.similarity import cosine_pairs_blocked

    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    }))
    out = cosine_pairs_blocked(empty, threshold=0.5).to_pandas()
    assert len(out) == 0


def test_dup_span_stats(ray_session):
    from webcollector_ray.functions.dedup import dup_span_stats

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": [
            "a b c d e f g",        # shares "a b c d e" with doc 2
            "x a b c d e y",
            "unique words only in this one document",
            "tiny",                  # < k tokens -> 0 grams
            "r r r r r r r r",       # in-doc repeats, no cross-doc dup
        ],
    })
    out = (
        dup_span_stats(rd.from_arrow(docs), k=5)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["n_grams"].tolist() == [3, 3, 3, 0, 4]
    # only the cross-doc shared gram counts; in-doc repetition doesn't
    assert out["n_dup_grams"].tolist() == [1, 1, 0, 0, 0]
    assert out.loc[0, "dup_frac"] == round(1 / 3, 6)
    assert out.loc[4, "dup_frac"] == 0.0
    # a duplicated doc: every gram becomes dup for both copies
    docs2 = pa.table({
        "doc_id": pa.array([10, 11], pa.int64()),
        "text": ["p q r s t u v w"] * 2,
    })
    out2 = dup_span_stats(rd.from_arrow(docs2), k=5).to_pandas()
    assert out2["dup_frac"].tolist() == [1.0, 1.0]


def test_ngram_containment_vs_jaccard():
    from webcollector_ray.functions.dedup import ngram_containment

    long = BASE_TEXT + " with plenty of extra narrative sentences appended " \
        "so the union of grams grows much larger than the short side"
    short = BASE_TEXT
    # short is contained whole in long: containment 1.0, jaccard well below
    assert ngram_containment(short, long) == 1.0
    assert ngram_jaccard(short, long) < 0.8
    assert ngram_containment("a b c d", "x y z w") == 0.0


def test_verify_pairs_containment_metric(ray_session):
    from webcollector_ray.functions.dedup import verify_pairs_exact_jaccard

    long = BASE_TEXT + " with plenty of extra narrative sentences appended " \
        "so the union of grams grows much larger than the short side"
    docs = [(0, BASE_TEXT), (1, long), (2, "other words " * 10)]
    ds = _docs(docs)
    # candidate pairs fed directly — this test pins the verify kernel's
    # containment metric, not LSH recall (a ~0.54-jaccard pair is below
    # the band-collision knee at the default (16 bands, 4 rows))
    pairs = rd.from_arrow(pa.table({
        "id_a": pa.array([0, 0], pa.int64()),
        "id_b": pa.array([1, 2], pa.int64()),
    }))
    cont = verify_pairs_exact_jaccard(
        pairs, ds, threshold=0.95, metric="containment"
    ).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(cont["id_a"], cont["id_b"])}
    assert (0, 1) in got
    assert "containment" in cont.columns
    # the same pair fails a 0.95 JACCARD bar — the asymmetry is the point
    jac = verify_pairs_exact_jaccard(pairs, ds, threshold=0.95).to_pandas()
    gj = (set() if jac.empty else
          {(int(a), int(b)) for a, b in zip(jac["id_a"], jac["id_b"])})
    assert (0, 1) not in gj


def test_delta_new_incremental_dedup(ray_session):
    from webcollector_ray.functions.dedup import delta_new

    corpus = _docs([(1, "old text one"), (2, "old text two")])
    new = _docs([
        (10, "old text one"),    # already in corpus -> dropped
        (11, "fresh text a"),    # genuinely new -> kept
        (12, "fresh text b"),    # new -> kept
        (13, "fresh text a"),    # dup WITHIN the delta -> first wins
    ])
    out = delta_new(new, corpus, num_buckets=2).to_pandas()
    assert sorted(out["doc_id"].tolist()) == [11, 12]


def test_length_histogram(ray_session):
    from webcollector_ray.functions.textstats import (
        length_bucket_batch, length_histogram)

    t = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                  "text": pa.array(["", "one", "a b c d",
                                    " ".join(["w"] * 1024)], pa.string())})
    b = length_bucket_batch(t)
    assert b["len_bucket"].to_pylist() == [-1, 0, 2, 10]
    out = length_histogram(rd.from_arrow(t)).to_pandas()
    out = out.sort_values("len_bucket").reset_index(drop=True)
    assert out["len_bucket"].tolist() == [-1, 0, 2, 10]
    assert out["n_docs"].tolist() == [1, 1, 1, 1]
    assert out["sum_tokens"].tolist() == [0, 1, 4, 1024]


def test_remove_dup_spans(ray_session):
    from webcollector_ray.functions.dedup import remove_dup_spans

    docs = _docs([
        (1, "a b c d e f g h i j"),   # blocks "a b c d e", "f g h i j"
        (2, "a b c d e x y z"),       # loses its first block to doc 1
        (3, "a b c d e f g h i j"),   # full duplicate -> drops out
        (4, "unique little document"),
    ])
    out = remove_dup_spans(docs, k=5).to_pandas()
    got = dict(zip(out["doc_id"], out["text"]))
    assert got == {
        1: "a b c d e f g h i j",
        2: "x y z",
        4: "unique little document",
    }
    # whitespace-only and empty docs are skipped, not crashed on
    edge = _docs([(7, "   "), (8, ""), (9, "one two")])
    out2 = remove_dup_spans(edge, k=5).to_pandas()
    assert dict(zip(out2["doc_id"], out2["text"])) == {9: "one two"}


def test_hash_split(ray_session):
    import hashlib as _hl

    from webcollector_ray.functions.sketches import hash_split

    ids = list(range(2000))
    t = pa.table({"doc_id": pa.array(ids, pa.int64())})
    out = hash_split(rd.from_arrow(t)).to_pandas()
    assert len(out) == len(ids)
    got = dict(zip(out["doc_id"], out["split"]))
    # exact per-id recomputation: md5-64("split:<id>") % 100 onto
    # cumulative ranges [0,98) [98,99) [99,100)
    for i in (0, 1, 17, 999, 1998):
        b = int.from_bytes(
            _hl.md5(f"split:{i}".encode()).digest()[:8], "big") % 100
        want = "train" if b < 98 else ("val" if b < 99 else "test")
        assert got[i] == want
    counts = out["split"].value_counts()
    assert counts["train"] > 1900 and counts.get("val", 0) > 0
    # deterministic across runs
    out2 = hash_split(rd.from_arrow(t)).to_pandas()
    assert dict(zip(out2["doc_id"], out2["split"])) == got


def test_winnowing_fingerprints():
    import hashlib as _hl

    from webcollector_ray.functions.textstats import (
        winnowing_fingerprints_batch,
    )

    def h64(words):
        return int.from_bytes(
            _hl.md5(" ".join(words).encode()).digest()[:8], "big"
        )

    words = [f"w{i}" for i in range(14)]  # 7 rolling 8-gram hashes
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": [" ".join(words), "tiny doc", ""],
    })
    out = winnowing_fingerprints_batch(t)
    # reference winnowing: windows of 4 over the 7 hashes, rightmost min
    hs = [h64(words[i:i + 8]) for i in range(7)]
    want = set()
    for tail in range(3, 7):
        mn = min(hs[tail - 3:tail + 1])
        want.add(f"{mn:016x}")
    got1 = {
        fp for d, fp in zip(out["doc_id"].to_pylist(),
                            out["fp"].to_pylist()) if d == 1
    }
    assert got1 == want
    # short doc: one window over its single hash
    got2 = [
        fp for d, fp in zip(out["doc_id"].to_pylist(),
                            out["fp"].to_pylist()) if d == 2
    ]
    assert got2 == [f"{h64(['tiny', 'doc']):016x}"]
    # empty doc contributes nothing
    assert 3 not in out["doc_id"].to_pylist()
    # guarantee property: two docs sharing an 11-word run (k+w-1)
    # share at least one selected fingerprint
    shared = [f"s{i}" for i in range(11)]
    t2 = pa.table({
        "doc_id": pa.array([10, 11], pa.int64()),
        "text": [
            " ".join(["pre1 pre2"] + shared),
            " ".join(shared + ["post1 post2"]),
        ],
    })
    o2 = winnowing_fingerprints_batch(t2)
    s10 = {fp for d, fp in zip(o2["doc_id"].to_pylist(),
                               o2["fp"].to_pylist()) if d == 10}
    s11 = {fp for d, fp in zip(o2["doc_id"].to_pylist(),
                               o2["fp"].to_pylist()) if d == 11}
    assert s10 & s11


def test_event_transitions(ray_session):
    import datetime as _dt

    from webcollector_ray.functions.windows import event_transitions

    def ts(m):
        return _dt.datetime(2024, 1, 1, 0, m)

    rows = [  # (event_id, user, type, ts)
        (1, 1, "a", ts(0)), (2, 1, "b", ts(1)), (3, 1, "a", ts(2)),
        (4, 2, "a", ts(0)), (5, 2, "b", ts(1)),
        # user 3: equal timestamps -> event_id breaks the tie (c then d)
        (6, 3, "c", ts(0)), (7, 3, "d", ts(0)),
        (8, 4, "solo", ts(0)),  # single event -> no transition
    ]
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": [r[2] for r in rows],
        "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
    })
    out = event_transitions(rd.from_arrow(t)).to_pandas()
    got = {
        (r.prev_type, r.next_type): r.n for r in out.itertuples()
    }
    assert got == {("a", "b"): 2, ("b", "a"): 1, ("c", "d"): 1}


def test_funnel_stages(ray_session):
    import datetime as _dt

    from webcollector_ray.functions.windows import funnel_stages

    def ts(m):
        return _dt.datetime(2024, 1, 1, 0, m)

    rows = [
        # user 1 completes the whole ordered funnel
        (1, "view", ts(0)), (1, "click", ts(1)), (1, "purchase", ts(2)),
        # user 2: purchase BEFORE the view->click chain -> stage 2
        (2, "purchase", ts(0)), (2, "view", ts(1)), (2, "click", ts(2)),
        # user 3: click before view -> only stage 1 (the view)
        (3, "click", ts(0)), (3, "view", ts(1)),
        # user 4: unrelated events only -> stage 0
        (4, "error", ts(0)),
        # user 5: strictness — click at the SAME ts as view doesn't count
        (5, "view", ts(0)), (5, "click", ts(0)),
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": [r[1] for r in rows],
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
    })
    out = funnel_stages(
        rd.from_arrow(t), ["view", "click", "purchase"]
    ).to_pandas()
    got = dict(zip(out["user_id"], out["stage"]))
    assert got == {1: 3, 2: 2, 3: 1, 4: 0, 5: 1}


def test_fuzzy_decontaminate(ray_session):
    from webcollector_ray.functions.decontam import fuzzy_decontaminate

    base = ("the quick brown fox jumps over the lazy dog while rain "
            "falls on the quiet grey town every single evening")
    near = base.replace("grey", "gray")  # near-dup of the eval doc
    train = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": [near, "totally unrelated words about ray data engines "
                 "and arrow batches flowing through object stores",
                 "another separate document mentioning nothing shared"],
    })
    ev = pa.table({
        "doc_id": pa.array([100], pa.int64()),
        "text": [base],
    })
    out = fuzzy_decontaminate(
        rd.from_arrow(train), rd.from_arrow(ev), threshold=0.5
    ).to_pandas()
    assert sorted(out["doc_id"].tolist()) == [2, 3]
    # empty eval set -> everything survives
    ev0 = rd.from_arrow(ev).filter(lambda r: False)
    out0 = fuzzy_decontaminate(
        rd.from_arrow(train), ev0, threshold=0.5
    ).to_pandas()
    assert sorted(out0["doc_id"].tolist()) == [1, 2, 3]


def test_source_ngram_overlap(ray_session):
    from webcollector_ray.functions.dedup import source_ngram_overlap

    t = pa.table({
        "source": ["s1", "s1", "s2", "s3", "s3"],
        "text": [
            "a b c d",        # s1 grams: abc bcd
            "x y z",          # s1 grams: xyz
            "B C D e",        # s2 grams: bcd(!case) cde
            "a b c",          # s3 grams: abc
            "hi",             # <3 tokens -> contributes nothing
        ],
    })
    out = source_ngram_overlap(rd.from_arrow(t), k=3).to_pandas()
    got = {
        (r.source_a, r.source_b): r.n_shared for r in out.itertuples()
    }
    # s1&s2 share "b c d" (case-folded), s1&s3 share "a b c"
    assert got == {("s1", "s2"): 1, ("s1", "s3"): 1}


def test_lang_length_band(ray_session):
    from webcollector_ray.functions.textstats import lang_length_band

    # lang "a": lengths 1..10 one doc each; p5 rank=ceil(0.05*10)=1 ->
    # lo=1, p95 rank=ceil(9.5)=10 -> hi=10: everything kept.
    # With lo_pct=20, hi_pct=80: ranks 2 and 8 -> band [2, 8].
    rows = [(i, "a", " ".join(["w"] * i)) for i in range(1, 11)]
    rows += [(100, "b", "x"), (101, "b", "x y z")]  # lang b: n=2
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "lang": [r[1] for r in rows],
        "text": [r[2] for r in rows],
    })
    out = lang_length_band(
        rd.from_arrow(t), lo_pct=20, hi_pct=80
    ).to_pandas()
    a = out[out["lang"] == "a"]["n_tokens"].tolist()
    assert sorted(a) == [2, 3, 4, 5, 6, 7, 8]
    # lang b: ranks ceil(0.4)=1 -> lo=1, ceil(1.6)=2 -> hi=3: both kept
    assert sorted(out[out["lang"] == "b"]["doc_id"]) == [100, 101]
    # n_tokens column rides along
    assert set(out.columns) == {"doc_id", "lang", "n_tokens"}


def test_source_quality_gate(ray_session):
    from webcollector_ray.functions.textstats import source_quality_gate

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "source": ["good", "good", "bad", "bad", "good"],
        "text": [
            "one two three four five six",   # 6 tokens
            "one two three four",            # 4 tokens
            "x",                             # 1 token
            "x y",                           # 2
            "one two three four five",       # 5 -> good mean = 5.0
        ],
    })
    out = source_quality_gate(
        rd.from_arrow(t), min_avg_tokens=4.0
    ).to_pandas()
    assert sorted(out["doc_id"].tolist()) == [1, 2, 5]
    assert set(out["source"]) == {"good"}
    # threshold above every source's mean -> empty, schema intact
    # (Dataset.schema(), not to_pandas() — Ray drops columns when every
    # block filtered to zero rows)
    ds2 = source_quality_gate(rd.from_arrow(t), min_avg_tokens=100.0)
    assert ds2.schema().names == ["doc_id", "source"]
    assert ds2.count() == 0


def test_bm25_scores(ray_session):
    from webcollector_ray.functions.textstats import bm25_scores

    t = pa.table({
        "doc_id": [1, 2, 3],
        "text": ["cat dog cat", "dog dog dog fish", ""],
    })
    out = (
        bm25_scores(rd.from_arrow(t), query_terms=("cat", "fish"))
        .to_pandas().set_index("doc_id").sort_index()
    )
    assert out["n_tokens"].tolist() == [3, 4, 0]
    # hand model: N=3, toks=7, avgdl=7/3; df(cat)=1, df(fish)=1
    avgdl = 7.0 / 3.0
    idf = ((3 - 1) + 0.5) / (1 + 0.5)
    k1, b = 1.2, 0.75

    def term(tf, dl):
        return idf * (tf * (k1 + 1.0)) / (
            tf + (k1 * ((1.0 - b) + b * (dl / avgdl)))
        )

    assert out.loc[1, "score"] == term(2.0, 3.0) + term(0.0, 3.0)
    assert out.loc[2, "score"] == term(0.0, 4.0) + term(1.0, 4.0)
    assert out.loc[3, "score"] == 0.0


def test_pmi_bigrams(ray_session):
    from webcollector_ray.functions.textstats import pmi_bigrams

    # "a b" x6 in one doc, "a c" x5 across docs, "c c" x4 (below min)
    docs = ["a b " * 6, "a c " * 5 + "x", "c c " * 4 + "y"]
    t = pa.table({"doc_id": [1, 2, 3], "text": docs})
    out = (
        pmi_bigrams(rd.from_arrow(t), min_count=5, top_n=10)
        .to_pandas().set_index("bigram")
    )
    # bigrams in doc1: a b (x6), b a (x5); doc2: a c(5), c a(4), c x(1);
    # doc3: c c(7), c y(1)  -> total T = 29
    assert "c c" in out.index and out.loc["c c", "c"] == 7
    assert out.loc["a b", "c"] == 6 and out.loc["b a", "c"] == 5
    assert "c a" not in out.index  # below min_count
    T = 29.0  # 11 + 10 + 8 bigram occurrences across the three docs
    row = out.loc["a b"]
    assert row["score"] == (6.0 * T) / (float(row["c1"]) * float(row["c2"]))


def test_mg_top_words_eviction(ray_session):
    from webcollector_ray.functions.sketches import mg_top_words

    # 10 distinct words, capacity 4: eviction must fire, the heavy
    # hitter must survive, and undercount is bounded by T/(cap+1)
    words = ["hot"] * 60 + [f"w{i}" for i in range(9) for _ in range(3)]
    text = " ".join(words)
    t = pa.table({"doc_id": [1], "text": [text]})
    out = (
        mg_top_words(rd.from_arrow(t), n=5, capacity=4)
        .to_pandas().set_index("word")["n"]
    )
    assert len(out) <= 4
    assert "hot" in out.index
    total = len(words)
    assert 0 < out["hot"] <= 60
    assert 60 - out["hot"] <= total / (4 + 1)


def test_mg_top_words_exact_when_small(ray_session):
    from webcollector_ray.functions.sketches import mg_top_words

    t = pa.table({
        "doc_id": [1, 2],
        "text": ["a a a b b c", "b c c d"],
    })
    out = (
        mg_top_words(rd.from_arrow(t), n=3, capacity=100)
        .to_pandas()
    )
    assert list(map(tuple, out.to_records(index=False))) == [
        ("a", 3), ("b", 3), ("c", 3),
    ]


def test_degree_histogram(ray_session):
    from webcollector_ray.functions.graph import degree_histogram

    # a->b, a->c, b->a, b->a (multi-edge), d is a pure sink via c->d
    edges = pa.table({
        "src": ["a", "a", "b", "b", "c"],
        "dst": ["b", "c", "a", "a", "d"],
    })
    out = (
        degree_histogram(rd.from_arrow(edges), num_buckets=4)
        .to_pandas()
    )
    got = {
        (k, d): n
        for k, d, n in zip(out["kind"], out["degree"], out["n_nodes"])
    }
    # out-degrees: a=2, b=2, c=1, d=0
    assert got[("out", 0)] == 1 and got[("out", 1)] == 1
    assert got[("out", 2)] == 2
    # in-degrees: a=2 (multi-edge counts), b=1, c=1, d=1
    assert got[("in", 2)] == 1 and got[("in", 1)] == 3
    assert ("in", 0) not in got


def test_length_percentile(ray_session):
    from webcollector_ray.functions.textstats import length_percentile

    t = pa.table({
        "doc_id": [1, 2, 3, 4, 5],
        "text": ["a", "a b", "a b", "a b c", ""],
    })
    out = (
        length_percentile(rd.from_arrow(t))
        .to_pandas().set_index("doc_id").sort_index()
    )
    assert out["n_tokens"].tolist() == [1, 2, 2, 3, 0]
    assert out["n_below"].tolist() == [1, 2, 2, 4, 0]
    assert out.loc[4, "pct"] == 4.0 / 5.0


def test_component_size_census(ray_session):
    from webcollector_ray.functions.graph import component_size_census

    # components: {a,b,c} (triangle-ish), {d,e}, {f,g} -> sizes 3,2,2
    edges = pa.table({
        "src": ["a", "b", "d", "f"],
        "dst": ["b", "c", "e", "g"],
    })
    out = (
        component_size_census(rd.from_arrow(edges), num_buckets=4)
        .to_pandas()
    )
    got = dict(zip(out["size"], out["n_components"]))
    assert got == {2: 2, 3: 1}


def test_spike_windows(ray_session):
    import datetime as dt

    from webcollector_ray.functions.windows import spike_windows

    base = dt.datetime(2024, 1, 1)
    # type X: hour0 has 8 events, hours 1-3 have 1 each -> total 11,
    # nw=4: flag iff n*4 > 2*11=22 -> only n=8 (32>22)
    ts = [base] * 8 + [base + dt.timedelta(hours=h) for h in (1, 2, 3)]
    t = pa.table({
        "event_type": ["X"] * 11,
        "ts": pa.array(ts, pa.timestamp("us")),
        "value": [1.0] * 11,
    })
    out = spike_windows(
        rd.from_arrow(t), key_col="event_type", window_sec=3600, factor=2
    ).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["n_events"] == 8
    assert out.iloc[0]["window_start"] == int(base.timestamp())


def test_cms_counts_collisions(ray_session):
    from collections import Counter

    from webcollector_ray.functions.sketches import _md5le64, cms_counts

    # width 8 << 20 keys: collisions must fire; the engine must equal
    # the reference sketch exactly and never underestimate
    keys = [f"k{i}" for i in range(20)]
    rows = []
    for j, k in enumerate(keys):
        rows += [k] * (j + 1)
    t = pa.table({"event_type": rows})
    out = (
        cms_counts(
            rd.from_arrow(t), key_col="event_type", depth=2, width=8
        )
        .to_pandas().set_index("key")["n_est"]
    )
    c = Counter(rows)
    grid = np.zeros((2, 8), dtype=np.int64)
    for k, n in c.items():
        for i in range(2):
            grid[i][_md5le64(f"cms-{i}-{k}") % 8] += n
    assert len(out) == 20
    for k in keys:
        ref = min(
            grid[i][_md5le64(f"cms-{i}-{k}") % 8] for i in range(2)
        )
        assert out[k] == ref
        assert out[k] >= c[k]


def test_bloom_decontaminate_empty_eval_keeps_all(ray_session):
    from webcollector_ray.functions.decontam import (
        bloom_decontaminate,
        build_eval_gram_bloom,
    )

    ev = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    })
    tr = pa.table({
        "doc_id": [1, 2, 3],
        "text": ["a b c", "d e f", ""],
    })
    bloom_ref = build_eval_gram_bloom(rd.from_arrow(ev), k=2, m_bits=64)
    got = sorted(
        bloom_decontaminate(
            rd.from_arrow(tr), bloom_ref, k=2, m_bits=64
        ).to_pandas()["doc_id"]
    )
    assert got == [1, 2, 3]  # all-zero bloom drops nothing


def test_gap_median_and_session_stats_string_keys(ray_session):
    """String key columns route through pd.util.hash_array instead of
    the int multiplicative mix (ADVICE r4) — both operators must give
    the same answer as their int-keyed siblings."""
    import datetime as dt

    from webcollector_ray.functions.windows import (
        session_stats,
        user_gap_median,
    )

    base = dt.datetime(2024, 1, 1)
    rows = [("u-a", 0), ("u-a", 10), ("u-a", 25), ("u-b", 5),
            ("u-b", 7200), ("u-c", 50)]
    t = pa.table({
        "user_id": pa.array([u for u, _ in rows], pa.string()),
        "ts": pa.array(
            [base + dt.timedelta(seconds=s) for _, s in rows],
            pa.timestamp("us"),
        ),
    })
    g = user_gap_median(
        rd.from_arrow(t), num_buckets=3
    ).to_pandas().set_index("user_id").sort_index()
    assert g.loc["u-a", "n_gaps"] == 2
    assert g.loc["u-a", "median_gap_us"] == 10_000_000
    assert g.loc["u-b", "median_gap_us"] == 7_195_000_000
    assert "u-c" not in g.index

    s = session_stats(
        rd.from_arrow(t), gap_sec=3600, num_buckets=3
    ).to_pandas().sort_values(["user_id", "session_idx"])
    recs = list(
        s[["user_id", "session_idx", "n_events", "duration_us"]]
        .itertuples(index=False, name=None)
    )
    assert recs == [
        ("u-a", 1, 3, 25_000_000),
        ("u-b", 1, 1, 0),
        ("u-b", 2, 1, 0),
        ("u-c", 1, 1, 0),
    ]


def test_bloom_decontaminate_false_positives(ray_session):
    import ray

    from webcollector_ray.functions.decontam import (
        _bloom_positions,
        _doc_gram_strings,
        bloom_decontaminate,
        build_eval_gram_bloom,
    )

    # k=2 grams, 16-bit bloom: eval and train share NO grams, so every
    # drop is a bloom false positive — the engine must reproduce the
    # reference bloom exactly, overdrops included
    m, k = 16, 2
    ev = pa.table({"doc_id": [1], "text": ["alpha beta gamma delta"]})
    train_rows = [
        (i, f"w{i}x w{i}y w{i}z") for i in range(100, 140)
    ]
    tr = pa.table({
        "doc_id": [r[0] for r in train_rows],
        "text": [r[1] for r in train_rows],
    })
    bloom_ref = build_eval_gram_bloom(
        rd.from_arrow(ev), k=k, m_bits=m
    )
    got = sorted(
        bloom_decontaminate(
            rd.from_arrow(tr), bloom_ref, k=k, m_bits=m
        ).to_pandas()["doc_id"]
    )
    # reference bloom in pure python
    bits = np.zeros(m, dtype=bool)
    for g in _doc_gram_strings("alpha beta gamma delta", k):
        bits[_bloom_positions([g], m).ravel()] = True
    ref = []
    for i, text in train_rows:
        pos = _bloom_positions(_doc_gram_strings(text, k), m)
        if not bits[pos].all(axis=1).any():
            ref.append(i)
    assert got == sorted(ref)
    # the fixture must actually exercise the overdrop path
    assert len(ref) < len(train_rows)


def test_reciprocity_and_triangles(ray_session):
    from webcollector_ray.functions.graph import (
        reciprocity_census,
        triangle_count,
    )

    # triangle a-b-c (one direction each) + reciprocal pair d<->e +
    # dangling edge a->d + self loop (ignored) + duplicate edge
    edges = pa.table({
        "src": ["a", "b", "c", "d", "e", "a", "f", "a"],
        "dst": ["b", "c", "a", "e", "d", "d", "f", "b"],
    })
    r = reciprocity_census(
        rd.from_arrow(edges), num_buckets=4
    ).to_pandas().iloc[0]
    # directed distinct non-self edges: ab, bc, ca, de, ed, ad = 6
    assert r["n_edges"] == 6
    assert r["n_reciprocal"] == 2  # de and ed
    t = triangle_count(
        rd.from_arrow(edges), num_buckets=4
    ).to_pandas().iloc[0]
    assert t["n_triangles"] == 1


def test_empty_input_robustness(ray_session):
    """Ray Data's to_pandas() drops columns on all-empty datasets;
    every bounded-result operator must survive empty input (the
    df_or_empty / fetch_if_missing guards)."""
    from webcollector_ray.functions.graph import (
        reciprocity_census,
        triangle_count,
    )
    from webcollector_ray.functions.sketches import cms_counts
    from webcollector_ray.functions.textstats import (
        length_percentile,
        pmi_bigrams,
    )

    empty_docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }))
    empty_edges = rd.from_arrow(pa.table({
        "src": pa.array([], pa.string()),
        "dst": pa.array([], pa.string()),
    }))
    assert len(pmi_bigrams(empty_docs).to_pandas()) == 0
    assert len(length_percentile(empty_docs).to_pandas()) == 0
    assert len(cms_counts(
        rd.from_arrow(pa.table({"k": pa.array([], pa.string())})),
        key_col="k",
    ).to_pandas()) == 0
    r = reciprocity_census(empty_edges).to_pandas().iloc[0]
    assert r["n_edges"] == 0 and r["n_reciprocal"] == 0
    t = triangle_count(empty_edges).to_pandas().iloc[0]
    assert t["n_triangles"] == 0


def test_kcore_peel(ray_session):
    from webcollector_ray.functions.graph import kcore_peel

    # chain a-b-c-d-e peels away under k=2 (endpoints first, then
    # inward); triangle f-g-h is the 2-core and survives intact
    edges = pa.table({
        "src": ["a", "b", "c", "d", "f", "g", "h"],
        "dst": ["b", "c", "d", "e", "g", "h", "f"],
    })
    out = (
        kcore_peel(rd.from_arrow(edges), k=2, rounds=3, num_buckets=4)
        .to_pandas().set_index("url")["degree"]
    )
    assert sorted(out.index) == ["f", "g", "h"]
    assert set(out) == {2}


def test_normalize_corpus_reference(ray_session):
    import unicodedata

    from webcollector_ray.functions.textstats import normalize_corpus

    texts = [
        "plain ascii text",
        "  leading and  trailing \t\n ",
        "combining: válue and café",   # decomposed accents
        "ctrl\x01chars\x7fhere",
        "",
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    got = (
        normalize_corpus(rd.from_arrow(t))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    import hashlib as _h
    import re as _re

    for i, s in enumerate(texts):
        ref = _re.sub(r"[\x00-\x08\x0B\x0C\x0E-\x1F\x7F]", "", s)
        ref = _re.sub("[ \t\r\n\f\v]+", " ", ref).strip(" ")
        ref = unicodedata.normalize("NFC", ref)
        assert got.loc[i, "n_chars_norm"] == len(ref)
        assert got.loc[i, "norm_fp"] == _h.md5(ref.encode()).hexdigest()
        assert bool(got.loc[i, "changed"]) == (ref != s)
    # the combining-accent row must have composed (shorter than input)
    assert got.loc[2, "n_chars_norm"] == len(texts[2]) - 2


def test_dsir_weights_reference(ray_session):
    from webcollector_ray.functions.lm import dsir_weights, train_unigram_lm

    target_rows = ["apple banana apple", "apple cherry"]
    corpus_rows = target_rows + ["dog cat mouse", "apple dog", ""]
    corpus = pa.table({
        "doc_id": pa.array(range(len(corpus_rows)), pa.int64()),
        "text": pa.array(corpus_rows, pa.string()),
    })
    target = pa.table({
        "doc_id": pa.array(range(len(target_rows)), pa.int64()),
        "text": pa.array(target_rows, pa.string()),
    })
    V = 8
    t_ref, _ = train_unigram_lm(rd.from_arrow(target), top_v=V)
    r_ref, _ = train_unigram_lm(rd.from_arrow(corpus), top_v=V)
    got = (
        dsir_weights(rd.from_arrow(corpus), t_ref, r_ref)
        .to_pandas().set_index("doc_id").sort_index()
    )
    # reference
    from collections import Counter

    ct = Counter(w for r in target_rows for w in r.lower().split())
    cr = Counter(w for r in corpus_rows for w in r.lower().split())
    tt, tr = sum(ct.values()), sum(cr.values())
    for i, row in enumerate(corpus_rows):
        ws = row.lower().split()
        if not ws:
            assert got.loc[i, "dsir_weight"] == 0.0
            continue
        w = np.mean([
            np.log((ct.get(x, 0) + 1) / (tt + V + 1))
            - np.log((cr.get(x, 0) + 1) / (tr + V + 1))
            for x in ws
        ])
        assert got.loc[i, "dsir_weight"] == round(float(w), 6)
        assert got.loc[i, "n_tokens"] == len(ws)
    # in-domain docs must outrank out-of-domain ones
    assert got.loc[0, "dsir_weight"] > got.loc[2, "dsir_weight"]


def test_source_kl_reference(ray_session):
    from webcollector_ray.functions.lm import (
        source_kl_divergence,
        train_unigram_lm,
    )

    rows = [
        ("a", "apple banana apple apple"),
        ("a", "banana apple"),
        ("b", "dog cat dog"),
        ("b", "cat cat dog mouse"),
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(rows)), pa.int64()),
        "source": pa.array([s for s, _ in rows], pa.string()),
        "text": pa.array([x for _, x in rows], pa.string()),
    })
    V = 4
    m_ref, _ = train_unigram_lm(rd.from_arrow(t), top_v=V)
    got = (
        source_kl_divergence(rd.from_arrow(t), m_ref, num_buckets=3)
        .to_pandas().set_index("source").sort_index()
    )
    from collections import Counter

    cc = Counter(w for _, x in rows for w in x.lower().split())
    vocab = sorted(cc, key=lambda w: (-cc[w], w))[:V]
    tot = sum(cc.values())
    for src in ("a", "b"):
        cs = Counter(
            w for s, x in rows if s == src for w in x.lower().split()
        )
        ts = sum(cs.values())
        kl = sum(
            ((cs.get(w, 0) + 1) / (ts + V + 1))
            * np.log(
                ((cs.get(w, 0) + 1) / (ts + V + 1))
                / ((cc[w] + 1) / (tot + V + 1))
            )
            for w in vocab
        )
        assert got.loc[src, "kl"] == round(float(kl), 6)
        assert got.loc[src, "n_tokens"] == ts
    # distributions differ from the blend, so both KLs are positive
    assert (got["kl"] > 0).all()


def test_bpe_pair_counts_reference(ray_session):
    from collections import Counter

    from webcollector_ray.functions.textstats import bpe_pair_counts

    rows = ["low lower lowest", "low low newer", "a", ""]
    t = pa.table({
        "doc_id": pa.array(range(len(rows)), pa.int64()),
        "text": pa.array(rows, pa.string()),
    })
    got = bpe_pair_counts(
        rd.from_arrow(t), n=100, num_buckets=3
    ).to_pandas()
    ref: Counter = Counter()
    for r in rows:
        for w in r.lower().split():
            for i in range(len(w) - 1):
                ref[w[i:i + 2]] += 1
    want = sorted(ref.items(), key=lambda kv: (-kv[1], kv[0]))
    assert list(zip(got["pair"], got["n"])) == want
    assert ref["lo"] == 5  # low x3 + lower + lowest


def test_label_outliers_reference(ray_session):
    from webcollector_ray.functions.similarity import label_outliers

    rng = np.random.default_rng(7)
    n, d = 60, 8
    M = rng.normal(size=(n, d))
    labels = np.array([i % 3 for i in range(n)], dtype=np.int32)
    t = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in M]),
        "label": pa.array(labels, pa.int32()),
    })
    got = (
        label_outliers(rd.from_arrow(t), k=4)
        .to_pandas().sort_values(["label", "rank"]).reset_index(drop=True)
    )
    SCALE = float(1 << 20)
    for lab in range(3):
        V = M[labels == lab]
        ids = np.arange(n)[labels == lab]
        c = np.floor(V * SCALE).sum(axis=0) / (len(V) * SCALE)
        cos = np.round(
            (V @ c) / (np.linalg.norm(V, axis=1) * np.linalg.norm(c)), 6
        )
        order = np.lexsort((ids, cos))[:4]
        sub = got[got["label"] == lab]
        assert sub["vec_id"].tolist() == ids[order].tolist()
        assert sub["centroid_cosine"].tolist() == cos[order].tolist()
        assert sub["rank"].tolist() == [1, 2, 3, 4]


def test_contamination_pairs_reference(ray_session):
    from webcollector_ray.functions.decontam import (
        build_eval_gram_postings,
        contamination_pairs,
    )

    shared = "alpha beta gamma delta epsilon zeta eta theta"  # one 8-gram
    ev = pa.table({
        "doc_id": [100, 101],
        "text": [shared + " iota", "totally different words here now ok yes there"],
    })
    tr = pa.table({
        "doc_id": [1, 2, 3],
        "text": [
            "prefix " + shared,                     # hits eval 100
            "totally different words here now ok yes there",  # hits 101
            "no overlap at all in this one really truly",
        ],
    })
    postings = build_eval_gram_postings(rd.from_arrow(ev), k=8)
    got = sorted(
        contamination_pairs(rd.from_arrow(tr), postings, k=8)
        .to_pandas().itertuples(index=False, name=None)
    )
    assert got == [(1, 100), (2, 101)]


def test_contamination_pairs_empty_eval(ray_session):
    from webcollector_ray.functions.decontam import (
        build_eval_gram_postings,
        contamination_pairs,
    )

    ev = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    })
    tr = pa.table({"doc_id": [1], "text": ["some words"]})
    postings = build_eval_gram_postings(rd.from_arrow(ev), k=8)
    out = contamination_pairs(
        rd.from_arrow(tr), postings, k=8
    ).to_pandas()
    assert len(out) == 0


def test_semantic_dedup_reference(ray_session):
    from webcollector_ray.functions.similarity import semantic_dedup

    # two tight groups on orthogonal axes + one exact duplicate pair;
    # k=2 puts each group in its own cluster, the duplicate (id 3 ~ id
    # 0) must drop, everything else survives
    vecs = [
        [1.0, 0.0, 0.0],   # 0 seed cluster A
        [0.0, 1.0, 0.0],   # 1 seed cluster B
        [0.0, 0.95, 0.1],  # 2 near B, below 0.999 vs 1? cos ~0.994
        [1.0, 0.001, 0.0],  # 3 near-dup of 0 -> drops
        [0.0, 0.0, 1.0],   # 4 own direction
    ]
    t = pa.table({
        "vec_id": pa.array(range(5), pa.int64()),
        "embedding": pa.array(vecs),
    })
    got = (
        semantic_dedup(rd.from_arrow(t), k=2, iters=1, threshold=0.99)
        .to_pandas().sort_values("vec_id")
    )
    kept = got["vec_id"].tolist()
    assert 3 not in kept      # dropped by lower-id near-dup 0
    assert 0 in kept and 1 in kept and 4 in kept
    # reference: recompute with numpy (same rule) for every vector
    M = np.array(vecs)
    U = M / np.linalg.norm(M, axis=1, keepdims=True)
    # cluster assignment after 1 Lloyd iteration, seeds = ids 0,1
    C = M[:2].copy()
    a = (U @ (C / np.linalg.norm(C, axis=1, keepdims=True)).T).argmax(1)
    SCALE = float(1 << 20)
    for c in range(2):
        if (a == c).any():
            C[c] = np.floor(M[a == c] * SCALE).sum(0) / (
                (a == c).sum() * SCALE
            )
    a = (U @ (C / np.linalg.norm(C, axis=1, keepdims=True)).T).argmax(1)
    ref_kept = []
    for i in range(5):
        mates = [j for j in range(i) if a[j] == a[i]]
        if not any(
            np.round(float(U[i] @ U[j]), 6) >= 0.99 for j in mates
        ):
            ref_kept.append(i)
    assert kept == ref_kept


def test_c4_clean(ray_session):
    from webcollector_ray.functions.textstats import c4_clean

    t = pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": [
            # 4 lines, one too short -> 3 kept
            "good line with five words here.\nshort one.\n"
            "another good line right here ok.\n"
            "a third fine line is here.",
            # lorem ipsum -> whole doc dropped
            "lorem ipsum dolor sit amet.\nx.",
            # javascript line dropped, 3 ok lines kept
            "enable javascript in your browser now.\n"
            "ok line with many words here.\n"
            "second ok line with words here.\n"
            "third ok line with words here.",
            # only 2 surviving lines -> doc dropped by min_lines
            "no terminal punctuation on this line\n"
            "only two kept lines here now.\n"
            "second kept line with words here.",
        ],
    })
    out = c4_clean(rd.from_arrow(t)).to_pandas().sort_values("doc_id")
    assert out["doc_id"].tolist() == [1, 3]
    assert out["n_lines_kept"].tolist() == [3, 3]
    assert "short one." not in out.iloc[0]["clean_text"]
    assert "javascript" not in out.iloc[1]["clean_text"]
    # brace gate drops the whole doc
    t2 = pa.table({"doc_id": [9], "text": [
        "fine line with many words here.\nif (x) { return; }\n"
        "more fine words in this line.\nthird fine line with words here."
    ]})
    assert c4_clean(rd.from_arrow(t2)).count() == 0


def test_linear_quality_scorer(ray_session):
    import ray

    from webcollector_ray.functions.textstats import (
        DEFAULT_LR_WEIGHTS,
        LinearQualityScorer,
    )

    t = pa.table({
        "doc_id": [1, 2, 3],
        "text": [
            "the cat and the dog in the house for a while",  # stopword-rich
            "zzz qqq xxx 123 456 789 000 111",               # stopword-poor
            "",                                               # empty -> bias only
        ],
    })
    w_ref = ray.put(dict(DEFAULT_LR_WEIGHTS))
    out = (
        rd.from_arrow(t)
        .map_batches(
            LinearQualityScorer,
            fn_constructor_kwargs={"weights_ref": w_ref},
            batch_format="pyarrow",
            concurrency=1,
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    assert out["kept"].tolist() == [True, False, False]
    # empty doc scores exactly the bias
    assert out.iloc[2]["lr_score"] == DEFAULT_LR_WEIGHTS["bias"]
    # stopword-rich beats stopword-poor
    assert out.iloc[0]["lr_score"] > out.iloc[1]["lr_score"]


def test_snapshot_delta(ray_session):
    from webcollector_ray.functions.dedup import snapshot_delta

    old = pa.table({"doc_id": [1, 2, 3], "fp": ["a", "b", "c"]})
    new = pa.table({"doc_id": [2, 3, 4], "fp": ["b", "X", "d"]})
    out = (
        snapshot_delta(rd.from_arrow(old), rd.from_arrow(new))
        .to_pandas().sort_values("doc_id")
    )
    assert dict(zip(out["doc_id"], out["status"])) == {
        1: "removed", 2: "unchanged", 3: "changed", 4: "added",
    }


def test_argmin_by(ray_session):
    from webcollector_ray.functions.ranking import argmin_by

    t = pa.table(
        {
            "k": [1, 1, 2, 2, 2, 3],
            "v": [5.0, 3.0, 7.0, 7.0, 9.0, 1.0],
            "tie": [10, 20, 31, 30, 32, 40],
        }
    )
    out = (
        argmin_by(rd.from_arrow(t), key_col="k", order_col="v",
                  tie_col="tie", num_buckets=4)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    # per key: min v, ties by tie ascending (k=2 has two v=7.0 rows)
    assert out["v"].tolist() == [3.0, 7.0, 1.0]
    assert out["tie"].tolist() == [20, 30, 40]


def test_global_top_n_multi_tie_cols(ray_session):
    """tie_col as a LIST breaks ties lexicographically — the packed-
    int-key alternative overflows past 2^32 keys (review finding)."""
    from webcollector_ray.functions.ranking import global_top_n

    t = pa.table(
        {
            "n": [5, 5, 5, 5, 3],
            "a": [2, 1, 1, 2, 9],
            "b": [9, 7, 3, 1, 9],
        }
    )
    out = global_top_n(
        rd.from_arrow(t), order_col="n", n=3, tie_col=["a", "b"]
    ).to_pandas()
    assert out[["n", "a", "b"]].values.tolist() == [
        [5, 1, 3], [5, 1, 7], [5, 2, 1],
    ]
    # single-string tie_col keeps working
    out1 = global_top_n(
        rd.from_arrow(t), order_col="n", n=2, tie_col="b"
    ).to_pandas()
    assert out1[["n", "b"]].values.tolist() == [[5, 1], [5, 3]]


def test_zscore_by_matches_pandas(ray_session):
    from webcollector_ray.functions.stats import zscore_by

    rng = np.random.default_rng(7)
    k = rng.choice(["a", "b", "c"], 200).tolist() + ["solo"]
    v = rng.integers(10, 5000, 201)
    t = pa.table({"k": k, "v": pa.array(v, pa.int64()),
                  "i": pa.array(range(201), pa.int64())})
    out = (
        zscore_by(rd.from_arrow(t), key_col="k", val_col="v")
        .to_pandas().sort_values("i").reset_index(drop=True)
    )
    df = t.to_pandas()
    exp = df.groupby("k")["v"].transform(
        lambda s: (s - s.mean()) / s.std(ddof=0)
    )
    got = out["z"].to_numpy()
    # singleton group (zero variance) must be NULL, matching SQL x/0.0
    assert np.isnan(got[-1]) and np.isnan(exp.to_numpy()[-1])
    np.testing.assert_allclose(got[:-1], exp.to_numpy()[:-1], rtol=1e-9)


def _ref_bpe(word_counts: dict, merges: int):
    """Independent sequential BPE reference (Sennrich-style, with the
    engine's single-pass left-to-right merge-apply semantics)."""
    from collections import Counter

    vocab = {("\x1f".join(w)): n for w, n in word_counts.items()}
    out = []
    for step in range(1, merges + 1):
        c = Counter()
        for tok, n in vocab.items():
            syms = tok.split("\x1f")
            for a, b in zip(syms, syms[1:]):
                c[a + " " + b] += n
        if not c:
            break
        best = min(c.items(), key=lambda kv: (-kv[1], kv[0]))
        out.append((step, best[0], best[1]))
        l, r = best[0].split(" ", 1)
        pat, repl = "\x1f" + l + "\x1f" + r + "\x1f", "\x1f" + l + r + "\x1f"
        vocab = {
            ("\x1f" + tok + "\x1f").replace(pat, repl).strip("\x1f"): n
            for tok, n in vocab.items()
        }
    return out


def test_bpe_train_matches_sequential_reference(ray_session):
    from collections import Counter

    from webcollector_ray.functions.textstats import bpe_train

    docs = [
        "the theme of the anthem",
        "there then the other brother",
        "hello hello help hemp",
        "aaaa aa a banana bandana",
    ] * 3
    wc = Counter()
    for d in docs:
        wc.update(d.lower().split())
    exp = _ref_bpe(dict(wc), merges=5)

    t = pa.table({"doc_id": list(range(len(docs))),
                  "text": pa.array(docs, pa.string())})
    got = bpe_train(rd.from_arrow(t), merges=5, num_buckets=4).to_pandas()
    assert list(zip(got["step"], got["pair"], got["n"])) == exp


def test_rollup_counts_matches_duckdb(ray_session):
    import duckdb

    from webcollector_ray.functions.stats import rollup_counts

    rng = np.random.default_rng(3)
    t = pa.table(
        {
            "a": rng.choice(["x", "y"], 100).tolist(),
            "b": rng.choice(["p", "q", "r"], 100).tolist(),
            "v": pa.array(rng.integers(1, 100, 100), pa.int64()),
        }
    )
    got = (
        rollup_counts(rd.from_arrow(t), keys=["a", "b"], val_col="v",
                      num_buckets=4)
        .to_pandas().sort_values(["a", "b"], na_position="last")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    exp = con.execute(
        "SELECT a, b, count(*)::BIGINT AS n_rows, sum(v)::BIGINT AS "
        "sum_val FROM t GROUP BY ROLLUP(a, b) "
        "ORDER BY a NULLS LAST, b NULLS LAST"
    ).fetchdf()
    assert got["n_rows"].tolist() == exp["n_rows"].tolist()
    assert got["sum_val"].tolist() == exp["sum_val"].tolist()
    assert len(got) == 2 * 3 + 2 + 1


def test_weighted_sample_deterministic_and_weighted(ray_session):
    from webcollector_ray.functions.stats import weighted_sample

    t = pa.table(
        {
            "id": pa.array(range(1000), pa.int64()),
            # ids < 100 get 100x the weight of the rest; 0-weight excluded
            "w": pa.array(
                [0] + [10000] * 99 + [100] * 900, pa.int64()
            ),
        }
    )
    a = weighted_sample(rd.from_arrow(t), id_col="id", weight_col="w",
                        k=50).to_pandas()
    b = weighted_sample(
        rd.from_arrow(t).repartition(7), id_col="id", weight_col="w",
        k=50,
    ).to_pandas()
    # block-layout independent
    assert a["id"].tolist() == b["id"].tolist()
    assert 0 not in set(a["id"])
    # heavy ids dominate the sample
    assert (a["id"] < 100).mean() > 0.5


def test_grouped_running_sum_matches_pandas(ray_session):
    from webcollector_ray.functions.stats import grouped_running_sum

    rng = np.random.default_rng(11)
    n = 300
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 9, n), pa.int64()),
            "o": pa.array(rng.permutation(n), pa.int64()),
            "v": pa.array(rng.normal(0, 10, n), pa.float64()),
        }
    )
    out = (
        grouped_running_sum(
            rd.from_arrow(t).repartition(5), key_col="k",
            order_cols=["o"], val_col="v", num_buckets=4,
        )
        .to_pandas().sort_values(["k", "o"]).reset_index(drop=True)
    )
    df = t.to_pandas().sort_values(["k", "o"]).reset_index(drop=True)
    df["running"] = df.groupby("k")["v"].cumsum()
    np.testing.assert_allclose(
        out["running"].to_numpy(), df["running"].to_numpy(), rtol=1e-12
    )


def test_grouped_mode_deterministic_ties(ray_session):
    from webcollector_ray.functions.stats import grouped_mode

    t = pa.table(
        {
            "k": [1, 1, 1, 1, 2, 2],
            "v": ["b", "b", "a", "a", "z", "y"],
        }
    )
    out = (
        grouped_mode(rd.from_arrow(t).repartition(3), key_col="k",
                     val_col="v", num_buckets=2)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    # k=1: a/b tie at 2 -> 'a' (ascending); k=2: y/z tie at 1 -> 'y'
    assert out["v"].tolist() == ["a", "y"]
    assert out["n"].tolist() == [2, 1]


def test_global_rank_exact_and_layout_invariant(ray_session):
    from webcollector_ray.functions.ranking import global_rank

    rng = np.random.default_rng(5)
    n = 500
    # heavy ties on v to exercise the equal-values-same-bucket rule
    t = pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "v": pa.array(rng.integers(0, 40, n), pa.int64()),
        }
    )
    exp = (
        t.to_pandas().sort_values(["v", "id"],
                                  ascending=[False, True])
        .reset_index(drop=True)
    )
    exp["rnk"] = np.arange(1, n + 1)
    for parts in (2, 9):
        out = (
            global_rank(
                rd.from_arrow(t).repartition(parts),
                order_cols=[("v", "descending"), ("id", "ascending")],
                num_buckets=5,
            )
            .to_pandas().sort_values("rnk").reset_index(drop=True)
        )
        assert out["id"].tolist() == exp["id"].tolist()
        assert out["rnk"].tolist() == exp["rnk"].tolist()


def test_grouped_corr_matches_numpy(ray_session):
    from webcollector_ray.functions.stats import grouped_corr

    rng = np.random.default_rng(13)
    n = 400
    k = rng.choice(["a", "b"], n)
    x = rng.integers(1, 50, n).astype(np.float64)
    y = np.round(x * 3.5 + rng.normal(0, 20, n), 2)
    t = pa.table({"k": k.tolist(), "x": x, "y": y})
    out = (
        grouped_corr(rd.from_arrow(t).repartition(6), key_col="k",
                     x_col="x", y_col="y", x_scale=1, y_scale=100,
                     num_buckets=4)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    df = t.to_pandas()
    for i, key in enumerate(["a", "b"]):
        sub = df[df["k"] == key]
        exp = np.corrcoef(sub["x"], np.round(sub["y"] * 100))[0, 1]
        assert abs(out["corr_xy"][i] - exp) < 1e-12
        assert out["n"][i] == len(sub)


def test_bpe_encode_token_counts_matches_reference(ray_session):
    from collections import Counter

    from webcollector_ray.functions.textstats import (
        bpe_encode_token_counts,
        bpe_train,
    )

    docs = [
        "the theme of the anthem",
        "there then the other brother",
        "hello hello help hemp",
        "aaaa aa a banana bandana",
    ] * 3
    wc = Counter()
    for d in docs:
        wc.update(d.lower().split())
    merges = _ref_bpe(dict(wc), merges=5)
    pairs = [tuple(p.split(" ", 1)) for _, p, _ in merges]

    def ref_encode(word: str) -> int:
        t = "\x1f" + "\x1f".join(word) + "\x1f"
        for l, r in pairs:
            t = t.replace("\x1f" + l + "\x1f" + r + "\x1f",
                          "\x1f" + l + r + "\x1f")
        return len(t.strip("\x1f").split("\x1f"))

    exp = {
        i: sum(ref_encode(w) for w in d.lower().split())
        for i, d in enumerate(docs)
    }

    t = pa.table({"doc_id": list(range(len(docs))),
                  "text": pa.array(docs, pa.string())})
    ds = rd.from_arrow(t).repartition(5)
    mt = bpe_train(ds, merges=5, num_buckets=4)
    got = (
        bpe_encode_token_counts(ds, mt, num_buckets=4)
        .to_pandas()
        .set_index("doc_id")["n_tokens"]
        .to_dict()
    )
    assert got == exp
    # merges reduce token counts vs character tokenization
    assert sum(got.values()) < sum(
        len(w) for d in docs for w in d.lower().split()
    )


def test_hard_negatives_matches_bruteforce(ray_session):
    """hard_negatives' chunk-pair partial-top-k path must equal the
    whole-matrix brute force — anchors and candidates crossing chunk
    boundaries (tiny target_chunk_rows), float32 storage quantization
    included (reference computed from the SAME float32-rounded
    matrix)."""
    from webcollector_ray.functions.similarity import hard_negatives

    n, d, k = 90, 8, 4
    rng = np.random.RandomState(23)
    M = rng.randn(n, d).astype(np.float32)
    labels = (rng.randint(0, 3, size=n)).astype(np.int32)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([r.tolist() for r in M], pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    }))

    Mu = M.astype(np.float64)
    Mu = Mu / np.linalg.norm(Mu, axis=1, keepdims=True)
    S = Mu @ Mu.T
    S[labels[:, None] == labels[None, :]] = -np.inf
    want = {}
    for a in range(n):
        order = np.lexsort((np.arange(n), -S[a]))[:k]
        want[a] = [int(j) for j in order if not np.isneginf(S[a, j])]

    got = hard_negatives(
        ds, k=k, target_chunk_rows=16
    ).to_pandas().sort_values(["anchor_id", "rank"])
    by_anchor = {
        int(a): g["neg_id"].astype(int).tolist()
        for a, g in got.groupby("anchor_id")
    }
    assert by_anchor == want
    assert (got.groupby("anchor_id")["rank"].apply(
        lambda r: list(r) == list(range(1, len(r) + 1))
    )).all()


def test_hard_negatives_all_same_label_and_empty(ray_session):
    """A single-label corpus has NO cross-label negatives (zero rows,
    stable schema); an empty corpus likewise."""
    from webcollector_ray.functions.similarity import hard_negatives

    rng = np.random.RandomState(5)
    M = rng.randn(12, 4)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(12), pa.int64()),
        "embedding": pa.array([r.tolist() for r in M], pa.list_(pa.float32())),
        "label": pa.array([1] * 12, pa.int32()),
    }))
    out = hard_negatives(ds, k=3, target_chunk_rows=5)
    # NOTE: this Ray version's Dataset.to_pandas() drops columns on any
    # zero-row dataset, so the schema contract is pinned at the Dataset
    # level, where it survives.
    assert out.count() == 0
    assert out.schema().names == ["anchor_id", "rank", "neg_id"]

    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
        "label": pa.array([], pa.int32()),
    }))
    out2 = hard_negatives(empty, k=3)
    assert out2.count() == 0
    assert out2.schema().names == ["anchor_id", "rank", "neg_id"]


def _random_digraph(n=40, m=160, seed=7):
    rng = np.random.RandomState(seed)
    src = rng.randint(0, n, size=m)
    dst = rng.randint(0, n, size=m)
    names = [f"n{i:02d}" for i in range(n)]
    return pa.table({
        "src": pa.array([names[s] for s in src], pa.string()),
        "dst": pa.array([names[d] for d in dst], pa.string()),
    })


def _und_simple(edges):
    und = set()
    for s, d in zip(edges["src"].to_pylist(), edges["dst"].to_pylist()):
        if s != d:
            und.add((min(s, d), max(s, d)))
    return und


def test_label_propagation_matches_sequential(ray_session):
    """Synchronous LPA vs a sequential reference model: per iteration
    every node takes the most frequent neighbor label, ties to the
    smallest label — exact across bucket layouts."""
    from collections import Counter

    from webcollector_ray.functions.graph import label_propagation

    edges = _random_digraph()
    und = _und_simple(edges)
    nbrs: dict = {}
    for a, b in und:
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    labels = {v: v for v in nbrs}
    iters = 3
    for _ in range(iters):
        new = {}
        for v, ns in nbrs.items():
            c = Counter(labels[w] for w in ns)
            best = max(c.items(), key=lambda kv: (kv[1], [-ord(ch) for ch in kv[0]]))
            # tie -> smallest label: re-derive explicitly
            top = max(c.values())
            new[v] = min(l for l, n in c.items() if n == top)
        labels = new

    out = label_propagation(
        rd.from_arrow(edges), iters=iters, src_col="src", dst_col="dst",
        num_buckets=4,
    ).to_pandas()
    got = dict(zip(out["url"], out["community"]))
    assert got == labels
    # structure smoke: at least one multi-node community emerged
    from collections import Counter as C2
    assert max(C2(got.values()).values()) >= 2


def test_ra_link_prediction_matches_bruteforce(ray_session):
    """RA top-k vs a brute-force reference: integer fixed-point sums
    over common neighbors, existing edges excluded, (score DESC, a, b)
    order."""
    from webcollector_ray.functions.graph import SCALE, ra_link_prediction

    edges = _random_digraph(n=30, m=90, seed=11)
    und = _und_simple(edges)
    nbrs: dict = {}
    for a, b in und:
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    scores: dict = {}
    for w, ns in nbrs.items():
        d = len(ns)
        if d < 2:
            continue
        wfp = SCALE // d
        ns_s = sorted(ns)
        for i in range(d):
            for j in range(i + 1, d):
                pair = (ns_s[i], ns_s[j])
                if pair in und:
                    continue
                scores[pair] = scores.get(pair, 0) + wfp
    k = 15
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    want = [(a, b, fp) for (a, b), fp in want]

    out = ra_link_prediction(
        rd.from_arrow(edges), k=k, src_col="src", dst_col="dst",
        num_buckets=4,
    ).to_pandas().sort_values(
        ["ra_fp", "a", "b"], ascending=[False, True, True]
    )
    got = list(zip(out["a"], out["b"], out["ra_fp"].astype(int)))
    assert got == want


def test_keyword_census(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pytest
    import ray
    import ray.data as rd

    from webcollector_ray.functions.keywords import keyword_census

    docs = pa.table(
        {
            "doc_id": pa.array(range(6), pa.int64()),
            "text": pa.array(
                [
                    "the quick brown fox",     # quick brown
                    "Quick  Brown\nquick",     # quick brown (case/ws), quick x2
                    "brown quick",             # neither phrase, quick
                    None,                      # null text
                    "fox trot quick brown fox trot",  # both
                    "",                        # empty
                ]
            ),
        }
    )
    # split into 3 blocks to exercise the partial-fold path
    refs = [
        ray.put(docs.slice(i, 2)) for i in range(0, 6, 2)
    ]
    ds = rd.from_arrow_refs(refs)
    out = (
        keyword_census(
            ds, ["quick brown", "fox", "absent phrase here", "QUICK"]
        )
        .to_pandas()
        .set_index("term")["n_docs"]
        .to_dict()
    )
    assert out == {
        "quick brown": 3,
        "fox": 2,
        "absent phrase here": 0,
        "quick": 4,
    }

    with pytest.raises(ValueError):
        keyword_census(ds, [])
    with pytest.raises(ValueError):
        keyword_census(ds, ["a b", "A  b"])  # dup after normalization
    with pytest.raises(ValueError):
        keyword_census(ds, ["ok", "   "])  # empty phrase


def test_allpairs_jaccard_matches_bruteforce(ray_session):
    import itertools

    from webcollector_ray.functions.dedup import (
        allpairs_jaccard_pairs,
        ngram_jaccard,
    )

    rng = np.random.RandomState(7)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta",
             "theta", "iota", "kappa"]
    rows = []
    for i in range(40):
        n = rng.randint(3, 25)
        rows.append((i, " ".join(rng.choice(vocab, n))))
    # planted near-dups and exact dups
    rows.append((100, rows[0][1]))
    rows.append((101, rows[1][1] + " extra"))
    rows.append((102, "xy"))          # short-doc whole-text fallback
    rows.append((103, "xy"))
    for t in (0.3, 0.6, 0.9):
        got = allpairs_jaccard_pairs(
            _docs(rows), threshold=t, num_buckets=8
        ).to_pandas()
        got_pairs = {
            (int(a), int(b)): j
            for a, b, j in zip(got["id_a"], got["id_b"], got["jaccard"])
        }
        want = {}
        for (a, ta), (b, tb) in itertools.combinations(rows, 2):
            j = ngram_jaccard(ta, tb, 3)
            if j >= t:
                want[(min(a, b), max(a, b))] = j
        assert set(got_pairs) == set(want), t
        for k, v in want.items():
            assert abs(got_pairs[k] - v) < 1e-12
    # exactness the LSH route can't promise: the exact-dup pairs
    assert (0, 100) in want and (102, 103) in want


def test_allpairs_jaccard_partition_invariant(ray_session):
    from webcollector_ray.functions.dedup import allpairs_jaccard_pairs

    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(12)]
    rows = [(i, " ".join(rng.choice(vocab, rng.randint(3, 30))))
            for i in range(60)]
    # planted dups so the t=0.5 result is non-trivial
    rows += [(200 + i, rows[i][1]) for i in range(6)]
    rows += [(300 + i, rows[i][1] + " w0 w1") for i in range(6)]

    def run(nb, parallelism):
        ds = rd.from_items(
            [{"doc_id": i, "text": t} for i, t in rows],
            override_num_blocks=parallelism,
        )
        out = allpairs_jaccard_pairs(
            ds, threshold=0.5, num_buckets=nb
        ).to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
        return out

    a = run(4, 2)
    b = run(16, 9)
    assert a.equals(b)


def test_bigram_lm_matches_sequential_reference(ray_session):
    import math
    from collections import Counter

    from webcollector_ray.functions.lm import (
        bigram_lm_score,
        train_bigram_lm,
    )

    docs = [(0, "a b a b c"), (1, "a a a"), (2, "z"), (3, ""),
            (4, "b c d e b c"), (5, "c a c a c a b")]
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in docs])
    # top_v=3 forces OOV words AND OOV prefixes through the model
    mref = train_bigram_lm(ds, top_b=4, top_v=3, lam=0.7)
    out = (
        bigram_lm_score(ds, mref)
        .to_pandas().sort_values("doc_id").set_index("doc_id")
    )

    uni, bi, pref = Counter(), Counter(), Counter()
    total = 0
    for _, t in docs:
        ws = t.lower().split()
        total += len(ws)
        uni.update(ws)
        for a, b in zip(ws, ws[1:]):
            bi[(a, b)] += 1
            pref[a] += 1
    V, B, lam = 3, 4, 0.7
    topv = dict(sorted(uni.items(), key=lambda kv: (-kv[1], kv[0]))[:V])
    topb = dict(sorted(bi.items(), key=lambda kv: (-kv[1], kv[0]))[:B])
    prefv = {w: pref[w] for w in topv if w in pref}
    for i, t in docs:
        ws = t.lower().split()
        if len(ws) < 2:
            assert (out.loc[i, "n_bigrams"], out.loc[i, "bilm_score"]) \
                == (0, 0.0)
            continue
        s = 0.0
        for a, b in zip(ws, ws[1:]):
            pbi = (topb.get((a, b), 0) + 1) / (prefv.get(a, 0) + V + 1)
            puni = (topv.get(b, 0) + 1) / (total + V + 1)
            s += math.log(lam * pbi + (1 - lam) * puni)
        assert out.loc[i, "n_bigrams"] == len(ws) - 1
        assert out.loc[i, "bilm_score"] == round(s / (len(ws) - 1), 6)


def test_ivf_recall_full_probe_is_one(ray_session):
    # probing every cell makes IVF scan the whole corpus, so recall@k
    # vs brute ground truth must be exactly 1.0 for every query
    rng = np.random.RandomState(3)
    emb = rng.randn(120, 16)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": emb[i].tolist()} for i in range(120)]
    )
    q = emb[:5]
    truth = knn_brute(ds, q, k=10)
    from webcollector_ray.functions.similarity import knn_ivf_pivot

    full = knn_ivf_pivot(ds, q, k=10, n_cells=8, nprobe=8)
    t = truth[["query_id", "vec_id"]]
    a = full[["query_id", "vec_id"]]
    hit = t.merge(a, on=["query_id", "vec_id"]).groupby("query_id").size()
    assert (hit == 10).all() and len(hit) == 5
    # partial probe: recall in [0, 1] and ivf output is a subset of
    # rank-consistent per-query top lists
    part = knn_ivf_pivot(ds, q, k=10, n_cells=8, nprobe=2)
    hit2 = t.merge(
        part[["query_id", "vec_id"]], on=["query_id", "vec_id"]
    ).groupby("query_id").size()
    assert hit2.le(10).all()


def test_difficulty_buckets_equal_deciles(ray_session):
    import __ray_entry__ as entrymod

    out = entrymod.queries()["docs_difficulty_buckets"](
        "/root/testdata/sf0.001"
    ).to_pandas()
    n = len(out)
    # rank is a permutation of 1..N and buckets are equal-count deciles
    assert sorted(out["rnk"]) == list(range(1, n + 1))
    sizes = out.groupby("bucket").size()
    assert set(sizes.index) == set(range(1, 11))
    assert sizes.max() - sizes.min() <= 1


def test_canonicalize_full_kernel():
    from webcollector_ray.urls import canonicalize_full as cf

    # case + default port + fragment
    assert cf("HTTP://Ex.COM:80/A/b.html#x") == "http://ex.com/A/b.html"
    assert cf("https://ex.com:443/") == "https://ex.com/"
    assert cf("https://ex.com:8443/") == "https://ex.com:8443/"
    # dot segments (RFC 3986 5.2.4)
    assert cf("http://e.com/a/./b") == "http://e.com/a/b"
    assert cf("http://e.com/a/../b") == "http://e.com/b"
    assert cf("http://e.com/../b") == "http://e.com/b"
    assert cf("http://e.com/a/b/..") == "http://e.com/a/"
    assert cf("http://e.com/a/.") == "http://e.com/a/"
    # query sort keeps duplicate keys, drops empties
    assert cf("http://e.com/p?b=2&a=1") == "http://e.com/p?a=1&b=2"
    assert cf("http://e.com/p?a=2&a=1") == "http://e.com/p?a=1&a=2"
    assert cf("http://e.com/p?&b=1&") == "http://e.com/p?b=1"
    # relative (schemeless) crawl-noise strings resolve too
    assert cf("x/../y") == "x/y".replace("x/", "")  # == "y"
    assert cf("../y") == "../y"
    assert cf("a/b/../../c") == "c"
    # empty path, idempotence
    assert cf("http://e.com") == "http://e.com/"
    for u in ("HTTP://E.com:80/x/../y?b=1&a=2#z", "http://e.com/p?x=1"):
        assert cf(cf(u)) == cf(u)


def test_inverted_index_roundtrip_and_pruned_lookup(ray_session, tmp_path):
    from collections import Counter

    from webcollector_ray.sources.invindex import (
        build_inverted_index,
        read_postings,
    )

    docs = [(0, "a b a c"), (1, "b b d"), (2, ""), (3, "a d d d")]
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in docs])
    root = str(tmp_path / "idx")
    manifest = build_inverted_index(ds, root, num_shards=4)
    # manifest totals == distinct (word, doc) pairs
    want = Counter()
    for i, t in docs:
        for w, f in Counter(t.lower().split()).items():
            want[(w, i)] = f
    assert int(manifest["n_postings"].sum()) == len(want)
    # pruned lookup returns exactly the probed words' postings, sorted
    got = read_postings(root, ["a", "d", "zz"], num_shards=4).to_pandas()
    exp = sorted(
        (w, i, f) for (w, i), f in want.items() if w in ("a", "d")
    )
    assert list(map(tuple, got.itertuples(index=False))) == exp
    # probing nothing / only-missing words returns the empty schema
    assert len(read_postings(root, [], num_shards=4)) == 0
    assert len(read_postings(root, ["zz"], num_shards=4)) == 0
    # lookup must not read shards it doesn't need: drop every shard
    # file that doesn't hold 'a', then probe 'a' alone
    import os

    from webcollector_ray.sources.invindex import _shard_of

    keep = int(_shard_of(np.array(["a"], object), 4)[0])
    dropped = []
    for f in os.listdir(root):
        if f.startswith("shard=") and f != f"shard={keep:04d}.parquet":
            dropped.append(int(f[len("shard="):-len(".parquet")]))
            os.unlink(os.path.join(root, f))
    got_a = read_postings(root, ["a"], num_shards=4).to_pandas()
    assert sorted(map(tuple, got_a.itertuples(index=False))) == sorted(
        (w, i, f) for (w, i), f in want.items() if w == "a"
    )
    # a manifest-listed shard that is missing on disk must RAISE, not
    # serve a silently-empty posting list
    victim = next(
        w for w in ("b", "d")
        if int(_shard_of(np.array([w], object), 4)[0]) in dropped
    )
    with pytest.raises(FileNotFoundError):
        read_postings(root, [victim], num_shards=4)


def test_search_bm25_matches_scan_kernel(ray_session, tmp_path):
    from webcollector_ray.functions.textstats import bm25_scores
    from webcollector_ray.sources.invindex import (
        build_doclen_sidecar,
        build_inverted_index,
        search_bm25,
    )

    rng = np.random.RandomState(5)
    vocab = ["table", "query", "join", "scan", "sort", "hash", "page"]
    rows = [
        (i, " ".join(rng.choice(vocab, rng.randint(0, 30))))
        for i in range(80)
    ]
    rows.append((80, ""))  # empty doc: counted in N, never a candidate
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in rows])
    root = str(tmp_path / "idx")
    build_inverted_index(ds, root, num_shards=4)
    build_doclen_sidecar(ds, root, num_shards=4)
    terms = ("table", "join")
    got = search_bm25(root, terms, top_k=15, num_shards=4)

    scan = bm25_scores(ds, query_terms=terms).to_pandas()
    scan = scan[scan["score"] > 0].sort_values(
        ["score", "doc_id"], ascending=[False, True]
    ).head(15).reset_index(drop=True)
    assert got["doc_id"].tolist() == scan["doc_id"].tolist()
    # bit-identical doubles: same expression tree on both paths
    assert got["score"].tolist() == scan["score"].tolist()
    # no-hit probe returns the empty frame
    assert len(search_bm25(root, ("zzz",), num_shards=4)) == 0


def test_search_and_matches_bruteforce(ray_session, tmp_path):
    from webcollector_ray.sources.invindex import (
        build_inverted_index,
        search_and,
    )

    rng = np.random.RandomState(9)
    vocab = ["a", "b", "c", "d", "e"]
    rows = [(i, " ".join(rng.choice(vocab, rng.randint(0, 8))))
            for i in range(60)]
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in rows])
    root = str(tmp_path / "idx")
    build_inverted_index(ds, root, num_shards=4)
    for terms in (["a"], ["a", "b"], ["a", "b", "c"], ["zz"],
                  ["a", "zz"], []):
        got = search_and(root, terms, num_shards=4).tolist()
        want = sorted(
            i for i, t in rows
            if terms and all(w in t.split() for w in terms)
        )
        assert got == want, terms


def test_search_phrase_matches_bruteforce(ray_session, tmp_path):
    from webcollector_ray.sources.invindex import (
        build_inverted_index,
        search_phrase,
    )

    rng = np.random.RandomState(13)
    vocab = ["a", "b", "c", "d"]
    rows = [(i, " ".join(rng.choice(vocab, rng.randint(0, 12))))
            for i in range(70)]
    rows.append((70, "a b a b a b"))  # overlapping matches
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in rows])
    root = str(tmp_path / "idx")
    build_inverted_index(ds, root, num_shards=4, positions=True)

    def brute(phrase):
        out = {}
        for i, t in rows:
            ws = t.split()
            n = sum(
                1 for j in range(len(ws) - len(phrase) + 1)
                if ws[j:j + len(phrase)] == list(phrase)
            )
            if n:
                out[i] = n
        return out

    for phrase in (("a", "b"), ("b", "a"), ("a", "b", "a"),
                   ("c", "c"), ("zz", "a"), ()):
        got = search_phrase(root, phrase, num_shards=4)
        want = brute(phrase) if phrase else {}
        assert dict(zip(got["doc_id"], got["n_matches"])) == want, phrase
    # tf-only index refuses phrase queries instead of guessing
    root2 = str(tmp_path / "idx2")
    build_inverted_index(ds, root2, num_shards=4)
    with pytest.raises(ValueError):
        search_phrase(root2, ("a", "b"), num_shards=4)


def test_profile_columns_with_nulls(ray_session):
    from webcollector_ray.functions.profile import profile_columns

    rows = [
        {"k": 5, "s": "b"}, {"k": None, "s": None}, {"k": 10, "s": "a"},
        {"k": 5, "s": "a"}, {"k": -3, "s": None},
    ]
    ds = rd.from_items(rows, override_num_blocks=3)
    out = (
        profile_columns(ds, ["k", "s"], num_buckets=4)
        .to_pandas().set_index("column")
    )
    assert out.loc["k"].tolist() == [5, 1, 3, "-3", "10"]
    assert out.loc["s"].tolist() == [5, 2, 2, "a", "b"]
    # all-null (but typed) column: NULL min/max, distinct 0
    ds2 = rd.from_arrow(
        pa.table({"x": pa.array([None, None], pa.int64())})
    )
    o2 = profile_columns(ds2, ["x"]).to_pandas().set_index("column")
    assert o2.loc["x", "n_rows"] == 2 and o2.loc["x", "n_nulls"] == 2
    assert o2.loc["x", "n_distinct"] == 0
    assert o2.loc["x", "min_value"] is None or o2["min_value"].isna().all()
    # float columns rejected loudly (renderings not cross-engine safe)
    with pytest.raises(ValueError):
        profile_columns(rd.from_items([{"f": 1.5}]), ["f"])


def test_profile_columns_rejects_uint64(ray_session):
    # uint64 values >= 2^63 overflow the int64 min/max partials, so the
    # column is refused up front, by name
    from webcollector_ray.functions.profile import profile_columns

    ds = rd.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()),
        "hits_u64": pa.array([1, 2**63 + 5], pa.uint64()),
    }))
    with pytest.raises(ValueError, match="'hits_u64' is uint64"):
        profile_columns(ds, ["k", "hits_u64"])


def test_invindex_hardening(ray_session, tmp_path):
    import os

    from webcollector_ray.sources.invindex import (
        _doc_shard_of,
        build_doclen_sidecar,
        build_inverted_index,
        read_doclens,
        search_bm25,
        search_phrase,
    )

    rows = [(i, f"w{i % 5} w{(i + 1) % 5}") for i in range(40)]
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in rows])
    root = str(tmp_path / "idx")
    build_inverted_index(ds, root, num_shards=4, positions=True)
    build_doclen_sidecar(ds, root, num_shards=4)
    # phrase probe whose terms all miss: empty frame, NOT a spurious
    # "needs positional index" error
    got = search_phrase(root, ("zz", "qq"), num_shards=4)
    assert len(got) == 0 and list(got.columns) == ["doc_id", "n_matches"]
    # a manifest-listed doclen shard missing on disk raises
    ids = np.arange(40, dtype=np.int64)
    present = sorted(set(_doc_shard_of(ids, 4).tolist()))
    victim = present[0]
    os.unlink(os.path.join(root, f"doclen={victim:04d}.parquet"))
    with pytest.raises(FileNotFoundError):
        read_doclens(root, ids.tolist(), num_shards=4)
    with pytest.raises(FileNotFoundError):
        search_bm25(root, ("w0",), num_shards=4)


def test_search_bm25_rejects_uncovered_candidates(ray_session, tmp_path):
    """A candidate doc missing from the doclen sidecar must raise, naming
    the doc id, instead of scoring NaN."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from webcollector_ray.sources.invindex import (
        _doc_shard_of,
        build_doclen_sidecar,
        build_inverted_index,
        search_bm25,
    )

    rows = [(i, f"w{i % 3} w{(i + 1) % 3}") for i in range(12)]
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in rows])
    root = str(tmp_path / "idx")
    build_inverted_index(ds, root, num_shards=4)
    build_doclen_sidecar(ds, root, num_shards=4)
    assert len(search_bm25(root, ("w0",), num_shards=4)) > 0
    victim = 3  # its text holds w0
    shard = int(_doc_shard_of(np.array([victim], np.int64), 4)[0])
    path = os.path.join(root, f"doclen={shard:04d}.parquet")
    t = pq.read_table(path)
    pq.write_table(t.filter(pc.not_equal(t["doc_id"], victim)), path)
    with pytest.raises(ValueError, match=rf"\b{victim}\b"):
        search_bm25(root, ("w0",), num_shards=4)


def test_invindex_root_per_process(tmp_path):
    """Each process builds its inverted indexes under its own scratch
    root, and the root is gone once the process exits."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import os, __ray_entry__ as E\n"
        "r = E._invindex_root('/data/sf0.001', 'bm25')\n"
        "assert r == E._invindex_root('/data/sf0.001', 'bm25')\n"
        "os.makedirs(r, exist_ok=True)\n"
        "print(r)\n"
    )
    env = dict(os.environ, TMPDIR=str(tmp_path))
    roots = [
        subprocess.run([sys.executable, "-c", code], cwd=repo, env=env,
                       check=True, capture_output=True, text=True
                       ).stdout.strip()
        for _ in range(2)
    ]
    assert roots[0] != roots[1]
    assert all(r.startswith(str(tmp_path)) for r in roots)
    assert not os.listdir(tmp_path)


def test_invindex_custom_id_col(ray_session, tmp_path):
    from webcollector_ray.sources.invindex import (
        build_doclen_sidecar,
        build_inverted_index,
        search_and,
        search_bm25,
        search_phrase,
    )

    rows = [(i, "alpha beta alpha") for i in range(6)]
    ds = rd.from_items([{"page_id": i, "text": t} for i, t in rows])
    root = str(tmp_path / "idx")
    build_inverted_index(ds, root, num_shards=4, id_col="page_id",
                         positions=True)
    build_doclen_sidecar(ds, root, num_shards=4, id_col="page_id")
    assert search_and(
        root, ("alpha", "beta"), num_shards=4, id_col="page_id"
    ).tolist() == list(range(6))
    got = search_bm25(root, ("alpha",), top_k=3, num_shards=4,
                      id_col="page_id")
    assert list(got.columns) == ["page_id", "score"] and len(got) == 3
    ph = search_phrase(root, ("alpha", "beta"), num_shards=4,
                       id_col="page_id")
    assert dict(zip(ph["page_id"], ph["n_matches"])) == {
        i: 1 for i in range(6)
    }
