"""Job entry point — `ray job submit -- python -m webcollector_ray ...`.

Subcommands:

  crawl      run a BFS crawl (the §3.1 lifecycle) from CLI flags
  inspect    print a checkpointed crawldb depth (S5 offline reader)
  bucketize  pre-bucket a pages parquet table into a BucketedPageStore
  clean-corpus  [pii scrub ->] quality + repetition gates -> exact +
             fuzzy dedup [-> eval decontamination] [-> LM tail cut]
             [-> chunking] -> resumable partitioned parquet (skips
             complete partitions)
  report     corpus health dashboard: source x lang mix, per-source
             dup rates + length quantiles, length histogram, top words
  graph      pagerank | hits | degrees | components | triangles |
             reciprocity over an edges parquet (src, dst)

The pages source (`--pages`) accepts:
  - a parquet file/dir of Common-Crawl-style pages (read + broadcast),
  - a BucketedPageStore directory (contains _store_meta.json),
  - `synth:sites=N` for the deterministic synthetic web.

On a real cluster this module is what `ray job submit` runs; locally it
auto-inits Ray (guarded, per the driver contract).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ensure_ray(cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        kwargs = dict(include_dashboard=False)
        if os.environ.get("RAY_ADDRESS") in (None, "local"):
            kwargs["address"] = "local"
            if cpus:
                kwargs["num_cpus"] = cpus
        ray.init(**kwargs)


def _load_pages(spec: str):
    from .sources.pagestore import BucketedPageStore, SynthPageStore
    from .synth import SynthSpec

    if spec.startswith("synth:"):
        kw = dict(kv.split("=") for kv in spec[6:].split(",") if kv)
        return SynthPageStore(SynthSpec(num_sites=int(kw.get("sites", 10))))
    if os.path.isfile(os.path.join(spec, "_store_meta.json")):
        return BucketedPageStore(spec)
    import pyarrow.parquet as pq

    return pq.read_table(spec)


def cmd_crawl(args) -> None:
    _ensure_ray(args.cpus)
    from .config import CrawlerConfig
    from .pipelines.autonews import NewsVisitor
    from .pipelines.crawler import Crawler

    cfg = CrawlerConfig(
        topn=args.topn,
        fetch_concurrency=args.fetch_concurrency,
        fetch_batch_size=args.batch_size,
        merge_num_buckets=args.merge_buckets,
        resumable=args.resume,
        obey_robots=args.obey_robots,
        politeness_budget_ms=args.politeness_ms,
        approximate_seen=args.approximate_seen,
        priority_meta_key=args.priority_key,
    )
    c = Crawler(
        _load_pages(args.pages),
        crawl_path=args.crawl_path,
        visitor=NewsVisitor() if args.extract_news else None,
        config=cfg,
    )
    seeds = list(args.seed)
    if args.seeds_file:
        with open(args.seeds_file) as f:
            seeds += [ln.strip() for ln in f if ln.strip()]
    c.add_seed(seeds)
    for r in args.regex:
        c.add_regex(r)
    res = c.start(args.depth)
    out = {
        "depths": [
            {
                "depth": m.depth,
                "generated": m.generated,
                "links": m.links,
                "ok": m.fetch_success,
                "fail": m.fetch_failed,
                "crawldb": m.crawldb_size,
                "merge_buckets": m.merge_buckets,
                "seen_size": m.seen_size,
                "merge_s": round(m.merge_s, 3),
                "execute_s": round(m.execute_s, 3),
                "seconds": round(m.seconds, 3),
            }
            for m in res.depths
        ],
        "total_fetched": res.total_fetched,
        "seconds": round(res.seconds, 3),
    }
    print(json.dumps(out))


def cmd_inspect(args) -> None:
    _ensure_ray(args.cpus)
    from .functions.output import list_crawldb

    df = list_crawldb(args.crawl_path, args.depth)
    with __import__("pandas").option_context("display.max_rows", args.limit):
        print(df.head(args.limit).to_string())
    print(f"... {len(df)} rows total")


def cmd_bucketize(args) -> None:
    _ensure_ray(args.cpus)
    import ray.data as rd

    from .sources.pagestore import build_bucketed_store

    pages = rd.read_parquet(args.pages)
    build_bucketed_store(pages, args.out, num_buckets=args.buckets)
    print(json.dumps({"out": args.out, "num_buckets": args.buckets}))


def cmd_clean_corpus(args) -> None:
    """The composed training-data pipeline as a job: [PII scrub ->]
    quality gate -> repetition gate -> exact dedup -> minhash-LSH
    fuzzy dedup (keep each near-dup cluster's min-id representative)
    [-> eval-set decontamination] [-> LM-score tail cut] [-> sequence
    chunking] -> resumable hash-partitioned parquet sink. Re-running after a crash skips
    partitions that already have their _SUCCESS marker."""
    _ensure_ray(args.cpus)
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from .functions.dedup import (
        cluster_pairs_minlabel,
        exact_dedup,
        minhash_dedup_pairs,
    )
    from .functions.joins import hash_join
    from .functions.output import write_partitioned_parquet
    from .functions.textstats import (
        quality_batch,
        repetition_stats_batch,
    )

    docs = rd.read_parquet(args.docs, columns=[args.id_col, args.text_col])

    if args.scrub_pii:
        from .functions.pii import pii_scrub_batch

        docs = docs.map_batches(
            lambda b: pii_scrub_batch(b, text_col=args.text_col).select(
                [args.id_col, args.text_col]
            ),
            batch_format="pyarrow",
        )

    def quality_gate(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch, text_col=args.text_col)
        m = pc.and_(
            pc.greater_equal(q["n_tokens"], args.min_tokens),
            pc.greater_equal(q["alpha_ratio"], args.min_alpha),
        )
        return batch.filter(m)

    def repetition_gate(batch: pa.Table) -> pa.Table:
        r = repetition_stats_batch(
            batch, text_col=args.text_col, id_col=args.id_col
        )
        m = pc.and_(
            pc.less_equal(r["dup_3gram_frac"], args.max_dup3),
            pc.less_equal(r["top_word_frac"], args.max_topword),
        )
        return batch.filter(m)

    gated = docs.map_batches(
        quality_gate, batch_format="pyarrow"
    ).map_batches(repetition_gate, batch_format="pyarrow")
    deduped = exact_dedup(
        gated, text_col=args.text_col, id_col=args.id_col
    ).materialize()

    pairs = minhash_dedup_pairs(
        deduped, threshold=args.jaccard,
        text_col=args.text_col, id_col=args.id_col,
    )
    labels = cluster_pairs_minlabel(pairs, id_col=args.id_col)

    def non_reps(batch: pa.Table) -> pa.Table:
        if args.id_col not in batch.column_names:
            return pa.table({args.id_col: pa.nulls(0, pa.int64())})
        return batch.filter(
            pc.not_equal(batch[args.id_col], batch["cluster"])
        ).select([args.id_col])

    dropped = labels.map_batches(non_reps, batch_format="pyarrow")
    kept = hash_join(deduped, dropped, on=args.id_col, how="anti")

    if args.decontam_eval:
        from .functions.decontam import (
            build_eval_gram_set,
            contamination_flags,
        )

        ev = rd.read_parquet(args.decontam_eval, columns=[args.text_col])
        grams_ref = build_eval_gram_set(
            ev, k=args.decontam_k, text_col=args.text_col
        )
        flags = contamination_flags(
            kept, grams_ref, k=args.decontam_k,
            text_col=args.text_col, id_col=args.id_col,
        )
        contaminated = flags.map_batches(
            lambda b: b.filter(pc.greater(b["n_hits"], 0)).select(
                [args.id_col]
            ),
            batch_format="pyarrow",
        )
        kept = hash_join(kept, contaminated, on=args.id_col, how="anti")

    if args.lm_quantile > 0:
        from .functions.lm import train_unigram_lm, unigram_lm_score
        from .functions.sketches import quantiles_sketch_by_key

        model_ref, total = train_unigram_lm(kept, text_col=args.text_col)
        scored = unigram_lm_score(
            kept, model_ref,
            text_col=args.text_col, id_col=args.id_col,
        ).materialize()
        keyed = scored.map_batches(
            lambda b: b.append_column(
                "k", pa.array([0] * len(b), pa.int64())
            ),
            batch_format="pyarrow",
        )
        qname = f"p{int(args.lm_quantile * 100)}"
        # the whole corpus shares one key, so the threshold MUST come
        # from the mergeable histogram sketch (bounded per-task state);
        # exact quantiles_by_key would pull every score into one task
        # (ADVICE r2)
        q = quantiles_sketch_by_key(
            keyed, key_col="k", value_col="lm_score",
            qs=(args.lm_quantile,),
        ).to_pandas()
        thr = float(q[qname].iloc[0])
        low = scored.map_batches(
            lambda b: b.filter(pc.less(b["lm_score"], thr)).select(
                [args.id_col]
            ),
            batch_format="pyarrow",
        )
        kept = hash_join(kept, low, on=args.id_col, how="anti")

    if args.chunk_tokens:
        from .functions.textstats import chunk_documents_batch

        kept = kept.map_batches(
            lambda b: chunk_documents_batch(
                b, chunk_tokens=args.chunk_tokens,
                text_col=args.text_col, id_col=args.id_col,
            ),
            batch_format="pyarrow",
        )

    manifest = write_partitioned_parquet(
        kept, args.out, key_col=args.id_col,
        num_partitions=args.partitions,
    )
    print(
        json.dumps(
            {
                "out": args.out,
                "partitions_written": len(manifest),
                "rows_written": sum(manifest.values()),
            }
        )
    )


def cmd_report(args) -> None:
    """Corpus health report: mix crosstab, per-source dup rates and
    length quantiles, the log2 length histogram and top words — the
    curation dashboard inputs, each a bounded aggregate."""
    _ensure_ray(args.cpus)
    import ray.data as rd

    from .functions.dedup import dup_rate_by_group
    from .functions.sketches import quantiles_by_key, vocab_top_words
    from .functions.textstats import length_histogram, token_count_batch

    ds = rd.read_parquet(args.docs)
    sections = {}
    sections["mix"] = None
    try:
        from ray.data.aggregate import Sum
        import pyarrow as pa

        def partial(batch: pa.Table) -> pa.Table:
            import pandas as pd

            t = token_count_batch(batch, args.text_col)
            df = t.select(["source", "lang", "n_tokens"]).to_pandas()
            g = df.groupby(["source", "lang"], as_index=False).agg(
                n_docs=("n_tokens", "size"),
                sum_tokens=("n_tokens", "sum"),
            )
            return pa.Table.from_pandas(g, preserve_index=False)

        sections["mix"] = ds.map_batches(
            partial, batch_format="pyarrow"
        ).groupby(["source", "lang"]).aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_tokens", alias_name="sum_tokens"),
        ).to_pandas()
    except Exception:
        pass  # docs without source/lang columns still get the rest
    sections["dup_rate"] = dup_rate_by_group(
        ds, group_col="source", text_col=args.text_col
    ).to_pandas() if sections["mix"] is not None else None
    sections["length_hist"] = length_histogram(
        ds, text_col=args.text_col
    ).to_pandas()
    wtok = ds.map_batches(
        lambda b: token_count_batch(b, args.text_col).select(
            ["source", "n_tokens"]
        ),
        batch_format="pyarrow",
    ) if sections["mix"] is not None else None
    if wtok is not None:
        sections["length_quantiles"] = quantiles_by_key(
            wtok, key_col="source", value_col="n_tokens"
        ).to_pandas()
    sections["top_words"] = vocab_top_words(
        ds, text_col=args.text_col, n=args.top_words
    ).to_pandas()
    for name, df in sections.items():
        if df is None:
            continue
        print(f"== {name} ==")
        print(df.to_string(index=False))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, df in sections.items():
            if df is not None:
                df.to_parquet(os.path.join(args.out, f"{name}.parquet"))


def cmd_graph(args) -> None:
    """Link-graph analytics over an edges parquet (src, dst)."""
    _ensure_ray(args.cpus)
    import ray.data as rd

    from .functions import graph as G

    edges = rd.read_parquet(args.edges)
    if args.op == "pagerank":
        out = G.pagerank_fixed(
            edges, iters=args.iters, src_col=args.src_col,
            dst_col=args.dst_col, num_buckets=args.buckets,
        )
    elif args.op == "hits":
        out = G.hits_fixed(
            edges, iters=args.iters, src_col=args.src_col,
            dst_col=args.dst_col, num_buckets=args.buckets,
        )
    elif args.op == "degrees":
        out = G.degree_histogram(
            edges, src_col=args.src_col, dst_col=args.dst_col,
            num_buckets=args.buckets,
        )
    elif args.op == "components":
        out = G.component_size_census(
            edges, src_col=args.src_col, dst_col=args.dst_col,
            num_buckets=args.buckets,
        )
    elif args.op == "triangles":
        out = G.triangle_count(
            edges, src_col=args.src_col, dst_col=args.dst_col,
            num_buckets=args.buckets,
        )
    else:  # reciprocity
        out = G.reciprocity_census(
            edges, src_col=args.src_col, dst_col=args.dst_col,
            num_buckets=args.buckets,
        )
    if args.out:
        out.write_parquet(args.out)
        print(f"wrote {args.out}")
    else:
        print(out.to_pandas().to_string(index=False))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(prog="python -m webcollector_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("crawl")
    c.add_argument("--cpus", type=int, default=None)
    c.add_argument("--pages", required=True)
    c.add_argument("--seed", action="append", default=[])
    c.add_argument("--seeds-file")
    c.add_argument("--regex", action="append", default=[])
    c.add_argument("--depth", type=int, default=4)
    c.add_argument("--crawl-path")
    c.add_argument("--resume", action="store_true")
    c.add_argument("--topn", type=int, default=0)
    c.add_argument("--fetch-concurrency", type=int, default=8)
    c.add_argument("--batch-size", type=int, default=256)
    c.add_argument("--merge-buckets", type=int, default=0, help=(
        "hash buckets per merge exchange; 0 (default) sizes each merge "
        "to its input rows and the cluster CPUs"))
    c.add_argument("--obey-robots", action="store_true")
    c.add_argument("--politeness-ms", type=int, default=0)
    c.add_argument("--approximate-seen", action="store_true")
    c.add_argument("--priority-key", default="")
    c.add_argument("--extract-news", action="store_true")
    c.set_defaults(fn=cmd_crawl)

    i = sub.add_parser("inspect")
    i.add_argument("--cpus", type=int, default=None)
    i.add_argument("--crawl-path", required=True)
    i.add_argument("--depth", type=int, default=None)
    i.add_argument("--limit", type=int, default=50)
    i.set_defaults(fn=cmd_inspect)

    b = sub.add_parser("bucketize")
    b.add_argument("--cpus", type=int, default=None)
    b.add_argument("--pages", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--buckets", type=int, default=64)
    b.set_defaults(fn=cmd_bucketize)

    cc = sub.add_parser("clean-corpus")
    cc.add_argument("--cpus", type=int, default=None)
    cc.add_argument("--docs", required=True)
    cc.add_argument("--out", required=True)
    cc.add_argument("--id-col", default="doc_id")
    cc.add_argument("--text-col", default="text")
    cc.add_argument("--min-tokens", type=int, default=10)
    cc.add_argument("--min-alpha", type=float, default=0.5)
    cc.add_argument("--max-dup3", type=float, default=0.5)
    cc.add_argument("--max-topword", type=float, default=0.5)
    cc.add_argument("--jaccard", type=float, default=0.5)
    cc.add_argument("--scrub-pii", action="store_true")
    cc.add_argument("--decontam-eval", default=None,
                    help="parquet of eval docs; drop training docs "
                         "sharing any word k-gram with it")
    cc.add_argument("--decontam-k", type=int, default=8)
    cc.add_argument("--chunk-tokens", type=int, default=0,
                    help="emit token-window chunk rows instead of docs")
    cc.add_argument("--lm-quantile", type=float, default=0.0,
                    help="drop docs below this corpus LM-score "
                         "quantile (CCNet tail cut), e.g. 0.25")
    cc.add_argument("--partitions", type=int, default=64)
    cc.set_defaults(fn=cmd_clean_corpus)

    rp = sub.add_parser("report")
    rp.add_argument("--cpus", type=int, default=None)
    rp.add_argument("--docs", required=True)
    rp.add_argument("--text-col", default="text")
    rp.add_argument("--top-words", type=int, default=50)
    rp.add_argument("--out", default=None)
    rp.set_defaults(fn=cmd_report)

    gp = sub.add_parser("graph")
    gp.add_argument("--cpus", type=int, default=None)
    gp.add_argument("--edges", required=True)
    gp.add_argument("--op", required=True,
                    choices=["pagerank", "hits", "degrees",
                             "components", "triangles", "reciprocity"])
    gp.add_argument("--src-col", default="src")
    gp.add_argument("--dst-col", default="dst")
    gp.add_argument("--iters", type=int, default=3)
    gp.add_argument("--buckets", type=int, default=32)
    gp.add_argument("--out", default=None)
    gp.set_defaults(fn=cmd_graph)

    args = ap.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
