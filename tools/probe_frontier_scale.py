"""Frontier-at-scale probe: the BASELINE metric's second clause is
"frontier-update throughput on a 10^10-URL Common-Crawl-style Parquet
frontier" — the per-round bench exercises ~23k frontier rows at
sf0.1, so this probe drives the SAME merge/generate/seen machinery at
10M+ rows to evidence the headline shape at 400x depth.

Synthesizes (deterministically, no external data) a Parquet crawldb of
N frontier rows plus a fetch segment (N/10 re-fetched rows) and a link
segment (N/5 candidate URLs, half duplicates of crawldb keys — the
dedup work), then times:

  1. merge_segments — the per-depth fetch > crawldb > link anti-join
     exchange at --buckets (0 = the engine's size-to-data rule),
     consumed by count() so timing covers the full streaming
     execution; --repeat times it several times on the same inputs;
  2. generate — the status filter + execute-count gate over the merged
     frontier;
  3. the sharded bloom URL-seen filter over all N keys (state/seen.py).

Prints one JSON line with rows/s per stage and /proc/stat steal.

Usage: python tools/probe_frontier_scale.py [--rows 10000000]
           [--buckets N] [--repeat R] [--merge-only] [--preload]

Bucket sweep (merge stage only, one process per bucket count):

    for b in 4 16 64 256 0; do
        python tools/probe_frontier_scale.py --rows 2000000 --cpus 4 \
            --preload --merge-only --repeat 3 --buckets $b
    done
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, ".")


def steal() -> int:
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def synth_frontier(n: int, out_dir: str, files: int = 32) -> None:
    """N frontier rows across `files` parquet parts: urls over 50k
    hosts (hot-host skew: host id = i % 50000 but ids < 500 get 20x
    the urls via the modulo fold), status cycling so ~1/3 are
    SUCCESS (generate must drop them)."""
    from webcollector_ray.model import FRONTIER_SCHEMA

    per = n // files
    for f in range(files):
        base = f * per
        i = np.arange(base, base + per, dtype=np.int64)
        host = np.where(i % 10 < 2, i % 500, i % 50_000)
        urls = [
            f"http://h{h}.test/p{j}.html" for h, j in zip(host, i)
        ]
        t = pa.table(
            {
                "key": pa.array(urls, pa.string()),
                "url": pa.array(urls, pa.string()),
                # 1/3 SUCCESS (=5, generate drops), rest UNEXECUTED
                "status": pa.array(
                    np.where(i % 3 == 0, 5, 0).astype(np.int8), pa.int8()
                ),
                "execute_time": pa.array(np.zeros(per, np.int64)),
                # ~1/16 rows exceed the retry limit (default 10)
                "execute_count": pa.array(
                    (i % 16).astype(np.int32), pa.int32()
                ),
                "code": pa.array(np.full(per, -1, np.int32)),
                "location": pa.array([""] * per, pa.string()),
                "meta": pa.array(["{}"] * per, pa.string()),
            },
            schema=FRONTIER_SCHEMA,
        )
        pq.write_table(t, os.path.join(out_dir, f"part-{f:04d}.parquet"))


def synth_links(n_frontier: int, n_links: int, out_dir: str,
                files: int = 8) -> None:
    """Link segment: half the keys collide with crawldb rows (the
    anti-join must drop them), half are genuinely new URLs."""
    from webcollector_ray.model import FRONTIER_SCHEMA

    per = n_links // files
    for f in range(files):
        base = f * per
        i = np.arange(base, base + per, dtype=np.int64)
        dup = i % 2 == 0
        host = np.where(i % 10 < 2, i % 500, i % 50_000)
        old_i = (i * 7) % n_frontier
        old_host = np.where(old_i % 10 < 2, old_i % 500,
                            old_i % 50_000)
        urls = [
            (f"http://h{oh}.test/p{oj}.html" if d
             else f"http://h{h}.test/new{j}.html")
            for d, oh, oj, h, j in zip(dup, old_host, old_i, host, i)
        ]
        t = pa.table(
            {
                "key": pa.array(urls, pa.string()),
                "url": pa.array(urls, pa.string()),
                "status": pa.array(np.zeros(per, np.int8), pa.int8()),
                "execute_time": pa.array(np.zeros(per, np.int64)),
                "execute_count": pa.array(np.zeros(per, np.int32)),
                "code": pa.array(np.full(per, -1, np.int32)),
                "location": pa.array([""] * per, pa.string()),
                "meta": pa.array(["{}"] * per, pa.string()),
            },
            schema=FRONTIER_SCHEMA,
        )
        pq.write_table(t, os.path.join(out_dir, f"part-{f:04d}.parquet"))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rows", type=int, default=10_000_000)
    ap.add_argument("--cpus", type=int, default=32)
    ap.add_argument("--workdir", default="/tmp/frontier_scale_probe")
    ap.add_argument("--preload", action="store_true", help=(
        "materialize the three inputs into the object store before "
        "timing, so the merge number is the exchange kernel alone — "
        "this VM's single virtual disk reads ~1.5 GB of parquet "
        "inside the timed window otherwise, which measures the disk, "
        "not the merge (a real cluster's read bandwidth scales with "
        "nodes; one box's does not)"))
    ap.add_argument("--buckets", type=int, default=0, help=(
        "merge buckets; 0 (default) sizes the merge to its input rows "
        "and the cluster CPUs, as the crawler does"))
    ap.add_argument("--repeat", type=int, default=1,
                    help="time the merge this many times; secs and "
                         "rows_per_s report the median")
    ap.add_argument("--merge-only", action="store_true",
                    help="stop after the merge stage")
    args = ap.parse_args()

    import ray
    import ray.data as rd

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=args.cpus,
            include_dashboard=False, log_to_driver=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from webcollector_ray.config import CrawlerConfig
    from webcollector_ray.stages.generate import generate
    from webcollector_ray.stages.merge import merge_segments
    from webcollector_ray.state.seen import ShardedSeenFilter

    shutil.rmtree(args.workdir, ignore_errors=True)
    db_dir = os.path.join(args.workdir, "crawldb")
    fetch_dir = os.path.join(args.workdir, "fetch")
    link_dir = os.path.join(args.workdir, "link")
    for d in (db_dir, fetch_dir, link_dir):
        os.makedirs(d, exist_ok=True)

    n = args.rows
    t_s0 = time.time()
    synth_frontier(n, db_dir, files=32)
    synth_frontier(n // 10, fetch_dir, files=8)
    synth_links(n, n // 5, link_dir, files=8)
    synth_s = round(time.time() - t_s0, 3)

    # warmup (worker spawn, untimed)
    rd.read_parquet(db_dir).count()

    out = {
        "probe": "frontier_scale", "rows": n, "num_cpus": args.cpus,
        "synth_s": synth_s, "stages": {},
    }

    db_in, fetch_in, link_in = (
        rd.read_parquet(db_dir), rd.read_parquet(fetch_dir),
        rd.read_parquet(link_dir),
    )
    if args.preload:
        db_in = db_in.materialize()
        fetch_in = fetch_in.materialize()
        link_in = link_in.materialize()
        out["preload"] = True

    # 1. per-depth merge: fetch > crawldb > link, consumed by count()
    times = []
    s0 = steal()
    for _ in range(max(1, args.repeat)):
        merged = None  # free the previous repeat's output first
        t0 = time.time()
        merged = merge_segments(
            db_in, fetch_in, link_in, num_buckets=args.buckets,
        ).materialize()  # full streaming execution lands here
        times.append(time.time() - t0)
    n_merged = merged.count()
    sj = steal() - s0
    dt = float(np.median(times))
    in_rows = n + n // 10 + n // 5
    out["stages"]["merge"] = {
        "buckets": merged.num_blocks(),
        "secs": round(dt, 3), "rows_in": in_rows,
        "rows_out": n_merged,
        "rows_per_s": round(in_rows / dt),
        "rows_per_s_all": [round(in_rows / t) for t in times],
        "steal_jiffies": sj,
        "steal_ratio": round(sj / (sum(times) * 100 * args.cpus), 5),
    }
    if args.merge_only:
        print(json.dumps(out))
        shutil.rmtree(args.workdir, ignore_errors=True)
        ray.shutdown()
        return

    # 2. generate over the 10M frontier (status + execute-count gates)
    s0, t0 = steal(), time.time()
    gen = generate(rd.read_parquet(db_dir), CrawlerConfig())
    n_gen = gen.count()
    dt = time.time() - t0
    sj = steal() - s0
    out["stages"]["generate"] = {
        "secs": round(dt, 3), "rows_in": n, "rows_out": n_gen,
        "rows_per_s": round(n / dt),
        "steal_jiffies": sj,
        "steal_ratio": round(sj / (dt * 100 * args.cpus), 5),
    }

    # 3. sharded bloom URL-seen over every frontier key (driver-side
    # shard router + numpy bit ops — the per-actor seen-filter path)
    seen = ShardedSeenFilter(num_shards=64, bits_per_shard=1 << 24)
    keys_tbl = rd.read_parquet(db_dir, columns=["key"])
    s0, t0 = steal(), time.time()
    n_new = 0
    for batch in keys_tbl.iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        already = seen.add_and_check(batch["key"].to_pylist())
        n_new += int(np.sum(~already))
    dt = time.time() - t0
    sj = steal() - s0
    out["stages"]["bloom_seen"] = {
        "secs": round(dt, 3), "rows_in": n, "novel": n_new,
        "rows_per_s": round(n / dt),
        "steal_jiffies": sj,
        "steal_ratio": round(sj / (dt * 100 * args.cpus), 5),
    }

    # 4. checkpoint round-trip: write the merged frontier as a depth
    # checkpoint (partitioned parquet + lineage manifest), then resume
    # — read it back and count. The resumability contract at 10M rows.
    from webcollector_ray.state.frontier import CheckpointStore

    ckpt = CheckpointStore(os.path.join(args.workdir, "ckpt"))
    s0, t0 = steal(), time.time()
    n_written = ckpt.write_table(merged, depth=0, name="crawldb")
    ckpt.write_manifest(0, {"crawldb_size": n_written})
    dt_w = time.time() - t0
    sj_w = steal() - s0
    s0, t0 = steal(), time.time()
    assert ckpt.latest_complete_depth() == 0
    n_back = ckpt.read_dataset(0, "crawldb").count()
    dt_r = time.time() - t0
    sj_r = steal() - s0
    out["stages"]["checkpoint"] = {
        "write_secs": round(dt_w, 3),
        "write_rows_per_s": round(n_written / dt_w),
        "rows": n_written,
        "resume_read_secs": round(dt_r, 3),
        "resume_rows_per_s": round(n_back / dt_r),
        "rows_match": bool(n_back == n_written),
        "steal_jiffies": sj_w + sj_r,
    }

    print(json.dumps(out))
    shutil.rmtree(args.workdir, ignore_errors=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
