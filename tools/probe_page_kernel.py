"""Page-kernel probe: the fused fetch+visit kernel on a fixed page set,
in one process, without Ray.

Runs `ExecuteStage` with `NewsVisitor` and autoParse (perfbench's
`LINK_REGEX`) over 720 frontier rows of the `news_crawl` synthetic web
(the first 40 sites: 80 list pages, 640 article pages), the same
per-page work a crawl's fetch task does. One untimed warm-up pass runs
first; then `--repeat` timed passes.

Prints one JSON line:
- `pages_per_s_per_core`: median, min and max over the timed passes
  (the kernel is single-threaded, so one process is one core);
- `digest`: sha256 over the output rows, equal across changes that
  keep the kernel output-identical;
- `fallbacks`: how many of the 720 pages the fast HTML tokenizer
  rejected, so that `dom.parse` re-parsed them with html.parser;
- cpu count, /proc/stat steal ratio over the timed passes, and the
  git commit.

Usage: python tools/probe_page_kernel.py [--repeat 5]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from perfbench import workloads  # noqa: E402
from webcollector_ray import dom  # noqa: E402
from webcollector_ray.charset import decode_html, guess_encoding  # noqa: E402
from webcollector_ray.model import CrawlDatum, datums_to_table  # noqa: E402
from webcollector_ray.pipelines.autonews import NewsVisitor  # noqa: E402
from webcollector_ray.regex_rule import RegexRule  # noqa: E402
from webcollector_ray.sources.pagestore import (  # noqa: E402
    PageStoreReader,
    SynthPageStore,
)
from webcollector_ray.stages.execute import ExecuteStage  # noqa: E402

# a fixed page set, so pages/s and the digest compare across commits
SITES = 40


def _steal_jiffies() -> int:
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def _total_jiffies() -> int:
    try:
        with open("/proc/stat") as f:
            return sum(int(x) for x in f.readline().split()[1:])
    except (OSError, ValueError):
        return 0


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def frontier(spec):
    urls = []
    for s in range(SITES):
        urls += [f"http://site{s}.test/list-{i}.html"
                 for i in range(spec.lists_per_site)]
        urls += [f"http://site{s}.test/show-{j}.html"
                 for j in range(spec.shows_per_site)]
    return datums_to_table([CrawlDatum(u) for u in urls])


def count_fallbacks(handle: dict, urls) -> int:
    reader = PageStoreReader(handle)
    n = 0
    for u in urls:
        row = reader.get(u)
        content = row["html"] or b""
        html = decode_html(content, guess_encoding(content))
        if dom.parse_fast(html, u) is None:
            n += 1
    return n


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    w = workloads.get("news_crawl")
    cfg = w.config(1)
    handle = SynthPageStore(w.spec).handle()
    table = frontier(w.spec)

    def run():
        stage = ExecuteStage(
            handle, visitor=NewsVisitor(), auto_parse=True,
            regex_rule=RegexRule([workloads.LINK_REGEX]), config=cfg,
            execute_time_ms=1,
        )
        t0 = time.perf_counter()
        out = stage(table)
        return time.perf_counter() - t0, out

    _, out = run()  # warm-up: imports, regex compiles
    rates = []
    s0, t0 = _steal_jiffies(), _total_jiffies()
    for _ in range(args.repeat):
        wall, _ = run()
        rates.append(len(table) / wall)
    s1, t1 = _steal_jiffies(), _total_jiffies()

    digest = hashlib.sha256(
        json.dumps(out.to_pydict(), sort_keys=True).encode()
    ).hexdigest()
    print(json.dumps({
        "pages": len(table),
        "rows_out": len(out),
        "repeat": args.repeat,
        "pages_per_s_per_core": {
            "median": round(statistics.median(rates), 1),
            "min": round(min(rates), 1),
            "max": round(max(rates), 1),
        },
        "digest": digest,
        "fallbacks": count_fallbacks(handle, table["url"].to_pylist()),
        "cpus": len(os.sched_getaffinity(0)),
        "steal_ratio": round((s1 - s0) / max(1, t1 - t0), 4),
        "commit": _commit(),
    }))


if __name__ == "__main__":
    main()
