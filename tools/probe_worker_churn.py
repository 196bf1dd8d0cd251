"""Worker-churn probe: how many Ray worker processes do checkpointed
approximate-seen crawls start once the cluster is warm?

A Ray worker that has to be started pays its interpreter start and
imports (~0.5 s) inside the crawl that needed it, and an actor keeps a
process of its own until it is killed. This probe starts a local
cluster the way perfbench does (perfbench/cluster.py), runs perfbench's
untimed warm-up crawl plus one checkpoint_resume sample, then runs
--crawls more checkpoint_resume samples (BreadthCrawler with Parquet
checkpoints and the seen filter, stopped after 3 depths and resumed by
a new crawler; perfbench/workloads.py). A background thread scans /proc
every --poll-ms for descendants of this process whose command line is a
Ray worker (`default_worker.py`, or a `ray::` process title), so a
worker that starts and exits between two samples is still counted.

Prints one JSON line: the worker processes alive after warm-up, the
new ones (PIDs not seen before) started during each crawl, and the
process titles (`ray::<task or actor>`) the new ones showed.

Usage: python tools/probe_worker_churn.py [--crawls 2] [--cpus 4]
           [--seed 1]

Run nothing else on Ray at the same time: the scan only sees this
process's descendants, but contention changes how many workers Ray
decides to start.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _worker_title(pid: int):
    """The process title of a Ray worker (`ray::<task or actor>`, or
    `default_worker.py` before Ray renames it), else None."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return None
    if cmd.startswith("ray::"):
        return cmd.split()[0]
    return "default_worker.py" if "default_worker.py" in cmd else None


class WorkerScan:
    """Polls /proc in a thread; records every Ray worker PID (with its
    start time, so a reused PID counts again) below this process, and
    the process titles each one showed."""

    def __init__(self, poll_s: float):
        self.poll_s = poll_s
        self.seen: dict = {}  # (pid, start time) -> titles seen
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def scan(self) -> None:
        from perfbench.cluster import _descendants

        for pid, start in _descendants().items():
            title = _worker_title(pid)
            if title is not None:
                self.seen.setdefault((pid, start), set()).add(title)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.scan()
            self._stop.wait(self.poll_s)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.scan()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--crawls", type=int, default=2)
    ap.add_argument("--cpus", type=int,
                    default=min(4, len(os.sched_getaffinity(0))))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--poll-ms", type=float, default=20.0)
    args = ap.parse_args()

    from perfbench import workloads
    from perfbench.cluster import Cluster

    w = workloads.get("checkpoint_resume")
    cluster = Cluster(args.cpus)
    cluster.start()
    out = {"probe": "worker_churn", "workload": w.name,
           "num_cpus": args.cpus,
           "crawls": args.crawls}
    try:
        with tempfile.TemporaryDirectory() as scratch, \
                WorkerScan(args.poll_ms / 1000.0) as scan:
            workloads.warm_up(args.cpus)
            workloads.release(
                workloads.run_sample(w, args.cpus, args.seed, scratch))
            time.sleep(1.0)  # let the warm-up's last workers register
            scan.scan()
            out["workers_after_warm_up"] = len(scan.seen)
            warm = set(scan.seen)
            per_crawl, walls = [], []
            for i in range(args.crawls):
                before = len(scan.seen)
                s = workloads.run_sample(w, args.cpus, args.seed + 1 + i,
                                         scratch)
                walls.append(round(s.wall_s, 3))
                workloads.release(s)
                scan.scan()
                per_crawl.append(len(scan.seen) - before)
    finally:
        cluster.stop()
    out["new_workers"] = sum(per_crawl)
    out["new_workers_per_crawl"] = per_crawl
    # what the new workers ran: tells a seen-filter worker from others
    out["new_worker_titles"] = sorted(
        {t for k, ts in scan.seen.items() if k not in warm for t in ts})
    out["crawl_s"] = walls
    print(json.dumps(out))


if __name__ == "__main__":
    main()
