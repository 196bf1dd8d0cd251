"""One benchmark run: set-up, timed crawls, gates, metrics, result line."""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gate
import probes
import spans
import workloads
from cluster import ROOT, Cluster

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MAX_CPUS = 4
SETUP_REPEATS = 2  # clusters per --trace 0 run; setup_s is their median

# Which end-to-end metric each layer metric should move, and on which
# workload. Written into every trace artifact next to the numbers.
LAYER_MOVES = {
    "crawler.*": "frontier_rows_per_s on checkpoint_resume (5 depths over "
                 "two legs at the default 64 merge buckets: fixed per-depth "
                 "cost adds up)",
    "merge.*": "frontier_rows_per_s on checkpoint_resume (whole crawldb "
               "re-merged every depth); less on news_crawl",
    "generate.*": "none directly: generate runs fused into execute, its "
                  "time is part of execute.s",
    "execute.*": "pages_per_s on news_crawl (CEPF on every article)",
    "route.*": "pages_per_s of a polite crawl (no such workload kept; "
               "probe on the final crawldb)",
    "seen.*": "correctness (false positives drop real links) and "
              "pages_per_s on checkpoint_resume",
    "checkpoint.*": "pages_per_s and frontier_rows_per_s on "
                    "checkpoint_resume (its wall covers writes and resume)",
    "pagestore/extract/links.*": "pages_per_s on news_crawl",
    "merge.kernel_rows_per_s": "frontier_rows_per_s on checkpoint_resume",
    "trace.overhead_s": "none: traced minus untraced crawl seconds",
    "gate.error_ratio": "must stay 0 on every workload",
}


def _cpu_stat() -> tuple:
    """(steal jiffies, total jiffies) of the whole machine."""
    with open("/proc/stat") as f:
        vals = [int(x) for x in f.readline().split()[1:]]
    return vals[7], sum(vals)


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Run:
    """One benchmark process: its workload, cluster and gated samples."""

    def __init__(self, args, num_cpus: int, scratch: str):
        self.args = args
        self.num_cpus = num_cpus
        self.scratch = scratch
        self.w = workloads.get(args.workload)
        self.cluster = Cluster(num_cpus)
        self.samples: list = []
        self.gates: list = []

    # --- set-up ---
    def setup(self) -> float:
        """Start the cluster and warm it up; returns the seconds taken."""
        t0 = time.perf_counter()
        self.cluster.start()
        workloads.warm_up(self.num_cpus)
        return time.perf_counter() - t0

    # --- one crawl, gated ---
    def sample(self, traced: bool):
        tr = spans.Tracer()
        with tr.installed() if traced else contextlib.nullcontext():
            s = workloads.run_sample(self.w, self.num_cpus, self.args.seed,
                                     self.scratch)
        g = gate.check_sample(self.w, s, "full")
        self.gates.append(g)
        self.samples.append(dict(
            traced=traced, wall_s=s.wall_s, legs_s=s.legs,
            # pages of the web, not fetches: a refetch is no throughput
            pages=g.expected_pages, fetched=s.fetched,
            frontier_rows=s.frontier_rows, depths=len(s.depths),
            errors=g.errors, digest=g.digest, problems=g.problems))
        return s, tr

    def timed_loop(self, traced: bool, seconds: float):
        """Crawls rounds while another round fits in `seconds` (at least
        one round), judged by the median round so far. A round is one
        untraced crawl, plus one traced crawl when `traced`. Returns the
        layer metrics of each traced crawl and the last traced (sample,
        tracer), kept for the probes."""
        t_end = time.perf_counter() + seconds
        layers, last, rounds = [], None, []
        while True:
            t0 = time.perf_counter()
            s, _ = self.sample(traced=False)
            workloads.release(s)
            if traced:
                if last is not None:
                    workloads.release(last[0])
                last = self.sample(traced=True)
                layers.append(spans.crawl_layer_metrics(last[1]))
            now = time.perf_counter()
            rounds.append(now - t0)
            if now + statistics.median(rounds) > t_end:
                return layers, last

    # --- metrics ---
    def end_to_end(self, setup_times: list) -> dict:
        walls = [x["wall_s"] for x in self.samples]
        return {
            "pages_per_s": statistics.median(
                x["pages"] / x["wall_s"] for x in self.samples),
            "frontier_rows_per_s": statistics.median(
                x["frontier_rows"] / x["wall_s"] for x in self.samples),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "crawl_s_median": statistics.median(walls),
        }

    def per_layer(self, last, layers: list) -> dict:
        s, tr = last
        m = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        untraced = [x["wall_s"] for x in self.samples if not x["traced"]]
        traced = [x["wall_s"] for x in self.samples if x["traced"]]
        m["trace.overhead_s"] = (statistics.median(traced)
                                 - statistics.median(untraced))
        m.update(probes.kernel_probes(self.w))
        # estimated kernel seconds per fetched page: store lookup + link
        # scan, plus CEPF on the article share
        shows = self.w.spec.shows_per_site / (
            self.w.spec.shows_per_site + self.w.spec.lists_per_site)
        per_page = (1 / m["pagestore.gets_per_s"]
                    + 1 / m["links.fast_pages_per_s"]
                    + shows / m["extract.cepf_pages_per_s"])
        m["execute.kernel_share"] = (m["execute.pages"] * per_page
                                     / (m["execute.s"] * self.num_cpus))
        m.update(probes.route_probe(s.crawldb, self.num_cpus))
        keys = gate.dataset_table(s.crawldb)["key"].to_pylist()
        m.update(probes.seen_probe(keys, seen=s.seen))
        if self.w.checkpoint:
            m.update(probes.checkpoint_metrics(tr, s.checkpoint_root,
                                               len(keys)))
            m["checkpoint.resume_s"] = s.resume_s
        else:
            cm, resumed, root = probes.checkpoint_probe(
                self.w, s, self.num_cpus, self.scratch)
            try:
                # the resumed crawldb must pass the same gate
                self.gates.append(gate.check(
                    self.w.spec, gate.dataset_table(resumed),
                    gate.load_golden("full", self.w.name)))
            finally:
                shutil.rmtree(root, ignore_errors=True)
            m.update(cm)
        workloads.release(s)
        return m


def load_declared() -> dict:
    with open(BENCHMARK_JSON) as f:
        b = json.load(f)
    return {"0": {x["name"]: x["unit"] for x in b["end_to_end"]},
            "1": {x["name"]: x["unit"] for x in b["per_layer"]}}


def run(args, declared: dict) -> int:
    num_cpus = min(MAX_CPUS, len(os.sched_getaffinity(0)))
    os.makedirs(TMP_PARENT, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=TMP_PARENT)
    r = Run(args, num_cpus, scratch)
    artifact = None
    try:
        steal0, total0 = _cpu_stat()
        t0 = time.perf_counter()
        if args.trace:
            setup_times = [r.setup()]
            layers, last = r.timed_loop(True, args.seconds)
            metrics = r.per_layer(last, layers)
            artifact = dict(spans=last[1].artifact(), moves=LAYER_MOVES)
        else:
            # the crawls are split over SETUP_REPEATS fresh clusters, so
            # one cluster's start-up luck weighs less in the medians
            setup_times = []
            for k in range(SETUP_REPEATS):
                if k:
                    r.cluster.stop()
                setup_times.append(r.setup())
                r.timed_loop(False, args.seconds / SETUP_REPEATS)
            metrics = r.end_to_end(setup_times)
        run_s = time.perf_counter() - t0
        steal1, total1 = _cpu_stat()
    finally:
        r.cluster.stop()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass

    attempted = sum(g.expected_pages for g in r.gates)
    # a digest mismatch with no row-level finding is one wrong page
    failed = sum(max(g.errors, int(not g.digest_ok)) for g in r.gates)
    metrics["gate.error_ratio"] = failed / attempted
    want = declared[str(args.trace)]
    missing = set(want) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    correct = all(g.ok for g in r.gates)
    env = dict(
        affinity_cpus=len(os.sched_getaffinity(0)), ray_num_cpus=num_cpus,
        steal_ratio=(steal1 - steal0) / max(1, total1 - total0),
        commit=_commit(),
        workload=args.workload, seed=args.seed,
        trace=args.trace, seconds=args.seconds, run_s=run_s,
        setup_s=setup_times, python=sys.version.split()[0],
    )
    detail = dict(env=env, samples=r.samples, all_metrics=metrics,
                  gate_problems=[p for g in r.gates for p in g.problems])
    if artifact is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump(dict(env=env, metrics=metrics, **artifact), f,
                      indent=1)
        detail["artifact"] = os.path.relpath(path, ROOT)
    result = dict(
        correct=correct, attempted=attempted, failed=failed,
        metrics={k: {"value": metrics[k], "unit": u}
                 for k, u in want.items()})
    print(json.dumps(detail), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


