"""Layer spans for the traced run, recorded from outside the engine.

`Tracer.installed()` swaps the module bindings that
webcollector_ray/pipelines/crawler.py calls for timing wrappers, and puts
the originals back on exit:

- crawler.dedupe_by_key_refs / dedupe_by_key / merge_segments -> "merge"
- crawler.generate -> "generate" (lazy: its work runs fused into execute)
- crawler.run_execute -> "execute"
- functions.joins.exchange_reduce -> "route"
- CheckpointStore.write_table / read_dataset -> "checkpoint.write" / ".read"

Each wrapper forces its result inside the span (ray.wait on returned refs,
materialize() on a returned Dataset). The crawler forces each of them
itself right after the call, so forcing early changes no behaviour.
Two more hooks give the frame the spans hang in: Crawler.start (one "leg"
per call) and DepthMetrics, whose construction marks the start of a depth.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field
from typing import List

import ray

TOLERANCE_S = 0.002  # clock slack when nesting spans inside a depth


@dataclass
class Phase:
    """A slice of one leg's wall time: "inject", "depth" or "fold"."""

    kind: str
    leg: int  # index into Tracer.legs
    start: float
    end: float
    metrics: object = None  # DepthMetrics for a depth phase
    children: List[dict] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.wall - sum(c["end"] - c["start"] for c in self.children)


class Tracer:
    def __init__(self):
        self.spans: List[dict] = []
        self.marks: List[tuple] = []  # (perf_counter, DepthMetrics)
        self.legs: List[tuple] = []  # (start, end) of each Crawler.start

    def _record(self, name: str, t0: float, **attrs) -> None:
        self.spans.append(dict(name=name, start=t0, end=time.perf_counter(),
                               **attrs))

    @contextlib.contextmanager
    def installed(self):
        import webcollector_ray.functions.joins as joins
        import webcollector_ray.pipelines.crawler as cm
        from webcollector_ray.state.frontier import CheckpointStore

        rec = self._record
        orig = dict(
            dedupe_by_key_refs=cm.dedupe_by_key_refs,
            dedupe_by_key=cm.dedupe_by_key,
            merge_segments=cm.merge_segments,
            generate=cm.generate,
            run_execute=cm.run_execute,
            DepthMetrics=cm.DepthMetrics,
        )
        orig_start = cm.Crawler.start
        orig_exchange = joins.exchange_reduce
        orig_write = CheckpointStore.write_table
        orig_read = CheckpointStore.read_dataset
        marks, legs = self.marks, self.legs

        def dedupe_by_key_refs(*a, **kw):
            t0 = time.perf_counter()
            out = orig["dedupe_by_key_refs"](*a, **kw)
            refs = [r for group in out for r in group]
            ray.wait(refs, num_returns=len(refs), fetch_local=False)
            counts = ray.get(out[1])
            rec("merge", t0, kind="depth", rows_out=sum(counts),
                buckets=counts, eligible=sum(ray.get(out[2])))
            return out

        def dedupe_by_key(*a, **kw):
            t0 = time.perf_counter()
            ds = orig["dedupe_by_key"](*a, **kw).materialize()
            rec("merge", t0, kind="inject", rows_out=ds.count())
            return ds

        def merge_segments(*a, **kw):
            t0 = time.perf_counter()
            ds = orig["merge_segments"](*a, **kw).materialize()
            rec("merge", t0, kind="fold", rows_out=ds.count())
            return ds

        def generate(*a, **kw):
            t0 = time.perf_counter()
            ds = orig["generate"](*a, **kw)
            rec("generate", t0)
            return ds

        def run_execute(*a, execute_time_ms=None, **kw):
            t0 = time.perf_counter()
            ds = orig["run_execute"](
                *a, execute_time_ms=execute_time_ms, **kw).materialize()
            rec("execute", t0, rows_out=ds.count())
            return ds

        def exchange_reduce(*a, **kw):
            t0 = time.perf_counter()
            ds = orig_exchange(*a, **kw).materialize()
            rec("route", t0, rows_out=ds.count())
            return ds

        def write_table(store, ds, depth, name):
            t0 = time.perf_counter()
            rows = orig_write(store, ds, depth, name)
            rec("checkpoint.write", t0, table=name, table_depth=depth,
                rows=rows)
            return rows

        def read_dataset(store, depth, name):
            t0 = time.perf_counter()
            ds = orig_read(store, depth, name).materialize()
            rec("checkpoint.read", t0, table=name, table_depth=depth)
            return ds

        class DepthMetrics(orig["DepthMetrics"]):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                marks.append((time.perf_counter(), self))

        def start(crawler, *a, **kw):
            t0 = time.perf_counter()
            try:
                return orig_start(crawler, *a, **kw)
            finally:
                legs.append((t0, time.perf_counter()))

        try:
            for name, fn in (("dedupe_by_key_refs", dedupe_by_key_refs),
                             ("dedupe_by_key", dedupe_by_key),
                             ("merge_segments", merge_segments),
                             ("generate", generate),
                             ("run_execute", run_execute),
                             ("DepthMetrics", DepthMetrics)):
                setattr(cm, name, fn)
            cm.Crawler.start = start
            joins.exchange_reduce = exchange_reduce
            CheckpointStore.write_table = write_table
            CheckpointStore.read_dataset = read_dataset
            yield self
        finally:
            for name, fn in orig.items():
                setattr(cm, name, fn)
            cm.Crawler.start = orig_start
            joins.exchange_reduce = orig_exchange
            CheckpointStore.write_table = orig_write
            CheckpointStore.read_dataset = orig_read

    def spans_named(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name]

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans_named(name))

    def phases(self) -> List[Phase]:
        """Partition every leg's wall time into phases: inject (leg start
        to the first depth), one phase per depth (its DepthMetrics mark to
        the next, so manifests and ray.get calls fall inside it) and the
        trailing fold (from the final merge_segments to the leg's end).
        Every span is a child of exactly one phase and must end inside it;
        a phase's self time is what no span covers."""
        out: List[Phase] = []
        for n, (s0, s1) in enumerate(self.legs):
            marks = [(t, m) for t, m in self.marks if s0 <= t <= s1]
            spans = [sp for sp in self.spans if s0 <= sp["start"] <= s1]
            fold0 = min((sp["start"] for sp in spans
                         if sp["name"] == "merge" and sp["kind"] == "fold"),
                        default=s1)
            bounds = [t for t, _ in marks] + [fold0]
            leg = [Phase("inject", n, s0, bounds[0])]
            leg += [Phase("depth", n, t, bounds[k + 1], m)
                    for k, (t, m) in enumerate(marks)]
            if fold0 < s1:
                leg.append(Phase("fold", n, fold0, s1))
            for sp in spans:
                p = next(p for p in reversed(leg) if p.start <= sp["start"])
                if sp["end"] > p.end + TOLERANCE_S:
                    raise RuntimeError(
                        f"span {sp['name']} crosses the end of its "
                        f"{p.kind} phase")
                p.children.append(sp)
            for p in leg:
                if p.self_s < -TOLERANCE_S:
                    raise RuntimeError(f"{p.kind} spans exceed its wall time")
            out += leg
        return out

    def artifact(self) -> List[dict]:
        """Spans as (id, name, depth, start, end, parent) records, times
        relative to the first leg's start: one "crawler.start" record per
        leg, its phases as children, the layer spans under the phases."""
        t0 = self.legs[0][0] if self.legs else 0.0
        recs: List[dict] = []
        for n, (s0, s1) in enumerate(self.legs):
            recs.append(dict(id=len(recs), name="crawler.start", depth=None,
                             start=s0 - t0, end=s1 - t0, parent=None, leg=n))
        for p in self.phases():
            depth = p.metrics.depth if p.metrics is not None else None
            pid = len(recs)
            recs.append(dict(id=pid, name=f"crawler.{p.kind}", depth=depth,
                             start=p.start - t0, end=p.end - t0,
                             parent=p.leg, self_s=p.self_s))
            for c in p.children:
                attrs = {k: v for k, v in c.items()
                         if k not in ("name", "start", "end", "buckets")}
                recs.append(dict(id=len(recs), name=c["name"], depth=depth,
                                 start=c["start"] - t0, end=c["end"] - t0,
                                 parent=pid, **attrs))
        return recs


def crawl_layer_metrics(tr: Tracer) -> dict:
    """Per-layer numbers of one traced crawl (all legs)."""
    phases = tr.phases()
    depths = [p for p in phases if p.kind == "depth"]
    dms = [p.metrics for p in depths]
    walls = [p.wall for p in depths]
    fold = sum(p.wall for p in phases if p.kind == "fold")
    # the terminal depth (nothing generated) only confirms exhaustion
    fold += sum(p.wall for p in depths if p.metrics.generated == 0)

    merges = tr.spans_named("merge")
    merge_s = sum(s["end"] - s["start"] for s in merges)
    rows_out = sum(s["rows_out"] for s in merges)
    dedup_in = dedup_out = elig = 0
    skews = []
    for k, p in enumerate(depths):
        for s in p.children:
            if s["name"] != "merge" or s.get("kind") != "depth":
                continue
            prev = dms[k - 1]
            dedup_in += prev.crawldb_size + prev.generated + prev.links
            dedup_out += s["rows_out"]
            elig += s["eligible"]
            b = s["buckets"]
            skews.append(max(b) / (sum(b) / len(b)))

    generated = sum(m.generated for m in dms)
    frontier = sum(m.crawldb_size for m in dms)
    execute_s = tr.seconds("execute")
    links_out = sum(s["rows_out"] for s in tr.spans_named("execute")) - generated
    return {
        "crawler.depths": len(depths),
        "crawler.depth_s.p50": statistics.median(walls),
        "crawler.depth_s.max": max(walls),
        "crawler.inject_s": sum(p.wall for p in phases if p.kind == "inject"),
        "crawler.final_fold_s": fold,
        "crawler.other_s": sum(p.self_s for p in depths),
        "merge.s": merge_s,
        "merge.calls": len(merges),
        "merge.rows_out": rows_out,
        "merge.rows_per_s": rows_out / merge_s,
        "merge.dedup_ratio": dedup_out / dedup_in,
        "merge.bucket_skew": statistics.median(skews),
        "merge.eligible_ratio": elig / dedup_out,
        "generate.rows_out": generated,
        "generate.yield": generated / frontier,
        "execute.s": execute_s,
        "execute.pages": generated,
        "execute.pages_per_s": generated / execute_s,
        "execute.links_out": links_out,
        "execute.fetch_failed": sum(m.fetch_failed for m in dms),
    }
