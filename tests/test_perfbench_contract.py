"""The engine surface that perfbench/ imports and binds.

perfbench changes only together with the benchmark, so an engine change
must keep every name it imports at module load, and every crawler
binding its tracer swaps for a timing wrapper (perfbench/spans.py). A
missing name makes every benchmark run exit before it measures; an
exception in the hooks ends a traced run the same way.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


@pytest.fixture(scope="module")
def pb():
    sys.path.insert(0, PERFBENCH)
    try:
        import gate
        import probes
        import spans
        import workloads

        yield dict(gate=gate, probes=probes, spans=spans,
                   workloads=workloads)
    finally:
        sys.path.remove(PERFBENCH)


def test_tracer_binds_and_restores_the_engine(pb):
    import webcollector_ray.pipelines.crawler as cm
    from webcollector_ray.state.frontier import CheckpointStore

    names = ("dedupe_by_key_refs", "dedupe_by_key", "merge_segments",
             "generate", "run_execute", "DepthMetrics")
    before = {n: getattr(cm, n) for n in names}
    write, read = CheckpointStore.write_table, CheckpointStore.read_dataset
    with pb["spans"].Tracer().installed():
        assert all(getattr(cm, n) is not before[n] for n in names)
    assert {n: getattr(cm, n) for n in names} == before
    assert CheckpointStore.write_table is write
    assert CheckpointStore.read_dataset is read


@pytest.mark.parametrize("name", ["news_crawl", "checkpoint_resume"])
def test_traced_mini_crawl(ray_session, pb, tmp_path, name):
    """A traced crawl of each workload's self-test size passes its gate
    and yields its layer metrics: one merge in the first inject phase,
    and every depth's merge span counts that depth's crawldb."""
    spans, workloads = pb["spans"], pb["workloads"]
    w = workloads.get(name, "mini")
    tr = spans.Tracer()
    with tr.installed():
        s = workloads.run_sample(w, 2, 1, str(tmp_path))
    try:
        g = pb["gate"].check_sample(w, s, "mini")
        assert g.ok, g.problems
        metrics = spans.crawl_layer_metrics(tr)
        assert metrics["crawler.depths"] == len(s.depths)
        assert metrics["generate.rows_out"] == s.fetched
        assert tr.artifact()
        phases = tr.phases()
        assert [c["name"] for c in phases[0].children] == ["merge"]
        for p in phases:
            for c in p.children:
                if p.kind == "depth" and c["name"] == "merge":
                    assert c["rows_out"] == p.metrics.crawldb_size
    finally:
        workloads.release(s)
