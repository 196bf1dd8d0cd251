"""Checkpoint commit order: a depth's manifest is its commit point.

The fetch tasks write their own fetch/link parts, the crawldb parts are
written by tasks nothing waits for, and depth i's manifest is written
after depth i+1's merge is launched. These tests kill a crawl at each
step of that order and resume it, check the manifests' lineage against
the files, and check that a resume reads its checkpoint as block refs.
"""

import os
import subprocess
import sys
import textwrap

import pyarrow as pa
import pytest

from webcollector_ray.config import CrawlerConfig
from webcollector_ray.model import FRONTIER_SCHEMA
from webcollector_ray.pipelines.crawler import BreadthCrawler
from webcollector_ray.state.frontier import CheckpointStore
from webcollector_ray.synth import SynthSpec, synth_pages_table

SPEC = SynthSpec(num_sites=2, redirects_per_site=1, failures_per_site=1)
REGEX = r"http://site[0-9]+\.test/(list|show)-[0-9]+\.html"
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CFG = dict(fetch_concurrency=2, merge_num_buckets=8, approximate_seen=True)
KILL_DEPTH = 2
KILLED = 17

# The child crawls with its own Ray cluster and ends itself from a
# function it patches (the engine has no hook for this): `crash` kills
# every process of that cluster, as if the node went down, then the
# driver with os._exit. No task of the dead crawl outlives it.
CHILD = textwrap.dedent("""
    import json, os, signal, sys, types

    import ray


    def crash():
        kids = {{}}
        for d in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open(f"/proc/{{d}}/stat") as f:
                    stat = f.read()
            except OSError:
                continue
            ppid = int(stat[stat.rindex(")") + 2:].split()[1])
            kids.setdefault(ppid, []).append(int(d))
        todo, tree = [os.getpid()], []
        while todo:
            for c in kids.get(todo.pop(), []):
                tree.append(c)
                todo.append(c)
        for pid in tree:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        os._exit({killed})


    mode, root, k = sys.argv[1], sys.argv[2], int(sys.argv[3])
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import webcollector_ray.pipelines.crawler as cm
    from webcollector_ray.config import CrawlerConfig
    from webcollector_ray.state import frontier
    from webcollector_ray.synth import SynthSpec, synth_pages_table

    if mode == "after_fetch_wave":
        run_execute = cm.run_execute

        def patched(*a, **kw):
            out = run_execute(*a, **kw)
            if kw["execute_time_ms"] == 1_000_000 + k:
                out.materialize()  # depth k's parts are written
                crash()
            return out

        cm.run_execute = patched
    elif mode == "before_manifest":
        merges = []
        dedupe = cm.dedupe_by_key_refs
        write_manifest = frontier.CheckpointStore.write_manifest

        def counting(*a, **kw):
            merges.append(1)
            return dedupe(*a, **kw)

        def patched(store, depth, *a, **kw):
            # the inject merge is depth 0's; depths 1..k+1 launch one each
            if depth == k and len(merges) == k + 2:
                crash()
            return write_manifest(store, depth, *a, **kw)

        cm.dedupe_by_key_refs = counting
        frontier.CheckpointStore.write_manifest = patched
    elif mode == "manifest_tmp":
        def dump(obj, f, **kw):
            if obj.get("depth") == k:
                f.write(json.dumps(obj)[:40])
                f.flush()
                crash()
            return json.dump(obj, f, **kw)

        frontier.json = types.SimpleNamespace(dump=dump, load=json.load)

    spec = SynthSpec(num_sites=2, redirects_per_site=1, failures_per_site=1)
    c = cm.BreadthCrawler(root, True, synth_pages_table(spec),
                          config=CrawlerConfig(resumable=True, **{cfg}),
                          deterministic_time=True)
    c.add_seed(spec.seeds())
    c.add_regex({regex!r})
    c.start(10)
    os._exit(0)
""").format(killed=KILLED, cfg=CFG, regex=REGEX)


@pytest.fixture(scope="module")
def pages():
    return synth_pages_table(SPEC)


def _crawl(pages, root, depth=10, **over):
    c = BreadthCrawler(root, True, pages,
                       config=CrawlerConfig(**dict(CFG, **over)),
                       deterministic_time=True)
    c.add_seed(SPEC.seeds())
    c.add_regex(REGEX)
    return c.start(depth)


def _crawldb(res) -> pa.Table:
    import ray

    blocks = ray.get(list(res.crawldb.to_arrow_refs()))
    return pa.concat_tables(blocks).select(FRONTIER_SCHEMA.names).sort_by("key")


@pytest.mark.parametrize("mode", [
    "after_fetch_wave", "before_manifest", "manifest_tmp",
])
def test_killed_crawl_resumes_to_same_crawldb(ray_session, pages, tmp_path,
                                              mode):
    """Killed after depth k's fetch wave wrote its parts, after depth
    k+1's merge was launched but before depth k's manifest, or halfway
    through the manifest's temp file: depth k has parts but no manifest,
    so the resume starts at depth k, rewrites it, and ends in the
    uninterrupted crawl's crawldb."""
    want = _crawldb(_crawl(pages, str(tmp_path / "straight")))
    root = str(tmp_path / "killed")
    env = dict(os.environ, PYTHONPATH=REPO)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, mode, root, str(KILL_DEPTH)],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == KILLED, done.stderr[-3000:]

    store = CheckpointStore(root)
    assert store.latest_complete_depth() == KILL_DEPTH - 1
    assert store.read_manifest(KILL_DEPTH) is None
    # depth k's fetch parts are on disk, not committed
    assert os.listdir(store.table_dir(KILL_DEPTH, "fetch"))
    if mode == "manifest_tmp":
        assert os.path.exists(store.manifest_path(KILL_DEPTH) + ".tmp")

    res = _crawl(pages, root, resumable=True)
    assert res.depths[0].depth == KILL_DEPTH
    assert _crawldb(res).equals(want)
    for m in res.depths:
        man = store.read_manifest(m.depth)
        assert man["partitions"] == store.partition_lineage(m.depth), m.depth
    assert not os.path.exists(store.manifest_path(KILL_DEPTH) + ".tmp")


def test_manifest_lineage_matches_files(ray_session, pages, tmp_path):
    """Every depth's manifest lists exactly the part files on disk, with
    their row counts and sizes, although no footer was read to write
    it; the counts add up to the depth's metrics. Without `partitions`,
    write_manifest reads the lineage from the files."""
    root = str(tmp_path / "c")
    res = _crawl(pages, root)
    assert res.depths[-1].generated == 0  # exhausted: no crawldb_final
    store = CheckpointStore(root)
    for m in res.depths:
        parts = store.read_manifest(m.depth)["partitions"]
        assert parts == store.partition_lineage(m.depth), m.depth
        rows = {name: sum(e["rows"] for e in ps)
                for name, ps in parts.items()}
        assert rows["crawldb"] == m.crawldb_size
        if m.generated:
            assert rows["fetch"] == m.generated
            assert rows["link"] == m.links
        else:
            assert set(parts) == {"crawldb"}

    import ray

    store = CheckpointStore(str(tmp_path / "probe"))
    table = _crawldb(res)
    store.write_table([ray.put(table.slice(0, 5)), ray.put(table.slice(5))],
                      7, "crawldb")
    store.write_manifest(7, {"depth": 7})
    parts = store.read_manifest(7)["partitions"]
    assert parts == store.partition_lineage(7)
    assert [e["rows"] for e in parts["crawldb"]] == [5, len(table) - 5]


def test_resume_builds_no_dataset_before_first_merge(ray_session, pages,
                                                     tmp_path, monkeypatch):
    """A resume reads the checkpoint's tables as read-task refs and
    hands them to its first merge: no Dataset is built or read before
    it."""
    import ray.data as rd

    import webcollector_ray.pipelines.crawler as cm

    root = str(tmp_path / "c")
    _crawl(pages, root, depth=2)

    calls = {"from_arrow_refs": 0, "from_arrow": 0, "read_parquet": 0,
             "read_dataset": 0}
    at_merge = []

    def counting(owner, name):
        orig = getattr(owner, name)

        def wrapper(*a, **kw):
            calls[name] += 1
            return orig(*a, **kw)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("from_arrow_refs", "from_arrow", "read_parquet"):
        counting(rd, name)
    counting(CheckpointStore, "read_dataset")
    dedupe = cm.dedupe_by_key_refs

    def first_merge(parts, *a, **kw):
        if not at_merge:
            at_merge.append((dict(calls), [type(t) for t, _ in parts]))
        return dedupe(parts, *a, **kw)

    monkeypatch.setattr(cm, "dedupe_by_key_refs", first_merge)
    res = _crawl(pages, root, depth=1, resumable=True)
    assert res.depths[0].depth == 2
    seen_calls, kinds = at_merge[0]
    assert seen_calls == {k: 0 for k in calls}
    assert kinds == [list, list, list]  # fetch, crawldb, link refs
