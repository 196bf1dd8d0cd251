"""Self-test of the correctness gate (python3 perfbench/run.py --self-test).

For each workload at its minimal size: a real crawl passes the gate under
two seeds with the same digest, and the gate fails on a copy of the output
with one article's content_md5 tampered, with one crawldb row dropped and,
for the checkpointed job, with one depth's manifest deleted and on a
resume that restarts from depth 0 (it refetches every page and ends in
the same crawldb).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import pyarrow as pa
import pyarrow.compute as pc

import gate
import workloads
from cluster import Cluster
from runner import MAX_CPUS, TMP_PARENT


def _tamper_md5(table: pa.Table) -> pa.Table:
    """Replace the first article row's meta with a wrong content_md5."""
    i = pc.index(pc.match_substring(table["key"], "/show-"), True).as_py()
    meta = table["meta"].to_pylist()
    m = json.loads(meta[i] or "{}")
    m["content_md5"] = "0" * 32
    meta[i] = json.dumps(m)
    col = table.schema.get_field_index("meta")
    return table.set_column(col, "meta", pa.array(meta, pa.string()))


def _drop_manifests(root: str) -> None:
    """Break a checkpoint so that the next crawler finds no complete
    depth and starts over from the seeds."""
    for d in os.listdir(root):
        m = os.path.join(root, d, "_MANIFEST.json")
        if os.path.exists(m):
            os.remove(m)


def _check(name: str, outcome: bool, want: bool, failures: list) -> None:
    status = "ok" if outcome == want else "FAILED"
    print(f"{status}: {name}: gate {'passes' if outcome else 'fails'}")
    if outcome != want:
        failures.append(name)


def main() -> int:
    num_cpus = min(MAX_CPUS, len(os.sched_getaffinity(0)))
    os.makedirs(TMP_PARENT, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=TMP_PARENT)
    cluster = Cluster(num_cpus)
    failures: list = []
    try:
        cluster.start()
        for name in workloads.NAMES:
            w = workloads.get(name, "mini")
            golden = gate.load_golden("mini", name)
            digests = []
            for seed in (1, 2):
                s = workloads.run_sample(w, num_cpus, seed, scratch)
                try:
                    table = gate.dataset_table(s.crawldb)
                    missing = gate.missing_manifests(s)
                    g = gate.check_sample(w, s, "mini", table)
                    _check(f"{name} seed {seed}", g.ok, True, failures)
                    digests.append(g.digest)
                    if seed == 2:
                        continue
                    _check(f"{name} tampered content_md5",
                           gate.check(w.spec, _tamper_md5(table),
                                      golden, missing).ok, False, failures)
                    _check(f"{name} dropped row",
                           gate.check(w.spec, table.slice(1),
                                      golden, missing).ok, False, failures)
                    if s.checkpoint_root is not None:
                        os.remove(os.path.join(
                            s.checkpoint_root, f"depth={s.depths[0].depth}",
                            "_MANIFEST.json"))
                        _check(f"{name} deleted manifest",
                               gate.check(w.spec, table, golden,
                                          gate.missing_manifests(s)).ok,
                               False, failures)
                finally:
                    workloads.release(s)
            if w.checkpoint:
                s = workloads.run_sample(w, num_cpus, 1, scratch,
                                         between_legs=_drop_manifests)
                try:
                    table = gate.dataset_table(s.crawldb)
                    _check(f"{name} resume restarted from depth 0: crawldb",
                           gate.check(w.spec, table, golden,
                                      gate.missing_manifests(s)).ok,
                           True, failures)
                    _check(f"{name} resume restarted from depth 0",
                           gate.check_sample(w, s, "mini", table).ok,
                           False, failures)
                finally:
                    workloads.release(s)
            _check(f"{name} digest equal across seeds",
                   digests[0] == digests[1], True, failures)
    finally:
        cluster.stop()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass
    print("self-test", "FAILED: " + ", ".join(failures) if failures else "ok")
    return 1 if failures else 0

