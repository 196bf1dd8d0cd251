"""Correctness gate: checks a final crawldb against values derived from
the SynthSpec alone, plus a golden digest of the whole crawldb.

Derived from the spec (no engine code involved):
- the reachable URL set and each URL's BFS depth, from the synthetic
  link graph (list-i -> list-0, list-(i+1), its shows; show-j -> list-0,
  show-(j+1), show-(j+7); every other link fails the link regex);
- each row's fetch outcome: SUCCESS, execute_count 1, code 200 and
  execute_time 1_000_000 + BFS depth (deterministic_time);
- each article's meta content_md5 = md5(synth.expected_show_text);
- each page fetched exactly once over all legs of a crawl, and a
  resumed crawl starting at the depth after the checkpoint.

The golden digest pins the remaining bytes (titles, times, meta layout)
and must not change with the workload seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import pyarrow as pa

import ray

from webcollector_ray.model import STATUS_DB_SUCCESS
from webcollector_ray.state.frontier import CheckpointStore
from webcollector_ray.synth import expected_show_text, site_url

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")
DETERMINISTIC_TIME0 = 1_000_000
COLUMNS = ["key", "url", "status", "execute_time", "execute_count", "code",
           "location", "meta"]


def expected_depths(spec) -> Dict[str, int]:
    """url -> BFS depth from the site's seed list-0."""
    L, K = spec.lists_per_site, spec.shows_per_list
    S = spec.shows_per_site
    out: Dict[str, int] = {}
    for s in range(spec.num_sites):
        depth = {("list", 0): 0}
        queue = deque([("list", 0)])
        while queue:
            kind, i = node = queue.popleft()
            if kind == "list":
                nxt = [("list", 0)] + [("show", i * K + k) for k in range(K)]
                if i + 1 < L:
                    nxt.append(("list", i + 1))
            else:
                nxt = [("list", 0), ("show", (i + 1) % S), ("show", (i + 7) % S)]
            for n in nxt:
                if n not in depth:
                    depth[n] = depth[node] + 1
                    queue.append(n)
        base = site_url(s)
        for (kind, i), d in depth.items():
            out[f"{base}/{kind}-{i}.html"] = d
    return out


def digest(table: pa.Table) -> str:
    """sha256 of the key-sorted crawldb, every column."""
    t = table.select(COLUMNS).sort_by("key")
    h = hashlib.sha256()
    for row in zip(*(t[c].to_pylist() for c in COLUMNS)):
        h.update(json.dumps(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def load_golden(size: str, name: str) -> Optional[str]:
    with open(GOLDEN_PATH) as f:
        return json.load(f).get(size, {}).get(name)


@dataclass
class GateResult:
    expected_pages: int
    errors: int = 0  # missing + unexpected + failed + wrong-md5 + wrong-row
    digest: str = ""
    digest_ok: bool = False
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.errors == 0 and self.digest_ok

    def add(self, kind: str, n: int, example) -> None:
        if n:
            self.errors += n
            self.problems.append(f"{kind}: {n} (e.g. {example})")


def check(spec, table: pa.Table, golden: Optional[str],
          missing_manifests: Sequence[int] = ()) -> GateResult:
    """`missing_manifests`: checkpointed depths that have no manifest."""
    want = expected_depths(spec)
    res = GateResult(expected_pages=len(want))
    cols = {c: table[c].to_pylist() for c in COLUMNS}
    keys = cols["key"]
    problem = res.add

    have = set(keys)
    missing = sorted(set(want) - have)
    extra = sorted(have - set(want))
    problem("missing URLs", len(missing), missing[:1])
    problem("unexpected URLs", len(extra), extra[:1])
    problem("duplicate keys", len(keys) - len(have), None)

    failed, wrong_row, wrong_md5 = [], [], []
    for i, key in enumerate(keys):
        d = want.get(key)
        if d is None:
            continue
        if cols["status"][i] != STATUS_DB_SUCCESS:
            failed.append(key)
            continue
        if (cols["url"][i] != key or cols["execute_count"][i] != 1
                or cols["code"][i] != 200
                or cols["execute_time"][i] != DETERMINISTIC_TIME0 + d):
            wrong_row.append(key)
        meta = cols["meta"][i]
        if "/show-" in key:
            site = int(key[len("http://site"):key.index(".test")])
            j = int(key[key.rindex("-") + 1:-len(".html")])
            gold = hashlib.md5(
                expected_show_text(spec, site, j).encode()).hexdigest()
            if json.loads(meta or "{}").get("content_md5") != gold:
                wrong_md5.append(key)
        elif meta not in ("", None, "{}"):
            wrong_row.append(key)
    problem("fetches not SUCCESS", len(failed), failed[:1])
    problem("articles with wrong content_md5", len(wrong_md5), wrong_md5[:1])
    problem("rows with wrong depth/count/code/meta", len(wrong_row),
            wrong_row[:1])
    problem("depths without a manifest", len(missing_manifests),
            list(missing_manifests)[:1])

    res.digest = digest(table)
    res.digest_ok = golden is not None and res.digest == golden
    if not res.digest_ok:
        res.problems.append(f"digest {res.digest} != golden {golden}")
    return res


def dataset_table(ds) -> pa.Table:
    return pa.concat_tables(ray.get(list(ds.to_arrow_refs())))


def missing_manifests(sample) -> List[int]:
    if sample.checkpoint_root is None:
        return []
    store = CheckpointStore(sample.checkpoint_root)
    return [d.depth for d in sample.depths
            if store.read_manifest(d.depth) is None]


def check_sample(w, sample, size: str, table: Optional[pa.Table] = None
                 ) -> GateResult:
    """Gate a workloads.Sample: its final crawldb (or `table`, a copy of
    it) against the spec and the workload's golden digest, and its legs:
    a resume that restarts from depth 0 refetches the whole web, and
    still ends in the same crawldb."""
    if table is None:
        table = dataset_table(sample.crawldb)
    res = check(w.spec, table, load_golden(size, w.name),
                missing_manifests(sample))
    refetched = sample.fetched - res.expected_pages
    res.add("pages fetched more than once" if refetched > 0
            else "pages never fetched", abs(refetched),
            f"{sample.fetched} fetched, {res.expected_pages} in the web")
    if w.checkpoint and sample.resumed_at != w.stop_after:
        res.add("resumed leg did not start after the checkpoint", 1,
                f"started at depth {sample.resumed_at}, "
                f"checkpoint ends at depth {w.stop_after - 1}")
    return res
