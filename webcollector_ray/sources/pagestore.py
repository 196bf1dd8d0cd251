"""Page stores — the url -> (code, location, content_type, html) lookup
backing the fetch stage.

The reference fetches live HTTP (plugin/net/OkHttpRequester.java:92-138);
here the "web" is a Common-Crawl-style Parquet pages table (BASELINE.json
input_hint) and fetch is the one true join of the engine: frontier × pages
on `url` (SURVEY.md §2.6 J3). Two strategies, both hash-partitioned by
canonicalized-url hash:

- BroadcastPageStore: `ray.put` the whole table once, every fetch
  worker reads the object-store copy zero-copy in `__init__`. Right when the
  page table fits comfortably in the object store (tests, small crawls,
  dimension-table-sized stores). NOT re-shipped per batch.

- BucketedPageStore: the pages table is pre-bucketed to Parquet
  (`bucket=<i>/part-*.parquet`, bucket = md5(url) % B) once; each fetch
  actor lazily loads + LRU-caches the per-bucket url index it actually
  needs. At 100 TB this is the scale path: a frontier batch routed by
  the same hash touches O(1) buckets, and actors never hold more than
  `cache_buckets` buckets of html in memory.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from ..urls import url_hash64

_STORE_COLS = ["url", "html", "code", "location", "content_type"]


def _normalize_store_table(table: pa.Table) -> pa.Table:
    """Project to the lookup columns, synthesizing defaults for tables
    that carry only the bare input_hint schema (all-200, text/html)."""
    n = len(table)
    cols: dict = {"url": table["url"], "html": table["html"]}
    names = set(table.column_names)
    cols["code"] = (
        table["code"] if "code" in names else pa.array([200] * n, pa.int32())
    )
    cols["location"] = (
        table["location"] if "location" in names else pa.nulls(n, pa.string())
    )
    cols["content_type"] = (
        table["content_type"]
        if "content_type" in names
        else pa.array(["text/html"] * n, pa.string())
    )
    return pa.table(cols)


class _Lookup:
    """In-memory url index over one store table."""

    __slots__ = ("table", "index")

    def __init__(self, table: pa.Table):
        self.table = table.combine_chunks()
        urls = self.table["url"].to_pylist()
        self.index = {u: i for i, u in enumerate(urls)}

    def get(self, url: str) -> Optional[dict]:
        i = self.index.get(url)
        if i is None:
            return None
        t = self.table
        return {
            "code": t["code"][i].as_py(),
            "location": t["location"][i].as_py(),
            "content_type": t["content_type"][i].as_py(),
            "html": t["html"][i].as_py(),
        }


class BroadcastPageStore:
    """ray.put once; actors resolve the ref in __init__ (ST1-style)."""

    def __init__(self, table: pa.Table):
        self._ref = ray.put(_normalize_store_table(table))

    def handle(self) -> dict:
        return {"kind": "broadcast", "ref": [self._ref]}


def build_bucketed_store(
    pages: "ray.data.Dataset | pa.Table", out_dir: str, num_buckets: int = 64
) -> "BucketedPageStore":
    """One-time prep: bucket the pages table by md5(url) % B to Parquet.

    Runs as a Ray Data pipeline (streaming, shuffle-by-bucket via
    per-batch fan-out files + per-bucket compaction is unnecessary —
    each write task appends its own file per bucket directory, so the
    layout is `bucket=<i>/part-<taskid>.parquet` and readers just read
    the directory)."""
    import ray.data as rd

    if isinstance(pages, pa.Table):
        pages = rd.from_arrow(pages)

    def add_bucket(batch: pa.Table) -> pa.Table:
        batch = _normalize_store_table(batch)
        buckets = pa.array(
            [url_hash64(u) % num_buckets for u in batch["url"].to_pylist()],
            pa.int32(),
        )
        return batch.append_column("bucket", buckets)

    os.makedirs(out_dir, exist_ok=True)
    pages.map_batches(add_bucket, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["bucket"]
    )
    with open(os.path.join(out_dir, "_store_meta.json"), "w") as f:
        json.dump({"num_buckets": num_buckets}, f)
    return BucketedPageStore(out_dir)


class BucketedPageStore:
    def __init__(self, store_dir: str):
        self.store_dir = store_dir
        with open(os.path.join(store_dir, "_store_meta.json")) as f:
            self.num_buckets = json.load(f)["num_buckets"]

    def handle(self) -> dict:
        return {
            "kind": "bucketed",
            "dir": self.store_dir,
            "num_buckets": self.num_buckets,
        }


class SynthPageStore:
    """Zero-storage page store: the fetch stage regenerates each page
    on demand as a pure function of (spec, url) — the bench-scale web
    (any size, no object-store footprint, no skewed lookup state)."""

    def __init__(self, spec):
        self.spec = spec

    def handle(self) -> dict:
        return {"kind": "synth", "spec": self.spec}


class PageStoreReader:
    """Per-actor reader over a store handle (built once in actor
    __init__; ST1 in SURVEY.md §2.5)."""

    def __init__(self, handle: dict, cache_buckets: int = 8):
        self.kind = handle["kind"]
        if self.kind == "synth":
            self._spec = handle["spec"]
        elif self.kind == "broadcast":
            self._lookup = _Lookup(ray.get(handle["ref"][0]))
        elif self.kind == "warc":
            from .warc import WarcStoreReader

            self._warc = WarcStoreReader(
                handle["cdx_dir"], handle["num_buckets"],
                cache_buckets=cache_buckets,
            )
        elif self.kind == "http":
            from ..net import HttpRequester

            self._requester = HttpRequester(
                timeout=handle.get("timeout"),
                connect_timeout=handle.get("connect_timeout", 3.0),
                read_timeout=handle.get("read_timeout", 10.0),
                max_receive_size=handle.get(
                    "max_receive_size", 10 * 1024 * 1024
                ),
                user_agent=handle["user_agent"],
                headers=handle["headers"],
            )
        else:
            self.dir = handle["dir"]
            self.num_buckets = handle["num_buckets"]
            self.cache_buckets = cache_buckets
            self._cache: "OrderedDict[int, _Lookup]" = OrderedDict()
        self._store_key = self._make_store_key(handle)

    @staticmethod
    def _make_store_key(handle: dict):
        """Hashable identity of the STORE, stable across (de)serialized
        handle copies and across depths — used to key process-lifetime
        caches (e.g. robots policies) without cross-crawl collisions."""
        kind = handle["kind"]
        if kind == "broadcast":
            return ("broadcast", handle["ref"][0].hex())
        if kind == "bucketed":
            return ("bucketed", handle["dir"])
        if kind == "warc":
            return ("warc", handle["cdx_dir"])
        if kind == "http":
            return (
                "http",
                handle.get("timeout"),
                handle.get("connect_timeout"),
                handle.get("read_timeout"),
                handle["user_agent"],
                tuple(sorted(handle["headers"].items())),
            )
        spec = handle["spec"]
        return (
            "synth",
            spec.num_sites, spec.lists_per_site, spec.shows_per_list,
            spec.paragraphs_per_show, spec.words_per_paragraph,
            spec.redirects_per_site, spec.failures_per_site,
            tuple(spec.robots_rules) if spec.robots_rules else None,
        )

    def store_key(self):
        return self._store_key

    def _bucket_lookup(self, b: int) -> _Lookup:
        lk = self._cache.get(b)
        if lk is None:
            path = os.path.join(self.dir, f"bucket={b}")
            if os.path.isdir(path):
                table = pq.read_table(path, columns=_STORE_COLS)
            else:
                table = pa.table({c: [] for c in _STORE_COLS})
                table = _normalize_store_table(
                    pa.table(
                        {
                            "url": pa.array([], pa.string()),
                            "html": pa.array([], pa.binary()),
                        }
                    )
                )
            lk = _Lookup(table)
            self._cache[b] = lk
            while len(self._cache) > self.cache_buckets:
                self._cache.popitem(last=False)
        else:
            self._cache.move_to_end(b)
        return lk

    def get(self, url: str) -> Optional[dict]:
        if self.kind == "synth":
            from ..synth import row_for_url

            row = row_for_url(self._spec, url, text=False)
            if row is None:
                return None
            return {
                "code": row["code"],
                "location": row["location"],
                "content_type": row["content_type"],
                "html": row["html"],
            }
        if self.kind == "broadcast":
            return self._lookup.get(url)
        if self.kind == "http":
            return self._requester.get(url)
        if self.kind == "warc":
            return self._warc.get(url)
        return self._bucket_lookup(url_hash64(url) % self.num_buckets).get(url)
