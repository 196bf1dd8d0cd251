"""Output helpers: site-mirror path derivation (S6), datum pretty-print
(S9), and the HashSet next-filter (E6).

Ray-first shape: fs_output_path is a pure column function — the page
sink is `pages.map_batches(add_out_path) -> write_parquet/partitioned
files`, one file per Ray write task, never a driver-side loop.
"""

from __future__ import annotations

import datetime
from typing import Iterable, Optional, Set
from urllib.parse import urlsplit

import pyarrow as pa

from ..model import (
    STATUS_DB_FAILED,
    STATUS_DB_SUCCESS,
    STATUS_DB_UNEXECUTED,
    CrawlDatum,
)


def fs_output_path(url: str) -> Optional[str]:
    """Site-mirror relative path for a page URL: `<host>/<path>` with
    `?query` appended as `_query`, directory paths completed with
    `index.html`, and extension-less files given `.html`
    (reference semantics: util/FileSystemOutput.java:43-72)."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    if not parts.netloc:
        return None
    query = f"_{parts.query}" if parts.query else ""
    path = parts.path
    if len(path) == 0:
        path = "index.html"
    elif path.endswith("/"):
        path = path + "index.html"
    else:
        last_slash = path.rfind("/")
        last_point = path.rfind(".")
        if last_point < last_slash:
            path = path + ".html"
    path += query
    return f"{parts.netloc}/{path.lstrip('/')}"


def add_out_path_batch(batch: pa.Table, url_col: str = "url") -> pa.Table:
    """Column form for the page-mirror sink stage."""
    return batch.append_column(
        "out_path",
        pa.array([fs_output_path(u) for u in batch[url_col].to_pylist()],
                 pa.string()),
    )


_STATUS_NAMES = {
    STATUS_DB_SUCCESS: "success",
    STATUS_DB_FAILED: "failed",
    STATUS_DB_UNEXECUTED: "unexecuted",
}


def datum_to_string(datum: CrawlDatum) -> str:
    """Human-readable datum dump (util/CrawlDatumFormater.java:39-77):
    KEY/URL/STATUS/ExecuteTime/ExecuteCount/Code[, Location], then
    META[i]: (k,v) lines in meta insertion order."""
    ts = datetime.datetime.fromtimestamp(
        (datum.execute_time or 0) / 1000.0
    ).strftime("%Y-%m-%d %H:%M:%S")
    out = [
        "",
        f"KEY: {datum.key}",
        f"URL: {datum.url}",
        f"STATUS: {_STATUS_NAMES.get(datum.status, '')}",
        f"ExecuteTime: {ts}",
        f"ExecuteCount: {datum.execute_count}",
        f"Code: {datum.code}",
    ]
    if datum.location is not None:
        out.append(f"Location: {datum.location}")
    for i, (k, v) in enumerate(datum.meta_map.items()):
        out.append(f"META[{i}]: ({k},{v})")
    return "\n".join(out) + "\n"


class HashSetNextFilter:
    """Drop detected links whose key is in a fixed set
    (plugin/nextfilter/HashSetNextFilter.java:28-40). For large sets,
    prefer the sharded bloom seen-filter or an anti-join — this is the
    broadcast-small-set form."""

    def __init__(self, keys: Iterable[str]):
        self.keys: Set[str] = set(keys)

    def __call__(self, datum: CrawlDatum, referer: CrawlDatum):
        return None if datum.key in self.keys else datum


class FileIdGenerator:
    """Sequential file-id generator seeded from the max existing id in
    a directory (util/FileIdGenerator.java:30-44). In Ray pipelines the
    write tasks name their own parts; this is the single-process
    parity shim."""

    def __init__(self, base_dir: str):
        import os

        self.base_dir = base_dir
        last = -1
        if os.path.isdir(base_dir):
            for fn in os.listdir(base_dir):
                stem = fn.split(".")[0]
                try:
                    last = max(last, int(stem))
                except ValueError:
                    continue
        self._last = last

    def generate(self) -> int:
        self._last += 1
        return self._last


def list_crawldb(crawl_path: str, depth: Optional[int] = None):
    """Offline crawldb inspection (S5: plugin/rocks/RocksDBReader.java):
    read the newest (or given) depth's frontier checkpoint as a pandas
    DataFrame in canonical key order."""
    from ..state.frontier import CheckpointStore

    ckpt = CheckpointStore(crawl_path)
    d = depth if depth is not None else ckpt.latest_complete_depth()
    if d is None:
        raise FileNotFoundError(f"no complete depth under {crawl_path}")
    return (
        ckpt.read_dataset(d, "crawldb")
        .to_pandas()
        .sort_values("key")
        .reset_index(drop=True)
    )


def write_partitioned_parquet(
    ds,
    root: str,
    *,
    key_col: str,
    num_partitions: int = 64,
    skip_complete: bool = True,
):
    """Resumable hash-partitioned Parquet sink (the 100 TB output
    shape: never one giant file, and a failed run re-does only the
    partitions that missed their marker).

    Layout: `<root>/part=<k>/data.parquet` + `<root>/part=<k>/_SUCCESS`
    written LAST — a directory without the marker is incomplete and is
    rewritten on the next run. With skip_complete, rows whose key
    hashes into an already-complete partition are dropped by a
    vectorized pre-filter at the head of the sink, so a resume pays
    one cheap hash per row for the finished ~(k-1)/k of the data
    instead of re-shuffling and re-writing it.

    Keys route by the same md5-based bucket hash the dedup exchange
    uses, so a partition is a deterministic function of the key alone
    — any re-run (even on a different cluster size) produces the same
    partition membership. Returns {partition: rows_written} for the
    partitions written by THIS run.
    """
    import os as _os

    import numpy as np
    import ray as _ray

    from ..state.seen import hash64_batch

    def _pid_of(vals) -> "np.ndarray":
        # same C-speed fixed-key siphash the seen filter uses; stable
        # across processes and runs, so partition membership is a pure
        # function of the key
        keys = [v if isinstance(v, str) else str(v) for v in vals]
        return (hash64_batch(keys) % num_partitions).astype(np.int32)

    done = set()
    if skip_complete and _os.path.isdir(root):
        for e in _os.listdir(root):
            if e.startswith("part=") and _os.path.exists(
                _os.path.join(root, e, "_SUCCESS")
            ):
                done.add(int(e.split("=", 1)[1]))

    def tag(batch: pa.Table) -> pa.Table:
        if key_col not in batch.column_names:
            return pa.table({})
        pid = _pid_of(batch[key_col].to_pylist())
        t = batch.append_column("__bucket", pa.array(pid))
        if done:
            keep = ~np.isin(pid, list(done))
            t = t.filter(pa.array(keep))
        return t

    @_ray.remote
    def write_part(pid: int, *blocks):
        tabs = [t for t in blocks if t is not None and len(t)]
        if not tabs:
            return pid, 0
        out = pa.concat_tables(tabs).drop_columns(["__bucket"])
        d = _os.path.join(root, f"part={pid}")
        _os.makedirs(d, exist_ok=True)
        import pyarrow.parquet as _pq

        _pq.write_table(out, _os.path.join(d, "data.parquet"))
        with open(_os.path.join(d, "_SUCCESS"), "w") as f:
            f.write(str(len(out)))
        return pid, len(out)

    from .joins import _split_by_bucket, fan_out_grouped

    blocks = list(
        ds.map_batches(tag, batch_format="pyarrow").to_arrow_refs()
    )
    if not blocks:
        return {}
    split_refs = fan_out_grouped(
        _split_by_bucket, blocks, num_partitions, 32
    )
    out_refs = [
        write_part.remote(p, *[sr[p] for sr in split_refs])
        for p in range(num_partitions)
        if p not in done
    ]
    return {p: n for p, n in _ray.get(out_refs) if n}
