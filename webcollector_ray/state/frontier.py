"""Per-depth Parquet checkpoint store with lineage manifests.

Layout (SURVEY.md §4 checkpoint row):

    <root>/depth=<k>/crawldb/part-*.parquet   merged frontier AFTER depth k's merge
    <root>/depth=<k>/fetch/part-*.parquet     fetch segment written BY depth k
    <root>/depth=<k>/link/part-*.parquet      link segment written BY depth k
    <root>/depth=<k>/_MANIFEST.json           counts + metrics + completeness marker

The manifest is written LAST (atomic rename), so a depth directory
without a manifest is incomplete and ignored on resume — this is the
Parquet equivalent of the reference's resumable crawldb
(crawler/Crawler.java:101-110: `resumable` keeps the KV dirs; every
executed/parsed datum lands in segments immediately and a crash loses
only in-flight records). Resume = read the newest complete depth's
crawldb + segments and continue; finished depths are never recomputed.

I/O is a raw Ray task wave, not a Dataset execution (each of those costs
~0.3-0.5 s of fixed latency whatever the table size). `write_table`
takes the table as the crawler holds it, a list of block refs (a
Dataset's blocks are accepted too), launches one `pq.write_table` task
per block ref, writing block i as `part-<i:05d>.parquet` (an empty block
writes no file), and sums the row counts the tasks return.
`read_dataset` launches one read task per part file, in sorted name
order, with the columns pinned to FRONTIER_SCHEMA, and wraps the result
refs with `rd.from_arrow_refs`. Before reading a table of a depth that
has a manifest it checks the part files on disk against the manifest's
`partitions` lineage (names and byte sizes, one stat each): a missing,
extra, truncated or otherwise resized part raises CheckpointCorruptError
instead of resuming from a shorter frontier.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import List, Optional

import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..model import FRONTIER_SCHEMA


class CheckpointCorruptError(RuntimeError):
    """A checkpoint table's part files disagree with its manifest."""


@ray.remote
def _write_part(table: pa.Table, path: str) -> int:
    if len(table) == 0:  # empty (possibly schema-less) block: no file
        return 0
    pq.write_table(table, path)
    return len(table)


@ray.remote
def _read_part(path: str) -> pa.Table:
    # columns pinned to the frontier schema (no `depth=<k>` phantom
    # column from the directory name, no stray pandas metadata)
    return (
        pq.ParquetFile(path)
        .read(columns=FRONTIER_SCHEMA.names)
        .cast(FRONTIER_SCHEMA)
    )


class CheckpointStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    # --- paths ---
    def depth_dir(self, depth: int) -> str:
        return os.path.join(self.root, f"depth={depth}")

    def table_dir(self, depth: int, name: str) -> str:
        return os.path.join(self.depth_dir(depth), name)

    def manifest_path(self, depth: int) -> str:
        return os.path.join(self.depth_dir(depth), "_MANIFEST.json")

    # --- lifecycle ---
    def clear(self) -> None:
        if os.path.isdir(self.root):
            shutil.rmtree(self.root)
        os.makedirs(self.root, exist_ok=True)

    def exists(self) -> bool:
        return any(
            e.startswith("depth=") for e in os.listdir(self.root)
        ) if os.path.isdir(self.root) else False

    # --- write ---
    def write_table(self, blocks, depth: int, name: str) -> int:
        """Write a list of block refs (or a Dataset's blocks) as one
        checkpoint table, one part file per non-empty block; returns
        the row count."""
        if not isinstance(blocks, list):
            blocks = blocks.to_arrow_refs()
        path = self.table_dir(depth, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        os.makedirs(path, exist_ok=True)
        return sum(
            ray.get(
                [
                    _write_part.remote(
                        ref, os.path.join(path, f"part-{i:05d}.parquet")
                    )
                    for i, ref in enumerate(blocks)
                ]
            )
        )

    def partition_lineage(self, depth: int) -> dict:
        """Per-partition lineage: every parquet part written at this
        depth with its row count and size (from file metadata) — a
        failed re-run can skip finished partitions file-by-file."""
        out: dict = {}
        for name in ("crawldb", "fetch", "link", "crawldb_final"):
            path = self.table_dir(depth, name)
            if not os.path.isdir(path):
                continue
            parts = []
            for fn in self._parts(depth, name):
                full = os.path.join(path, fn)
                parts.append(
                    {
                        "file": fn,
                        "rows": pq.ParquetFile(full).metadata.num_rows,
                        "bytes": os.path.getsize(full),
                    }
                )
            out[name] = parts
        return out

    def write_manifest(self, depth: int, payload: dict) -> None:
        payload = dict(payload)
        payload.setdefault("partitions", self.partition_lineage(depth))
        tmp = self.manifest_path(depth) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(payload, f, indent=1)
        os.replace(tmp, self.manifest_path(depth))

    # --- read ---
    def _parts(self, depth: int, name: str) -> List[str]:
        path = self.table_dir(depth, name)
        if not os.path.isdir(path):
            return []
        return sorted(f for f in os.listdir(path) if f.endswith(".parquet"))

    def _lineage(self, depth: int, name: str) -> Optional[dict]:
        """{part file: bytes} the depth's manifest recorded for this
        table, or None when there is no manifest entry to check."""
        manifest = self.read_manifest(depth)
        if manifest is None or name not in manifest.get("partitions", {}):
            return None
        return {p["file"]: p["bytes"] for p in manifest["partitions"][name]}

    def has_table(self, depth: int, name: str) -> bool:
        # a table the manifest lists parts for exists even if its
        # directory is gone: read_dataset then refuses it loudly
        return bool(self._parts(depth, name) or self._lineage(depth, name))

    def read_dataset(self, depth: int, name: str):
        import ray.data as rd

        path = self.table_dir(depth, name)
        parts = self._parts(depth, name)
        expected = self._lineage(depth, name)
        if expected is not None:
            found = {f: os.path.getsize(os.path.join(path, f)) for f in parts}
            if found != expected:
                bad = sorted(
                    f for f in found.keys() | expected.keys()
                    if found.get(f) != expected.get(f)
                )
                raise CheckpointCorruptError(
                    f"{path}: part files differ from the depth-{depth} "
                    f"manifest (missing, extra or resized: {bad})"
                )
        if not parts:
            return rd.from_arrow(FRONTIER_SCHEMA.empty_table())
        return rd.from_arrow_refs(
            [_read_part.remote(os.path.join(path, f)) for f in parts]
        )

    def read_manifest(self, depth: int) -> Optional[dict]:
        p = self.manifest_path(depth)
        if not os.path.isfile(p):
            return None
        with open(p) as f:
            return json.load(f)

    def latest_complete_depth(self) -> Optional[int]:
        best = None
        if not os.path.isdir(self.root):
            return None
        for e in os.listdir(self.root):
            if e.startswith("depth="):
                d = int(e.split("=", 1)[1])
                if self.read_manifest(d) is not None:
                    best = d if best is None else max(best, d)
        return best
