"""A local Ray cluster for one benchmark run, torn down together with
every process it started."""

from __future__ import annotations

import logging
import os
import shutil
import signal
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RAY_TMP = os.path.join(ROOT, ".pbray")  # short: Ray's socket paths live here
OBJECT_STORE_BYTES = 512 * 1024 ** 2


def _proc_table() -> dict:
    """pid -> (ppid, start time, state) from /proc."""
    table = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        rest = stat[stat.rindex(")") + 2:].split()
        table[int(d)] = (int(rest[1]), rest[19], rest[0])
    return table


def _descendants() -> dict:
    """pid -> start time of every process below this one."""
    table = _proc_table()
    kids: dict = {}
    for pid, (ppid, _, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = {}, [os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            out[c] = table[c][1]
            todo.append(c)
    return out


def _wait_gone(procs: dict, timeout: float = 20.0) -> None:
    """Wait until every process in `procs` has ended; SIGKILL stragglers."""
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        for pid in procs:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        table = _proc_table()
        alive = [p for p, st in procs.items()
                 if p in table and table[p][1] == st and table[p][2] != "Z"]
        if not alive:
            return
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"processes did not end: {alive}")
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed, deadline = True, time.monotonic() + 10
        time.sleep(0.1)


class Cluster:
    """One local Ray cluster at a time, torn down with every process it
    started."""

    def __init__(self, num_cpus: int):
        self.num_cpus = num_cpus
        self.session_dir = None

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        # workers import webcollector_ray from the checkout
        path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = ROOT + (os.pathsep + path if path else "")
        kw = dict(address="local", num_cpus=self.num_cpus,
                  include_dashboard=False, logging_level="ERROR",
                  log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES)
        # AF_UNIX paths are capped at 107 bytes; a deep checkout falls
        # back to Ray's default temp dir
        probe = os.path.join(RAY_TMP, "session_2000-01-01_00-00-00_000000_"
                             + "9" * 7, "sockets", "plasma_store")
        if len(probe.encode()) <= 107:
            kw["_temp_dir"] = RAY_TMP
        ray.init(**kw)
        self.session_dir = ray._private.worker._global_node.get_session_dir_path()
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def stop(self) -> None:
        import ray

        procs = _descendants()
        ray.shutdown()
        _wait_gone(procs)
        if self.session_dir and self.session_dir.startswith(RAY_TMP):
            shutil.rmtree(self.session_dir, ignore_errors=True)
            latest = os.path.join(RAY_TMP, "session_latest")
            if os.path.islink(latest) and not os.path.exists(latest):
                os.unlink(latest)
            try:
                os.rmdir(RAY_TMP)
            except OSError:
                pass
        self.session_dir = None
