"""Crawl benchmark: runs the webcollector_ray engine over the synthetic web.

    python3 perfbench/run.py --workload news_crawl --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. One process is one run: it sets up Ray
(pinned to min(4, affinity) CPUs) and an untimed warm-up crawl, then
repeats the workload's crawl while another one fits in --seconds,
gating every crawl's output for correctness. --trace 0 reports the end-to-end metrics
of BENCHMARK.json (medians over the run's crawls); --trace 1 alternates
untraced and traced crawls, runs the layer probes and reports the
per-layer metrics. The last stdout line is the result object; the line
before it carries the environment stamp and every sample. A traced run
also writes its spans to .perfbench_out/. Scratch files (checkpoints,
Ray's session dir) live under .perfbench_tmp/ and .pbray/ and are
removed at exit. Exit code 0 only when every gate passed.
"""

import argparse
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so the Ray cluster and the
    # scratch files are still torn down in `finally`
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    sys.path.insert(0, ROOT)
    try:
        import runner  # imports the engine from the checkout

        declared = runner.load_declared()
    except (OSError, ImportError) as e:
        print(f"perfbench: cannot start: {e}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload not in runner.workloads.NAMES:
        ap.error("--workload must be one of "
                 + ", ".join(runner.workloads.NAMES))
    return runner.run(args, declared)


if __name__ == "__main__":
    sys.exit(main())
