"""One round of one workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --round R
                                [--trace] [--setup-only]

``run.py`` starts this with ``src`` on PYTHONPATH and the thread pools
pinned. It prints one JSON line: the monotonic time of the first timed
call (``run.py`` subtracts the time it started the process to get the
set-up time), the time of each item, the item outputs for the checks
and, with ``--trace``, the tracer's summary.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def _thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import nigdiff
    origin = os.path.realpath(nigdiff.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        print(f"nigdiff was imported from {origin}, not from the "
              f"checkout's src/", file=sys.stderr)
        return 2
    import workloads

    items = workloads.make_items(args.workload, args.seed, args.round)
    out_dir = os.path.join(OUT, f"round-{os.getpid()}")
    runner = workloads.Runner(out_dir)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    results = [None] * len(items)
    item_s = [0.0] * len(items)
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.begin_item()
        t0 = clock()
        results[i] = runner.call(i, item)
        t1 = clock()
        item_s[i] = t1 - t0
        if tracer is not None:
            tracer.end_item(i, item[0] if item[0] != "cli" else item[1],
                            t0, t1)
    outputs = [runner.collect(item, res) for item, res in zip(items, results)]
    if os.path.isdir(out_dir):
        os.rmdir(out_dir)
    print(json.dumps({
        "t_ready": t_ready,
        "item_s": item_s,
        "ops": workloads.operations(args.workload, items),
        "units": sum(workloads.work_units(item) for item in items),
        "items": items,
        "outputs": outputs,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads": _thread_count(),
        "trace": tracer.summary() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
