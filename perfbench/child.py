"""One workload in its own process: set-up, then a closed loop of ops.

Started by run.py, never by hand. With ``--setup-only`` the process stops
after set-up and reports its set-up time; otherwise it runs ops one after
another, each gated, until ``--seconds`` have passed since the first began.
With ``--trace 1`` every second op runs with the span wrappers installed and
the others without, so the run also measures the tracing overhead. The
result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--inject", default="none")
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import spans
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    make = workloads.WORKLOADS[args.workload]
    work = make(args.workload, args.seed, args.size, args.workdir, args.inject)
    start = time.monotonic()
    setup_s = start - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    recorder = spans.Recorder()
    ops = []
    deadline = start + args.seconds
    while True:
        k = len(ops)
        traced = bool(args.trace) and k % 2 == 1
        work.before()
        undo = spans.install(recorder) if traced else []
        recorder.op = k
        t0 = time.perf_counter()
        try:
            result = work.run()
            error = None
        except Exception:  # a crashing op is a failed op; the loop goes on
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
        spans.uninstall(undo)
        if error is None:
            ok, cases, reason = work.check(result)
        else:
            print(error, file=sys.stderr)
            ok, cases, reason = False, 0, error.strip().splitlines()[-1]
        work.after()
        ops.append({"s": seconds, "ok": ok, "cases": cases, "traced": traced, "reason": reason})
        if time.monotonic() >= deadline and (not args.trace or len(ops) >= 2):
            break

    result = {
        "setup_s": setup_s,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": recorder.spans,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
