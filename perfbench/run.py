"""Benchmark of ovp: registry verification, cold and warm, and series kernels.

Run from the root of the repository:

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (``all`` runs each in turn):

    verify-cold     ovp verify --all --format json at budget ~10^6, through
                    ovp.cli.main, with a fresh empty --cache-dir per op
    verify-warm     the same at budget ~4*10^6 with the table already cached;
                    set-up fills the cache in a separate process
    series-kernels  theta powers and Hecke eigenform checks in a narrow and
                    two wide residue rings and over ZZ, pbar tables modulo
                    the wide primes and mod 8, and a squares table

Each workload runs in child processes of its own, with one client in a
closed loop. Set-up is done several times per workload (see SETUPS), each in
a fresh process, and ``setup_s`` is their median. One of those processes runs
ops until ``--seconds`` have passed; half of the others set up before it and
half after, so that the set-ups sample the host's speed on both sides of the
run.
Every op is gated for correctness (golden case counts, eigenform checks,
independent products). Timings use
time.perf_counter, memory resource.getrusage of the measuring process.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones,
taken from spans recorded around calls into each ovp module (see spans.py).
Lines before it give each metric with its unit for reading. ``--size tiny``
and ``--inject`` serve selftest.py; ``--spans-out`` writes the raw spans.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

WORKLOADS = ("verify-cold", "verify-warm", "series-kernels")
INJECTIONS = ("none", "wrong-golden", "planted-false", "wrong-eigen")

# (metric, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
# The timing bounds are wide because the speed of a shared 2-vCPU host
# drifts by up to a factor 1.8 over tens of seconds.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_s.p50", "s", "lower", 0.25),
    ("op_s.tail", "s", "lower", 0.25),
    ("cases_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Set-ups per workload at full size (tiny sizes set up once). Each of
# verify-warm's fills the cache, which takes about 13 s, so it gets two; the
# others cost about 0.25 s each, mostly interpreter start and imports, and
# get fifteen for a steadier median.
SETUPS = {"verify-cold": 15, "verify-warm": 2, "series-kernels": 15}

# A whole run (every workload asked for) must end within this many seconds.
RUN_LIMIT_S = 170
# trace.coverage below this means a wrapper was missed.
COVERAGE_FLOOR = 0.9


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_note() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("OVP_CACHE_DIR", None)
    threads = str(nproc())
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def spawn(argv: list[str], deadline: float) -> dict:
    """Run one child to completion and return its JSON result line."""
    cmd = [sys.executable, str(HERE / "child.py"), *argv, "--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child did not finish within the {RUN_LIMIT_S} s limit") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def run_workload(name: str, args, workdir: Path, deadline: float) -> tuple[list[float], dict]:
    base = [
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--inject", args.inject,
    ]
    count = 1 if args.size == "tiny" else SETUPS[name]
    measuring = (count - 1) // 2
    setups = []
    for i in range(count):
        child_dir = workdir / f"{name}-{i}"
        argv = base + ["--workdir", str(child_dir)] + ([] if i == measuring else ["--setup-only"])
        try:
            out = spawn(argv, deadline)
        finally:
            shutil.rmtree(child_dir, ignore_errors=True)
        setups.append(out["setup_s"])
        if i == measuring:
            result = out
    return setups, result


def tail(seconds: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). Below 20 ops that
    percentile would lie under the median, so the maximum is returned with
    none beyond.
    """
    ordered = sorted(seconds)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(setups: list[float], result: dict) -> tuple[dict, dict]:
    ops = result["ops"]
    seconds = [op["s"] for op in ops]
    value, pct, beyond = tail(seconds)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s.p50": statistics.median(seconds),
        "op_s.tail": value,
        "cases_per_s": sum(op["cases"] for op in ops) / sum(seconds),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "op_s.p50": f"{len(ops)} ops",
        "op_s.tail": f"p{pct:.0f} of {len(ops)} ops, {beyond} beyond",
        "cases_per_s": f"{sum(op['cases'] for op in ops)} cases",
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    return metrics, notes


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--inject", choices=INJECTIONS, default="none")
    p.add_argument("--spans-out", type=Path, default=None)
    args = p.parse_args()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        p.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "ovp" / "__init__.py").is_file():
        print(f"error: no ovp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = {name: unit for name, unit, *_ in END_TO_END + spans.PER_LAYER}
    print("# machine:", json.dumps(machine_note()))
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    workdir = HERE / "_work" / f"run-{os.getpid()}"
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    raw_spans = {}
    try:
        for name in names:
            setups, result = run_workload(name, args, workdir, deadline)
            ops = result["ops"]
            bad = [op for op in ops if not op["ok"]]
            attempted += len(ops)
            failed += len(bad)
            for op in bad[:3]:
                print(f"{name}: FAILED op: {op['reason']}")
            if args.trace:
                values = spans.layer_metrics(result["spans"], ops)
                notes = {}
                raw_spans[name] = result["spans"]
                if values["trace.coverage"] < COVERAGE_FLOOR:
                    print(
                        f"{name}: TRACE GAP: layer spans cover {values['trace.coverage']:.1%} "
                        f"of op time (floor {COVERAGE_FLOOR:.0%}); a wrapper is missing"
                    )
            else:
                values, notes = end_to_end(setups, result)
            print(f"{name}: failed_ratio {len(bad) / len(ops):.4g} ({len(bad)} of {len(ops)} ops)")
            for metric, value in values.items():
                note = f"  ({notes[metric]})" if metric in notes else ""
                print(f"{name}: {metric} {value:.6g} {units[metric]}{note}")
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": value, "unit": units[metric]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    if args.spans_out is not None:
        args.spans_out.parent.mkdir(parents=True, exist_ok=True)
        args.spans_out.write_text(json.dumps(raw_spans))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
