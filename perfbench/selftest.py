"""Self-test of the benchmark at tiny sizes; takes about 20 seconds.

    python3 perfbench/selftest.py

Checks that
  1. BENCHMARK.json names exactly the metrics run.py prints, with the same
     units, and the per-family metrics match the registry and golden counts;
  2. each workload passes its gate and prints every end-to-end metric
     (--trace 0) and every per-layer metric (--trace 1) with its unit;
  3. the gate bites: a wrong golden count, the planted-false family slipped
     into a verify op, and a wrong eigenvalue each fail every op;
  4. the traced run writes its spans out with --spans-out;
  5. without the ovp sources the benchmark exits non-zero and prints no
     result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
sys.dont_write_bytecode = True

import run  # noqa: E402
import spans  # noqa: E402
from ovp.congruence import registry  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def bench(*argv: str, cwd: Path = ROOT) -> tuple[int, str]:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "7", "--seconds", "1"]
    cmd += ["--size", "tiny", *argv]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", spans.PER_LAYER)):
        want = [{"name": n, "unit": u, "better": b} for n, u, b, *_ in table]
        got = [{k: m[k] for k in ("name", "unit", "better")} for m in declared[key]]
        expect(got == want, f"BENCHMARK.json {key} matches the metrics run.py prints")
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    expect(bounds == {n: b for n, _, _, b in run.END_TO_END}, "end-to-end bounds match")
    golden = json.loads((HERE / "golden.json").read_text())["budgets"]
    ids = [fam.id for fam in registry()]
    expect(list(spans.FAMILY_IDS) == ids, "per-family metrics follow the registry")
    expect(all(list(g["families"]) == ids for g in golden.values()), "golden ids follow the registry")

    units = {n: u for n, u, *_ in run.END_TO_END + spans.PER_LAYER}
    spans_out = HERE / "_work" / "selftest-spans.json"
    for trace, table in (("0", run.END_TO_END), ("1", spans.PER_LAYER)):
        for name in run.WORKLOADS:
            code, out = bench("--workload", name, "--trace", trace, "--spans-out", str(spans_out))
            res = result(out) if code == 0 else {}
            metrics = res.get("metrics", {})
            expect(
                code == 0 and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                f"{name} --trace {trace}: every op passes the gate",
            )
            expect(
                list(metrics) == [n for n, *_ in table]
                and all(m["unit"] == units[n] for n, m in metrics.items())
                and all(f"{name}: {n} " in out for n in metrics),
                f"{name} --trace {trace}: every metric printed with its unit",
            )
            if trace == "1":
                written = json.loads(spans_out.read_text()).get(name, [])
                expect(len(written) > 0, f"{name} --trace 1: spans written out")
            if trace == "1" and name == "verify-warm":
                expect(metrics["overpartition.table.calls"]["value"] == 0, "no table built when warm")
                expect(metrics["cache.hit_ratio"]["value"] == 1, "every warm load hits")

    for name, inject in (
        ("verify-cold", "wrong-golden"),
        ("verify-warm", "planted-false"),
        ("series-kernels", "wrong-eigen"),
    ):
        code, out = bench("--workload", name, "--inject", inject)
        res = result(out) if code == 0 else {}
        expect(
            code == 0 and res["correct"] is False and res["failed"] == res["attempted"] >= 1,
            f"{name} with {inject}: every op counted as failed",
        )

    spans_out.unlink()
    bare = HERE / "_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = bench("--workload", "verify-cold", cwd=bare)
    shutil.rmtree(bare)
    if not any(bare.parent.iterdir()):
        bare.parent.rmdir()
    expect(code != 0 and '"metrics"' not in out, "without sources: non-zero exit, no result")

    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
