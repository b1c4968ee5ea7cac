"""The benchmark's workloads: inputs from a seed, the timed op, and its gate.

Each workload is built from ``(name, seed, size, workdir, inject)`` and offers

    before()  untimed preparation of the next op
    run()     the timed op; returns what ``check`` needs
    check(r)  untimed correctness gate -> (ok, cases, reason)
    after()   untimed clean-up of the op

Every call into ovp goes through the package attributes at call time, so the
traced run sees it when it has patched them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import ovp
import ovp.cli
import ovp.squares

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

SIZES = {
    "full": {
        "verify-cold": [980_000, 990_000, 1_000_000, 1_010_000, 1_020_000],
        "verify-warm": [3_920_000, 3_960_000, 4_000_000, 4_040_000, 4_080_000],
        "series-kernels": {"theta5": 30_000, "theta3": 20_000, "table": 30_000, "squares": 10_000},
    },
    "tiny": {
        "verify-cold": [20_000],
        "verify-warm": [40_000],
        "series-kernels": {"theta5": 2_000, "theta3": 1_500, "table": 2_000, "squares": 300},
    },
}

NARROW_MODULI = (5, 1920, 65521)
WIDE_PRIMES = (998_244_353, 2**31 - 1)
HECKE_PRIMES = (3, 5, 7, 11, 13)
HECKE_LEVEL = 16


def verify_argv(budget: int, cache_dir: Path) -> list[str]:
    return [
        "verify", "--all", "--format", "json",
        "--budget", str(budget), "--cache-dir", str(cache_dir),
    ]


def load_golden(budget: int) -> dict:
    table = json.loads(GOLDEN.read_text())["budgets"]
    if str(budget) not in table:
        raise SystemExit(f"no golden counts for budget {budget}; run perfbench/golden.py")
    return table[str(budget)]


class Verify:
    """``ovp verify --all --format json`` in-process, cold or from the cache."""

    def __init__(self, name: str, seed: int, size: str, workdir: Path, inject: str):
        self.warm = name == "verify-warm"
        self.budget = random.Random(seed).choice(SIZES[size][name])
        self.golden = load_golden(self.budget)
        self.extra = []
        if inject == "wrong-golden":
            fid = next(iter(self.golden["families"]))
            self.golden["families"][fid] += 1
        elif inject == "planted-false":
            self.extra = ["--family", "planted-false"]
        self.cache_dir = workdir / "cache"
        if self.warm:
            self._fill()

    def _fill(self) -> None:
        # A separate process fills the cache, so this one's peak RSS is
        # that of the read path alone.
        self.cache_dir.mkdir(parents=True)
        argv = verify_argv(self.budget, self.cache_dir)
        done = subprocess.run(
            [sys.executable, "-m", "ovp.cli", *argv],
            stdout=subprocess.DEVNULL,
            check=False,
        )
        if done.returncode != 0 or not any(self.cache_dir.iterdir()):
            raise RuntimeError(f"cache fill failed with exit code {done.returncode}")

    def before(self) -> None:
        if not self.warm:
            self.cache_dir.mkdir(parents=True)

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = ovp.cli.main(verify_argv(self.budget, self.cache_dir) + self.extra)
            except SystemExit as exc:  # argparse reports usage errors this way
                code = exc.code
        return code, out.getvalue()

    def check(self, result) -> tuple[bool, int, str | None]:
        code, text = result
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return False, 0, f"exit code {code}, output is not JSON"
        families = payload.get("families", [])
        cases = sum(f["cases"] for f in families)
        want = self.golden["families"]
        got = {f["family"]: f["cases"] for f in families}
        chain = payload.get("dissection_chain", [])
        if code != 0 or payload.get("pass") is not True:
            return False, cases, f"exit code {code}, pass={payload.get('pass')}"
        if payload.get("budget") != self.budget:
            return False, cases, f"budget {payload.get('budget')} != {self.budget}"
        if len(families) != len(want) or got != want:
            wrong = sorted(set(want.items()) ^ set(got.items()))[:4]
            return False, cases, f"family cases differ from golden counts: {wrong}"
        if not all(f["pass"] for f in families):
            return False, cases, "a family did not pass"
        if len(chain) != self.golden["chain"] or not all(c["pass"] for c in chain):
            return False, cases, f"chain: {len(chain)} identities, not all passing"
        return True, cases, None

    def after(self) -> None:
        if not self.warm:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


def _times_phi_minus(values: np.ndarray, p: int) -> np.ndarray:
    """values * phi(-q) mod p by a sparse shift-and-add, for the gate.

    Coefficients of phi(-q) are 1 or +/-2 and values are below 2^31, so the
    at most sqrt(T) + 1 summands of each entry stay far below 2^63.
    """
    n = len(values)
    acc = values.astype(np.int64).copy()
    k = 1
    while k * k < n:
        acc[k * k :] += (2 if k % 2 == 0 else -2) * values[: n - k * k]
        k += 1
    return acc % p


class SeriesKernels:
    """Library calls: theta powers, Hecke eigenforms, wide tables, squares."""

    def __init__(self, name: str, seed: int, size: str, workdir: Path, inject: str):
        rng = random.Random(seed)
        self.sizes = SIZES[size][name]
        # Both wide primes run in every op: their product kernels differ
        # threefold in cost, so letting the seed choose one would make the
        # op time depend on the seed. The seed picks their order instead.
        self.moduli = [rng.choice(NARROW_MODULI), *rng.sample(WIDE_PRIMES, 2)]
        self.ells = sorted(rng.sample(HECKE_PRIMES, 3))
        self.bump = 1 if inject == "wrong-eigen" else 0

    def before(self) -> None:
        pass

    def run(self):
        kind = ovp.ThetaKind
        reports = []
        for m in self.moduli:
            f = ovp.theta_series(kind.PHI_PLUS, ovp.mod_ring(m), self.sizes["theta5"]) ** 5
            for ell in self.ells:
                params = ovp.HeckeParams(k=5, N=HECKE_LEVEL, ell=ell)
                reports.append(ovp.eigenform_check(f, params, 1 + ell**3 + self.bump))
        g = ovp.theta_series(kind.PHI_MINUS, ovp.ZZ, self.sizes["theta3"]) ** 3
        for ell in self.ells:
            params = ovp.HeckeParams(k=3, N=HECKE_LEVEL, ell=ell)
            reports.append(ovp.eigenform_check(g, params, ell + 1))
        T = self.sizes["table"]
        wide = [ovp.overpartition_table(ovp.mod_ring(p), T) for p in self.moduli[1:]]
        mod8 = ovp.overpartition_table(ovp.mod_ring(8), T)
        mod8_ok = np.array_equal(np.asarray(mod8.values)[1:], ovp.mod8_residues(T)[1:])
        squares = ovp.squares_table(4, self.sizes["squares"])
        return reports, wide, mod8_ok, squares

    def check(self, result) -> tuple[bool, int, str | None]:
        # Cases are the coefficients checked one by one against an
        # independent identity: both wide tables times phi(-q), the mod-8
        # table for n >= 1, and squares rows 1 and 2. The eigenform checks
        # gate the op too, but their coverage (order / l^2) would make the
        # count depend on the primes the seed picked.
        reports, wide, mod8_ok, squares = result
        cases = 3 * self.sizes["table"] - 1 + 2 * self.sizes["squares"]
        bad = [(r.ell, r.eigenvalue, r.first_failure) for r in reports if not r.ok]
        if bad:
            return False, cases, f"eigenform checks failed (l, lambda, at): {bad}"
        for table in wide:
            p = table.ring.modulus
            prod = _times_phi_minus(np.asarray(table.values), p)
            if prod[0] != 1 or np.count_nonzero(prod[1:]):
                return False, cases, f"pbar mod {p} times phi(-q) is not 1"
        if not mod8_ok:
            return False, cases, "pbar mod 8 differs from mod8_residues"
        order = squares.order
        if (
            list(squares.row(1)) != ovp.squares.c1_array(order).tolist()
            or list(squares.row(2)) != ovp.squares.c2_array(order).tolist()
        ):
            return False, cases, "squares_table rows 1-2 differ from c1/c2 arrays"
        return True, cases, None

    def after(self) -> None:
        pass


WORKLOADS = {"verify-cold": Verify, "verify-warm": Verify, "series-kernels": SeriesKernels}
