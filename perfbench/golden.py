"""Record the golden case counts of ``ovp verify --all`` for every budget.

The verify workloads count an op as failed unless its per-family and chain
counts equal these, so a change that quietly sweeps fewer cases fails
instead of looking faster. Regenerate only when the registry changes on
purpose:

    PYTHONPATH=src python3 perfbench/golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import ovp
import ovp.cli

from workloads import GOLDEN, SIZES, verify_argv


def record(budget: int) -> dict:
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        code = ovp.cli.main(verify_argv(budget, Path(tmp)) + ["--no-cache"])
    payload = json.loads(out.getvalue())
    if code != 0 or not payload["pass"]:
        raise SystemExit(f"verify --all --budget {budget} did not pass")
    return {
        "families": {f["family"]: f["cases"] for f in payload["families"]},
        "chain": len(payload["dissection_chain"]),
    }


def main() -> None:
    budgets = sorted(
        {b for sizes in SIZES.values() for name in ("verify-cold", "verify-warm") for b in sizes[name]}
    )
    table = {}
    for budget in budgets:
        table[str(budget)] = record(budget)
        print(budget, sum(table[str(budget)]["families"].values()), file=sys.stderr)
    doc = {"ovp_version": ovp.__version__, "budgets": table}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
