"""Span recording for the traced benchmark run, and the per-layer metrics.

The recorder wraps the public functions of each ovp module from outside the
package. A function is patched under every name an ovp module holds it by,
so a caller that imported it with ``from .x import f`` is traced too.
Methods of ``Series`` are patched on the class. Each span is a list
``[name, start, end, parent, op, attrs]`` kept in memory; the child sends the
spans to the parent when its run ends, and the parent turns them into the
per-layer metrics with ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import sys
import time

import numpy as np

# Moduli at or above this use the wide (int64-overflow-prone) code paths.
WIDE_MODULUS = 1 << 16


class Recorder:
    """Collects spans; ``op`` is the id stamped on spans opened from now on."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """Return fn wrapped in a span; ``name`` may be a function of args."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            span = [label, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        return traced


# -- span attributes (computed after the span has closed) ---------------------


def _nnz(series, n: int) -> int:
    head = series.coeffs[:n]
    if series.ring.is_exact:
        return sum(1 for c in head if c)
    return int(np.count_nonzero(head))


def _mul_attrs(args, result):
    a, b = args
    n = result.order
    if not hasattr(b, "coeffs"):  # scalar product
        return {"coeffs": n, "dense": False}
    bound = 4 * math.isqrt(n)
    return {"coeffs": n, "dense": _nnz(a, n) > bound and _nnz(b, n) > bound}


def _order_attrs(args, result):
    return {"coeffs": result.order}


def _table_attrs(args, result):
    return {"coeffs": result.length}


def _verify_attrs(args, result):
    return {"family": result.family_id, "cases": result.cases}


def _load_attrs(args, result):
    if result is None:
        return {"hit": False, "bytes": 0}
    path = result.meta.get("cache_path")
    return {"hit": True, "bytes": os.path.getsize(path) if path else 0}


def _store_attrs(args, result):
    return {"bytes": os.path.getsize(result) if result else 0}


def _encode_attrs(args, result):
    return {"bytes": len(result)}


def _decode_attrs(args, result):
    return {"bytes": len(args[1])}


def _invert_name(args):
    m = args[0].ring.modulus
    return "qseries.invert_wide" if m is not None and m >= WIDE_MODULUS else "qseries.invert"


# (span name, defining module, function name, attribute function)
FUNCTIONS = (
    ("overpartition.table", "ovp.overpartition", "overpartition_table", _table_attrs),
    ("theta.series", "ovp.theta", "theta_series", None),
    ("squares.table", "ovp.squares", "squares_table", None),
    ("squares.mod8", "ovp.overpartition", "mod8_residues", None),
    ("hecke.apply", "ovp.hecke", "hecke_apply", _order_attrs),
    ("hecke.eigen", "ovp.hecke", "eigenform_check", None),
    ("congruence.verify", "ovp.congruence", "verify", _verify_attrs),
    ("congruence.chain", "ovp.congruence", "verify_dissection_chain", None),
    ("cache.load", "ovp.cache", "load_table", _load_attrs),
    ("cache.store", "ovp.cache", "store_table", _store_attrs),
    ("cli.main", "ovp.cli", "main", None),
)

# (span name, Series attribute, attribute function); from_bytes is a classmethod
METHODS = (
    (_invert_name, "invert", _order_attrs),
    ("qseries.mul", "__mul__", _mul_attrs),
    ("qseries.pow", "__pow__", None),
    ("qseries.codec", "to_bytes", _encode_attrs),
    ("qseries.codec", "from_bytes", _decode_attrs),
)


def install(recorder: Recorder) -> list[tuple]:
    """Patch every traced name; returns the undo list for ``uninstall``."""
    undo = []
    for name, modname, attr, attrs in FUNCTIONS:
        original = getattr(importlib.import_module(modname), attr)
        wrapped = recorder.wrap(name, original, attrs)
        for modkey, module in list(sys.modules.items()):
            if modkey != "ovp" and not modkey.startswith("ovp."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapped)
    series = importlib.import_module("ovp.qseries").Series
    for name, attr, attrs in METHODS:
        original = series.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(recorder.wrap(name, original.__func__, attrs))
        else:
            wrapped = recorder.wrap(name, original, attrs)
        undo.append((series, attr, original))
        setattr(series, attr, wrapped)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


# -- per-layer metrics --------------------------------------------------------

# Registry family ids, in registry order; each gets .s and .cases metrics.
FAMILY_IDS = (
    "pbar-4n3-mod8", "pbar-40n35-mod40", "pbar-40n35-mod5", "pbar-9a-27n18-mod12",
    "nonresidue-3", "nonresidue-5", "nonresidue-7", "nonresidue-11",
    "nonresidue-13", "nonresidue-17", "nonresidue-19", "nonresidue-23",
    "nonresidue-29", "nonresidue-31", "pbar-5n-vs-20n-mod5", "pbar-n-vs-4n-mod8",
    "pbar-4k-40n35-mod40", "pbar-4k-5l2-mod5", "pbar-25n-vs-625n-mod5",
    "pbar-4k-5odd-5n1-mod5", "pbar-125-5n1-mod5", "pbar-500-5n1-mod5",
    "pbar-45-3n1-mod5", "pbar-180-3n1-mod5", "pbar-845-13n-mod5",
    "treneer-5l3-mod5", "lovejoy-osburn-3l3-mod3", "pbar-5-5n2-scaled-mod5",
    "pbar-5n-hecke-split-mod5",
)

# (metric, unit, better); times, calls, bytes and cases are per traced op,
# and trace.op_s, the mean traced op, is the base of each layer's share.
PER_LAYER = (
    ("overpartition.table.s", "s", "lower"),
    ("overpartition.table.calls", "count", "lower"),
    ("overpartition.table.coeffs_per_s", "1/s", "higher"),
    ("qseries.invert.s", "s", "lower"),
    ("qseries.invert.coeffs_per_s", "1/s", "higher"),
    ("qseries.invert_wide.s", "s", "lower"),
    ("qseries.invert_wide.coeffs_per_s", "1/s", "higher"),
    ("qseries.mul.s", "s", "lower"),
    ("qseries.mul.calls", "count", "lower"),
    ("qseries.mul.coeffs_per_s", "1/s", "higher"),
    ("qseries.mul_dense.s", "s", "lower"),
    ("qseries.pow.s", "s", "lower"),
    ("qseries.codec.s", "s", "lower"),
    ("qseries.codec.bytes", "bytes", "lower"),
    ("theta.series.s", "s", "lower"),
    ("theta.series.calls", "count", "lower"),
    ("squares.table.s", "s", "lower"),
    ("squares.mod8.s", "s", "lower"),
    ("hecke.apply.s", "s", "lower"),
    ("hecke.apply.coeffs_per_s", "1/s", "higher"),
    ("hecke.eigen.s", "s", "lower"),
    ("congruence.verify.s", "s", "lower"),
    ("congruence.cases", "count", "higher"),
    ("congruence.cases_per_s", "1/s", "higher"),
    ("congruence.vacuous", "count", "lower"),
    ("congruence.chain.s", "s", "lower"),
    *(
        metric
        for fid in FAMILY_IDS
        for metric in (
            (f"congruence.family.{fid}.s", "s", "lower"),
            (f"congruence.family.{fid}.cases", "count", "higher"),
        )
    ),
    ("cache.load.s", "s", "lower"),
    ("cache.load.bytes", "bytes", "lower"),
    ("cache.store.s", "s", "lower"),
    ("cache.store.bytes", "bytes", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cli.main.s", "s", "lower"),
    ("cli.self.s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[list], ops: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced ops.

    ``ops`` holds every op of the run with its seconds and whether it was
    traced; the untraced ones are the reference for ``trace.overhead_s``.
    """
    traced = [op["s"] for op in ops if op["traced"]]
    plain = [op["s"] for op in ops if not op["traced"]]
    per_op = 1.0 / len(traced)
    dur = [end - start for _, start, end, *_ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] is not None:
            child[span[3]] += dur[i]

    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    count: dict[str, float] = {}

    def add(key, value):
        count[key] = count.get(key, 0) + value

    covered = 0.0
    cli_self = 0.0
    for i, (name, _, _, parent, _, attrs) in enumerate(spans):
        seconds[name] = seconds.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        attrs = attrs or {}
        add(name + ".coeffs", attrs.get("coeffs", 0))
        add(name + ".bytes", attrs.get("bytes", 0))
        if name == "cli.main":
            cli_self += dur[i] - child[i]
        elif parent is None or spans[parent][0] == "cli.main":
            covered += dur[i]
        if name == "qseries.mul" and attrs.get("dense"):
            add("mul_dense.s", dur[i])
        if name == "cache.load" and attrs.get("hit"):
            add("cache.hits", 1)
        if name == "congruence.verify":
            fid = attrs["family"]
            add(f"family.{fid}.s", dur[i])
            add(f"family.{fid}.cases", attrs["cases"])
            add("cases", attrs["cases"])
            add("vacuous", attrs["cases"] == 0)

    def s(name):
        return seconds.get(name, 0.0)

    out = {
        "overpartition.table.s": s("overpartition.table") * per_op,
        "overpartition.table.calls": calls.get("overpartition.table", 0) * per_op,
        "overpartition.table.coeffs_per_s": _rate(
            count.get("overpartition.table.coeffs", 0), s("overpartition.table")
        ),
        "qseries.mul.s": s("qseries.mul") * per_op,
        "qseries.mul.calls": calls.get("qseries.mul", 0) * per_op,
        "qseries.mul.coeffs_per_s": _rate(
            count.get("qseries.mul.coeffs", 0), s("qseries.mul")
        ),
        "qseries.mul_dense.s": count.get("mul_dense.s", 0.0) * per_op,
        "qseries.pow.s": s("qseries.pow") * per_op,
        "qseries.codec.s": s("qseries.codec") * per_op,
        "qseries.codec.bytes": count.get("qseries.codec.bytes", 0) * per_op,
        "theta.series.s": s("theta.series") * per_op,
        "theta.series.calls": calls.get("theta.series", 0) * per_op,
        "squares.table.s": s("squares.table") * per_op,
        "squares.mod8.s": s("squares.mod8") * per_op,
        "hecke.apply.s": s("hecke.apply") * per_op,
        "hecke.apply.coeffs_per_s": _rate(
            count.get("hecke.apply.coeffs", 0), s("hecke.apply")
        ),
        "hecke.eigen.s": s("hecke.eigen") * per_op,
        "congruence.verify.s": s("congruence.verify") * per_op,
        "congruence.cases": count.get("cases", 0) * per_op,
        "congruence.cases_per_s": _rate(count.get("cases", 0), s("congruence.verify")),
        "congruence.vacuous": count.get("vacuous", 0) * per_op,
        "congruence.chain.s": s("congruence.chain") * per_op,
        "cache.load.s": s("cache.load") * per_op,
        "cache.load.bytes": count.get("cache.load.bytes", 0) * per_op,
        "cache.store.s": s("cache.store") * per_op,
        "cache.store.bytes": count.get("cache.store.bytes", 0) * per_op,
        "cache.hit_ratio": _rate(count.get("cache.hits", 0), calls.get("cache.load", 0)),
        "cli.main.s": s("cli.main") * per_op,
        "cli.self.s": cli_self * per_op,
        "trace.op_s": sum(traced) * per_op,
        "trace.coverage": _rate(covered, sum(traced)),
        "trace.overhead_s": (
            statistics.median(traced) - statistics.median(plain) if plain else 0.0
        ),
    }
    for kind in ("invert", "invert_wide"):
        name = f"qseries.{kind}"
        out[f"{name}.s"] = s(name) * per_op
        out[f"{name}.coeffs_per_s"] = _rate(count.get(f"{name}.coeffs", 0), s(name))
    for fid in FAMILY_IDS:
        out[f"congruence.family.{fid}.s"] = count.get(f"family.{fid}.s", 0.0) * per_op
        out[f"congruence.family.{fid}.cases"] = count.get(f"family.{fid}.cases", 0) * per_op
    return {name: out[name] for name, _, _ in PER_LAYER}
