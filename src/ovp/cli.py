"""Command-line interface.

Subcommands:

    compute   pbar / theta / ck coefficient tables
    verify    congruence families and the dissection chain
    hecke     apply T(l^2) or run an eigenform check
    dissect   extract an arithmetic progression from a series
    export    write a table to CSV or JSON

Exit codes: 0 success, 1 verification failure, 2 usage error, and 141
(128 + SIGPIPE) when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import IO, Iterator

from . import cache
from .congruence import family_by_id, registry, verify, verify_dissection_chain
from .hecke import HeckeParams, eigenform_check, hecke_apply
from .overpartition import CoeffTable, Method, canonical_method, overpartition_table
from .qseries import CoefficientRing, Series, mod_ring, write_coeffs
from .squares import squares_table
from .theta import ThetaKind, theta_series

_THETA_NAMES = tuple(kind.value for kind in ThetaKind)

_DEFAULT_VERIFY_BUDGET = 10**5
_CHAIN_ORDER_CAP = 2500


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[IO[str]]:
    """Stdout, or the file ``out`` opened for writing."""
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w", newline="") as fh:
            yield fh


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)
        if out is None and not text.endswith("\n"):
            fh.write("\n")


def _emit_coeffs(series: Series, args, **extra) -> None:
    """Stream the coefficients as text, CSV, or JSON with ``extra`` fields
    first; like ``_emit``, text and JSON get a final newline on stdout."""
    with _output(args.out) as fh:
        write_coeffs(fh, series, args.format, **extra)
        if args.out is None and args.format != "csv":
            fh.write("\n")


def _get_pbar_table(
    ring: CoefficientRing, length: int, method: str, args
) -> CoeffTable:
    if not args.no_cache:
        hit = cache.load_table("pbar", method, ring, length, args.cache_dir)
        if hit is not None:
            return hit
    table = overpartition_table(ring, length, method)
    if not args.no_cache:
        cache.store_table(table, args.cache_dir)
    return table


# -- compute -----------------------------------------------------------------


# Options of compute and export that apply to one target each: (name,
# target, default, argparse keywords).  They default to None, so that one
# given for another target is refused rather than ignored.
_TARGET_OPTIONS = (
    ("method", "pbar", "theta", {"help": "pbar method: theta | euler | enum | two-adic"}),
    ("kind", "theta", "phi", {"choices": _THETA_NAMES, "help": "theta kind"}),
    ("k", "ck", 2, {"type": int, "help": "k_max of the ck table"}),
)


def _add_target_options(p: argparse.ArgumentParser, targets: tuple[str, ...]) -> None:
    for name, target, default, kwargs in _TARGET_OPTIONS:
        if target in targets:
            kwargs = {**kwargs, "help": f"{kwargs['help']} (default {default})"}
            p.add_argument(f"--{name}", default=None, **kwargs)


def _cmd_compute(args, parser) -> int:
    for name, target, default, _ in _TARGET_OPTIONS:
        if getattr(args, name, None) is None:
            setattr(args, name, default)
        elif args.target != target:
            parser.error(f"--{name} applies to {target} only, not to {args.target}")
    if args.target == "pbar":
        method = canonical_method(args.method)
        table = _get_pbar_table(CoefficientRing(args.mod), args.order, method, args)
        _emit_coeffs(table.as_series(), args, name="pbar", method=method)
        return 0
    if args.target == "theta":
        kind = ThetaKind(args.kind)
        series = theta_series(kind, CoefficientRing(args.mod), args.order)
        _emit_coeffs(series, args, name=f"theta:{args.kind}")
        return 0
    # ck: representation counts by ordered sums of positive squares
    if args.mod is not None:
        parser.error("--mod does not apply to ck: its counts are exact")
    table = squares_table(args.k, args.order)
    if args.format == "json":
        payload = {
            "name": "ck",
            "k_max": table.k_max,
            "order": table.order,
            "rows": [list(row) for row in table.rows],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    elif args.format == "csv":
        with _output(args.out) as fh:
            table.write_csv(fh)
    else:
        _emit("\n".join(table.lines(" ")), args.out)
    return 0


# -- verify ------------------------------------------------------------------


def _cmd_verify(args, parser) -> int:
    if args.list:
        ids = [fam.id for fam in registry()] + ["dissection-chain", "planted-false"]
        _emit("\n".join(ids), args.out)
        return 0
    if not args.all and not args.family:
        parser.error("choose --all or at least one --family")
    # one registry build for --all and the table modulus (family_by_id builds its own)
    everything = registry()
    # each family once, in first-seen order, however often it is selected
    families = {fam.id: fam for fam in everything} if args.all else {}
    run_chain = args.all
    try:
        for fid in args.family or []:
            if fid == "dissection-chain":
                run_chain = True
            elif fid not in families:
                families[fid] = family_by_id(fid)
    except KeyError as exc:
        parser.error(str(exc.args[0]))

    budget = args.budget
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    # every family modulus and the chain's 5 divide 120: one table (and one
    # cache entry) per budget serves every selection
    table_mod = math.lcm(5, *(fam.modulus for fam in everything))
    table = _get_pbar_table(
        mod_ring(table_mod), budget + 1, Method.THETA_INVERSION, args
    )

    reports = [verify(fam, table, budget=budget) for fam in families.values()]
    chain_checks, chain_not_run, chain_max_arg = [], None, None
    if run_chain:
        chain_order = max(1, min(_CHAIN_ORDER_CAP, budget // 80))
        try:
            chain_checks = verify_dissection_chain(chain_order, table)
            chain_max_arg = 80 * chain_order - 1
        except ValueError as exc:  # budget too small for the chain
            if not families:
                raise
            chain_not_run = str(exc)

    all_ok = all(r.ok for r in reports) and all(c.ok for c in chain_checks)
    if args.format == "json":
        payload = {
            "budget": budget,
            "pass": all_ok,
            "families": [r.to_json_dict() for r in reports],
            "dissection_chain": [c.to_dict() for c in chain_checks],
            "dissection_chain_max_argument": chain_max_arg,
            "dissection_chain_not_run": chain_not_run,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = []
        for r in reports:
            mark = "VACUOUS" if r.vacuous else "PASS" if r.ok else "FAIL"
            lines.append(
                f"{mark} {r.family_id}: {r.statement} "
                f"[cases={r.cases}, n<={r.n_max}, arg<={r.max_argument}]"
            )
            for (n, arg, lhs, rhs) in r.counterexamples:
                lines.append(f"     counterexample n={n} arg={arg} lhs={lhs} rhs={rhs}")
        for c in chain_checks:
            mark = "PASS" if c.ok else "FAIL"
            where = "" if c.ok else f" (first difference at q^{c.first_difference})"
            lines.append(f"{mark} chain: {c.name} [order {c.order}]{where}")
        if chain_not_run:
            lines.append(f"NOT RUN chain: {chain_not_run}")
        vacuous = sum(r.vacuous for r in reports)
        chain = f" + {len(chain_checks)} chain identities (arguments <= {chain_max_arg})"
        lines.append(
            f"{'PASS' if all_ok else 'FAIL'}: {len(reports)} families"
            + (f" ({vacuous} vacuous)" if vacuous else "")
            + (chain if chain_checks else "")
            + f" at budget {budget}"
        )
        _emit("\n".join(lines), args.out)
    return 0 if all_ok else 1


# -- hecke -------------------------------------------------------------------


def _cmd_hecke(args, parser) -> int:
    if args.eigenvalue is not None and not args.check_eigen:
        parser.error("--eigenvalue needs --check-eigen")
    if args.check_eigen and args.format == "csv":
        parser.error("--format csv does not apply with --check-eigen: its report is text or json")
    try:
        params = HeckeParams(k=args.k, N=args.level, ell=args.ell)
    except ValueError as exc:
        parser.error(str(exc))
    ring = CoefficientRing(args.mod)
    if args.f == "phi3":
        f = theta_series(ThetaKind.PHI_PLUS, ring, args.order) ** 3
    else:
        f = theta_series(ThetaKind.PHI_MINUS, ring, args.order) ** 3
    try:
        if args.check_eigen:
            lam = args.eigenvalue if args.eigenvalue is not None else args.ell + 1
            report = eigenform_check(f, params, lam)
            if args.format == "json":
                _emit(json.dumps(report.to_json_dict(), indent=2), args.out)
            else:
                mark = "PASS" if report.ok else "FAIL"
                where = (
                    ""
                    if report.ok
                    else f"; first failure at q^{report.first_failure}"
                )
                _emit(
                    f"{mark} T({args.ell}^2) {args.f} lambda={lam} "
                    f"[order {report.order}]{where}",
                    args.out,
                )
            return 0 if report.ok else 1
        image = hecke_apply(f, params)
    except ValueError as exc:
        parser.error(str(exc))
    _emit_coeffs(image, args, name=f"T({args.ell}^2) {args.f}")
    return 0


# -- dissect -----------------------------------------------------------------


def _cmd_dissect(args, parser) -> int:
    if args.r < 0 or args.r >= args.d:
        parser.error(f"need 0 <= r < d, got r={args.r}, d={args.d}")
    ring = CoefficientRing(args.mod)
    if args.series == "pbar":
        table = _get_pbar_table(ring, args.order, Method.THETA_INVERSION, args)
        series = table.as_series()
    else:
        series = theta_series(ThetaKind(args.series), ring, args.order)
    # a strided view of the series' own vector: nothing is copied but the output
    part = series.extract_progression(args.d, args.r)
    _emit_coeffs(part, args, name=f"{args.series}[{args.d}n+{args.r}]")
    return 0


# -- parser ------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, order_default: int) -> None:
    p.add_argument(
        "-T",
        "--order",
        type=int,
        default=order_default,
        help=f"truncation order / table length (default {order_default})",
    )
    p.add_argument("--mod", type=int, default=None, help="work in Z/m instead of ZZ")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", default=None, help="write output to this file")
    p.add_argument("--cache-dir", default=None, help="cache directory override")
    p.add_argument("--no-cache", action="store_true", help="skip the table cache")


def _compute_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("target", choices=("pbar", "theta", "ck"))
    _add_common(p, order_default=100)
    _add_target_options(p, ("pbar", "theta", "ck"))
    p.set_defaults(func=_cmd_compute)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--all", action="store_true", help="entire registry + chain")
    p.add_argument(
        "--family",
        action="append",
        help="family id (repeatable); also: dissection-chain, planted-false",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=_DEFAULT_VERIFY_BUDGET,
        help=f"largest pbar argument swept (default {_DEFAULT_VERIFY_BUDGET})",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--list", action="store_true", help="list family ids and exit")
    p.set_defaults(func=_cmd_verify)


def _hecke_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f", choices=("phi3", "phi-minus3"), default="phi3")
    p.add_argument("--ell", type=int, required=True, help="odd prime l")
    p.add_argument("--k", type=int, default=3, help="weight numerator (odd)")
    p.add_argument("--level", type=int, default=16, help="level N, 4 | N")
    _add_common(p, order_default=10000)
    p.add_argument("--check-eigen", action="store_true")
    p.add_argument(
        "--eigenvalue",
        type=int,
        default=None,
        help="expected eigenvalue (default l + 1)",
    )
    p.set_defaults(func=_cmd_hecke)


def _dissect_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--series",
        choices=("pbar",) + _THETA_NAMES,
        default="pbar",
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_common(p, order_default=100)
    p.set_defaults(func=_cmd_dissect)


def _export_arguments(p: argparse.ArgumentParser) -> None:
    # export is compute with --out required and CSV by default
    p.add_argument("--table", dest="target", choices=("pbar", "ck"), default="pbar")
    _add_target_options(p, ("pbar", "ck"))
    p.add_argument(
        "-T", "--order", type=int, required=True, help="table length"
    )
    p.add_argument("--mod", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=_cmd_compute)


# command: (help, adds its arguments)
_COMMANDS = {
    "compute": ("coefficient tables: pbar, theta, ck", _compute_arguments),
    "verify": ("verify congruence families", _verify_arguments),
    "hecke": ("apply T(l^2) / eigenform check", _hecke_arguments),
    "dissect": ("extract progression d*n + r", _dissect_arguments),
    "export": ("write a table to --out", _export_arguments),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for ``argv``: every command is registered with its help,
    but only the one that ``argv`` names gets its arguments (all of them
    when it names none), since adding them all costs about 20 parses."""
    parser = argparse.ArgumentParser(
        prog="ovp",
        description="Overpartition congruence toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # ovp's own options take no value, so the first word is the command
    named = next((a for a in argv or () if not a.startswith("-")), None)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if named == name or named not in _COMMANDS:
            add_arguments(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        status = args.func(args, parser)
        sys.stdout.flush()  # a closed pipe raises here rather than at exit
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left (``| head``): the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
