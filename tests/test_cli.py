"""End-to-end command-line checks through main(argv).

Exit code contract: 0 success, 1 verification failure, 2 usage error, 141
when the reader of stdout closes it early.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ovp
import ovp.cli
from ovp import ZZ, Method, mod_ring
from ovp.cache import store_table
from ovp.cli import build_parser, main
from ovp.overpartition import CoeffTable
from ovp.theta import ThetaKind, theta_series

PBAR_TEXT = "1,2,4,8,14,24,40,64,100,154,232"


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- compute -------------------------------------------------------------------


def test_compute_pbar_text(capsys):
    code, out, _ = _run(capsys, ["compute", "pbar", "-T", "11", "--no-cache"])
    assert code == 0
    assert out == PBAR_TEXT + "\n"


def test_compute_pbar_mod_text(capsys):
    code, out, _ = _run(capsys, ["compute", "pbar", "-T", "11", "--mod", "8", "--no-cache"])
    assert code == 0
    assert out == "1,2,4,0,6,0,0,0,4,2,0\n"


def test_closed_stdout_exits_141_without_traceback(tmp_path):
    # about 2 MB of CSV overfill the pipe, so writes are still pending when
    # the reader closes its end after the first line
    src = str(Path(ovp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["compute", "pbar", "-T", "200000", "--mod", "120", "--format", "csv"]
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "ovp.cli", *argv, "--no-cache"],
            stdout=subprocess.PIPE,
            stderr=err,
            env={**os.environ, "PYTHONPATH": path},
        )
        try:
            assert proc.stdout.readline() == b"n,value\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()
        err.seek(0)
        assert "Traceback" not in err.read()


def test_compute_pbar_methods_agree(capsys):
    _, theta_out, _ = _run(capsys, ["compute", "pbar", "-T", "40", "--no-cache"])
    _, euler_out, _ = _run(
        capsys, ["compute", "pbar", "-T", "40", "--method", "euler", "--no-cache"]
    )
    assert theta_out == euler_out


def test_compute_pbar_csv_file(capsys, tmp_path):
    target = tmp_path / "pbar.csv"
    code, _, _ = _run(
        capsys,
        ["compute", "pbar", "-T", "5", "--format", "csv", "--out", str(target), "--no-cache"],
    )
    assert code == 0
    data = target.read_bytes()
    assert b"\r" not in data
    assert data.decode() == "n,value\n0,1\n1,2\n2,4\n3,8\n4,14\n"


def test_compute_pbar_json(capsys):
    code, out, _ = _run(
        capsys, ["compute", "pbar", "-T", "6", "--format", "json", "--no-cache"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "pbar"
    assert payload["method"] == "theta-inversion"
    assert payload["ring"] == "exact"
    assert payload["coeffs"] == ["1", "2", "4", "8", "14", "24"]


def test_compute_theta_text(capsys):
    code, out, _ = _run(
        capsys,
        ["compute", "theta", "--kind", "phi-minus", "-T", "10", "--no-cache"],
    )
    assert code == 0
    assert out == "1,-2,0,0,2,0,0,0,0,-2\n"


def test_compute_ck_csv(capsys):
    code, out, _ = _run(
        capsys,
        ["compute", "ck", "--k", "2", "-T", "6", "--format", "csv", "--no-cache"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,c1,c2"
    assert lines[6] == "5,0,2"


def test_compute_ck_text(capsys):
    code, out, _ = _run(capsys, ["compute", "ck", "--k", "3", "-T", "6", "--no-cache"])
    assert code == 0
    assert out.splitlines() == [
        "n c1 c2 c3", "0 0 0 0", "1 1 0 0", "2 0 1 0", "3 0 0 1", "4 1 0 0", "5 0 2 0",
    ]


def test_compute_rejects_bad_method(capsys):
    code, _, err = _run(
        capsys, ["compute", "pbar", "--method", "bogus", "--no-cache"]
    )
    assert code == 2
    assert err.startswith("error:")


def test_compute_rejects_bad_modulus(capsys):
    code, _, err = _run(capsys, ["compute", "pbar", "--mod", "1", "--no-cache"])
    assert code == 2 and "modulus" in err


def test_compute_ck_rejects_a_modulus(capsys):
    # the counts are exact: --mod 3 would print c_3(27) = 4, not 1
    with pytest.raises(SystemExit) as exc:
        main(["compute", "ck", "--k", "3", "-T", "50", "--mod", "3"])
    assert exc.value.code == 2 and "--mod" in capsys.readouterr().err


def test_compute_enum_over_cap(capsys):
    code, _, err = _run(
        capsys, ["compute", "pbar", "--method", "enum", "-T", "65", "--no-cache"]
    )
    assert code == 2 and "limited" in err


# -- verify --------------------------------------------------------------------


def test_verify_single_family(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--family", "pbar-4n3-mod8", "--budget", "2000", "--no-cache"],
    )
    assert code == 0
    assert "PASS pbar-4n3-mod8" in out
    assert out.rstrip().endswith("PASS: 1 families at budget 2000")


def test_verify_sweeps_each_selected_family_once(capsys):
    argv = ["verify", "--budget", "200", "--no-cache"]
    code, out, _ = _run(capsys, argv + ["--all", "--family", "pbar-4n3-mod8"])
    assert code == 0
    assert out.count("PASS pbar-4n3-mod8:") == 1
    assert out.splitlines()[-1].startswith("PASS: 29 families ")
    code, out, _ = _run(capsys, argv + ["--family", "nonresidue-3"] * 2)
    assert code == 0
    assert out.count("PASS nonresidue-3:") == 1
    assert out.rstrip().endswith("PASS: 1 families at budget 200")
    # first-seen order, with the registry's own order under --all
    argv += ["--format", "json", "--family", "planted-false", "--family", "nonresidue-5"]
    code, out, _ = _run(capsys, argv + ["--family", "planted-false", "--all"])
    ids = [f["family"] for f in json.loads(out)["families"]]
    assert code == 1 and len(ids) == 30
    assert ids[-1] == "planted-false" and ids.count("nonresidue-5") == 1


def test_verify_planted_false_exits_one(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--family", "planted-false", "--budget", "2000", "--no-cache"],
    )
    assert code == 1
    assert "FAIL planted-false" in out
    assert "counterexample n=1 arg=5 lhs=4 rhs=0" in out
    argv = ["verify", "--family", "planted-false", "--budget", "30", "--format", "json"]
    code, out, _ = _run(capsys, argv + ["--no-cache"])
    assert code == 1
    (report,) = json.loads(out)["families"]
    assert report["range"]["n_min"] == 1 and report["range"]["n_max"] == 6
    assert report["cases"] == 6


def test_verify_all_json(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--all", "--budget", "5000", "--format", "json", "--no-cache"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["budget"] == 5000
    assert len(payload["families"]) == 29
    assert len(payload["dissection_chain"]) == 9
    assert all(f["pass"] for f in payload["families"])
    assert all(f["range"]["n_min"] == 0 for f in payload["families"])
    assert all(c["pass"] for c in payload["dissection_chain"])


def test_verify_all_json_is_pinned(capsys):
    # the whole report at budget 2 * 10^5, recorded before the sweep read
    # assignments in one gathered pass per family and before the chain
    # built phi(-q)^3 from the 2-dissection instead of a cube
    argv = ["verify", "--all", "--budget", "200000", "--format", "json", "--no-cache"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "067cfd811f6fb503f7f7dc98166e8d9f34517ed85aef8fabf440ed3fd73d57eb"
    )


def test_verify_all_below_chain_budget_reports_chain_not_run(capsys):
    # the chain at order 1 reads pbar through argument 79
    code, out, _ = _run(capsys, ["verify", "--all", "--budget", "78", "--no-cache"])
    assert code == 0
    assert "NOT RUN chain: chain at order 1 needs pbar through argument 79" in out
    assert out.rstrip().endswith("PASS: 29 families (10 vacuous) at budget 78")
    code, out, _ = _run(
        capsys,
        ["verify", "--all", "--budget", "50", "--format", "json", "--no-cache"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["dissection_chain"] == []
    assert "argument 79" in payload["dissection_chain_not_run"]
    code, out, _ = _run(
        capsys,
        ["verify", "--all", "--budget", "79", "--format", "json", "--no-cache"],
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["dissection_chain"]) == 9
    assert payload["dissection_chain_not_run"] is None
    # with a family, the family sets the exit code
    argv = ["verify", "--family", "dissection-chain", "--budget", "50", "--no-cache"]
    code, out, _ = _run(capsys, argv + ["--family", "planted-false"])
    assert code == 1
    assert "NOT RUN chain:" in out
    assert out.rstrip().endswith("FAIL: 1 families at budget 50")


VACUOUS_AT_100 = [
    "pbar-25n-vs-625n-mod5", "pbar-4k-5odd-5n1-mod5", "pbar-125-5n1-mod5",
    "pbar-500-5n1-mod5", "pbar-180-3n1-mod5", "pbar-845-13n-mod5",
    "treneer-5l3-mod5", "lovejoy-osburn-3l3-mod3", "pbar-5-5n2-scaled-mod5",
    "pbar-5n-hecke-split-mod5",
]


def test_verify_marks_families_without_cases_vacuous(capsys):
    code, out, _ = _run(capsys, ["verify", "--all", "--budget", "100", "--no-cache"])
    assert code == 0
    lines = out.splitlines()
    marked = [line.split()[1].rstrip(":") for line in lines if line.startswith("VACUOUS ")]
    assert marked == VACUOUS_AT_100
    assert all("[cases=0," in line for line in lines if line.startswith("VACUOUS "))
    assert not any("[cases=0," in line for line in lines if line.startswith("PASS "))
    assert lines[-1] == (
        "PASS: 29 families (10 vacuous) + 9 chain identities (arguments <= 79) at budget 100"
    )
    code, out, _ = _run(
        capsys,
        ["verify", "--all", "--budget", "100", "--format", "json", "--no-cache"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert [f["family"] for f in payload["families"] if f["vacuous"]] == VACUOUS_AT_100
    assert all(f["vacuous"] == (f["cases"] == 0) for f in payload["families"])


def test_verify_chain_alone_below_its_budget_is_usage_error(capsys):
    code, out, err = _run(
        capsys,
        ["verify", "--family", "dissection-chain", "--budget", "50", "--no-cache"],
    )
    assert code == 2
    assert out == ""
    assert "chain at order 1 needs pbar through argument 79" in err


def test_verify_chain_only(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--family", "dissection-chain", "--budget", "2000", "--no-cache"],
    )
    assert code == 0
    assert out.count("chain:") == 9


def test_verify_list(capsys):
    code, out, _ = _run(capsys, ["verify", "--list"])
    assert code == 0
    ids = out.split()
    assert "pbar-4n3-mod8" in ids
    assert "dissection-chain" in ids
    assert "planted-false" in ids
    assert len(ids) == 31


def test_verify_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "nope", "--no-cache"])
    assert exc.value.code == 2


def test_verify_requires_a_selection(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--no-cache"])
    assert exc.value.code == 2


@pytest.mark.parametrize("budget", [0, -3])
def test_verify_rejects_budget_below_one_before_any_table(capsys, tmp_path, budget):
    argv = ["verify", "--all", "--budget", str(budget), "--cache-dir", str(tmp_path)]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: budget must be >= 1, got {budget}\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_reads_one_table_per_budget(capsys, tmp_path):
    # every selection reads the mod-120 table that --all stored
    selections = [
        ["--all"], ["--family", "pbar-40n35-mod40"], ["--family", "nonresidue-13"],
        ["--family", "dissection-chain"], ["--family", "planted-false"],
    ]
    for selection in selections:
        for fmt in ("text", "json"):
            argv = ["verify", *selection, "--budget", "20000", "--format", fmt]
            cached = _run(capsys, argv + ["--cache-dir", str(tmp_path)])
            assert cached == _run(capsys, argv + ["--no-cache"])
            assert cached[0] == (1 if "planted-false" in selection else 0)
    assert [p.suffix for p in tmp_path.iterdir()] == [".qs"]


def test_verify_reports_how_far_the_chain_reached(capsys):
    # the chain order is budget // 80, capped at 2500
    for budget, reach in ((79, 79), (5000, 4959), (300000, 199999)):
        argv = ["verify", "--family", "dissection-chain", "--budget", str(budget)]
        code, out, _ = _run(capsys, argv + ["--no-cache"])
        assert code == 0
        assert out.rstrip().endswith(
            f"PASS: 0 families + 9 chain identities (arguments <= {reach}) "
            f"at budget {budget}"
        )
        code, out, _ = _run(capsys, argv + ["--format", "json", "--no-cache"])
        assert json.loads(out)["dissection_chain_max_argument"] == reach
    # null when the chain did not run: below its budget, or not selected
    for selection in (["--all", "--budget", "78"], ["--family", "pbar-4n3-mod8"]):
        argv = ["verify", *selection, "--format", "json", "--no-cache"]
        code, out, _ = _run(capsys, argv)
        assert code == 0 and json.loads(out)["dissection_chain_max_argument"] is None


# -- hecke ---------------------------------------------------------------------


def test_hecke_eigen_check_passes(capsys):
    code, out, _ = _run(
        capsys,
        ["hecke", "--ell", "3", "--check-eigen", "-T", "400", "--no-cache"],
    )
    assert code == 0
    assert out.startswith("PASS T(3^2) phi3 lambda=4")


def test_hecke_wrong_eigenvalue_exits_one(capsys):
    code, out, _ = _run(
        capsys,
        [
            "hecke", "--ell", "3", "--check-eigen", "--eigenvalue", "5",
            "-T", "400", "--no-cache",
        ],
    )
    assert code == 1
    assert "FAIL" in out and "first failure at q^0" in out


def test_hecke_apply_multiplies_eigenform(capsys):
    code, out, _ = _run(
        capsys, ["hecke", "--ell", "3", "-T", "90", "--no-cache"]
    )
    assert code == 0
    assert out == "4,24,48,32,24,96,96,0,48,120\n"


def test_hecke_eigen_check_json(capsys):
    code, out, _ = _run(
        capsys,
        [
            "hecke", "--f", "phi-minus3", "--ell", "5", "--check-eigen",
            "--format", "json", "-T", "400", "--no-cache",
        ],
    )
    report = json.loads(out)
    assert code == 0
    assert (report["ell"], report["lambda"], report["pass"]) == (5, 6, True)


def test_hecke_readme_json_image_is_four_times_phi_minus_cubed(capsys):
    # the README's `ovp hecke --ell 3 --f phi-minus3 -T 1000 --format json`:
    # phi(-q)^3 is an eigenform of T(9) with eigenvalue 3 + 1
    code, out, _ = _run(
        capsys,
        ["hecke", "--ell", "3", "--f", "phi-minus3", "-T", "1000", "--format", "json"],
    )
    image = json.loads(out)
    f = theta_series(ThetaKind.PHI_MINUS, ZZ, image["order"]) ** 3
    assert code == 0 and image["name"] == "T(3^2) phi-minus3" and image["order"] == 112
    assert [int(c) for c in image["coeffs"]] == [4 * c for c in f.coeffs.tolist()]


def test_hecke_eigenvalue_needs_the_eigen_check(capsys):
    # without --check-eigen the image under T(25) is printed and the
    # eigenvalue would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["hecke", "--ell", "5", "--eigenvalue", "7", "--no-cache"])
    assert exc.value.code == 2 and "--eigenvalue" in capsys.readouterr().err


def test_hecke_rejects_composite_ell(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hecke", "--ell", "9", "--no-cache"])
    assert exc.value.code == 2


def test_hecke_weight_one_exact_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hecke", "--ell", "3", "--k", "1", "-T", "100", "--no-cache"])
    assert exc.value.code == 2


# -- dissect ----------------------------------------------------------------------


def test_dissect_pbar_progression_is_zero_mod8(capsys):
    code, out, _ = _run(
        capsys,
        [
            "dissect", "--series", "pbar", "--d", "4", "--r", "3",
            "--mod", "8", "-T", "200", "--no-cache",
        ],
    )
    assert code == 0
    assert out.strip() == ",".join(["0"] * 50)


def test_dissect_theta_odd_part(capsys):
    code, out, _ = _run(
        capsys,
        ["dissect", "--series", "phi", "--d", "2", "--r", "1", "-T", "20", "--no-cache"],
    )
    assert code == 0
    assert out == "2,0,0,0,2,0,0,0,0,0\n"


def test_dissect_bad_residue(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dissect", "--d", "4", "--r", "4", "--no-cache"])
    assert exc.value.code == 2


# -- export ----------------------------------------------------------------------


def test_export_pbar_csv(capsys, tmp_path):
    target = tmp_path / "t.csv"
    code, _, _ = _run(
        capsys,
        ["export", "--table", "pbar", "-T", "8", "--out", str(target), "--no-cache"],
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "n,value"
    assert lines[8] == "7,64"
    assert "\r" not in target.read_text()


def test_export_ck_json(capsys, tmp_path):
    target = tmp_path / "ck.json"
    code, _, _ = _run(
        capsys,
        [
            "export", "--table", "ck", "--k", "3", "-T", "7",
            "--format", "json", "--out", str(target), "--no-cache",
        ],
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["k_max"] == 3
    assert payload["rows"][1][5] == 2  # c2(5)


def test_export_ck_rejects_a_modulus(capsys, tmp_path):
    out = tmp_path / "ck.csv"
    with pytest.raises(SystemExit) as exc:
        main(["export", "--table", "ck", "--mod", "3", "-T", "50", "--out", str(out)])
    assert exc.value.code == 2 and "--mod" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["compute", "theta", "-T", "5", "--method", "euler"], "--method"),
        (["compute", "ck", "-T", "5", "--method", "euler"], "--method"),
        (["compute", "pbar", "-T", "5", "--kind", "psi"], "--kind"),
        (["compute", "ck", "-T", "5", "--kind", "psi"], "--kind"),
        (["compute", "pbar", "-T", "5", "--k", "7"], "--k"),
        (["compute", "theta", "-T", "5", "--k", "7"], "--k"),
        (["export", "--table", "ck", "-T", "5", "--method", "euler"], "--method"),
        (["export", "--table", "pbar", "-T", "5", "--k", "9"], "--k"),
        (["hecke", "--ell", "5", "--check-eigen", "--format", "csv"], "--format csv"),
    ],
)
def test_options_a_command_would_ignore_are_usage_errors(capsys, tmp_path, argv, option):
    # each was accepted and ignored: the output was that of the defaults
    out = tmp_path / "out"
    if argv[0] == "export":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--no-cache"])
    assert exc.value.code == 2 and option in capsys.readouterr().err
    assert not out.exists()


def test_export_requires_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--table", "pbar", "-T", "8"])
    assert exc.value.code == 2


# -- parser ------------------------------------------------------------------------


_USAGE_ERRORS = [
    [],
    ["bogus"],
    ["compute"],
    ["verify", "--family", "nope", "--no-cache"],
    ["verify", "--no-cache"],
    ["verify", "--all", "--budget", "0", "--no-cache"],
    ["verify", "--all", "--budget", "x"],
    ["compute", "pbar", "--method", "bogus", "--no-cache"],
    ["compute", "pbar", "--mod", "1", "--no-cache"],
    ["compute", "ck", "--k", "3", "-T", "50", "--mod", "3"],
    ["compute", "theta", "-T", "5", "--method", "euler"],
    ["compute", "pbar", "--budget", "3"],
    ["hecke", "--ell", "9", "--no-cache"],
    ["hecke", "--ell", "3", "--k", "1", "-T", "100", "--no-cache"],
    ["hecke", "--ell", "5", "--eigenvalue", "7", "--no-cache"],
    ["hecke", "--ell", "5", "--check-eigen", "--format", "csv"],
    ["dissect", "--d", "4", "--r", "4", "--no-cache"],
    ["export", "--table", "pbar", "-T", "8"],
    ["export", "--table", "ck", "--mod", "3", "-T", "50", "--out", "unwritten.csv"],
]


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h", "compute"]]
    + [[command, "--help"] for command in ("compute", "verify", "hecke", "dissect", "export")]
    + _USAGE_ERRORS,
)
def test_help_and_usage_errors_match_the_parser_of_every_command(
    capsys, monkeypatch, tmp_path, argv
):
    # main adds arguments only to the command argv names; the bytes it
    # prints must be those of the parser that adds every command's
    monkeypatch.chdir(tmp_path)

    def run():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    named = run()
    every = ovp.cli.build_parser
    monkeypatch.setattr(ovp.cli, "build_parser", lambda argv=None: every())
    assert run() == named
    assert named[0] in (0, 2) and named[1] + named[2]


def test_parser_adds_arguments_to_the_named_command_only():
    def arguments(argv):
        sub = build_parser(argv)._subparsers._group_actions[0]
        return {name: len(p._actions) - 1 for name, p in sub.choices.items()}  # less -h

    assert arguments(["verify", "--all"]) == {
        "compute": 0, "verify": 8, "hecke": 0, "dissect": 0, "export": 0,
    }
    assert arguments(["--help"]) == arguments(None) == arguments(["bogus"])
    assert all(arguments(None).values())


# -- caching through the CLI -------------------------------------------------------


def test_cli_cache_round_trip(capsys, tmp_path):
    argv = ["compute", "pbar", "-T", "50", "--mod", "8", "--cache-dir", str(tmp_path)]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 1 and files[0].endswith(".qs")

    code, second, _ = _run(capsys, argv)
    assert code == 0 and second == first

    # corruption downgrades to a recompute, not a wrong answer
    payload = next(p for p in tmp_path.iterdir() if p.name.endswith(".qs"))
    blob = bytearray(payload.read_bytes())
    blob[-1] ^= 0x55
    payload.write_bytes(bytes(blob))
    code, third, _ = _run(capsys, argv)
    assert code == 0 and third == first


def test_cached_verify_all_allocates_no_wide_table(capsys, tmp_path):
    argv = ["verify", "--all", "--budget", str(10**6), "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out.count("PASS") == 2 * (29 + 9 + 1)
    # the mod-120 table is 1 MB of uint8; one int64 copy of it would be 8 MB
    assert peak < 5 * 10**6, peak


def test_cached_dissect_widens_only_its_output(capsys, tmp_path):
    argv = [
        "dissect", "--d", "5", "--r", "0", "--mod", "120",
        "-T", str(2 * 10**5), "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0 and out == first and out.count(",") == 4 * 10**4 - 1
    # the mod-120 table is 0.2 MB of uint8, and the run traced 0.64 MB; one
    # int64 copy of the table traced 1.9 MB, and the output written whole 3 MB
    assert peak < 1.2 * 10**6, peak


def test_cached_dissect_streams_csv_to_its_file(tmp_path):
    T = 2 * 10**5
    words = np.random.default_rng(7).integers(0, 120, T, dtype=np.uint8)
    store_table(CoeffTable("pbar", Method.THETA_INVERSION, mod_ring(120), words), tmp_path)
    out = tmp_path / "part.csv"
    argv = [
        "dissect", "--d", "5", "--r", "0", "--mod", "120", "-T", str(T),
        "--format", "csv", "--out", str(out), "--cache-dir", str(tmp_path),
    ]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = "".join(f"{n},{v}\n" for n, v in enumerate(words[::5].tolist()))
    assert code == 0 and out.read_text() == "n,value\n" + rows
    # the table is 0.2 MB, and the run traced 0.5 MB; building the CSV whole
    # traced 3.3 MB, and an int64 copy of the table 1.9 MB
    assert peak < 1.2 * 10**6, peak


@pytest.mark.parametrize(
    "argv, step",
    [
        (["compute", "pbar", "--format", "json", "-T", "50000"], 1),
        (["compute", "pbar", "--format", "text", "-T", "50000"], 1),
        (["dissect", "--d", "5", "--r", "0", "--format", "json", "-T", "300000"], 5),
    ],
)
def test_cached_coefficients_stream_text_and_json_to_their_file(tmp_path, argv, step):
    T = int(argv[-1])
    words = np.random.default_rng(11).integers(0, 120, T, dtype=np.uint8)
    store_table(CoeffTable("pbar", Method.THETA_INVERSION, mod_ring(120), words), tmp_path)
    out = tmp_path / "coeffs.out"
    argv = argv + ["--mod", "120", "--out", str(out), "--cache-dir", str(tmp_path)]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    want = words[::step].tolist()
    if "json" in argv:
        assert json.loads(out.read_text())["coeffs"] == want
    else:
        assert out.read_text() == ",".join(map(str, want))
    # the table is T bytes, and the runs traced 0.4-0.7 MB; writing the
    # output whole traced 3.5 MB (text and JSON at T = 5 * 10^4) and 4.4 MB
    # (dissect JSON at 3 * 10^5), and an int64 copy of that table 2.8 MB
    assert peak < 1.5 * 10**6, peak


def test_cli_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OVP_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = _run(capsys, ["compute", "pbar", "-T", "30"])
    assert code == 0
    assert (tmp_path / "envcache").exists()
    assert len(list((tmp_path / "envcache").iterdir())) == 1
