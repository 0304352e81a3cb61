"""Command-line surface: exit codes, emitted artifacts, config handling."""

import contextlib
import importlib.util
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from gausscvx import body as bd
from gausscvx import cli
from gausscvx import cylinder as cyl
from gausscvx import specfun as sf
from gausscvx import verify as vf

from body_strings import body_strings

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def readme_cli_examples() -> list[list[str]]:
    """The ``gausscvx ...`` lines of README's CLI block, as argv lists."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("gausscvx ")]


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh_python(script: str) -> str:
    """Run ``script`` in a fresh interpreter that imports this package's
    source, so no other test's imports count; its stripped stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def csv_text(header, rows) -> str:
    """CSV in the CLI's format: floats to 12 significant digits."""
    return "".join(",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                            for v in row) + "\n" for row in [header] + rows)


SPECFUN_P2_TABLE = """\
t,g,j,psi,phi
0,0,0,0.5,0
0.3,0.086039773365,0.00876086021085,0.617911422189,0.235822844378
0.6,0.300697276108,0.0647013911107,0.72574688225,0.4514937645
0.9,0.540251216795,0.191664693117,0.815939874653,0.631879749306
1.2,0.700923248582,0.380774541233,0.884930329778,0.769860659557
1.5,0.730468051556,0.598874616628,0.933192798731,0.866385597462
1.8,0.641191785031,0.80703252516,0.964069680887,0.928139361774
2.1,0.486204816593,0.977008572483,0.982135579437,0.964271158874
2.4,0.323336233925,1.09804253118,0.991802464075,0.983604928151
2.7,0.190425077835,1.17409591615,0.996533026197,0.993066052394
3,0.0999809688442,1.21660345513,0.998650101968,0.997300203937
"""


class TestTables:
    def test_cylinder_table_shape(self, capsys, tmp_path):
        code, out, _ = run(["cylinder-table", "--n", "2", "--grid", "99",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l]
        assert lines[0] == "a,k,R,s,phi,ps"
        assert len(lines) == 1 + 99 * 2
        a, k, R, s, phi, ps = map(float, lines[1].split(","))
        assert a == pytest.approx(1.0 / 100.0)
        assert ps == pytest.approx(1.0 + a * phi, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_cylinder_table_matches_per_scalar_profiles(self, n, capsys, tmp_path):
        # each profile runs once per k on the whole grid; the text must be
        # the rows that one call per scalar measure gives
        code, out, _ = run(["cylinder-table", "--n", str(n), "--grid", "99",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        rows = [[float(a), k] + [float(f(k, a)) for f in (
                    cyl.radius_of_measure, cyl.perimeter_s, cyl.phi_k, cyl.ps_cylinder)]
                for a in (np.arange(99) + 1.0) / 100.0 for k in range(1, n + 1)]
        assert out == csv_text(["a", "k", "R", "s", "phi", "ps"], rows)

    def test_specfun_matches_per_scalar_kernels(self, capsys, tmp_path):
        code, out, _ = run(["specfun", "--p", "3", "--points", "101", "--t-max", "9",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        rows = [[float(t), float(sf.g(3, t)), float(sf.j_lower(3, t)),
                 float(sf.psi(t)), float(sf.phi(abs(t)))]
                for t in np.linspace(0.0, 9.0, 101)]
        assert out == csv_text(["t", "g", "j", "psi", "phi"], rows)

    def test_specfun_csv(self, capsys, tmp_path):
        code, out, _ = run(["specfun", "--p", "2", "--points", "11",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0].startswith("t,")
        assert len(rows) == 12

    def test_specfun_order_must_be_integer(self, capsys, tmp_path):
        # J_p is defined here for integer p only; --p 2 prints the table that
        # the scipy-backed kernels printed for p = 2.0
        code, _, err = run(["specfun", "--p", "2.5", "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "invalid int value" in err
        code, out, _ = run(["specfun", "--p", "2", "--points", "11",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert out == SPECFUN_P2_TABLE


class TestPartitionCommand:
    def test_crossings_match_independent_root(self, capsys, tmp_path):
        code, out, _ = run(["partition", "--n", "2",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["mismatch_count"] == 55
        a_phi = brentq(lambda a: cyl.phi_k(1, a) - cyl.phi_k(2, a), 0.9, 0.995)
        a_s = brentq(lambda a: cyl.perimeter_s(1, a) - cyl.perimeter_s(2, a),
                     0.5, 0.9)
        assert rep["crossings_phi"][0]["a"] == pytest.approx(a_phi, abs=1e-8)
        assert rep["crossings_s"][0]["a"] == pytest.approx(a_s, abs=1e-8)
        assert (tmp_path / "partition.json").exists()


class TestMeasureCommand:
    def test_quadrature_mc_consistency(self, capsys, tmp_path):
        code, out, _ = run(["measure", "--n", "2", "--body", "ball:R=1",
                            "--mc", "100000", "--out-dir", str(tmp_path)],
                           capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["value"] == pytest.approx(1.0 - np.exp(-0.5), abs=1e-9)
        assert rep["consistent"] is True
        assert abs(rep["mc_value"] - rep["value"]) <= \
            rep["mc_err"] + 3 * rep["err"]

    @pytest.mark.parametrize("body, mc", [("ball:R=4", "1000"), ("ball:R=1", "1")])
    def test_mc_with_all_or_no_hits_is_consistent(self, body, mc, capsys, tmp_path):
        # every sample hits (R = 4) or the one sample misses (R = 1): the
        # 3-sigma err was 0 there, and a correct quadrature exited 3
        code, out, _ = run(["measure", "--n", "2", "--body", body, "--mc", mc,
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["mc_value"] in (0.0, 1.0)
        assert rep["mc_err"] == 1.0 - 0.00135 ** (1.0 / int(mc))
        assert rep["consistent"] is True

    def test_body_string_with_explicit_dimension(self, capsys, tmp_path):
        code, out, _ = run(["measure", "--body", "cylinder:k=2,R=0.9,n=3",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["n"] == 3
        R = 0.9
        assert rep["value"] == pytest.approx(1.0 - np.exp(-R * R / 2),
                                             abs=3 * rep["err"] + 1e-9)


class TestTorsionCommand:
    def test_halfspace_log_two(self, capsys, tmp_path):
        code, out, _ = run(["torsion", "--halfspace", "0.5",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["value"] == pytest.approx(np.log(2.0), rel=1e-10)

    def test_cylinder_body(self, capsys, tmp_path):
        code, out, _ = run(["torsion", "--n", "3", "--body",
                            "cylinder:k=2,R=1", "--out-dir", str(tmp_path)],
                           capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["kind"] == "exact_radial"

    def test_overflowing_energy_is_numerical_failure(self, capsys, tmp_path):
        # e^{r^2/2} overflows below R = 40: not a usage error
        code, _, err = run(["torsion", "--n", "2", "--body", "ball:R=40",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 3
        assert "numerical failure" in err

    def test_torsion_commands_leave_scipy_quadrature_unimported(self, tmp_path):
        script = f"""
import contextlib, io, sys
from gausscvx import cli
for argv in (["torsion", "--halfspace", "0.5"],
             ["verify", "--check", "saint-venant", "--n", "2", "--body", "ball:R=1.0"],
             ["verify", "--check", "alpha-halfspace"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--out-dir", {str(tmp_path)!r}]) == 0, argv
print(sorted(m for m in sys.modules
             if m.split(".")[:2] in (["scipy", "integrate"], ["scipy", "interpolate"])))
"""
        assert fresh_python(script) == "[]"

    def test_cli_commands_leave_scipy_unimported(self, tmp_path):
        # one command of each kind the cold-start benchmark launches, the
        # torsion routes and the Talenti comparison, in a fresh interpreter
        # whose import hook fails every scipy import: numpy is the one
        # runtime dependency
        commands = [
            ["partition", "--n", "2"],
            ["cylinder-table", "--n", "3", "--grid", "9"],
            ["measure", "--body", "cylinder:k=2,R=0.9,n=3", "--mc", "1000"],
            ["torsion", "--halfspace", "0.3"],
            ["torsion", "--halfspace", "0.5"],
            ["plot", "--n", "2", "--figure", "all"],
            ["verify", "--check", "saint-venant", "--n", "2", "--body", "ball:R=1.0"],
            ["verify", "--check", "saint-venant", "--n", "3", "--body", "cylinder:k=2,R=0.9"],
            ["verify", "--check", "ehrhard", "--n", "2", "--body", "ball:R=0.8",
             "--t-points", "9"],
            ["verify", "--check", "weak", "--n", "3", "--body", "ball:R=0.8", "--t-points", "9"],
            ["verify", "--check", "conjecture", "--n", "2", "--body", "ball:R=0.8",
             "--t-points", "9"],
            ["verify", "--check", "conjecture", "--n", "3", "--body", "ball:R=0.8",
             "--t-points", "9"],
            ["verify", "--check", "moments", "--n", "2", "--rule-size", "256",
             "--body", "box:a=0.7+1.0"],
            ["verify", "--check", "gauss-main", "--n", "2", "--body", "ball:R=1",
             "--t-points", "9", "--rule-size", "256"],
            ["verify", "--check", "alpha-halfspace"],
            ["verify", "--check", "counterexample-bad-func", "--n", "2", "--t-points", "9"],
        ]
        script = f"""
import contextlib, importlib.abc, io, sys, types

class NoScipy(importlib.abc.MetaPathFinder):
    tried = []
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] == "scipy":
            self.tried.append(name)
            raise ImportError("scipy is blocked: " + name)

sys.meta_path.insert(0, NoScipy())
import gausscvx.cli
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = gausscvx.cli.main(argv + ["--out-dir", {str(tmp_path)!r}])
    assert code in (0, 1), (argv, code)
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
sys.modules["oracles"] = types.ModuleType("oracles")  # the scipy oracles
from test_torsion import TestTalenti
from gausscvx import torsion
for w1, w2, F, extrema in TestTalenti.CASES:
    assert torsion.talenti_1d(w1, w2, F, extrema=extrema).max_gap <= 1e-8
print(NoScipy.tried, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        assert fresh_python(script) == "[] []"

    @pytest.mark.parametrize("command", [["torsion"], ["verify", "--check", "gauss-main"],
                                         ["verify", "--check", "cor-t1"],
                                         ["verify", "--check", "minkowski-first"]])
    def test_missing_in_radius_is_usage_error(self, command, capsys, tmp_path):
        # a shifted ball has no in-radius oracle: a refused body, not a
        # numerical failure, whichever command asks for it
        code, out, err = run(command + ["--n", "2", "--body", "translate:v=0.1+0;ball:R=1",
                                        "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "in-radius" in err and out == ""


class TestVerifyCommand:
    def test_saint_venant_schema_and_artifact(self, capsys, tmp_path):
        code, out, _ = run(["verify", "--check", "saint-venant", "--n", "2",
                            "--body", "ball:R=1", "--out-dir", str(tmp_path)],
                           capsys)
        assert code == 0
        rep = json.loads(out)
        for key in ("check", "lhs", "rhs", "margin", "verdict", "config",
                    "version"):
            assert key in rep
        assert rep["verdict"] == "pass"
        assert rep["margin"] >= 0
        on_disk = json.loads((tmp_path / "saint-venant.json").read_text())
        assert on_disk["margin"] == rep["margin"]

    def test_report_goes_to_artifacts_by_default(self, capsys, tmp_path,
                                                 monkeypatch):
        # without --out-dir the report lands in ./artifacts, which
        # .gitignore lists, not in the current directory
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(["verify", "--check", "saint-venant", "--n", "2",
                            "--body", "ball:R=1"], capsys)
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifacts"]
        assert (tmp_path / "artifacts" / "saint-venant.json").read_text() == out

    def test_saint_venant_on_a_strip_interpolant(self, capsys, tmp_path):
        # box(0.6, 0.9) halfway to strip(0.8) keeps one finite coordinate:
        # it is strip(0.7), which has the exact strip torsion
        reps = []
        for body in ("interp:lambda=0.5;box:a=0.6+0.9|strip:w=0.8", "strip:w=0.7"):
            code, out, _ = run(["verify", "--check", "saint-venant", "--n", "2",
                                "--body", body, "--out-dir", str(tmp_path)], capsys)
            assert code == 0, body
            reps.append(json.loads(out))
        assert reps[0]["verdict"] == "pass"
        for key in ("lhs", "rhs"):
            assert reps[0][key] == pytest.approx(reps[1][key], rel=1e-12)

    def test_conjecture_check_passes(self, capsys, tmp_path):
        code, out, _ = run(["verify", "--check", "conjecture", "--n", "2",
                            "--body", "ball:R=0.5", "--body2", "ball:R=2",
                            "--t-points", "17", "--out-dir", str(tmp_path)],
                           capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_rounded_box_to_strip_path_passes(self, capsys, tmp_path):
        # every body on this path is the strip of half-width 0.8, through
        # the one interpolation rule of the offset-box family
        code, out, _ = run(["verify", "--check", "ehrhard", "--n", "2",
                            "--body", "interp:lambda=0.5;box:a=0.6+0.9|ball:R=1",
                            "--body2", "strip:w=0.8", "--t-points", "9",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_counterexample_reports_witness_with_exit_zero(self, capsys,
                                                           tmp_path):
        code, out, _ = run(["verify", "--check", "counterexample-phi-inv",
                            "--n", "2", "--t-points", "17",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "witness"
        assert rep["details"]["witness"]["second_diff"] > 0

    def test_counterexample_search_without_mismatch_reports_none(self, capsys, tmp_path):
        # in n = 1 the argmin families of phi_k and s_k never differ, so the
        # search falls back to one pair and finds nothing
        code, out, _ = run(["verify", "--check", "counterexample-bad-func", "--n", "1",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "none"
        assert rep["details"]["witness"] is None

    def test_unknown_check_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(["verify", "--check", "nonsense",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 2

    def test_vanishing_moment_margin_is_numerical_failure(self, capsys, tmp_path):
        # n - E|X|^2 rounds to 0 on a ball this large: not a violation
        code, _, err = run(["verify", "--check", "moments", "--n", "2",
                            "--body", "ball:R=10", "--out-dir", str(tmp_path)],
                           capsys)
        assert code == 3
        assert "numerical failure" in err

    @pytest.mark.parametrize("check", ["cor-t1", "propgauss", "minkowski-first"])
    def test_vanishing_margin_in_bounds_is_numerical_failure(self, check, capsys,
                                                             tmp_path):
        # each of these divides by n - E|X|^2, which is 0 on this ball
        code, _, err = run(["verify", "--check", check, "--n", "2",
                            "--body", "ball:R=10", "--out-dir", str(tmp_path)],
                           capsys)
        assert code == 3
        assert "second-moment margin" in err

    @pytest.mark.parametrize("check, body", [("ehrhard", "ball:R=40"),
                                             ("conjecture", "ball:R=40"),
                                             ("weak", "ball:R=12")])
    def test_measure_rounding_to_one_is_numerical_failure(self, check, body, capsys,
                                                          tmp_path):
        # gamma rounds to 1 along the whole path, outside every transform's
        # domain (0, 1); this exited 2 with the transform's DomainError
        code, out, err = run(["verify", "--check", check, "--n", "2", "--body", body,
                              "--t-points", "9", "--out-dir", str(tmp_path)], capsys)
        assert code == 3
        assert err.startswith("numerical failure:") and out == ""

    def test_inconclusive_concavity_exits_three(self, capsys, tmp_path, monkeypatch):
        # no shipped pair is known to leave the budget undecided, so stub a
        # report whose largest second difference is 2 budgets
        t = (np.arange(9) + 1.0) / 10.0
        d2, budget = np.full(7, 2e-3), np.full(7, 1e-3)
        report = vf.ConcavityReport(
            transform="psi_inv", pair=("K", "L"), t_grid=t, measures=t,
            measure_errs=0 * t, transformed=t, second_diffs=d2, budget=budget,
            verdict=vf._verdict(d2, budget))
        monkeypatch.setattr(vf, "concavity_check", lambda *args, **kw: report)
        code, out, _ = run(["verify", "--check", "ehrhard", "--out-dir", str(tmp_path)],
                           capsys)
        assert code == 3
        assert json.loads(out)["verdict"] == "inconclusive"

    def test_violation_exit_code_routing(self, capsys, tmp_path, monkeypatch):
        # no true inequality in the suite actually fails, so exercise the
        # exit-1 path by stubbing a row that reports a negative margin
        def fake_row(cfg):
            return 0.0, 1.0, -1.0, cli._grade(-1.0, 1e-9), {}

        monkeypatch.setitem(cli.CHECKS, "stub", fake_row)
        code, out, _ = run(["verify", "--check", "stub",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert json.loads(out)["verdict"] == "violation"

    @pytest.mark.parametrize("body,mode", [("translate:v=0.1+0;ball:R=1", "gaussian"),
                                           ("ball:R=1", "gaussian_even_half")])
    def test_brascamp_lieb_constant_follows_symmetry(self, body, mode, capsys, tmp_path):
        # c = 1/2 needs a symmetric K; a shifted body gets c = 1, which
        # holds for any convex K, with the same f = x_n^2
        code, out, err = run(["verify", "--check", "brascamp-lieb", "--n", "2",
                              "--body", body, "--out-dir", str(tmp_path)], capsys)
        assert code == 0, err
        rep = json.loads(out)
        last = vf.MultiPoly.coord(2, 1)
        K = bd.parse_body(body, 2)
        assert rep["details"] == vf.brascamp_lieb_check(K, last * last, mode)
        assert rep["verdict"] == "pass"
        if mode == "gaussian":
            assert rep["margin"] == pytest.approx(0.8596, abs=1e-4)


class TestVerdictExit:
    def test_pass_inside_tolerance(self):
        assert cli._grade(0.5, 1e-9) == "pass"
        assert cli._grade(-1e-12, 1e-9) == "pass"
        assert cli.VERDICT_EXIT["pass"] == cli.EXIT_PASS

    def test_violation_outside(self):
        assert cli._grade(-1.0, 1e-9) == "violation"
        assert cli.VERDICT_EXIT["violation"] == cli.EXIT_VIOLATION


@pytest.mark.parametrize("body", ["box:a=0.7+1.0", "ball:R=0.9"])
@pytest.mark.parametrize("check", sorted(cli.CHECKS))
def test_every_check_reports_under_its_own_name(check, body, capsys, tmp_path):
    code, out, err = run(["verify", "--check", check, "--body", body, "--n", "2",
                          "--rule-size", "256", "--t-points", "9",
                          "--out-dir", str(tmp_path)], capsys)
    if check == "saint-venant" and body.startswith("box"):
        # exact torsion exists only for strips, balls and cylinders
        assert code == cli.EXIT_NUMERICAL
        assert "numerical failure" in err and out == ""
        return
    rep = json.loads(out)
    assert code == cli.VERDICT_EXIT[rep["verdict"]]
    assert rep["check"] == check
    assert set(rep) == {"check", "lhs", "rhs", "margin", "verdict", "config",
                        "version", "details"}
    assert (tmp_path / f"{check}.json").read_text() == out


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
def test_readme_cli_example_exits_zero(argv, capsys, tmp_path):
    code, _, err = run(argv + ["--out-dir", str(tmp_path)], capsys)
    assert code == 0, err


class TestUsageErrors:
    def test_bad_body_string(self, capsys, tmp_path):
        code, _, err = run(["measure", "--body", "pyramid:R=1",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "error" in err

    def test_translate_leaving_origin_outside(self, capsys, tmp_path):
        # ball:R=1 shifted by 2 does not contain the origin; its polar
        # measure would be that of a different set
        code, out, err = run(["measure", "--n", "2", "--body",
                              "translate:v=2+0;ball:R=1",
                              "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "origin" in err and out == ""

    def test_missing_body_parameter(self, capsys, tmp_path):
        # a strip takes w; the usage error names it instead of a traceback
        code, out, err = run(["verify", "--check", "moments", "--n", "2",
                              "--body", "strip:R=0.5", "--out-dir", str(tmp_path)],
                             capsys)
        assert code == 2
        assert "'w'" in err and out == ""

    @pytest.mark.parametrize("body", ["ball:R=nan", "box:a=nan+1", "lp_ball:r=1,p=nan",
                                      "lp_ball:r=1,p=inf", "translate:v=nan+0;ball:R=1"])
    def test_nan_or_infinite_p_body_is_usage_error(self, body, capsys, tmp_path):
        # ball:R=nan used to report a NaN measure, and lp_ball with p = inf
        # the disk's measure 1 - e^{-1/2}, both with exit 0
        code, out, err = run(["measure", "--n", "2", "--body", body,
                              "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "error" in err and out == ""

    @pytest.mark.parametrize("body,key", [
        ("ball:R=inf", "'R'"), ("strip:w=inf", "'w'"), ("cylinder:k=1,R=inf", "'R'"),
        ("cylinder:k=2,R=inf,n=3", "'R'"), ("lp_ball:r=inf,p=2", "'r'"),
        ("ellipsoid:c=inf+inf", "'c'"), ("strip:w=-0.5", "'w'"), ("ball:R=0", "'R'")])
    def test_size_that_is_all_of_space_or_not_positive_is_usage_error(
            self, body, key, capsys, tmp_path):
        # an infinite radius, width or every semi-axis makes the body all of
        # R^n; these used to measure 1 with exit 0, and strip:w=-0.5 blamed R
        code, out, err = run(["measure", "--n", "2", "--body", body,
                              "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert key in err and out == ""

    def test_all_infinite_box_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(["measure", "--n", "2", "--body", "box:a=inf+inf",
                              "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "finite entry" in err and out == ""

    @pytest.mark.parametrize("body", ["box:a=inf+1", "ellipsoid:c=inf+1"])
    def test_some_free_coordinates_stay_valid(self, body, capsys, tmp_path):
        # free in x_1, bounded in x_2: the strip |x_2| <= 1
        code, out, _ = run(["measure", "--n", "2", "--body", body,
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["value"] == pytest.approx(math.erf(1.0 / math.sqrt(2)),
                                             abs=3 * rep["err"] + 1e-9)

    def test_infinite_box_half_width_measures_the_strip(self, capsys, tmp_path):
        code, out, _ = run(["measure", "--n", "2", "--body", "box:a=0.5+inf",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["value"] == pytest.approx(math.erf(0.5 / math.sqrt(2)),
                                             abs=3 * rep["err"] + 1e-9)

    def test_unsupported_dimension(self, capsys, tmp_path):
        code, _, err = run(["measure", "--n", "5", "--out-dir", str(tmp_path)],
                           capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("body", ["translate:;ball:R=2", "ball:R", "ball:R=abc",
                                      "cylinder:k=1.5,R=1", "ball:R=1,foo=2",
                                      "ball:R=1,R=2", "interp:lambda=0.5",
                                      "lp_ball:r=1,p=1.5,n=-1"])
    def test_malformed_body_string_is_usage_error(self, body, capsys, tmp_path):
        # translate:;ball:R=2 used to end in an IndexError traceback and exit 1
        code, out, err = run(["measure", "--body", body, "--out-dir", str(tmp_path)],
                             capsys)
        assert code == 2
        assert err.startswith("error:") and out == ""

    @pytest.mark.parametrize("argv", [
        # a translate has no exact in-radius: the gauge torsion bound and
        # the first variation refuse it as a body error
        ["torsion", "--n", "2", "--body", "translate:v=0.2+0;ball:R=1"],
        ["verify", "--check", "minkowski-first", "--n", "2",
         "--body", "translate:v=0.2+0;ball:R=1"],
        ["measure", "--mc", "-5"],
        ["specfun", "--points", "-1"],
        # cylinder-table --n 0 wrote an empty table with exit 0, and
        # partition --n 0 exited 2 only through a ValueError of np.vstack
        ["partition", "--n", "0"],
        ["cylinder-table", "--n", "0"],
        ["measure", "--n", "-1"],
        # a setting below its least value: --rule-size 1 and -3 exited 4
        # (ZeroDivisionError), --grid -1 wrote an empty table with exit 0,
        # --t-points 5 exited 3 and --tol -1 ran with the default tolerance
        ["measure", "--n", "2", "--body", "ball:R=1", "--rule-size", "1"],
        ["measure", "--n", "2", "--body", "ball:R=1", "--rule-size", "-3"],
        # a one-point n = 4 Monte Carlo rule reported 0.09105 +- 1e-13 on a
        # box of measure 0.19161: one point has a standard deviation of 0
        ["measure", "--n", "4", "--body", "box:a=0.7+0.9+1.1+1.3", "--rule-size", "1"],
        ["cylinder-table", "--n", "2", "--grid", "-1"],
        ["cylinder-table", "--config", "grid.cfg"],  # grid.cfg holds grid = -1
        ["verify", "--check", "ehrhard", "--n", "2", "--body", "ball:R=1",
         "--t-points", "5"],
        ["verify", "--check", "moments", "--tol", "-1"],
        # a tolerance of inf graded every margin pass, and alpha-halfspace
        # wrote "margin": Infinity, which is not JSON
        ["verify", "--check", "moments", "--n", "2", "--body", "ball:R=1",
         "--rule-size", "64", "--tol", "inf"],
        ["verify", "--check", "alpha-halfspace", "--tol", "inf"],
        ["verify", "--check", "moments", "--config", "tol.cfg"],  # tol = inf
        # a pair of bodies of different dimension exited 3
        *(["verify", "--check", check, "--n", "2", "--body", "ball:R=1",
           "--body2", "ball:R=1,n=3"]
          for check in ("ehrhard", "max-power", "minkowski-first")),
    ], ids=" ".join)
    def test_refused_input_is_usage_error(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "grid.cfg").write_text("grid = -1\n")
        (tmp_path / "tol.cfg").write_text("tol = inf\n")
        code, out, err = run(argv + ["--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "error" in err and out == ""

    def test_malformed_config_value_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("grid = many\n")
        code, out, err = run(["cylinder-table", "--config", str(path)], capsys)
        assert code == 2
        assert "grid" in err and out == ""

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(["transmogrify"], capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "gausscvx" in out


class _ClosedPipe(io.StringIO):
    """A standard stream whose reader has gone: a write of any text raises,
    and a write of "" does nothing, as on a real pipe."""

    def write(self, text):
        if text:
            raise BrokenPipeError(32, "Broken pipe")
        return 0


class TestClosedOutput:
    @pytest.mark.parametrize("body", ["ball:R=1", "pyramid:R=1",
                                      "interp:lambda=0.5;ball:R=0.3|ball:R=inf"])
    def test_closed_stdout_and_stderr_exit_two(self, body, tmp_path, monkeypatch):
        # the error report to a closed stderr used to raise out of main
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        monkeypatch.setattr(sys, "stderr", _ClosedPipe())
        code = cli.main(["measure", "--n", "2", "--body", body, "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_USAGE == 2

    def test_closed_stderr_of_a_crash_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli.CHECKS, "stub", lambda cfg: 1 / 0)
        monkeypatch.setattr(sys, "stderr", _ClosedPipe())
        code = cli.main(["verify", "--check", "stub", "--out-dir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("argv", [["--help"], ["measure", "--help"]], ids=" ".join)
    def test_help_to_a_closed_stdout_exits_two(self, argv, monkeypatch):
        # argparse dropped the failed write of the help text, so this exited 0
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert cli.main(argv) == 2


class TestJsonReport:
    def test_numpy_values_write_as_python_values(self, capsys, tmp_path):
        cfg = cli.RunConfig(out_dir=str(tmp_path))
        as_numpy = {"flag": np.bool_(True), "count": np.int64(3), "x": np.float64(0.1),
                    "row": np.array([0.5, 1e-300, np.inf]),
                    "nested": [np.float64(2.0), (np.int64(-1), np.bool_(False))]}
        as_python = {"flag": True, "count": 3, "x": 0.1, "row": [0.5, 1e-300, math.inf],
                     "nested": [2.0, [-1, False]]}
        cli._emit_json(cfg, "numpy", as_numpy)
        cli._emit_json(cfg, "python", as_python)
        printed = capsys.readouterr().out
        numpy_text = (tmp_path / "numpy.json").read_text(encoding="utf-8")
        assert numpy_text == (tmp_path / "python.json").read_text(encoding="utf-8")
        assert printed == 2 * numpy_text


class TestInternalErrors:
    def test_uncaught_exception_exits_four_with_traceback(self, capsys, tmp_path,
                                                          monkeypatch):
        def broken_row(cfg):
            raise RuntimeError("broken check")

        monkeypatch.setitem(cli.CHECKS, "stub", broken_row)
        code, out, err = run(["verify", "--check", "stub",
                              "--out-dir", str(tmp_path)], capsys)
        assert code == cli.EXIT_INTERNAL == 4
        assert "Traceback" in err and "RuntimeError: broken check" in err
        assert out == ""

    def test_module_entry_point_help(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "gausscvx", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "usage: gausscvx" in done.stdout

    @settings(max_examples=40, deadline=None)
    @given(body_strings)
    def test_fuzzed_body_strings_never_exit_one(self, text):
        # a malformed string is a usage error (2), a body the quadrature
        # cannot measure a numerical failure (3); never a violation (1)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["measure", "--body", text, "--rule-size", "64",
                             "--out-dir", tmp])
        assert code in (0, 2, 3), (text, err.getvalue())

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["measure", "partition", "cylinder-table"]),
           st.integers(min_value=-1, max_value=6))
    def test_fuzzed_dimensions_never_exit_one(self, command, n):
        # a dimension below 1 is refused when the config is built (2); a
        # dimension without a direction grid is a usage error too
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--n", str(n), "--rule-size", "64", "--grid", "9",
                             "--out-dir", tmp])
        assert code in (0, 2, 3), (command, n, err.getvalue())

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=24).filter(lambda name: name not in cli.CHECKS))
    def test_fuzzed_check_names_are_usage_errors(self, name):
        # the parser refuses any name outside CHECKS before a check runs
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--check", name])
        assert code == 2, (name, err.getvalue())
        assert out.getvalue() == ""

    @pytest.mark.parametrize("name", sorted(cli.CHECKS))
    def test_every_check_name_parses(self, name):
        args = cli.build_parser().parse_args(["verify", "--check", name])
        assert args.check == name and args.func is cli.cmd_verify

    # per numeric setting: a command that reads it, the values drawn, the
    # least value the CLI accepts
    NUMERIC_SETTINGS = {
        "rule_size": (["measure", "--n", "2", "--body", "ball:R=1"], st.integers(-2, 4), 0),
        "grid": (["cylinder-table", "--n", "2"], st.integers(-2, 3), 1),
        "t_points": (["verify", "--check", "ehrhard", "--n", "2", "--body", "ball:R=0.8"],
                     st.integers(0, 11), 9),
        "tol": (["verify", "--check", "moments", "--n", "2", "--rule-size", "64"],
                st.sampled_from([-1.0, 0.0, 1e-6, math.inf]), 0.0),
    }

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_fuzzed_numeric_settings_never_exit_one(self, data):
        # a value below its least or not finite, or a rule whose half rule
        # is empty, is a usage error (2), from a flag or a config line
        # alike; any other value runs (0) or fails numerically (3)
        key = data.draw(st.sampled_from(sorted(self.NUMERIC_SETTINGS)))
        argv, values, least = self.NUMERIC_SETTINGS[key]
        value = data.draw(values)
        via_config = data.draw(st.booleans())
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if via_config:
                (Path(tmp) / "run.cfg").write_text(f"{key} = {value}\n")
                setting = ["--config", str(Path(tmp) / "run.cfg")]
            else:
                setting = ["--" + key.replace("_", "-"), str(value)]
            code = cli.main(argv + setting + ["--out-dir", tmp])
        refused = value < least or value == math.inf or (key == "rule_size" and value == 1)
        assert code == 2 if refused else code in (0, 3), (key, value, err.getvalue())


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = cli.RunConfig(n=3, seed=123, rule_size=4096, tol=2.5e-7,
                            grid=42, t_points=19, out_dir=str(tmp_path),
                            body="cylinder:k=2,R=0.9",
                            body2="interp:lambda=0.25;ball:R=1|strip:w=0.8")
        path = tmp_path / "run.cfg"
        cli.write_config(cfg, path)
        back = cli.read_config(path)
        assert back == cfg

    def test_comments_and_unknown_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment line\nn=3\nmystery=7\n")
        with pytest.raises(ValueError):
            cli.read_config(path)

    def test_cli_overrides_config(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        cli.write_config(cli.RunConfig(n=3, grid=7), path)
        code, out, _ = run(["cylinder-table", "--config", str(path),
                            "--n", "2", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l]
        # grid comes from the file (7 rows per k), n from the flag (k <= 2)
        assert len(lines) == 1 + 7 * 2


class TestPlots:
    def test_svg_artifacts_parse(self, capsys, tmp_path):
        code, _, _ = run(["plot", "--figure", "all", "--n", "2",
                          "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        made = sorted(p.name for p in tmp_path.glob("*.svg"))
        assert made == ["phi12.svg", "phidiff.svg", "s12.svg"]
        for p in tmp_path.glob("*.svg"):
            root = ET.parse(p).getroot()
            assert root.tag.endswith("svg")

    def test_plot_leaves_numpy_ma_unimported(self, tmp_path, monkeypatch):
        # np.percentile would import numpy.ma (~10 ms a process); the
        # partition-based 1st percentile writes the same bytes
        script = f"""
import contextlib, io, sys
from gausscvx import cli
for n in ("2", "3"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["plot", "--n", n, "--out-dir", {str(tmp_path)!r} + "/new" + n]) == 0
print("numpy.ma" in sys.modules)
"""
        assert fresh_python(script) == "False"
        monkeypatch.setattr(cli, "_percentile", lambda x, q: float(np.percentile(x, q)))
        for n in ("2", "3"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["plot", "--n", n, "--out-dir", str(tmp_path / f"old{n}")]) == 0
            new = sorted((tmp_path / f"new{n}").glob("*.svg"))
            assert [p.name for p in new] == ["phi12.svg", "phidiff.svg", "s12.svg"]
            for p in new:
                assert p.read_bytes() == (tmp_path / f"old{n}" / p.name).read_bytes()

    @pytest.mark.parametrize("q", [0.0, 1.0, 37.5, 50.0, 100.0])
    @pytest.mark.parametrize("size", [2, 3, 197])
    def test_percentile_matches_numpy(self, q, size):
        x = np.random.default_rng(size).normal(size=size)
        assert cli._percentile(x, q) == float(np.percentile(x, q))

    def test_phi_curves_cross_exactly_once(self, capsys, tmp_path):
        # the plotted difference phi_1 - phi_2 changes sign exactly once
        # on (0.5, 0.99), at the argmin crossing
        code, _, _ = run(["plot", "--figure", "phi12", "--n", "2",
                          "--grid", "199", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        a = (np.arange(199) + 1.0) / 200.0
        mask = (a > 0.5) & (a < 0.99)
        diff = cyl.phi_k(1, a[mask]) - cyl.phi_k(2, a[mask])
        assert int(np.sum(np.diff(np.sign(diff)) != 0)) == 1


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_loads_and_shows_help(path, capsys):
    # a library rename that breaks a script fails here, at import or at main
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with pytest.raises(SystemExit) as exc:
        module.main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}",
                                                  ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_run_and_write_their_files(tmp_path, capsys):
    # each script end to end on a small input, in process: a library
    # change that breaks a script's use of it fails here
    runs = {
        "partition_scan": (["--max-n", "2", "--grid", "49", "--out-dir", str(tmp_path / "p")],
                           ["p/summary.json", "p/partition_n2.csv"]),
        "bound_sweep": (["--n", "2", "--points", "3", "--rule-size", "64",
                         "--out", str(tmp_path / "sweep.csv")], ["sweep.csv"]),
        "hunt_counterexamples": (["--n", "2", "--n-t", "9", "--transforms", "bad_func",
                                  "--out", str(tmp_path / "hunt.json")], ["hunt.json"]),
        "make_figures": (["--n", "2", "--out-dir", str(tmp_path / "f")], ["f/partition.json"]),
    }
    for name, (argv, files) in runs.items():
        assert _load_script(name).main(argv) == 0, name
        for f in files:
            assert (tmp_path / f).stat().st_size > 0, (name, f)
    assert len(list((tmp_path / "f").glob("*.svg"))) > 0
    assert len(np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)) == 3
    assert json.loads((tmp_path / "hunt.json").read_text())


def test_partition_scan_writes_the_library_crossings(tmp_path, capsys):
    module = _load_script("partition_scan")
    assert module.main(["--max-n", "3", "--grid", "199", "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert sorted(summary) == ["2", "3"]
    for n in (2, 3):
        table = cyl.partition(n)
        assert summary[str(n)]["crossings_phi"] == [list(c) for c in table.crossings_phi]
        assert summary[str(n)]["crossings_s"] == [list(c) for c in table.crossings_s]
        assert (tmp_path / f"partition_n{n}.csv").exists()
