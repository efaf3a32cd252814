import cmath
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import singscat
from singscat import BasisSample, ProblemConfig, bases, cli, connect, validate
from singscat.bases import r_min_cap
from singscat.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ISP_THETA1 = {
    "p": 2.0,
    "lambda": 1.25,
    "k": 1.0,
    "l_plus_nu": 0.0,
    "mu": 1.0,
    "extra_potential": None,
    "r_min": 1e-3,
    "r_max": 60.0,
    "tol": 1e-10,
}


@pytest.fixture()
def isp_config_path(tmp_path):
    path = tmp_path / "isp.json"
    path.write_text(json.dumps(ISP_THETA1))
    return str(path)


def write_config(tmp_path, name, **overrides):
    d = dict(ISP_THETA1)
    d.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


def run_child(*args: str) -> str:
    """Run a new interpreter with ``args``, importing the same singscat as
    this process, installed or not; return its stdout, exit status 0."""
    src = str(Path(singscat.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    return proc.stdout


def strip_timing(text: str) -> dict:
    rep = json.loads(text)
    rep.pop("timing", None)
    return rep


class TestSolve:
    def test_reference_reflection_modulus(self, isp_config_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["solve", "--config", isp_config_path, "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["coefficients"]["abs_R"] == pytest.approx(0.0432139, abs=1e-7)
        assert all(c["status"] != "fail" for c in rep["checks"])
        assert rep["derived"]["theta"] == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [2.0001, 2.01])
    def test_near_conformal_tail_solves(self, tmp_path, capsys, p):
        # the lambda r^(-p) tail of p barely above 2 sits in the far-field
        # series beside the 1/r^2 term: solve and verify each pass in well
        # under 10 s, within tol of a tighter extraction
        path = write_config(tmp_path, "near2.json", p=p, tol=1e-8)
        out = tmp_path / "near2_report.json"
        t0 = time.perf_counter()
        assert main(["solve", "--config", path, "--output", str(out)]) == 0
        assert main(["verify", "--config", path]) == 0
        assert time.perf_counter() - t0 < 10.0
        assert "all invariants pass" in capsys.readouterr().out
        got = json.loads(out.read_text())["transfer_matrix"]
        tight = dataclasses.replace(ProblemConfig.from_json(path), tol=1e-10)
        ref = connect.transfer_matrix(validate(tight))
        assert abs(complex(*got["a"]) - ref.a) < 1e-8
        assert abs(complex(*got["b"]) - ref.b) < 1e-8

    def test_far_barrier_named(self, tmp_path, capsys):
        # a barrier centred far beyond every radius the far-radius search
        # tries keeps the far basis above target: it ends in a named error
        barrier = {"name": "gaussian_barrier", "height": 1.0, "center": 1e7, "width": 1.0}
        path = write_config(tmp_path, "far.json", p=4.0, tol=1e-8, extra_potential=barrier)
        assert main(["solve", "--config", path, "--output", "-"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("AsymptoticRegionTooClose: far-field truncation still above")
        assert err.count("\n") == 1

    def test_noninteger_power_w_solves(self, tmp_path):
        # W = 0.5 r^-2.5 is in the far-field series: r_max stays near its
        # start instead of being doubled out to ~3e4
        w = {"name": "inverse_power", "coefficient": 0.5, "exponent": 2.5}
        path = write_config(
            tmp_path, "w25.json", p=4.0, l_plus_nu=0.5, tol=1e-6, extra_potential=w,
            **{"lambda": 1.0},
        )
        out = tmp_path / "w25_report.json"
        assert main(["solve", "--config", path, "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["transfer_matrix"]["residuals"]["r_max_used"] < 60.0
        assert all(c["status"] == "pass" for c in rep["checks"])

    def test_centrifugal_term_beyond_float_range_named(self, tmp_path, capsys):
        # p just above 2 with a centrifugal term that beats the core at
        # r = 1: the core-dominated region ends below the smallest float
        path = write_config(tmp_path, "near2.json", p=2.0001, l_plus_nu=1.0, tol=1e-8)
        assert main(["solve", "--config", path, "--output", "-"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("SingularRegionTooFar:")
        assert "centrifugal" in err and "p = 2.0001" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("p, lam", [(4.0, 1e-200), (4.0, 1e-210), (4.0, 1e-220),
                                        (4.0, 1e-250), (3.0, 1e-250), (6.0, 1e-250)])
    def test_tiny_lambda_named(self, tmp_path, capsys, p, lam):
        # a core so weak that it dominates J only where J(r) overflows, or
        # where lambda^1.5 underflows, ends in a named error, not a traceback
        path = write_config(tmp_path, "tiny.json", p=p, k=1.0, **{"lambda": lam})
        assert main(["solve", "--config", path, "--output", "-"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("SingularRegionTooFar:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("p, lam", [(4.0, 1e200), (4.0, 1e300), (6.0, 1e300)])
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_huge_lambda_named(self, tmp_path, capsys, command, p, lam):
        # the inner radius of so strong a core puts the Hankel functions'
        # argument near 1e98, where they evaluate to nan: a numerical
        # failure of the basis, not bad input
        path = write_config(tmp_path, "huge.json", p=p, k=1.0, l_plus_nu=0.5,
                            tol=1e-8, **{"lambda": lam})
        assert main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("SingularRegionTooFar: the near-origin basis is not finite")
        assert err.count("\n") == 1

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 2.0, "lambda": 1.25}))  # k missing
        assert main(["solve", "--config", str(path), "--output", "-"]) == 2
        assert "k" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [(f, math.nan) for f in ("p", "lambda", "k", "tol", "mu", "l_plus_nu", "r_min", "r_max")]
        + [("lambda", math.inf), ("k", math.inf), ("p", math.inf), ("r_max", math.inf)],
    )
    def test_non_finite_input_exit_2(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path, "nonfinite.json", **{field: value})
        assert main(["solve", "--config", path, "--output", "-"]) == 2
        assert capsys.readouterr().err.startswith("BadGrid:")

    @pytest.mark.parametrize(
        "p, k, l_plus_nu",
        [
            pytest.param(2.0, 1e170, 0.0, id="2.0"),
            pytest.param(4.0, 1e170, 0.0, id="4.0"),
            # with no centrifugal term either, a k^2 of 0 left r_min_cap
            # no term to weigh against the core
            pytest.param(2.0, 1e-300, 0.0, id="2.0-underflow"),
            pytest.param(4.0, 1e-300, 0.5, id="4.0-underflow"),
        ],
    )
    def test_k_squared_overflow_exit_2(self, tmp_path, capsys, p, k, l_plus_nu):
        # k = 1e170 and 1e-300 are finite, but k^2 in J and in the far
        # series is not, or is 0
        path = write_config(tmp_path, "extreme_k.json", p=p, k=k, l_plus_nu=l_plus_nu)
        assert main(["solve", "--config", path, "--output", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("BadGrid:") and f"k = {k:g}" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"k": "abc"},
            {"lambda": [1.0]},
            {"tol": True},
            {"p": 4.0, "l_plus_nu": 0.5, "extra_potential": {
                "name": "gaussian_barrier", "height": math.nan, "center": 3.0, "width": 1.1}},
            {"p": 4.0, "l_plus_nu": 0.5, "extra_potential": {
                "name": "inverse_power", "coefficient": math.inf, "exponent": 2.5}},
            {"p": 4.0, "l_plus_nu": 0.5, "extra_potential": {
                "name": "gaussian_barrier", "height": "tall", "center": 3.0, "width": 1.1}},
            {"p": 4.0, "l_plus_nu": 0.5, "extra_potential": {
                "name": "gaussian_barrier", "height": 1, "center": 2, "width": 0.5,
                "exponent": 3, "heigth": 9}},
            # the field name beside its JSON key "lambda": neither value may be dropped
            {"lam": 9.0},
        ],
        ids=["k-str", "lambda-list", "tol-bool", "height-nan", "coefficient-inf", "height-str",
             "stray-keys", "lam-key"],
    )
    def test_malformed_value_exit_2(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, "malformed.json", **overrides)
        assert main(["solve", "--config", path, "--output", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("BadGrid:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("body", ["null", "5", "[1, 2]", '"abc"', "[]"])
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, body):
        path = tmp_path / "notobject.json"
        path.write_text(body)
        assert main(["solve", "--config", str(path), "--output", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("BadGrid:")
        assert len(err.strip().splitlines()) == 1

    def test_subcritical_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "sub.json", **{"lambda": 0.2})
        assert main(["solve", "--config", str(path), "--output", "-"]) == 2
        assert "SubcriticalCoupling" in capsys.readouterr().err

    def test_deterministic_output(self, isp_config_path, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["solve", "--config", isp_config_path, "--output", str(out1)])
        main(["solve", "--config", isp_config_path, "--output", str(out2)])
        t1, t2 = out1.read_text(), out2.read_text()
        assert t1 != "" and t2 != ""
        # bit-identical except the timing block
        import re

        strip = lambda t: re.sub(r'"timing":\{[^}]*\}', '"timing":{}', t)
        assert strip(t1) == strip(t2)

    def test_json_round_trip(self, isp_config_path, tmp_path):
        out = tmp_path / "report.json"
        main(["solve", "--config", isp_config_path, "--output", str(out)])
        rep = strip_timing(out.read_text())
        # values survive a parse/re-parse cycle exactly
        again = json.loads(json.dumps(rep))
        assert again == rep

    def test_csv_format(self, isp_config_path, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["solve", "--config", isp_config_path, "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "key,value"
        keys = {l.split(",")[0] for l in lines[1:]}
        assert "coefficients.abs_R" in keys
        row = next(l for l in lines[1:] if l.startswith("coefficients.abs_R,"))
        assert float(row.split(",")[1]) == pytest.approx(0.0432139, abs=1e-7)

    def test_degenerate_report(self, tmp_path):
        path = write_config(
            tmp_path,
            "degen.json",
            p=4.0,
            l_plus_nu=0.5,
            tol=1e-5,
            extra_potential={
                "name": "gaussian_barrier", "height": 14.0, "center": 3.0, "width": 1.1,
            },
            **{"lambda": 1.0},
        )
        out = tmp_path / "degen_report.json"
        assert main(["solve", "--config", path, "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        smap = rep["s_matrix_map"]
        assert smap["degenerate"] is True
        assert smap["zero"] is None and smap["pole"] is None
        const = complex(*smap["constant"])
        assert abs(abs(const) - 1.0) < 1e-6
        assert rep["coefficients"]["abs_T_squared"] < 1e-5
        spread = next(c for c in rep["checks"] if c["name"] == "degenerate_spread")
        assert spread["status"] == "pass"

    def test_nearly_opaque_barrier_keeps_zero_and_pole(self, tmp_path):
        # 1 - |R| = 1.2e-5: S still moves by about 2e-5 over |Omega| <= 0.6,
        # more than degenerate_spread allows at tol 1e-8, so the map is not
        # reported as a constant
        barrier = {"name": "gaussian_barrier", "height": 24.0, "center": 2.0, "width": 0.5}
        path = write_config(
            tmp_path, "h24.json", p=4.0, l_plus_nu=0.5, tol=1e-8, extra_potential=barrier,
            **{"lambda": 1.0},
        )
        out = tmp_path / "h24_report.json"
        assert main(["solve", "--config", path, "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        smap = rep["s_matrix_map"]
        assert smap["degenerate"] is False
        assert abs(complex(*smap["zero"])) < 1.0 < abs(complex(*smap["pole"]))
        assert all(c["status"] == "pass" for c in rep["checks"])


class TestScale:
    """Problems far from unit scale.  Under r -> r/s the k = lambda = 1
    problem becomes k = s, lambda = s^-(p-2), with the same (a, b).  The
    far-radius search then reaches kr ~ 1 at tiny radii, where r^(-gamma)
    passes float64, and the far series needs coefficients that underflow
    it: each solve must exit 0 within tol * max(1, |a|) of its reference."""

    @staticmethod
    def solve(tmp_path, **fields):
        path = write_config(tmp_path, "scaled.json", tol=1e-8, **fields)
        out = tmp_path / "scaled_report.json"
        assert main(["solve", "--config", path, "--output", str(out)]) == 0
        tm = json.loads(out.read_text())["transfer_matrix"]
        return complex(*tm["a"]), complex(*tm["b"])

    @pytest.mark.parametrize("k", [1e14, 1e16, 1e17, 1e18, 1e20, 1e25, 1e40, 1e80])
    def test_conformal_matches_isp_exact(self, tmp_path, k):
        a, b = self.solve(tmp_path, k=k)
        ref = singscat.isp_exact(1.0, k, 1.0)
        assert max(abs(a - ref.a), abs(b - ref.b)) <= 1e-8 * max(1.0, abs(ref.a))

    @pytest.mark.parametrize("s", [1e16, 1e20, 1e40])
    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    def test_core_in_other_units(self, tmp_path, p, s):
        a, b = self.solve(tmp_path, p=p, l_plus_nu=0.5, k=s, **{"lambda": s ** -(p - 2.0)})
        ref = connect.transfer_matrix(validate(ProblemConfig(p=p, lam=1.0, k=1.0, l_plus_nu=0.5,
                                                             tol=1e-8)))
        assert max(abs(a - ref.a), abs(b - ref.b)) <= 1e-8 * max(1.0, abs(ref.a))


class TestSweep:
    def test_omega_circle_sweep(self, isp_config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--config", isp_config_path, "--axis", "omega",
             "--grid", f"0:{2*math.pi}:64", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "axis_value,re_s,im_s,abs_s,sign_ok"
        assert len(lines) == 65
        for line in lines[1:]:
            cols = line.split(",")
            assert abs(float(cols[3]) - 1.0) < 1e-10
            assert cols[4] == "1"

    def test_k_sweep_at_zero_matches_left_reflection(self, isp_config_path, tmp_path):
        rep_out = tmp_path / "rep.json"
        main(["solve", "--config", isp_config_path, "--output", str(rep_out)])
        rp = json.loads(rep_out.read_text())["coefficients"]["Rp"]

        out = tmp_path / "ksweep.csv"
        assert main(
            ["sweep", "--config", isp_config_path, "--axis", "k",
             "--grid", "1:1:1", "--output", str(out)]
        ) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(rp[0], abs=1e-9)
        assert float(row[2]) == pytest.approx(rp[1], abs=1e-9)

    def test_theta_sweep_reflection_moduli(self, isp_config_path, tmp_path):
        out = tmp_path / "thsweep.csv"
        assert main(
            ["sweep", "--config", isp_config_path, "--axis", "theta",
             "--grid", "0.5:2:4", "--output", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()[1:]
        got = {float(l.split(",")[0]): float(l.split(",")[3]) for l in lines}
        for th in (0.5, 1.0, 2.0):
            assert got[th] == pytest.approx(math.exp(-math.pi * th), rel=1e-7)

    @settings(deadline=None, max_examples=300)
    @given(start=st.floats(), stop=st.floats(), count=st.integers(1, 300))
    @example(start=0.5, stop=2.0, count=1)
    @example(start=1.5, stop=1.5, count=7)
    @example(start=2.0, stop=-0.3, count=9)
    @example(start=-0.0, stop=0.0, count=3)
    @example(start=0.0, stop=1e-322, count=100)  # the step underflows to 0
    def test_grid_is_numpy_linspace(self, start, stop, count):
        # bit for bit, signed zeros and nan included, so the CSV is unchanged
        with np.errstate(all="ignore"):
            want = np.linspace(start, stop, count)
        assert [v.hex() for v in cli._grid(start, stop, count)] == [
            float(v).hex() for v in want
        ]

    def test_k_sweep_unchanged_without_numpy(self, monkeypatch, capsys):
        argv = ["sweep", "--config", str(CONFIGS / "isp_theta1.json"), "--axis", "k",
                "--grid", "0.3:1.7:5", "--output", "-"]
        out = run_child(
            "-c",
            "import sys\n"
            "from singscat import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        monkeypatch.setattr(cli, "_grid", lambda *grid: np.linspace(*grid))
        assert main(argv) == 0
        assert out == capsys.readouterr().out + "False\n"

    @pytest.mark.parametrize("axis, grid, omegas", [
        ("k", "1:1.5:2", ["0.5,0", "0,0"]),
        ("theta", "0.5:1:2", ["0.5,0", "0,0"]),
        ("omega", "0:1:4", ["0.5,0"]),
    ])
    def test_unused_omega_exit_2(self, isp_config_path, tmp_path, capsys, axis, grid, omegas):
        # a sweep evaluates at one point, and an omega sweep at none given:
        # an --omega that it would drop is bad input, not silently ignored
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", isp_config_path, "--axis", axis, "--grid", grid,
                "--output", str(out)]
        for om in omegas:
            argv += ["--omega", om]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("BadGrid: a sweep takes one --omega")
        assert not out.exists()

    def test_huge_omega_modulus_writes_its_rows(self, tmp_path):
        # |Omega|^2 would overflow; (|Omega| - 1)(|Omega| + 1) rounds to inf,
        # whose sign matches |S|^2 - 1 > 0 on the far side of the circle
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", "--config", str(CONFIGS / "isp_theta1.json"), "--axis", "k",
             "--omega", "1e200,0", "--grid", "1:2:2", "--output", str(out)]
        ) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [row[4] for row in rows] == ["1", "1"]

    def test_huge_theta_exit_2(self, tmp_path, capsys):
        # theta^2 + 1/4 rounds to an infinite lambda, which validate rejects
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", "--config", str(CONFIGS / "isp_theta1.json"), "--axis", "theta",
             "--omega", "0.5,0", "--grid", "1e200:1e201:2", "--output", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("BadGrid: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["-1:-0.5:2", "0:1:3", "0.5:-0.5:3", "nan:1:2", "1:nan:2"])
    def test_theta_grid_not_positive_exit_2(self, tmp_path, capsys, monkeypatch, grid):
        # lambda = theta^2 + 1/4 would solve |theta| under the row's -theta,
        # or end in a subcritical theta = 0 after solving every earlier point
        monkeypatch.setattr(connect, "transfer_matrix", None)  # no solve is started
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", "--config", str(CONFIGS / "isp_theta1.json"), "--axis", "theta",
             f"--grid={grid}", "--output", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("BadGrid: theta grid START and STOP must be > 0")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--axis", "omega", "--modulus", "1e306", "--grid", "0:6:4"],
        ["--axis", "k", "--omega", "1e306,0", "--grid", "0.5:1.5:3"],
    ], ids=["omega", "k"])
    def test_omega_past_float64_products_is_finite(self, tmp_path, argv):
        # |Omega| max(|a|, |b|) overflows float64 on this barrier; outside
        # the disk S is evaluated in 1/Omega, where it tends to a/b*
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(CONFIGS / "degenerate_barrier.json"), *argv,
                     "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row[1:4])

    def test_theta_sweep_needs_conformal_config(self, tmp_path, capsys):
        path = write_config(tmp_path, "p4.json", p=4.0, **{"lambda": 1.0, "l_plus_nu": 0.5})
        assert main(
            ["sweep", "--config", path, "--axis", "theta", "--grid", "0.5:1:2", "--output", "-"]
        ) == 2


class TestReconstruct:
    def test_table_against_direct(self, isp_config_path, tmp_path):
        out = tmp_path / "rec.csv"
        code = main(
            ["reconstruct", "--config", isp_config_path, "--nodes", "128",
             "--omega", "0.5,0", "--omega", "1.5,0", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        rows = [l.split(",") for l in lines[1:]]
        zero_row = rows[0]
        assert float(zero_row[0]) == 0.0
        assert float(zero_row[6]) < 1e-10  # uniform average equals direct S(0)
        half_row = next(r for r in rows if r[0] == "0.5")
        assert float(half_row[6]) < 1e-8
        outside = next(r for r in rows if r[0] == "1.5")
        assert outside[7] == "invalid"

    def test_consecutive_calls_share_no_state(self, isp_config_path, tmp_path):
        # the parser is built once per process; the repeated --omega of
        # one call must not reach the next
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["reconstruct", "--config", isp_config_path, "--omega", "0.5,0",
                     "--omega", "0.3,0.1", "--output", str(first)]) == 0
        assert main(["reconstruct", "--config", isp_config_path, "--output", str(second)]) == 0
        first_rows = first.read_text().splitlines()
        assert [r.split(",")[:2] for r in first_rows[1:]] == [
            ["0", "0"], ["0.5", "0"], ["0.29999999999999999", "0.10000000000000001"]]
        assert second.read_text().splitlines() == first_rows[:2]
        assert singscat.cli.build_parser() is singscat.cli.build_parser()

    def test_node_doubling_improves(self, isp_config_path, tmp_path):
        diffs = []
        for n in (8, 16):
            out = tmp_path / f"rec{n}.csv"
            main(
                ["reconstruct", "--config", isp_config_path, "--nodes", str(n),
                 "--omega", "0.3,0", "--output", str(out)]
            )
            row = out.read_text().strip().splitlines()[2].split(",")
            diffs.append(float(row[6]))
        assert diffs[1] < diffs[0] or diffs[1] < 1e-13


class TestBadCounts:
    @pytest.mark.parametrize("nodes", [1, 4, 7])
    @pytest.mark.parametrize("command", ["reconstruct", "verify"])
    def test_too_few_nodes_exit_2(self, isp_config_path, capsys, command, nodes):
        # bad input, not a numerical failure: a typed BadGrid and exit 2
        assert main([command, "--config", isp_config_path, "--nodes", str(nodes)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("BadGrid: nodes must be >= 8")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "axis,grid", [("omega", "0:1:0"), ("k", "0.5:1:-2"), ("theta", "0.5:1:0")]
    )
    def test_empty_sweep_grid_exit_2(self, isp_config_path, tmp_path, capsys, axis, grid):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", "--config", isp_config_path, "--axis", axis, "--grid", grid,
             "--output", str(out)]
        ) == 2
        assert capsys.readouterr().err.startswith("BadGrid: grid COUNT must be >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "k", "--omega", "nan,0", "--grid", "1:2:2"],
        ["sweep", "--axis", "omega", "--modulus", "nan"],
        ["sweep", "--axis", "omega", "--grid", "0:nan:2"],
        ["reconstruct", "--omega", "nan,0"],
    ], ids=["k-sweep-omega", "omega-sweep-modulus", "omega-sweep-grid", "reconstruct-omega"])
    def test_nan_omega_exit_2(self, tmp_path, capsys, argv):
        # a nan Omega is bad input, not a table row of nan values
        out = tmp_path / "out.csv"
        config = str(CONFIGS / "isp_theta1.json")
        assert main([*argv, "--config", config, "--output", str(out)]) == 2
        assert capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    @pytest.mark.parametrize(
        "config",
        sorted(CONFIGS.glob("*.json")) + ["p2.5", "p3", "p3.5", "p6", "p8-tol1e-11"],
        ids=lambda c: c if isinstance(c, str) else c.stem,
    )
    def test_suite_passes(self, tmp_path, capsys, config):
        # every shipped config, the cores p = 2.5, 3, 3.5 and 6 at tol 1e-8,
        # and p = 8 at tol 1e-11, where global_error holds only with the
        # compensated summation of the inner leg's ~6,000 rad; each must
        # solve and verify in under 10 s
        if isinstance(config, str):
            p, _, tol = config[1:].partition("-tol")
            config = write_config(
                tmp_path, f"{config}.json", p=float(p), l_plus_nu=0.5, tol=float(tol or 1e-8),
                **{"lambda": 1.0},
            )
        t0 = time.perf_counter()
        assert main(["verify", "--config", str(config)]) == 0
        assert time.perf_counter() - t0 < 10.0
        assert "all invariants pass" in capsys.readouterr().out

    def test_loose_tol_small_k_searches_r_min_outward(self, tmp_path, capsys):
        # at tol 1e-3 and k = 0.1 the estimate allows a large inner radius:
        # the search leaves config.r_min far behind, stays below its cap
        # and r_max, and the result passes every invariant
        path = write_config(
            tmp_path, "loose.json", p=4.0, k=0.1, l_plus_nu=0.5, tol=1e-3, **{"lambda": 1.0}
        )
        out = tmp_path / "loose_report.json"
        assert main(["solve", "--config", path, "--output", str(out)]) == 0
        r_min = json.loads(out.read_text())["transfer_matrix"]["residuals"]["r_min_used"]
        cfg = validate(ProblemConfig.from_json(path))
        assert 100.0 * cfg.r_min < r_min < r_min_cap(cfg) < cfg.r_max
        assert main(["verify", "--config", path]) == 0
        assert "all invariants pass" in capsys.readouterr().out

    def test_phase_rotated_matrix_fails(self, isp_config_path, capsys, monkeypatch):
        # every solve hands back its matrix with a turned by a common phase;
        # moduli, Blaschke structure and mu covariance cannot see it, the
        # re-extraction of global_error does
        extract = connect.transfer_matrix

        def rotated(config):
            m = extract(config)
            return dataclasses.replace(m, a=m.a * cmath.exp(1e-6j))

        monkeypatch.setattr(connect, "transfer_matrix", rotated)
        code = main(["verify", "--config", isp_config_path])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED: global_error" in out

    def test_under_reported_far_truncation_fails(self, isp_config_path, capsys, monkeypatch):
        # a far estimate 1000 times too small puts r_max where the far basis
        # is about 100 tol off; no solve check sees it, and global_error,
        # which projects its re-extraction at twice r_max, does
        honest = bases.eval_asymptotic

        def under_reported(config, r):
            far = honest(config, r)
            return BasisSample(far.state, 1e-3 * far.trunc_error)

        monkeypatch.setattr(bases, "eval_asymptotic", under_reported)
        bases._plan.cache_clear()  # an earlier solve keeps the honest radii
        try:
            assert main(["solve", "--config", isp_config_path]) == 0
            assert main(["verify", "--config", isp_config_path]) == 1
        finally:
            bases._plan.cache_clear()  # the next solve takes the honest radii again
        out = capsys.readouterr().out
        assert "FAILED: global_error" in out


class TestExitCodes:
    # the exit code is part of each error type's public contract
    USAGE = {"BadGrid", "NonSingular", "SubcriticalCoupling"}

    @pytest.mark.parametrize(
        "cls",
        [c for c in vars(singscat.errors).values()
         if isinstance(c, type) and issubclass(c, singscat.errors.SingscatError)],
        ids=lambda c: c.__name__,
    )
    def test_each_error_type_declares_its_exit_code(self, cls):
        assert cls.exit_code == (2 if cls.__name__ in self.USAGE else 1)

    class ReclassifiedDrift(singscat.errors.DriftExceeded):
        exit_code = 2  # main reads the type's code, not a list of types

    @pytest.mark.parametrize(
        "cls",
        [singscat.errors.NonSingular, singscat.errors.DriftExceeded, ReclassifiedDrift],
        ids=lambda c: c.__name__,
    )
    def test_main_returns_the_raised_type_exit_code(self, isp_config_path, capsys,
                                                    monkeypatch, cls):
        def fail(config):
            raise cls("raised by a stub")

        monkeypatch.setattr(connect, "transfer_matrix", fail)
        assert main(["solve", "--config", isp_config_path]) == cls.exit_code
        assert capsys.readouterr().err == f"{cls.__name__}: raised by a stub\n"

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("FileNotFoundError:")


class TestEntryPoint:
    def test_module_invocation(self, isp_config_path):
        out = run_child("-m", "singscat", "solve", "--config", isp_config_path, "--output", "-")
        rep = json.loads(out)
        assert rep["coefficients"]["abs_R"] == pytest.approx(0.0432139, abs=1e-7)

    def test_usage_error(self):
        assert main(["solve"]) == 2

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda c: c.stem)
    def test_solve_loads_numpy_only_with_scipy(self, config):
        # only the Hankel basis imports scipy, and numpy comes in with it;
        # every other solve runs without numpy
        out = run_child(
            "-c",
            "import os, sys\n"
            "from singscat import cli\n"
            f"assert cli.main(['solve', '--config', {str(config)!r}, '--output', os.devnull]) == 0\n"
            "print('numpy' in sys.modules, 'scipy' in sys.modules)\n"
        )
        numpy_loaded, scipy_loaded = out.split()
        assert numpy_loaded == scipy_loaded
