"""Acceptance suite: the project's exit criteria, each at a fixed tolerance.

Each test prints one line per criterion, so a plain ``pytest -s
tests/test_acceptance.py`` doubles as the acceptance report.  Solutions
are shared through the session-scoped ``solved`` fixture.
"""

import cmath
import math

import pytest

from singscat import (
    UnitaryFamilySample,
    absorption_average,
    cauchy_reconstruct,
    fit_mobius,
    isp_exact,
    s_matrix,
)
from singscat.errors import RankDeficient

ISP_NAMES = {0.5: "isp05", 1.0: "isp1", 2.0: "isp2"}
STANDARD = ("isp05", "isp1", "isp2", "quartic")


def report(n: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"criterion {n:2d} [{label}]: {state}  {detail}")


def test_criterion_01_conformal_oracle_equivalence(solved):
    worst = 0.0
    for theta, name in ISP_NAMES.items():
        sol = solved(name)
        ex = isp_exact(theta, 1.0, 1.0)
        r_mod = abs(abs(sol.coeffs.R) - math.exp(-math.pi * theta)) / math.exp(-math.pi * theta)
        t_sq = abs(abs(sol.coeffs.T) ** 2 - (1.0 - math.exp(-2.0 * math.pi * theta))) / (
            1.0 - math.exp(-2.0 * math.pi * theta)
        )
        r_full = abs(sol.coeffs.R - ex.R) / abs(ex.R)
        worst = max(worst, r_mod, t_sq, r_full)
    ok = worst < 1e-6
    report(1, "conformal oracle equivalence", ok, f"worst rel dev {worst:.2e} < 1e-6")
    assert ok


def test_criterion_02_conservation(solved):
    worst_drift = 0.0
    worst_su11 = 0.0
    for name in STANDARD:
        res = solved(name).matrix.residuals
        worst_drift = max(worst_drift, res.wronskian_drift)
        worst_su11 = max(worst_su11, res.su11_defect)
    ok = worst_drift < 1e-9 and worst_su11 < 1e-8
    report(2, "conservation", ok, f"drift {worst_drift:.2e} < 1e-9, su11 {worst_su11:.2e} < 1e-8")
    assert worst_drift < 1e-9
    assert worst_su11 < 1e-8


def test_criterion_03_unitarity_network(solved):
    worst = 0.0
    for name in STANDARD:
        c = solved(name).coeffs
        worst = max(
            worst,
            abs(abs(c.R) ** 2 + abs(c.T) ** 2 - 1.0),
            abs(abs(c.Rp) ** 2 + abs(c.Tp) ** 2 - 1.0),
            abs(c.R.conjugate() * c.Tp + c.T.conjugate() * c.Rp),
            abs(c.T - c.Tp),
        )
    ok = worst < 1e-8
    report(3, "unitarity network", ok, f"worst defect {worst:.2e} < 1e-8")
    assert ok


def test_criterion_04_circle_mapping(solved):
    worst = 0.0
    for name in ("isp1", "quartic"):
        m = solved(name).matrix
        for j in range(64):
            om = cmath.exp(2j * math.pi * j / 64)
            worst = max(worst, abs(abs(s_matrix(m, om)) - 1.0))
    ok = worst < 1e-8
    report(4, "circle mapping", ok, f"max ||S|-1| {worst:.2e} < 1e-8 over 64 phases")
    assert ok


def test_criterion_05_blaschke_structure(solved):
    sol = solved("isp1")
    m, c = sol.matrix, sol.coeffs

    boundary = [(cmath.exp(2j * math.pi * j / 4), s_matrix(m, cmath.exp(2j * math.pi * j / 4))) for j in range(4)]
    fit = fit_mobius(boundary)
    worst_fit = 0.0
    for j in range(32):
        om = (0.2 + 0.7 * (j % 8) / 8.0) * cmath.exp(2j * math.pi * j / 32)
        worst_fit = max(worst_fit, abs(fit.evaluate(om) - s_matrix(m, om)))

    # root confirmation: secant iteration from the origin onto the zero
    zero = c.R.conjugate()
    x0, x1 = 0j, 0.1 * zero
    for _ in range(60):
        f0, f1 = s_matrix(m, x0), s_matrix(m, x1)
        if f1 == f0:
            break
        x0, x1 = x1, x1 - f1 * (x1 - x0) / (f1 - f0)
    root_found = abs(x1 - zero) < 1e-8
    zero_value = abs(s_matrix(m, zero))

    pole = 1.0 / c.R
    pole_value = abs(s_matrix(m, pole * (1.0 + 1e-6)))

    ok = worst_fit < 1e-8 and zero_value < 1e-6 and root_found and pole_value > 1e6
    report(
        5,
        "Blaschke structure",
        ok,
        f"fit residual {worst_fit:.2e} < 1e-8, |S(R*)| {zero_value:.2e} < 1e-6, "
        f"|S| near pole {pole_value:.2e} > 1e6",
    )
    assert worst_fit < 1e-8
    assert zero_value < 1e-6
    assert root_found
    assert pole_value > 1e6


def test_criterion_06_phase_identities(solved):
    worst_id = 0.0
    worst_mod = 0.0
    for name in STANDARD:
        sol = solved(name)
        d, c = sol.smap.delta, sol.coeffs
        worst_id = max(
            worst_id,
            abs(d + c.T / c.T.conjugate()),
            abs(d - c.Rp / c.R.conjugate()),
        )
        worst_mod = max(worst_mod, abs(abs(d) - 1.0))
    ok = worst_id < 1e-8 and worst_mod < 1e-10
    report(6, "phase identities", ok, f"identities {worst_id:.2e} < 1e-8, ||Delta|-1| {worst_mod:.2e} < 1e-10")
    assert worst_id < 1e-8
    assert worst_mod < 1e-10


def test_criterion_07_cauchy_reconstruction(solved):
    worst = 0.0
    worst_avg = 0.0
    for name in ("isp1", "quartic"):
        sol = solved(name)
        m = sol.matrix
        samples = UnitaryFamilySample.uniform_grid(128, lambda om: s_matrix(m, om))
        for om in (0j, 0.3 + 0j, 0.5 + 0.2j, 0.9 + 0j):
            worst = max(worst, abs(cauchy_reconstruct(samples, om) - s_matrix(m, om)))
        worst_avg = max(worst_avg, abs(absorption_average(samples) - sol.coeffs.Rp))
    ok = worst < 1e-8 and worst_avg < 1e-10
    report(
        7,
        "Cauchy reconstruction",
        ok,
        f"max |rec - direct| {worst:.2e} < 1e-8, |avg - R'| {worst_avg:.2e} < 1e-10",
    )
    assert worst < 1e-8
    assert worst_avg < 1e-10


def test_criterion_08_sign_correspondence(solved):
    band = 1e-10
    ok = True
    for name in ("isp1", "quartic"):
        m = solved(name).matrix
        for mod in (0.5, 2.0):
            for j in range(8):
                om = mod * cmath.exp(2j * math.pi * (j + 0.11) / 8)
                lhs = abs(s_matrix(m, om)) ** 2 - 1.0
                rhs = abs(om) ** 2 - 1.0
                if abs(lhs) > band:
                    ok = ok and (math.copysign(1.0, lhs) == math.copysign(1.0, rhs))
    report(8, "sign correspondence", ok, "sgn(|S|^2-1) = sgn(|Omega|^2-1) after 1e-10 dead band")
    assert ok


def test_criterion_09_scale_covariance(solved):
    # mu -> 2 mu multiplies R by (2 mu'/2 mu)^(2 i theta): arg R moves by
    # +2 theta ln 2, equivalently the S-matrix zero R* rotates by
    # -2 theta ln 2; moduli are exactly unchanged
    worst_phase = 0.0
    worst_mod = 0.0
    for theta, name in ISP_NAMES.items():
        base = solved(name)
        scaled = solved(name + "_mu2")
        shift = cmath.phase(scaled.coeffs.R / base.coeffs.R)
        expected = 2.0 * theta * math.log(2.0)
        dev = abs((shift - expected + math.pi) % (2.0 * math.pi) - math.pi)
        zero_shift = cmath.phase(scaled.smap.zero / base.smap.zero)
        dev_zero = abs((zero_shift + expected + math.pi) % (2.0 * math.pi) - math.pi)
        worst_phase = max(worst_phase, dev, dev_zero)
        worst_mod = max(
            worst_mod,
            abs(abs(scaled.coeffs.R) - abs(base.coeffs.R)),
            abs(abs(scaled.coeffs.T) - abs(base.coeffs.T)),
        )
    ok = worst_phase < 1e-8 and worst_mod < 1e-10
    report(
        9,
        "scale covariance",
        ok,
        f"phase departure {worst_phase:.2e} < 1e-8 (arg R: +2 th ln2; zero: -2 th ln2), "
        f"moduli change {worst_mod:.2e} < 1e-10",
    )
    assert worst_phase < 1e-8
    assert worst_mod < 1e-10


def test_criterion_10_degenerate_branch(solved):
    sol = solved("barrier")
    flag = sol.smap.degenerate

    vals = []
    for j in range(16):
        om = 0.6 * (j + 1) / 16 * cmath.exp(2j * math.pi * j / 16)
        vals.append(s_matrix(sol.matrix, om))
    spread = max(abs(v - w) for v in vals for w in vals)
    modulus_one = abs(abs(sol.smap.constant) - 1.0) < 1e-6

    m = sol.matrix
    samples = UnitaryFamilySample.uniform_grid(32, lambda om: s_matrix(m, om))
    try:
        fit_mobius(samples)
        rank_deficient = False
    except RankDeficient:
        rank_deficient = True

    ok = flag and spread < 1e-6 and modulus_one and rank_deficient
    report(
        10,
        "degenerate branch",
        ok,
        f"flag={flag}, spread {spread:.2e} < 1e-6, rank-deficient fit={rank_deficient}",
    )
    assert flag
    assert spread < 1e-6
    assert modulus_one
    assert rank_deficient
