import cmath
import dataclasses
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

from singscat import (
    ProblemConfig,
    bases,
    blaschke_params,
    connect,
    scattering_coefficients,
    transfer_matrix,
    validate,
)
from singscat import checks as suite
from singscat.checks import solve_checks, verify_checks
from singscat.currents import current
from singscat.integrate import StateVector
from tests.conftest import isp_config, quartic_config
from tests.test_connect import _DUMMY_RES, fake_matrix

CFG = isp_config(1.0)
T = 0.5
A, B = math.cosh(T), math.sinh(T) * cmath.exp(0.3j)

#: check name -> the tests below that drive it to "fail"
FAILED_BY: dict[str, list[str]] = {}


def failing(checks: list[dict]) -> set[str]:
    return {c["name"] for c in checks if c["status"] == "fail"}


def fails(*names):
    """Register a test that returns a check list in which each of
    ``names`` fails, and assert that they do."""

    def register(test):
        for name in names:
            FAILED_BY.setdefault(name, []).append(test.__name__)

        @functools.wraps(test)
        def run(*args, **kwargs):
            assert set(names) <= failing(test(*args, **kwargs))

        return run

    return register


def solve_checks_of(m) -> list[dict]:
    return solve_checks(
        CFG, m, scattering_coefficients(m, tol=CFG.tol), blaschke_params(m, tol=CFG.tol)
    )


def verify_checks_of(sol, nodes: int = 128) -> list[dict]:
    return verify_checks(sol.config, sol.matrix, sol.coeffs, sol.smap, nodes)


def with_residuals(**changes):
    m = fake_matrix(A, B)
    return dataclasses.replace(m, residuals=dataclasses.replace(_DUMMY_RES, **changes))


def test_exact_matrix_passes_every_check():
    checks = solve_checks_of(fake_matrix(A, B))
    assert failing(checks) == set()
    assert {c["status"] for c in checks} == {"pass"}


def test_every_check_has_a_test_that_fails_it(solved):
    # a p = 2 map, a degenerate one and the self-dual quartic core reach
    # every branch of both suites
    emitted = set()
    for name in ("isp1", "barrier", "quartic"):
        sol = solved(name)
        checks = solve_checks(sol.config, sol.matrix, sol.coeffs, sol.smap)
        emitted |= {c["name"] for c in checks + verify_checks_of(sol)}
    assert {"mu_covariance_phase", "degenerate_spread", "self_dual_phase"} <= emitted
    assert emitted - FAILED_BY.keys() == set(), "checks that no test drives to fail"
    assert FAILED_BY.keys() - emitted == set(), "tests of checks that are not emitted"


@fails("su11")
def test_su11_defect_fails_su11():
    checks = solve_checks_of(with_residuals(su11_defect=1e3 * CFG.tol))
    assert failing(checks) == {"su11"}
    return checks


@fails("unitarity_right")
def test_non_unitary_matrix_fails_unitarity():
    # |a|^2 - |b|^2 = 1.0201 cosh^2 T - sinh^2 T != 1; the SU(1,1) defect
    # is a residual of the extraction, left at zero here
    checks = solve_checks_of(fake_matrix(1.01 * A, B))
    assert failing(checks) == {"unitarity_right"}
    return checks


@fails("sign_correspondence")
def test_reflection_above_one_fails_sign_correspondence():
    # |b| > |a|: S maps the inside of the disk outside it
    return solve_checks_of(fake_matrix(B, A))


@fails("degenerate_spread")
def test_reflection_just_above_one_fails_degenerate_spread():
    # |R| = 1 + 1e-4 takes the degenerate branch, but S still moves by
    # 1.3e-4 over |Omega| <= 0.6
    m = fake_matrix(A, B / abs(B) * A * (1.0 + 1e-4))
    assert blaschke_params(m, tol=CFG.tol).degenerate
    return solve_checks_of(m)


def test_quartic_solve_does_not_load_numpy_random():
    # a solve draws no random points and holds no array, so it imports
    # neither numpy nor numpy.random (about 13 MB of a solve process), and
    # reconstruct and verify sum and fit on the disk without numpy; a
    # Hankel-basis solve afterwards loads numpy with scipy, which shows
    # the probe works
    config = Path(__file__).resolve().parent.parent / "configs" / "quartic.json"
    hankel = config.with_name("noninteger_p2_5.json")
    code = (
        "import os, sys\n"
        "from singscat import cli\n"
        f"assert cli.main(['solve', '--config', {str(config)!r}, '--output', '-']) == 0\n"
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules, file=sys.stderr)\n"
        f"assert cli.main(['reconstruct', '--config', {str(config)!r}, '--output', os.devnull]) == 0\n"
        f"assert cli.main(['verify', '--config', {str(config)!r}]) == 0\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
        f"assert cli.main(['solve', '--config', {str(hankel)!r}, '--output', os.devnull]) == 0\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(suite.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert '"self_dual_phase"' in out.stdout
    assert out.stderr.split() == ["False", "False", "False", "True"]


@fails("self_dual_phase")
def test_turned_near_origin_state_fails_self_dual_phase(monkeypatch):
    # a global phase of 10 tol in u+ turns arg b by -10 tol; su11 and
    # unitarity_right cannot see it
    cfg = quartic_config(tol=1e-8)
    turn = cmath.exp(10j * cfg.tol)
    untouched = bases.eval_singularity

    def turned(config, r):
        sample = untouched(config, r)
        s = sample.state
        return sample._replace(state=StateVector(s.r, s.u * turn, s.du * turn))

    m = transfer_matrix(cfg)
    checks = solve_checks(cfg, m, scattering_coefficients(m), blaschke_params(m, tol=cfg.tol))
    assert failing(checks) == set()
    monkeypatch.setattr(bases, "eval_singularity", turned)
    m = transfer_matrix(cfg)
    checks = solve_checks(cfg, m, scattering_coefficients(m), blaschke_params(m, tol=cfg.tol))
    assert failing(checks) == {"self_dual_phase"}
    return checks


@fails("global_error")
def test_phase_rotated_solve_fails_global_error(solved):
    # a common phase of a leaves every modulus and the Blaschke structure
    # intact; only the re-extraction at a finer step tolerance sees it
    sol = solved("isp1")
    m = dataclasses.replace(sol.matrix, a=sol.matrix.a * cmath.exp(1e-6j))
    coeffs = scattering_coefficients(m, tol=CFG.tol)
    smap = blaschke_params(m, tol=CFG.tol)
    assert failing(solve_checks(sol.config, m, coeffs, smap)) == set()
    return verify_checks(sol.config, m, coeffs, smap, 128)


@fails("global_error")
def test_under_reported_near_estimate_fails_global_error(monkeypatch):
    # a dual-basis estimate 50 times too small moves r_min out to where u+
    # is about 5 tol off; no solve check sees it, and global_error, which
    # restarts its re-extraction at half r_min, does
    cfg = validate(ProblemConfig(p=6.0, lam=1.0, k=1.0, l_plus_nu=0.5, tol=1e-8))

    def under_reported(config, r):
        u, du, est = bases._dual_member(config, r)
        return u, du, 0.02 * est

    monkeypatch.setattr(bases, "_DUAL", bases._Basis(
        under_reported, lambda config, r: under_reported(config, r)[2]))
    bases._plan.cache_clear()
    try:
        m = transfer_matrix(cfg)
        assert bases._plan(cfg).basis.member is under_reported
        coeffs = scattering_coefficients(m, tol=cfg.tol)
        smap = blaschke_params(m, tol=cfg.tol)
        assert failing(solve_checks(cfg, m, coeffs, smap)) == set()
        checks = verify_checks(cfg, m, coeffs, smap, 128)
    finally:
        bases._plan.cache_clear()  # the next test of this problem takes the honest basis
    assert failing(checks) == {"global_error"}
    return checks


@fails("cauchy_consistency", "uniform_average")
def test_too_few_nodes_fail_the_cauchy_checks(solved):
    # 8 boundary nodes alias the R^8 term: |R|^8 = e^(-4 pi) = 3.5e-6 at theta 1/2
    checks = verify_checks_of(solved("isp05"), nodes=8)
    assert failing(checks) == {"cauchy_consistency", "uniform_average"}
    return checks


@fails("mu_covariance_phase")
def test_mu_independent_solve_fails_mu_covariance_phase(solved, monkeypatch):
    # mu -> 2 mu must turn R by 2 theta ln 2; a solve that ignores mu does not
    sol = solved("isp1")
    monkeypatch.setattr(connect, "transfer_matrix", lambda config: sol.matrix)
    checks = verify_checks_of(sol)
    assert failing(checks) == {"mu_covariance_phase"}
    return checks


@fails("mu_covariance_moduli")
def test_rescaled_amplitudes_fail_mu_covariance_moduli(solved, monkeypatch):
    # the right phase turn, but |R| and |T| shrink by a factor 1.001
    sol = solved("isp1")
    turn = cmath.exp(-2j * sol.config.theta * math.log(2.0))
    m2 = dataclasses.replace(sol.matrix, a=1.001 * sol.matrix.a, b=sol.matrix.b * turn)
    monkeypatch.setattr(connect, "transfer_matrix", lambda config: m2)
    checks = verify_checks_of(sol)
    assert failing(checks) == {"mu_covariance_moduli"}
    return checks


@fails("current_outgoing")
def test_wrong_far_current_fails_current_outgoing(solved, monkeypatch):
    sol = solved("isp1")
    r_far = sol.matrix.residuals.r_max_used
    monkeypatch.setattr(suite, "current", lambda s: 2.5 if s.r == r_far else current(s))
    checks = verify_checks_of(sol)
    assert failing(checks) == {"current_outgoing"}
    return checks


@fails("current_origin")
def test_wrong_near_current_fails_current_origin(solved, monkeypatch):
    sol = solved("isp1")
    r_near = sol.matrix.residuals.r_min_used
    monkeypatch.setattr(suite, "current", lambda s: 2.5 if s.r == r_near else current(s))
    checks = verify_checks_of(sol)
    assert failing(checks) == {"current_origin"}
    return checks
