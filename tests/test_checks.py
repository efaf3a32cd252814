import cmath
import dataclasses
import math

from singscat import blaschke_params, scattering_coefficients
from singscat.checks import solve_checks, verify_checks
from tests.conftest import isp_config
from tests.test_connect import _DUMMY_RES, fake_matrix

CFG = isp_config(1.0)
T = 0.5
A, B = math.cosh(T), math.sinh(T) * cmath.exp(0.3j)


def failing(checks: list[dict]) -> set[str]:
    return {c["name"] for c in checks if c["status"] == "fail"}


def solve_checks_of(m) -> list[dict]:
    return solve_checks(
        CFG, m, scattering_coefficients(m, tol=CFG.tol), blaschke_params(m, tol=CFG.tol)
    )


def with_residuals(**changes):
    m = fake_matrix(A, B)
    return dataclasses.replace(m, residuals=dataclasses.replace(_DUMMY_RES, **changes))


def test_exact_matrix_passes_every_check():
    checks = solve_checks_of(fake_matrix(A, B))
    assert failing(checks) == set()
    assert {c["status"] for c in checks} == {"pass"}


def test_unstabilized_matrix_fails_stabilization():
    checks = solve_checks_of(with_residuals(stabilization_diff=10.0 * CFG.tol))
    assert failing(checks) == {"stabilization"}


def test_su11_defect_fails_su11():
    checks = solve_checks_of(with_residuals(su11_defect=1e3 * CFG.tol))
    # |a|^2 + |b|^2 = cosh(2T) < 10, so the normalized defect fails too
    assert failing(checks) == {"su11", "su11_normalized"}


def test_phase_rotated_solve_fails_global_error(solved):
    # a common phase of a leaves every modulus and the Blaschke structure
    # intact; only the re-extraction at a finer step tolerance sees it
    sol = solved("isp1")
    m = dataclasses.replace(sol.matrix, a=sol.matrix.a * cmath.exp(1e-6j))
    coeffs = scattering_coefficients(m, tol=CFG.tol)
    smap = blaschke_params(m, tol=CFG.tol)
    assert failing(solve_checks(sol.config, m, coeffs, smap)) == set()
    checks = verify_checks(sol.config, m, coeffs, smap, 128)
    assert "global_error" in failing(checks)
