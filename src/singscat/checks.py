"""The invariant suite of one solve.

:func:`solve_checks` reads the solved matrix: ``su11`` (the SU(1,1)
defect), ``unitarity_right`` (|R|^2 + |T|^2 = 1),
``sign_correspondence`` of |S| against |Omega|, at p = 4 with no W
``self_dual_phase`` (b = -i b*, which the power-law duality gives
there; see :mod:`singscat.bases`) and, on the degenerate branch,
``degenerate_spread`` of the constant map.  :func:`verify_checks` adds
the costlier ones: ``global_error`` (a re-extraction at a finer step
tolerance from half the inner radius, projected at twice the far
matching radius, so that it sees both truncations too),
``cauchy_consistency`` and ``uniform_average`` (boundary samples
against direct values), ``mu_covariance_phase`` and
``mu_covariance_moduli`` (scale covariance of R for p = 2), and
``current_outgoing`` and ``current_origin`` (the unit currents of both
bases).

Every check here can fail on some matrix.  Identities that
M = [[a, b], [b*, a*]] obeys for any a != 0 (the left-moving unitarity
and Stokes relations, unimodularity on the circle, the Blaschke phase
identities, the Blaschke form itself and the inverse map round trip)
and the limits of J are asserted by the test suite instead; the
Wronskian drift is enforced by a raise in :func:`singscat.propagate`,
and its value stays in :class:`singscat.TransferResiduals`.

Each check is a dict ``{"name", "measured", "tolerance", "status"}``
with status ``"pass"``, ``"fail"`` or ``"skipped"``; the command-line
reports serialise these lists as they are.
"""

from __future__ import annotations

import cmath
import math

from . import bases, connect, disk
from .currents import current
from .model import ValidatedConfig

__all__ = ["solve_checks", "verify_checks"]


def _check(name: str, measured: float, tolerance: float, skipped: bool = False) -> dict:
    status = "skipped" if skipped else ("pass" if measured <= tolerance else "fail")
    return {
        "name": name,
        "measured": measured,
        "tolerance": tolerance,
        "status": status,
    }


def solve_checks(
    config: ValidatedConfig,
    m: connect.TransferMatrix,
    coeffs: connect.ScatteringCoefficients,
    smap: connect.SMatrixMap,
) -> list[dict]:
    """Checks on a solved matrix that need no further extraction; the
    ``checks`` block of a ``solve`` report."""
    tol = config.tol
    degenerate = smap.degenerate
    # su11 / |a|^2 is the unitarity_right defect, so su11 scaled down by
    # anything of at least |a|^2 is no further check
    u_right = abs(abs(coeffs.R) ** 2 + abs(coeffs.T) ** 2 - 1.0)
    checks = [
        _check("su11", m.residuals.su11_defect, 100.0 * tol, skipped=degenerate),
        _check("unitarity_right", u_right, 100.0 * tol),
    ]

    sign_violation = 0.0
    for mod in (0.5, 2.0):
        for j in range(8):
            om = mod * cmath.exp(2j * math.pi * (j + 0.37) / 8)
            lhs = abs(connect.s_matrix(m, om)) ** 2 - 1.0
            rhs = abs(om) ** 2 - 1.0
            if abs(lhs) > tol and math.copysign(1.0, lhs) != math.copysign(1.0, rhs):
                sign_violation = max(sign_violation, abs(lhs))
    checks.append(_check("sign_correspondence", sign_violation, tol))

    if config.p == 4.0 and config.extra_potential is None:
        # the dual problem is the problem itself up to scale, so
        # b = -i b*: a global phase error in u+ turns arg b off -pi/4
        # (mod pi), which no modulus and no identity of M can see
        dual = abs(m.b + 1j * m.b.conjugate()) / max(1.0, abs(m.a))
        checks.append(_check("self_dual_phase", dual, tol))

    if degenerate:
        vals = [
            connect.s_matrix(m, 0.6 * (j + 1) / 16 * cmath.exp(2j * math.pi * j / 16))
            for j in range(16)
        ]
        spread = max(abs(v - vals[0]) for v in vals)
        checks.append(_check("degenerate_spread", spread, connect._constant_map_tol(tol)))

    return checks


def verify_checks(
    config: ValidatedConfig,
    m: connect.TransferMatrix,
    coeffs: connect.ScatteringCoefficients,
    smap: connect.SMatrixMap,
    nodes: int,
) -> list[dict]:
    """Checks that ``verify`` runs on top of :func:`solve_checks`, with
    ``nodes`` boundary samples for the Cauchy reconstruction."""
    tol = config.tol
    checks: list[dict] = [
        _check("global_error", connect._global_error(config, m), tol)
    ]

    samples = disk.UnitaryFamilySample.uniform_grid(
        nodes, lambda om: connect.s_matrix(m, om)
    )
    worst = 0.0
    for om in (0.0 + 0j, 0.3 + 0j, 0.5 + 0.2j, 0.9 + 0j):
        rec = disk.cauchy_reconstruct(samples, om)
        worst = max(worst, abs(rec - connect.s_matrix(m, om)))
    checks.append(_check("cauchy_consistency", worst, 100.0 * tol))
    avg = disk.absorption_average(samples)
    checks.append(_check("uniform_average", abs(avg - coeffs.Rp), 10.0 * tol))

    if config.is_conformal and not smap.degenerate:
        m2 = connect.transfer_matrix(config.replaced(mu=2.0 * config.mu))
        c2 = connect.scattering_coefficients(m2)
        turn = cmath.exp(-2j * config.theta * math.log(2.0))
        shift = cmath.phase(c2.R / coeffs.R * turn)
        mods = max(
            abs(abs(c2.R) - abs(coeffs.R)), abs(abs(c2.T) - abs(coeffs.T))
        )
        checks.append(_check("mu_covariance_phase", abs(shift), 100.0 * tol))
        checks.append(_check("mu_covariance_moduli", mods, 10.0 * tol))

    # the conjugate member carries exactly minus each current
    far = bases.eval_asymptotic(config, m.residuals.r_max_used)
    j1 = current(far.state)
    cur_tol = max(100.0 * tol, 10.0 * far.trunc_error)
    checks.append(_check("current_outgoing", abs(j1.real - 2.0), cur_tol))

    near = bases.eval_singularity(config, m.residuals.r_min_used)
    jp = current(near.state)
    near_tol = max(100.0 * tol, 10.0 * near.trunc_error)
    checks.append(_check("current_origin", abs(jp.real - 2.0), near_tol))

    return checks
