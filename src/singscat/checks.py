"""The invariant suite of one solve.

The reduced S-matrix is checked against the identities it must obey:
SU(1,1) form and current conservation of the transfer matrix, unitarity
and Stokes reciprocity of the amplitudes, the circle and sign
correspondence of S(Omega), the Blaschke phase identities and the disk
automorphism.  :func:`verify_checks` adds the costlier ones: a
re-extraction at a finer step tolerance, Cauchy reconstruction from
boundary samples, scale covariance for p = 2, unit currents of both
bases and the limits of the normal invariant.

Each check is a dict ``{"name", "measured", "tolerance", "status"}``
with status ``"pass"``, ``"fail"`` or ``"skipped"``; the command-line
reports serialise these lists as they are.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import bases, connect, disk
from .currents import current
from .model import ValidatedConfig, normal_invariant

__all__ = ["solve_checks", "verify_checks"]

_RNG_SEED = 20240801


def _wrap_angle(x: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    y = math.fmod(x, 2.0 * math.pi)
    if y <= -math.pi:
        y += 2.0 * math.pi
    elif y > math.pi:
        y -= 2.0 * math.pi
    return y


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
    res = m.residuals
    degenerate = smap.degenerate
    checks: list[dict] = []

    checks.append(_check("su11", res.su11_defect, 100.0 * tol, skipped=degenerate))
    checks.append(_check("su11_normalized", m.su11_defect_normalized, 100.0 * tol))
    checks.append(_check("wronskian_drift", res.wronskian_drift, 10.0 * tol))
    stab = max(res.stabilization_diff, res.basis_trunc)
    checks.append(_check("stabilization", stab, tol))

    u_right = abs(abs(coeffs.R) ** 2 + abs(coeffs.T) ** 2 - 1.0)
    u_left = abs(abs(coeffs.Rp) ** 2 + abs(coeffs.Tp) ** 2 - 1.0)
    stokes = abs(coeffs.R.conjugate() * coeffs.Tp + coeffs.T.conjugate() * coeffs.Rp)
    checks.append(_check("unitarity_right", u_right, 100.0 * tol))
    checks.append(_check("unitarity_left", u_left, 100.0 * tol))
    checks.append(_check("stokes_reciprocity", stokes, 100.0 * tol))

    circle = max(
        abs(abs(connect.s_matrix(m, cmath.exp(2j * math.pi * j / 64))) - 1.0)
        for j in range(64)
    )
    checks.append(_check("circle_mapping", circle, 100.0 * tol))

    sign_violation = 0.0
    for mod in (0.5, 2.0):
        for j in range(8):
            om = mod * cmath.exp(2j * math.pi * (j + 0.37) / 8)
            lhs = abs(connect.s_matrix(m, om)) ** 2 - 1.0
            rhs = abs(om) ** 2 - 1.0
            if abs(lhs) > tol and math.copysign(1.0, lhs) != math.copysign(1.0, rhs):
                sign_violation = max(sign_violation, abs(lhs))
    checks.append(_check("sign_correspondence", sign_violation, tol))

    delta = smap.delta
    checks.append(_check("phase_modulus", abs(abs(delta) - 1.0), 10.0 * tol))
    checks.append(
        _check("phase_transmission", abs(delta + coeffs.T / coeffs.T.conjugate()), 100.0 * tol)
    )
    checks.append(
        _check("phase_reflection", abs(delta - coeffs.Rp / coeffs.R.conjugate()), 100.0 * tol)
    )

    rng = np.random.default_rng(_RNG_SEED)
    mob = 0.0
    auto = 0.0
    for _ in range(100):
        om = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
        via_ab = connect.s_matrix(m, om)
        if not degenerate:
            via_blaschke = delta * (om - smap.zero) / (coeffs.R * om - 1.0)
            mob = max(mob, abs(via_ab - via_blaschke))
        if abs(om) < 0.95:
            back = connect.s_matrix_inverse(m, via_ab)
            auto = max(auto, abs(back - om))
    checks.append(_check("mobius_exactness", mob, 100.0 * tol, skipped=degenerate))
    checks.append(_check("disk_automorphism", auto, 100.0 * tol))

    if degenerate:
        spread = 0.0
        vals = []
        for j in range(16):
            om = 0.6 * (j + 1) / 16 * cmath.exp(2j * math.pi * j / 16)
            vals.append(connect.s_matrix(m, om))
        spread = max(abs(v - vals[0]) for v in vals)
        checks.append(_check("degenerate_spread", spread, max(1e-6, 100.0 * tol)))

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
        m2 = connect.transfer_matrix(config.with_mu(2.0 * config.mu))
        c2 = connect.scattering_coefficients(m2)
        shift = _wrap_angle(
            cmath.phase(c2.R / coeffs.R) - 2.0 * config.theta * math.log(2.0)
        )
        mods = max(
            abs(abs(c2.R) - abs(coeffs.R)), abs(abs(c2.T) - abs(coeffs.T))
        )
        checks.append(_check("mu_covariance_phase", abs(shift), 100.0 * tol))
        checks.append(_check("mu_covariance_moduli", mods, 10.0 * tol))

    # the conjugate member carries exactly minus each current
    far = bases.eval_asymptotic(config, m.residuals.r_max_used, raise_on_error=False)
    j1 = current(far.state)
    cur_tol = max(100.0 * tol, 10.0 * far.trunc_error)
    checks.append(_check("current_outgoing", abs(j1.real - 2.0), cur_tol))

    near = bases.eval_singularity(config, m.residuals.r_min_used, raise_on_error=False)
    jp = current(near.state)
    near_tol = max(100.0 * tol, 10.0 * near.trunc_error)
    checks.append(_check("current_origin", abs(jp.real - 2.0), near_tol))

    p, lam, k2, ep = config.p, config.lam, config.k ** 2, config.extra_potential
    r1 = 1e-3 * m.residuals.r_min_used
    j_origin = abs(normal_invariant(config, r1) * r1 ** p / lam - 1.0)
    cf = abs(config.l_plus_nu ** 2 - 0.25) if not config.is_conformal else 0.0
    w1 = abs(ep.value(r1)) if ep else 0.0
    bound1 = 2.0 * (k2 * r1 ** p + cf * r1 ** (p - 2.0) + w1 * r1 ** p) / lam + tol
    checks.append(_check("invariant_origin_limit", j_origin, bound1))

    r2 = max(1e6, 100.0 * m.residuals.r_max_used)
    j_far = abs(normal_invariant(config, r2) - k2) / k2
    w2 = abs(ep.value(r2)) if ep else 0.0
    bound2 = 2.0 * (lam * r2 ** (-p) + cf / r2 ** 2 + w2) / k2 + tol
    checks.append(_check("invariant_far_limit", j_far, bound2))

    return checks
