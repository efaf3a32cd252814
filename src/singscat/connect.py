"""Connection between the near-origin and far-field bases.

The two-channel problem is solved by propagating the near-origin
solution u+ outward and resolving it in the far-field basis by
Wronskian projection:

    C1 = W[u2, w] / W[u2, u1],      C2 = W[u1, w] / W[u1, u2].

Wronskians of solutions are r-independent, so the projections can be
evaluated at any radius in the far-field region.  The solution is
propagated in one leg from the inner radius to the far matching radius,
the smallest radius where the far basis meets its truncation share of
``tol``, and projected once there.  Both bases are closed under
conjugation (u- = u+*, u2 = u1*), so u- resolves as (C2+*, C1+*) and
the map (C+, C-) -> (C1, C2) has the form

    M = [[a, b], [b*, a*]],        a = C1+,  b = C2+*,

by construction.  Conservation of the current adds |a|^2 - |b|^2 = 1,
whose defect is recorded as a diagnostic rather than silently repaired.
``verify``'s global error checks the integration and both truncation
estimates together: it re-extracts at a finer step tolerance from half
the inner radius and projects at twice the far matching radius.

From M follow the reflection/transmission amplitudes, and the reduced
S-matrix as a function of the boundary-condition parameter Omega (the
ratio of outgoing to ingoing amplitude at the origin):

    S(Omega) = (a Omega + b) / (b* Omega + a*)
             = Delta (Omega - R*) / (R Omega - 1),

a single Blaschke factor: a disk automorphism with its only zero at
Omega1 = R* inside the unit disk, its only pole at Omega2 = 1/R outside,
and global phase Delta = -a/a* = -T/T* = R'/R*.  For |R| -> 1 the zero
and pole collide on the boundary and the map degenerates to a constant
of modulus one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import bases
from .currents import wronskian
from .errors import DegenerateTransmission, PoleProximity, SingularRegionTooFar
from .integrate import StateVector, propagate
from .model import ValidatedConfig, kr_coefficient

__all__ = [
    "OMEGA_INFINITY",
    "TransferResiduals",
    "TransferMatrix",
    "ScatteringCoefficients",
    "SMatrixMap",
    "transfer_matrix",
    "scattering_coefficients",
    "s_matrix",
    "s_matrix_inverse",
    "blaschke_params",
]

#: Projective point Omega = infinity (pure-outgoing boundary condition).
OMEGA_INFINITY = complex(math.inf, 0.0)


def _is_inf(z: complex) -> bool:
    return math.isinf(z.real) or math.isinf(z.imag)


@dataclass(frozen=True)
class TransferResiduals:
    """Measured defects and bookkeeping of one extraction."""

    su11_defect: float           # | |a|^2 - |b|^2 - 1 |
    wronskian_drift: float       # conservation drift over the leg
    basis_trunc: float           # far-field basis truncation at r_max_used
    r_min_used: float
    r_max_used: float
    local_tol: float             # per-step tolerance of the leg


@dataclass(frozen=True)
class TransferMatrix:
    """Map (C+, C-) -> (C1, C2) in the form [[a, b], [b*, a*]]."""

    a: complex
    b: complex
    residuals: TransferResiduals


@dataclass(frozen=True)
class ScatteringCoefficients:
    """Right-moving (R, T) and left-moving (R', T') amplitudes."""

    R: complex
    T: complex
    Rp: complex
    Tp: complex


@dataclass(frozen=True)
class SMatrixMap:
    """Blaschke-factor form of the reduced S-matrix.

    ``zero`` and ``pole`` are withheld (None) on the degenerate branch
    |R| -> 1, where the map collapses to the constant ``constant`` of
    modulus one.
    """

    delta: complex
    zero: complex | None
    pole: complex | None
    degenerate: bool
    constant: complex | None


def _project(config: ValidatedConfig, state: StateVector) -> tuple[complex, complex, float]:
    """Resolve a state in the far-field basis at its own radius; also
    return the basis truncation there."""
    far = bases.eval_asymptotic(config, state.r)
    one = far.state
    two = one.conjugate()
    w21 = wronskian(two, one)
    c1 = wronskian(two, state) / w21
    c2 = wronskian(one, state) / (-w21)
    return c1, c2, far.trunc_error


def transfer_matrix(config: ValidatedConfig) -> TransferMatrix:
    """Extract the transfer matrix of a validated configuration, at unit k.

    Initializes the outgoing solution from the near-origin basis at the
    inner radius of :func:`singscat.choose_r_min`, propagates it in one
    leg to the far matching radius of :func:`singscat.choose_r_max_start`
    and projects it onto the far-field basis there.  Each basis spends at
    most 0.1 ``tol`` on truncation at its radius; ``verify``'s
    ``global_error`` checks both estimates and the integration together.

    Raises
    ------
    SingularRegionTooFar
        The near-origin basis is not finite at the inner radius.
    DriftExceeded
        The leg's Wronskian drift exceeded ``tol``.
    """
    return _extract(config, config.tol / 2000.0)


def _global_error(config: ValidatedConfig, m: TransferMatrix) -> float:
    """max(|da|, |db|) / max(1, |a|) between ``m`` and a re-extraction at
    1/30 of the per-step tolerance ``m`` was extracted at, started at half
    ``m``'s inner radius and projected at max(2 r, r + pi/k) from its far
    matching radius r.

    The conservation and unitarity residuals cannot see an error in the
    global phase of a solution; this estimate of the integration error
    and of both bases' truncation at ``m``'s radii can.
    """
    res = m.residuals
    r = res.r_max_used
    fine = _extract(config, res.local_tol / 30.0, 0.5 * res.r_min_used,
                    max(2.0 * r, r + math.pi / config.k))
    return max(abs(fine.a - m.a), abs(fine.b - m.b)) / max(1.0, abs(m.a))


def _unit_k(config: ValidatedConfig) -> tuple[complex, ValidatedConfig]:
    """The problem in r' = k r, where J / k^2 has k' = 1, terms c k^(q-2) r'^(-q)
    and a Gaussian W (h / k^2, k c, k w), and the phase phi that maps its
    (a', b') back: a = phi a', b = phi* b'.  Both bases carry unit current
    in their own variable; only p = 2's (mu r)^(i theta) = (mu/k)^(i theta)
    r'^(i theta) turns (a, b), so mu' = 1 and phi = exp(i theta ln(mu/k))."""
    k, ep = config.k, config.extra_potential
    phase = (cmath.exp(1j * config.theta * (math.log(config.mu) - math.log(k)))
             if config.is_conformal else 1.0)
    return phase, config.replaced(lam=kr_coefficient(config.lam, config.p, k), k=1.0, mu=1.0,
                                  extra_potential=ep and ep.in_kr(k))


def _extract(
    config: ValidatedConfig,
    local_tol: float,
    r_min: float | None = None,
    r_max: float | None = None,
) -> TransferMatrix:
    """One leg at unit k (:func:`_unit_k`) at per-step tolerance ``local_tol``
    from ``r_min`` and one projection at ``r_max``, in the caller's units, by
    default the inner and far matching radii."""
    phase, unit = _unit_k(config)
    r_min = bases.choose_r_min(unit) if r_min is None else config.k * r_min
    near = bases.eval_singularity(unit, r_min).state
    if not (cmath.isfinite(near.u) and cmath.isfinite(near.du)):
        raise SingularRegionTooFar(
            f"the near-origin basis is not finite at the inner radius kr = {r_min:.3e} "
            f"(lambda = {config.lam:g}, p = {config.p:g})"
        )
    r_max = bases.choose_r_max_start(unit) if r_max is None else config.k * r_max
    leg = propagate(unit, near, r_max, local_tol=local_tol)
    a, c2, trunc = _project(unit, leg.final)
    a, b = phase * a, (phase * c2).conjugate()
    residuals = TransferResiduals(
        su11_defect=abs(abs(a) ** 2 - abs(b) ** 2 - 1.0),
        wronskian_drift=leg.wronskian_drift,
        basis_trunc=trunc,
        r_min_used=r_min / config.k,
        r_max_used=r_max / config.k,
        local_tol=local_tol,
    )
    return TransferMatrix(a=a, b=b, residuals=residuals)


def scattering_coefficients(
    m: TransferMatrix, *, tol: float | None = None
) -> ScatteringCoefficients:
    """Amplitudes (R, T, R', T') of the standard 1D scattering problem.

    These follow from requiring (u+ + R u-) -> T u1 and
    T' u- <- (u2 + R' u1):

        R = -b*/a*,  T = T' = 1/a*,  R' = b/a*.

    Raises :class:`DegenerateTransmission` when |a| exceeds 1/tol and the
    transmission is numerically indistinguishable from zero.
    """
    astar = m.a.conjugate()
    if tol is not None and abs(m.a) > 1.0 / tol:
        raise DegenerateTransmission(f"|a|={abs(m.a):.3e} exceeds 1/tol")
    return ScatteringCoefficients(
        R=-m.b.conjugate() / astar,
        T=1.0 / astar,
        Rp=m.b / astar,
        Tp=1.0 / astar,
    )


def s_matrix(m: TransferMatrix, omega: complex, *, tol: float = 1e-13) -> complex:
    """Reduced S-matrix at boundary-condition parameter Omega.

    Evaluates S = (a x + b y) / (b* x + a* y) in one chart of the Omega
    sphere: (x, y) = (Omega, 1) on the closed unit disk and (1, 1/Omega)
    outside it, so no product overflows for finite Omega; the projective
    point :data:`OMEGA_INFINITY` is 1/Omega = 0 (S = a/b*).  Raises
    :class:`PoleProximity` where |b* x + a* y| < tol |y| max(|a|, |b|),
    which is |Omega - pole| < tol max(1, |pole|) in the disk's chart.
    """
    if _is_inf(omega):
        x, y = 1.0, 0.0
    elif abs(omega) <= 1.0:
        x, y = omega, 1.0
    else:
        x, y = 1.0, 1.0 / omega
    den = m.b.conjugate() * x + m.a.conjugate() * y
    if den == 0 or abs(den) < tol * abs(y) * max(abs(m.a), abs(m.b)):
        raise PoleProximity(f"Omega={omega} within {tol:.1e} of the pole -a*/b*")
    return (m.a * x + m.b * y) / den


def s_matrix_inverse(m: TransferMatrix, value: complex) -> complex:
    """Preimage Omega of a reduced S-matrix value (inverse Moebius map)."""
    num = m.a.conjugate() * value - m.b
    den = -m.b.conjugate() * value + m.a
    if den == 0:
        return OMEGA_INFINITY
    return num / den


def _constant_map_tol(tol: float) -> float:
    """How far S(Omega) may move over |Omega| <= 0.6 and still be reported
    as the constant of the degenerate branch."""
    return max(1e-6, 100.0 * tol)


def blaschke_params(m: TransferMatrix, *, tol: float = 1e-10) -> SMatrixMap:
    """Zero, pole and global phase of the single-Blaschke-factor map.

    The zero is the preimage of S = 0, which is R*.  Over |Omega| <= 0.6
    the values of a disk automorphism with |S(0)| = |R| differ by at
    most 1.2 (1 - |R|^2) / (1 - 0.36 |R|^2), less than 4 (1 - |R|).
    Where that bound is within :func:`_constant_map_tol` the degenerate
    branch is taken: the map is reported as the Omega-independent
    constant S(0) = R' of modulus one, and zero/pole are withheld.
    """
    coeffs = scattering_coefficients(m)
    delta = -m.a / m.a.conjugate()
    r_mod = abs(coeffs.R)
    if 4.0 * (1.0 - r_mod) <= _constant_map_tol(tol):
        return SMatrixMap(
            delta=delta,
            zero=None,
            pole=None,
            degenerate=True,
            constant=coeffs.Rp,
        )
    zero = s_matrix_inverse(m, 0j)
    pole = OMEGA_INFINITY if coeffs.R == 0 else 1.0 / coeffs.R
    return SMatrixMap(
        delta=delta,
        zero=zero,
        pole=pole,
        degenerate=False,
        constant=None,
    )
