"""Adaptive propagation of complex solutions of u'' + J(r) u = 0.

The stepper is an explicit embedded Runge-Kutta pair (Verner's "most
robust" 6(5), nine stages, FSAL-style error stage) applied to the
first-order system (u, u').  One complex solution is advanced as the
scalar pair (u, du).  J and the tableau are real, so the integration
commutes with conjugation: the conjugate solution u* is obtained by
conjugating the result and is never propagated itself.

The Wronskian of the solution with its conjugate,

    W[u, u*] = u du* - du u* = -i J[u],

is a conserved quantity (the current, up to a factor).  Its maximum
relative drift is recorded; a run whose drift exceeds the config
tolerance raises :class:`DriftExceeded`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DriftExceeded, StepUnderflow
from .model import ValidatedConfig, invariant_callable

__all__ = ["StateVector", "StepStats", "Trajectory", "propagate"]


@dataclass(frozen=True)
class StateVector:
    """Solution sample (r, u, du/dr)."""

    r: float
    u: complex
    du: complex

    def conjugate(self) -> "StateVector":
        """The conjugate solution's sample at the same radius."""
        return StateVector(self.r, self.u.conjugate(), self.du.conjugate())


@dataclass(frozen=True)
class StepStats:
    n_steps: int
    n_rejected: int


@dataclass(frozen=True)
class Trajectory:
    """Result of one propagation.

    ``final`` is the solution at the target radius; the conjugate
    solution ends at its conjugate.  ``wronskian_drift`` is the maximum
    drift of W[u, u*] over the accepted steps, relative to its initial
    value.
    """

    final: StateVector
    wronskian_drift: float
    step_stats: StepStats
    local_tol: float


# Verner 6(5) tableau: 6th-order propagating solution with an embedded
# 5th-order error estimate; stage 9 is f at the accepted point (FSAL).
_C = (0.0, 9 / 50, 1 / 6, 1 / 4, 53 / 100, 3 / 5, 4 / 5, 1.0, 1.0)
_A = (
    (),
    (9 / 50,),
    (29 / 324, 25 / 324),
    (1 / 16, 0.0, 3 / 16),
    (79129 / 250000, 0.0, -261237 / 250000, 19663 / 15625),
    (1336883 / 4909125, 0.0, -25476 / 30875, 194159 / 185250, 8225 / 78546),
    (
        -2459386 / 14727375,
        0.0,
        19504 / 30875,
        2377474 / 13615875,
        -6157250 / 5773131,
        902 / 735,
    ),
    (2699 / 7410, 0.0, -252 / 1235, -1393253 / 3993990, 236875 / 72618, -135 / 49, 15 / 22),
    (11 / 144, 0.0, 0.0, 256 / 693, 0.0, 125 / 504, 125 / 528, 5 / 72),
)
_B6 = (11 / 144, 0.0, 0.0, 256 / 693, 0.0, 125 / 504, 125 / 528, 5 / 72, 0.0)
_B5 = (
    28 / 477,
    0.0,
    0.0,
    212 / 441,
    -312500 / 366177,
    2125 / 1764,
    0.0,
    -2105 / 35532,
    2995 / 17766,
)
_E = tuple(b6 - b5 for b6, b5 in zip(_B6, _B5))

_ORDER_EXP = 1.0 / 6.0
_MAX_STEPS = 2_000_000
_MAX_CONSECUTIVE_REJECTS = 64
_WAVELENGTH_FRACTION = 0.4


def _run(jfun, u, du, r0, r1, rtol):
    """Advance (u, du) from r0 to r1; returns (end, stats, drift).

    ``end`` is the (r, u, du) tuple at r1; ``drift`` is the maximum
    deviation of W[u, u*] from its initial value, relative to that value.
    Stage i of a step is the pair (u_i, d_i) with derivative (d_i, g_i),
    g_i = -J(r + c_i h) u_i; stage 0 is the current point and stage 8
    the accepted one.  Stages 7 and 8 both sit at r + h and share J.
    """
    direction = 1.0 if r1 >= r0 else -1.0
    span = abs(r1 - r0)
    if span == 0.0:
        return (r0, u, du), StepStats(0, 0), 0.0

    # the tableau with its zero entries dropped; c7 = c8 = 1
    _, c1, c2, c3, c4, c5, c6, _, _ = _C
    (a10,) = _A[1]
    a20, a21 = _A[2]
    a30, _, a32 = _A[3]
    a40, _, a42, a43 = _A[4]
    a50, _, a52, a53, a54 = _A[5]
    a60, _, a62, a63, a64, a65 = _A[6]
    a70, _, a72, a73, a74, a75, a76 = _A[7]
    b0, _, _, b3, _, b5, b6, b7, _ = _B6
    e0, _, _, e3, e4, e5, e6, e7, e8 = _E
    sqrt = math.sqrt

    # W[u, u*] = 2i Im(u du*); its imaginary half is what drifts
    s0 = u.imag * du.real - u.real * du.imag
    s_scale = max(abs(s0), 1e-300)
    dev_max = 0.0

    j = jfun(r0)
    wavelen = 2.0 * math.pi / sqrt(abs(j)) if j != 0.0 else span
    h = direction * min(span, _WAVELENGTH_FRACTION * wavelen, span * 0.1 + 1e-12 * span)
    if h == 0.0:
        h = direction * span * 1e-3

    r = r0
    g = -j * u
    n_steps = 0
    n_rejected = 0
    rejects_in_row = 0

    while (r1 - r) * direction > 0.0:
        if n_steps + n_rejected > _MAX_STEPS:
            raise StepUnderflow(f"step budget exhausted at r={r}")
        remaining = r1 - r
        if abs(h) > abs(remaining):
            h = remaining
        if abs(h) < 5e-16 * max(abs(r), 1.0):
            raise StepUnderflow(f"step size underflow at r={r}: h={h}")

        u1 = u + h * (a10 * du)
        d1 = du + h * (a10 * g)
        g1 = -jfun(r + c1 * h) * u1
        u2 = u + h * (a20 * du + a21 * d1)
        d2 = du + h * (a20 * g + a21 * g1)
        g2 = -jfun(r + c2 * h) * u2
        u3 = u + h * (a30 * du + a32 * d2)
        d3 = du + h * (a30 * g + a32 * g2)
        g3 = -jfun(r + c3 * h) * u3
        u4 = u + h * (a40 * du + a42 * d2 + a43 * d3)
        d4 = du + h * (a40 * g + a42 * g2 + a43 * g3)
        g4 = -jfun(r + c4 * h) * u4
        u5 = u + h * (a50 * du + a52 * d2 + a53 * d3 + a54 * d4)
        d5 = du + h * (a50 * g + a52 * g2 + a53 * g3 + a54 * g4)
        g5 = -jfun(r + c5 * h) * u5
        u6 = u + h * (a60 * du + a62 * d2 + a63 * d3 + a64 * d4 + a65 * d5)
        d6 = du + h * (a60 * g + a62 * g2 + a63 * g3 + a64 * g4 + a65 * g5)
        g6 = -jfun(r + c6 * h) * u6
        u7 = u + h * (a70 * du + a72 * d2 + a73 * d3 + a74 * d4 + a75 * d5 + a76 * d6)
        d7 = du + h * (a70 * g + a72 * g2 + a73 * g3 + a74 * g4 + a75 * g5 + a76 * g6)
        j_new = jfun(r + h)
        g7 = -j_new * u7
        u_new = u + h * (b0 * du + b3 * d3 + b5 * d5 + b6 * d6 + b7 * d7)
        du_new = du + h * (b0 * g + b3 * g3 + b5 * g5 + b6 * g6 + b7 * g7)
        g_new = -j_new * u_new

        eu = abs(h * (e0 * du + e3 * d3 + e4 * d4 + e5 * d5 + e6 * d6 + e7 * d7 + e8 * du_new))
        ed = abs(h * (e0 * g + e3 * g3 + e4 * g4 + e5 * g5 + e6 * g6 + e7 * g7 + e8 * g_new))
        # RMS over (u, du) of the error relative to each component's size;
        # a component that is zero at both ends is left out
        su = rtol * max(abs(u), abs(u_new))
        sd = rtol * max(abs(du), abs(du_new))
        if su and sd:
            qu = eu / su
            qd = ed / sd
            norm = sqrt((qu * qu + qd * qd) / 2)
        else:
            norm = eu / su if su else (ed / sd if sd else 0.0)

        if norm <= 1.0:
            r = r + h
            u = u_new
            du = du_new
            g = g_new
            n_steps += 1
            rejects_in_row = 0
            dev = abs(u.imag * du.real - u.real * du.imag - s0)
            if dev > dev_max:
                dev_max = dev
            factor = 0.9 * norm ** (-_ORDER_EXP) if norm > 0.0 else 6.0
            factor = min(6.0, max(0.25, factor))
            h = h * factor
        else:
            n_rejected += 1
            rejects_in_row += 1
            if rejects_in_row > _MAX_CONSECUTIVE_REJECTS:
                raise StepUnderflow(f"persistent step rejection at r={r}")
            factor = max(0.1, 0.9 * norm ** (-_ORDER_EXP))
            h = h * factor

    return (r, u, du), StepStats(n_steps, n_rejected), dev_max / s_scale


def propagate(
    config: ValidatedConfig,
    init: StateVector,
    r_target: float,
    *,
    local_tol: float | None = None,
) -> Trajectory:
    """Propagate ``init`` from its radius to ``r_target``.

    Parameters
    ----------
    config : ValidatedConfig
        Supplies J(r) and the tolerance ``tol``, which also bounds the
        relative drift of W[u, u*].
    init : StateVector
        Starting state; must be finite with r > 0.
    r_target : float
        Final radius (either direction).
    local_tol : float, optional
        Per-step relative error target.  Defaults to tol / 100 and is
        floored at 4e-15; ``Trajectory.local_tol`` is the value used.

    Raises
    ------
    StepUnderflow
        Step control collapsed (stiffness budget exceeded).
    DriftExceeded
        The relative drift of W[u, u*] exceeds ``tol``.
    """
    for z in (init.u, init.du):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("initial state has non-finite components")
    if init.r <= 0.0 or r_target <= 0.0:
        raise ValueError("radii must be positive")

    jfun = invariant_callable(config)
    rtol = local_tol if local_tol is not None else config.tol / 100.0
    rtol = max(rtol, 4e-15)

    end, stats, drift = _run(jfun, init.u, init.du, init.r, r_target, rtol)
    if drift > config.tol:
        raise DriftExceeded(
            f"Wronskian drift {drift:.3e} exceeds budget {config.tol:.3e} "
            f"(local_tol={rtol:.1e})"
        )

    return Trajectory(
        final=StateVector(*end),
        wronskian_drift=drift,
        step_stats=stats,
        local_tol=rtol,
    )
