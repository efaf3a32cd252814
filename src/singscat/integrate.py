"""Adaptive propagation of complex solutions of u'' + J(r) u = 0.

The stepper is Dormand and Prince's explicit embedded Runge-Kutta method
DOP853, 8(5,3) (twelve stages, FSAL, combined 5th/3rd-order error
estimate), applied to the first-order system (u, u') with compensated
summation of r, u and du.  One complex solution is advanced as the
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


# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# Sec. II.10), as shipped in scipy/integrate/_ivp/dop853_coefficients.py:
# twelve stages, an 8th-order propagating solution, and 5th- and
# 3rd-order error estimates E5, E3 over the same stages.  Stage 11 sits at
# r + h, where the next step's first stage (FSAL) sits too.
_C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
)
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (
        2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ),
    (
        3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ),
    (
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2,
    ),
    (
        3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3,
    ),
    (
        6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
    ),
    (
        4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ),
    (
        -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
        2.49360555267965238987089396762, -3.0467644718982195003823669022,
    ),
    (
        2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
)
_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
)
_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)
# E3 is B less the weights of the embedded 3rd-order solution, which uses
# stages 0, 8 and 11 only
_E3 = tuple(
    b - {0: 0.244094488188976377952755905512,
         8: 0.733846688281611857341361741547,
         11: 0.220588235294117647058823529412e-1}.get(i, 0.0)
    for i, b in enumerate(_B)
)

_ORDER_EXP = 1.0 / 8.0
_MAX_STEPS = 2_000_000
_MAX_CONSECUTIVE_REJECTS = 64
_WAVELENGTH_FRACTION = 0.4


def _run(jfun, u, du, r0, r1, rtol):
    """Advance (u, du) from r0 to r1; returns (end, stats, drift).

    ``end`` is the (r, u, du) tuple at r1; ``drift`` is the maximum
    deviation of W[u, u*] from its initial value, relative to that value.
    Stage i of a step is the pair (u_i, d_i) with derivative (d_i, g_i),
    g_i = -J(r + c_i h) u_i; stage 0 is the current point.  Stage 11 and
    the accepted point both sit at r + h and share J, so a step makes
    eleven J calls.

    r, u and du are accumulated with compensated (Kahan) summation: the
    low-order bits that each ``x += increment`` rounds away are kept in a
    running correction and fed into the next increment (Higham, Accuracy
    and Stability of Numerical Algorithms, Sec. 4.3).  Without it the
    rounding of some 1e5 accumulations, not the truncation error, bounds
    the accuracy of long strong-core legs.
    """
    direction = 1.0 if r1 >= r0 else -1.0
    span = abs(r1 - r0)
    if span == 0.0:
        return (r0, u, du), StepStats(0, 0), 0.0

    # the tableau with its zero entries dropped; c11 = 1
    _, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, _ = _C
    (a1_0,) = _A[1]
    a2_0, a2_1 = _A[2]
    a3_0, _, a3_2 = _A[3]
    a4_0, _, a4_2, a4_3 = _A[4]
    a5_0, _, _, a5_3, a5_4 = _A[5]
    a6_0, _, _, a6_3, a6_4, a6_5 = _A[6]
    a7_0, _, _, a7_3, a7_4, a7_5, a7_6 = _A[7]
    a8_0, _, _, a8_3, a8_4, a8_5, a8_6, a8_7 = _A[8]
    a9_0, _, _, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8 = _A[9]
    a10_0, _, _, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9 = _A[10]
    a11_0, _, _, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10 = _A[11]
    b0, _, _, _, _, b5, b6, b7, b8, b9, b10, b11 = _B
    e0, _, _, _, _, e5, e6, e7, e8, e9, e10, e11 = _E5
    f0, _, _, _, _, f5, f6, f7, f8, f9, f10, f11 = _E3
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
    # compensations: what the last accumulation of r, u, du rounded away
    cr = 0.0
    cu = cd = 0j
    n_steps = 0
    n_rejected = 0
    rejects_in_row = 0

    while (r1 - r) * direction > 0.0:
        if n_steps + n_rejected > _MAX_STEPS:
            raise StepUnderflow(f"step budget exhausted at r={r}")
        remaining = r1 - r
        last = abs(h) >= abs(remaining)
        if last:
            h = remaining
        if abs(h) < 5e-16 * abs(r):
            raise StepUnderflow(f"step size underflow at r={r}: h={h}")

        u1 = u + h * (a1_0 * du)
        d1 = du + h * (a1_0 * g)
        g1 = -jfun(r + c1 * h) * u1
        u2 = u + h * (a2_0 * du + a2_1 * d1)
        d2 = du + h * (a2_0 * g + a2_1 * g1)
        g2 = -jfun(r + c2 * h) * u2
        u3 = u + h * (a3_0 * du + a3_2 * d2)
        d3 = du + h * (a3_0 * g + a3_2 * g2)
        g3 = -jfun(r + c3 * h) * u3
        u4 = u + h * (a4_0 * du + a4_2 * d2 + a4_3 * d3)
        d4 = du + h * (a4_0 * g + a4_2 * g2 + a4_3 * g3)
        g4 = -jfun(r + c4 * h) * u4
        u5 = u + h * (a5_0 * du + a5_3 * d3 + a5_4 * d4)
        d5 = du + h * (a5_0 * g + a5_3 * g3 + a5_4 * g4)
        g5 = -jfun(r + c5 * h) * u5
        u6 = u + h * (a6_0 * du + a6_3 * d3 + a6_4 * d4 + a6_5 * d5)
        d6 = du + h * (a6_0 * g + a6_3 * g3 + a6_4 * g4 + a6_5 * g5)
        g6 = -jfun(r + c6 * h) * u6
        u7 = u + h * (a7_0 * du + a7_3 * d3 + a7_4 * d4 + a7_5 * d5 + a7_6 * d6)
        d7 = du + h * (a7_0 * g + a7_3 * g3 + a7_4 * g4 + a7_5 * g5 + a7_6 * g6)
        g7 = -jfun(r + c7 * h) * u7
        u8 = u + h * (a8_0 * du + a8_3 * d3 + a8_4 * d4 + a8_5 * d5 + a8_6 * d6 + a8_7 * d7)
        d8 = du + h * (a8_0 * g + a8_3 * g3 + a8_4 * g4 + a8_5 * g5 + a8_6 * g6 + a8_7 * g7)
        g8 = -jfun(r + c8 * h) * u8
        u9 = u + h * (a9_0 * du + a9_3 * d3 + a9_4 * d4 + a9_5 * d5 + a9_6 * d6
                      + a9_7 * d7 + a9_8 * d8)
        d9 = du + h * (a9_0 * g + a9_3 * g3 + a9_4 * g4 + a9_5 * g5 + a9_6 * g6
                       + a9_7 * g7 + a9_8 * g8)
        g9 = -jfun(r + c9 * h) * u9
        u10 = u + h * (a10_0 * du + a10_3 * d3 + a10_4 * d4 + a10_5 * d5 + a10_6 * d6
                       + a10_7 * d7 + a10_8 * d8 + a10_9 * d9)
        d10 = du + h * (a10_0 * g + a10_3 * g3 + a10_4 * g4 + a10_5 * g5 + a10_6 * g6
                        + a10_7 * g7 + a10_8 * g8 + a10_9 * g9)
        g10 = -jfun(r + c10 * h) * u10
        u11 = u + h * (a11_0 * du + a11_3 * d3 + a11_4 * d4 + a11_5 * d5 + a11_6 * d6
                       + a11_7 * d7 + a11_8 * d8 + a11_9 * d9 + a11_10 * d10)
        d11 = du + h * (a11_0 * g + a11_3 * g3 + a11_4 * g4 + a11_5 * g5 + a11_6 * g6
                        + a11_7 * g7 + a11_8 * g8 + a11_9 * g9 + a11_10 * g10)
        j_new = jfun(r + h)
        g11 = -j_new * u11

        # compensated candidates u + (increment - cu), du + (increment - cd)
        yu = h * (b0 * du + b5 * d5 + b6 * d6 + b7 * d7 + b8 * d8 + b9 * d9
                  + b10 * d10 + b11 * d11) - cu
        yd = h * (b0 * g + b5 * g5 + b6 * g6 + b7 * g7 + b8 * g8 + b9 * g9
                  + b10 * g10 + b11 * g11) - cd
        u_new = u + yu
        du_new = du + yd

        # DOP853's combined estimate |h| E5^2 / sqrt(E5^2 + 0.01 E3^2)
        # (RMS over the components), each component relative to its size
        e5u = abs(e0 * du + e5 * d5 + e6 * d6 + e7 * d7 + e8 * d8 + e9 * d9
                  + e10 * d10 + e11 * d11)
        e5d = abs(e0 * g + e5 * g5 + e6 * g6 + e7 * g7 + e8 * g8 + e9 * g9
                  + e10 * g10 + e11 * g11)
        e3u = abs(f0 * du + f5 * d5 + f6 * d6 + f7 * d7 + f8 * d8 + f9 * d9
                  + f10 * d10 + f11 * d11)
        e3d = abs(f0 * g + f5 * g5 + f6 * g6 + f7 * g7 + f8 * g8 + f9 * g9
                  + f10 * g10 + f11 * g11)
        su = rtol * max(abs(u), abs(u_new), 1e-300)
        sd = rtol * max(abs(du), abs(du_new), 1e-300)
        x5 = e5u / su
        y5 = e5d / sd
        x3 = e3u / su
        y3 = e3d / sd
        q5 = x5 * x5 + y5 * y5
        q3 = x3 * x3 + y3 * y3
        norm = abs(h) * q5 / sqrt((q5 + 0.01 * q3) * 2) if q5 else 0.0

        if norm <= 1.0:
            cu = (u_new - u) - yu
            cd = (du_new - du) - yd
            u = u_new
            du = du_new
            g = -j_new * u
            n_steps += 1
            rejects_in_row = 0
            dev = abs(u.imag * du.real - u.real * du.imag - s0)
            if dev > dev_max:
                dev_max = dev
            if last:
                r = r1
            else:
                yr = h - cr
                r_new = r + yr
                cr = (r_new - r) - yr
                r = r_new
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
