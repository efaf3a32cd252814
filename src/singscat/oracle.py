"""Closed-form reference for the pure conformal (p = 2) problem.

The equation u'' + [k^2 + (theta^2 + 1/4)/r^2] u = 0 is solved exactly
by sqrt(r) * Z_{i theta}(k r) with Z a Bessel function of imaginary
order.  Matching the small-argument power behavior to the near-origin
basis sqrt(r/theta)(mu r)^(+-i theta) and the large-argument behavior to
the WKB-normalized far-field basis gives the transfer matrix in closed
form:

    a = Gamma(1 + i theta) (2 mu / k)^(+i theta) e^(+pi theta / 2) / sqrt(2 pi theta)
    b = Gamma(1 - i theta) (2 mu / k)^(-i theta) e^(-pi theta / 2) / sqrt(2 pi theta)

from which

    R  = -b*/a* = -e^(-pi theta) (k / 2 mu)^(-2 i theta)
                   * Gamma(1 + i theta) / Gamma(1 - i theta)
    T  = T' = 1/a*,    R' = b/a* = e^(-pi theta),
    |R| = e^(-pi theta),    |T|^2 = 1 - e^(-2 pi theta).

Only Gamma(1 +- i theta) is needed, and Gamma(1 - i theta) is the
conjugate of Gamma(1 + i theta).  Its modulus is closed,
|Gamma(1 + i theta)|^2 = pi theta / sinh(pi theta) (DLMF 5.4.3), which
makes |a|^2 = 1 / (1 - e^(-2 pi theta)) and |b| = e^(-pi theta) |a|:
both are formed without overflow for every theta.  Its phase comes
from Stirling's series (DLMF 5.11.1) at 10 + i theta, shifted down by
the recurrence Gamma(z + 1) = z Gamma(z).  No scipy is needed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = ["IspExactResult", "isp_exact"]

#: Stirling's series is summed at 1 + _SHIFT + i theta, where |z| >= 10
#: puts its first omitted term, B_16 / (240 z^15), below 3e-17.
_SHIFT = 9
#: B_2m / (2m (2m - 1)) for m = 1..7 (DLMF 5.11.1, 24.2.1).
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0)


def _gamma_phase(theta: float) -> float:
    """arg Gamma(1 + i theta), continuous in theta (Im ln Gamma)."""
    z = complex(1.0 + _SHIFT, theta)
    inv, inv2 = 1.0 / z, 1.0 / (z * z)
    series = 0j
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    stirling = ((z - 0.5) * cmath.log(z) - z + series * inv).imag
    return stirling - sum(math.atan2(theta, 1.0 + j) for j in range(_SHIFT))


@dataclass(frozen=True)
class IspExactResult:
    """Exact scattering data of the pure conformal problem."""

    theta: float
    k: float
    mu: float
    a: complex
    b: complex
    R: complex
    T: complex
    Rp: complex
    Tp: complex


def isp_exact(theta: float, k: float, mu: float) -> IspExactResult:
    """Closed-form transfer matrix and amplitudes for p = 2.

    Parameters must all be positive; theta is the oscillation index
    (theta^2 = effective coupling - 1/4).
    """
    if theta <= 0.0 or k <= 0.0 or mu <= 0.0:
        raise ValueError("theta, k, mu must all be positive")
    modulus = 1.0 / math.sqrt(-math.expm1(-2.0 * math.pi * theta))  # |a|
    turn = cmath.exp(1j * (_gamma_phase(theta) + theta * math.log(2.0 * mu / k)))  # a / |a|
    a = modulus * turn
    b = modulus * math.exp(-math.pi * theta) * turn.conjugate()
    astar = a.conjugate()
    R = -b.conjugate() / astar
    T = 1.0 / astar
    Rp = b / astar
    return IspExactResult(
        theta=theta,
        k=k,
        mu=mu,
        a=a,
        b=b,
        R=R,
        T=T,
        Rp=Rp,
        Tp=T,
    )
