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

Only the Gamma function at complex argument is needed; it is
:func:`scipy.special.gamma`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["IspExactResult", "isp_exact"]


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
    from scipy.special import gamma  # imported here so that ``import singscat`` does not load scipy

    gp = complex(gamma(1.0 + 1j * theta))
    gm = complex(gamma(1.0 - 1j * theta))
    scale = (2.0 * mu / k) ** (1j * theta)  # = exp(i theta ln(2 mu / k))
    norm = math.sqrt(2.0 * math.pi * theta)
    a = gp * scale * math.exp(0.5 * math.pi * theta) / norm
    b = gm / scale * math.exp(-0.5 * math.pi * theta) / norm
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
