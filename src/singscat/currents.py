"""Wronskian and conserved-current algebra.

For two states f, g sampled at the same radius,

    W[f, g] = f g' - f' g          (Wronskian)
    J[u, v] = W[u*, v] / i         (conjugate-symmetric sesquilinear current)

J[u] := J[u, u] is real and indefinite: conjugation flips its sign,
J[u*] = -J[u], so the solution space carries a hyperbolic (SU(1,1)-type)
quadratic form.  Numerically these are exact algebraic operations; along
an integrated solution of u'' + J(r) u = 0 the Wronskian of two solutions
is a conserved quantity and serves as the primary accuracy monitor.
"""

from __future__ import annotations

from .errors import RadiusMismatch
from .integrate import StateVector

__all__ = ["wronskian", "current"]


def _check_same_radius(f: StateVector, g: StateVector) -> None:
    if abs(f.r - g.r) > 1e-12 * max(1.0, abs(f.r), abs(g.r)):
        raise RadiusMismatch(f"states at r={f.r} and r={g.r}")


def wronskian(f: StateVector, g: StateVector) -> complex:
    """W[f, g] = f g' - f' g, antisymmetric and bilinear."""
    _check_same_radius(f, g)
    return f.u * g.du - f.du * g.u


def current(u: StateVector, v: StateVector | None = None) -> complex:
    """J[u, v] = W[u*, v] / i; J[u] = J[u, u] with v omitted.

    J[u] is real for any state; J[u1, u2]* = J[u2, u1].
    """
    if v is None:
        v = u
    _check_same_radius(u, v)
    return (u.u.conjugate() * v.du - u.du.conjugate() * v.u) / 1j
