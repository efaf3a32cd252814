"""Typed failure modes shared across the package.

Every error that user code may want to branch on derives from
:class:`SingscatError`.  The command-line front end reports an error by
its class name and exits with its class's ``exit_code`` (2 for bad
input, 1 for a numerical failure): both are part of the public contract.
"""

from __future__ import annotations


class SingscatError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


# ---------------------------------------------------------------- validation

class NonSingular(SingscatError):
    """Coupling strength is not positive: no singular core to scatter off."""

    exit_code = 2


class SubcriticalCoupling(SingscatError):
    """p = 2 with coupling at or below 1/4: oscillatory regime absent."""

    exit_code = 2


class BadGrid(SingscatError):
    """Invalid configuration value: a config field that is unknown,
    missing, not a finite number or out of range (p < 2, k or tol <= 0,
    radii not ordered as 0 < r_min < r_max, ...), an invalid
    extra_potential, a command-line node or grid count out of range, or a
    sweep axis that the config cannot take."""

    exit_code = 2


# --------------------------------------------------------------------- bases

class AsymptoticRegionTooClose(SingscatError):
    """Far-field basis truncation error exceeds the requested tolerance."""


class SingularRegionTooFar(SingscatError):
    """Near-origin basis truncation error exceeds the requested tolerance."""


# ------------------------------------------------------------------ currents

class RadiusMismatch(SingscatError):
    """Wronskian/current requested for states at different radii."""


# ----------------------------------------------------------------- integrate

class StepUnderflow(SingscatError):
    """Adaptive step size collapsed below the resolvable scale."""


class DriftExceeded(SingscatError):
    """Wronskian conservation failed; the propagated result is untrusted."""


# ------------------------------------------------------------------- connect

class DegenerateTransmission(SingscatError):
    """|a| beyond 1/tol: transmission numerically indistinguishable from 0."""


class PoleProximity(SingscatError):
    """Evaluation point too close to a pole for a trustworthy value."""


# ---------------------------------------------------------------------- disk

class RankDeficient(SingscatError):
    """Moebius fit is underdetermined (e.g. samples of a constant map).

    Carries the best constant value in :attr:`constant_value` when the
    samples are consistent with an Omega-independent map.
    """

    def __init__(self, message: str, constant_value: complex | None = None):
        super().__init__(message)
        self.constant_value = constant_value


class OutsideDisk(SingscatError):
    """Cauchy reconstruction requested outside the open unit disk."""
