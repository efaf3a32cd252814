"""Standalone analytics on the complex unit disk.

Two pieces of machinery, independent of the scattering pipeline:

* least-squares recovery of a Moebius map (a Omega + b)/(b* Omega + a*)
  from point samples, with the hyperbolic normalization |a|^2 - |b|^2 = 1;
* Cauchy reconstruction of interior values from uniform boundary
  samples.  The boundary integral is discretized by the uniform
  trapezoidal rule, applied mode by mode: the sample DFT gives the
  Taylor coefficients c_m, and the interior value is the truncated sum
  over m < N.  This form of the quadrature is exactly the plain shifted-
  kernel sum times (1 - Omega^N); dropping that factor removes the
  kernel-side aliasing, so the error decays like rho^N with rho the
  modulus of the map's innermost singularity, uniformly in |Omega| < 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import OutsideDisk, RankDeficient

__all__ = [
    "UnitaryFamilySample",
    "MobiusFit",
    "fit_mobius",
    "cauchy_reconstruct",
    "reconstruction_error_estimate",
    "absorption_average",
]


@dataclass(frozen=True)
class UnitaryFamilySample:
    """Boundary samples {(chi_i, S(e^(i chi_i)))} on a uniform phase grid."""

    chis: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.chis) != len(self.values):
            raise ValueError("chis and values must have equal length")
        if len(self.chis) < 2:
            raise ValueError("need at least 2 boundary samples")

    def __len__(self) -> int:
        return len(self.chis)

    def halved(self) -> "UnitaryFamilySample":
        """Subsample keeping every second node (still uniform)."""
        return UnitaryFamilySample(self.chis[::2], self.values[::2])

    @classmethod
    def uniform_grid(cls, n: int, evaluator) -> "UnitaryFamilySample":
        """Build N uniform boundary samples chi_j = 2 pi j / N from a
        callable Omega -> S(Omega)."""
        chis = tuple(2.0 * math.pi * j / n for j in range(n))
        values = tuple(complex(evaluator(cmath.exp(1j * chi))) for chi in chis)
        return cls(chis, values)


@dataclass(frozen=True)
class MobiusFit:
    """Recovered map parameters, normalized to |a|^2 - |b|^2 = 1 with
    Re a > 0 (sign gauge)."""

    a: complex
    b: complex
    residual: float

    def evaluate(self, omega: complex) -> complex:
        return (self.a * omega + self.b) / (self.b.conjugate() * omega + self.a.conjugate())


def fit_mobius(samples) -> MobiusFit:
    """Least-squares Moebius recovery from >= 3 samples (Omega_i, S_i).

    Solves the linearized relation S_i (b* Omega_i + a*) = a Omega_i + b
    over the four real parameters via a thin SVD of the 2N x 4 system
    (O(N) time and memory), then enforces the hyperbolic normalization.
    Raises :class:`RankDeficient` when the samples do not determine the
    map, e.g. for a constant (degenerate) family; the exception then
    carries the constant value.
    """
    import numpy as np  # only the array end of the pipeline loads numpy

    if isinstance(samples, UnitaryFamilySample):
        omegas = np.exp(1j * np.asarray(samples.chis))
        values = np.asarray(samples.values, dtype=complex)
    else:
        pairs = [(om, sv) for om, sv in samples]  # unpacking rejects malformed samples
        omegas, values = np.array(pairs, dtype=complex).reshape(-1, 2).T
    if len(omegas) < 3:
        raise ValueError("need at least 3 samples in general position")

    # unknowns x = (Re a, Im a, Re b, Im b); each sample yields the
    # complex row  a*Omega - S*a_conj + b - S*b_conj*Omega = 0
    prod = values * omegas
    rows = np.stack(
        [omegas - values, 1j * (omegas + values), 1.0 - prod, 1j * (1.0 + prod)], axis=1
    )
    # the normal equations would square the condition number; the thin
    # SVD never forms the 2N x 2N left factor
    _, _, vt = np.linalg.svd(np.vstack((rows.real, rows.imag)), full_matrices=False)
    x = vt[-1]
    a = complex(x[0], x[1])
    b = complex(x[2], x[3])
    norm2 = abs(a) ** 2 - abs(b) ** 2
    total = abs(a) ** 2 + abs(b) ** 2
    if norm2 <= 1e-6 * total:
        raise RankDeficient(
            "samples consistent with a constant (degenerate) map",
            constant_value=complex(values.mean()),
        )
    scale = 1.0 / math.sqrt(norm2)
    a *= scale
    b *= scale
    if a.real < 0.0 or (a.real == 0.0 and a.imag < 0.0):
        a, b = -a, -b
    resid = float(np.max(np.abs(MobiusFit(a, b, 0.0).evaluate(omegas) - values)))
    return MobiusFit(a=a, b=b, residual=resid)


def _require_uniform(samples: UnitaryFamilySample) -> None:
    n = len(samples)
    for j, chi in enumerate(samples.chis):
        if abs(chi - 2.0 * math.pi * j / n) > 1e-9:
            raise ValueError("samples must sit on the uniform grid chi_j = 2 pi j / N")


def _taylor_coefficients(samples: UnitaryFamilySample) -> np.ndarray:
    import numpy as np
    values = np.asarray(samples.values, dtype=complex)
    # forward DFT normalized by N: c_m = (1/N) sum_j S_j e^(-i m chi_j)
    return np.fft.fft(values) / len(values)


def cauchy_reconstruct(samples: UnitaryFamilySample, omega: complex) -> complex:
    """Interior value S(Omega) from uniform boundary samples, |Omega| < 1.

    Trapezoidal discretization of the Cauchy average
    S(Omega) = (1/2 pi) * integral dchi S(e^(i chi)) / (1 - Omega e^(-i chi)),
    evaluated through the sample DFT (see module docstring).
    """
    if abs(omega) >= 1.0:
        raise OutsideDisk(f"|Omega|={abs(omega)} >= 1")
    _require_uniform(samples)
    coeffs = _taylor_coefficients(samples)
    # Horner sum of sum_m c_m Omega^m, m = 0 .. N-1
    acc = 0j
    for c in coeffs[::-1]:
        acc = acc * omega + c
    return complex(acc)


def reconstruction_error_estimate(samples: UnitaryFamilySample, omega: complex) -> float:
    """Grid-halving error estimate for :func:`cauchy_reconstruct`."""
    if len(samples) < 4 or len(samples) % 2 != 0:
        return math.nan
    full = cauchy_reconstruct(samples, omega)
    half = cauchy_reconstruct(samples.halved(), omega)
    return abs(full - half)


def absorption_average(samples: UnitaryFamilySample) -> complex:
    """Uniform average of the boundary family: the Omega = 0 value."""
    return complex(sum(samples.values) / len(samples))
