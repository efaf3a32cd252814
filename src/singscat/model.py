"""Problem definition and the invariant coefficient of the governing equation.

A scattering problem is the linear second-order equation in normal form

    u''(r) + J(r) u(r) = 0,        0 < r < infinity,

with

    J(r) = k^2 + lambda * r^(-p) - [(l+nu)^2 - 1/4] / r^2 - W(r),

where the power-law core ``lambda * r^(-p)`` (lambda > 0, p >= 2) dominates
near the origin and ``W(r)`` is an optional smooth short-range term that
decays faster than 1/r^2 at infinity and is subdominant to the core at the
origin.

Conventions
-----------
* ``p > 2``: the centrifugal-type term is kept separate; ``l_plus_nu``
  enters both J(r) and the global phase of the full S-matrix.
* ``p = 2``: the 1/r^2 pieces are merged, so ``lam`` is the *effective*
  coupling with the centrifugal term already absorbed.  The oscillation
  index is ``theta = sqrt(lam - 1/4)`` and the pure problem reads
  J = k^2 + (theta^2 + 1/4)/r^2.  ``l_plus_nu`` then only contributes the
  phase factor exp(i*pi*(l+nu)) of the full S-matrix.
* ``mu`` is a floating inverse length fixing the phase convention of the
  near-origin basis for p = 2; moduli of all observables are independent
  of it.  It is ignored for p > 2.

All operations here are pure; configs are frozen values safe to share
between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

from .errors import BadGrid, NonSingular, SubcriticalCoupling

__all__ = [
    "ExtraPotential",
    "ProblemConfig",
    "ValidatedConfig",
    "validate",
    "normal_invariant",
    "invariant_callable",
    "asymptotic_tail_terms",
    "asymptotic_tail_residual",
    "OriginPerturbation",
    "origin_power_terms",
    "origin_perturbation",
    "singularity_phase_error",
]

_SQRT_PI = math.sqrt(math.pi)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass(frozen=True)
class ExtraPotential:
    """Smooth additional potential term W(r).

    Supported built-ins:

    ``gaussian_barrier``
        W(r) = height * exp(-((r - center)/width)^2).  Used e.g. to
        construct near-total-reflection configurations.
    ``inverse_power``
        W(r) = coefficient * r^(-exponent) with 2 < exponent < p/2 + 1,
        so the term stays short-range at infinity and leaves a convergent
        phase imprint at the origin.

    Parameters live in :attr:`params`; descriptors round-trip through the
    JSON config as ``{"name": ..., <param>: <value>, ...}``.
    """

    name: str
    params: tuple[tuple[str, float], ...]

    @classmethod
    def from_descriptor(cls, desc: dict) -> "ExtraPotential":
        if not isinstance(desc, dict) or "name" not in desc:
            raise BadGrid("extra_potential descriptor must be a dict with a 'name'")
        name = desc["name"]
        params = {}
        for key, v in desc.items():
            if key == "name":
                continue
            if not _is_number(v) or not math.isfinite(v):
                raise BadGrid(f"extra_potential {key} must be a finite number, got {v!r}")
            params[key] = float(v)
        if name == "gaussian_barrier":
            missing = {"height", "center", "width"} - set(params)
            if missing:
                raise BadGrid(f"gaussian_barrier needs {sorted(missing)}")
            if params["width"] <= 0:
                raise BadGrid("gaussian_barrier width must be positive")
        elif name == "inverse_power":
            missing = {"coefficient", "exponent"} - set(params)
            if missing:
                raise BadGrid(f"inverse_power needs {sorted(missing)}")
            if params["exponent"] <= 2:
                raise BadGrid("inverse_power exponent must exceed 2 (short range)")
        else:
            raise BadGrid(f"unknown extra_potential '{name}'")
        return cls(name=name, params=tuple(sorted(params.items())))

    def to_descriptor(self) -> dict:
        out: dict = {"name": self.name}
        out.update(dict(self.params))
        return out

    def _p(self, key: str) -> float:
        return dict(self.params)[key]

    def value(self, r: float) -> float:
        if self.name == "gaussian_barrier":
            h, c, w = self._p("height"), self._p("center"), self._p("width")
            return h * math.exp(-(((r - c) / w) ** 2))
        coef, q = self._p("coefficient"), self._p("exponent")
        return coef * r ** (-q)

    def tail_integral(self, r: float) -> float:
        """Upper bound on the integral of |W| over (r, infinity) for the
        Gaussian barrier; power-law W is in the far-field series instead."""
        h, c, w = abs(self._p("height")), self._p("center"), self._p("width")
        return h * w * _SQRT_PI / 2.0 * math.erfc((r - c) / w)

    def origin_phase(self, r: float, lam: float, p: float) -> float:
        """Bound on the WKB phase integral of |W| / (2 sqrt(J)) over (0, r)
        for the Gaussian barrier, whose |W| stays below its height.

        Power-law W has no such bound term: the near-origin basis carries
        its imprint (see :func:`origin_perturbation`).
        """
        h = abs(self._p("height"))
        return h * r ** (p / 2.0 + 1.0) / (2.0 * math.sqrt(lam) * (p / 2.0 + 1.0))

    def power_term(self) -> tuple[float, float] | None:
        """(c, q) such that -W = c r^(-q), for power-law W; None otherwise."""
        if self.name != "inverse_power":
            return None
        return (-self._p("coefficient"), self._p("exponent"))


@dataclass(frozen=True)
class ProblemConfig:
    """One scattering problem.

    Attributes
    ----------
    p : float
        Power of the singular core, p >= 2.
    lam : float
        Coupling of the core (JSON key ``"lambda"``).  For p = 2 this is
        the effective coupling with the centrifugal term absorbed.
    k : float
        Asymptotic wavenumber, k > 0.
    l_plus_nu : float
        Combined angular parameter; phases the full S-matrix, and for
        p > 2 also contributes the [(l+nu)^2 - 1/4]/r^2 term of J.
    mu : float
        Floating inverse length fixing the p = 2 phase convention.
    extra_potential : ExtraPotential or None
        Optional smooth short-range term W(r).
    r_min, r_max : float
        Starting points of the matching-radius searches, which move each
        radius either way: r_min to the largest radius, and r_max to the
        smallest, where the basis there meets ``0.1 tol``.
    tol : float
        Relative tolerance driving every numerical stage.
    """

    p: float
    lam: float
    k: float
    l_plus_nu: float = 0.0
    mu: float = 1.0
    extra_potential: ExtraPotential | None = None
    r_min: float = 1e-3
    r_max: float = 60.0
    tol: float = 1e-10

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemConfig":
        d = dict(d)
        if "lambda" in d:
            d["lam"] = d.pop("lambda")
        ep = d.get("extra_potential")
        if ep is not None:
            d["extra_potential"] = ExtraPotential.from_descriptor(ep)
        known = {
            "p", "lam", "k", "l_plus_nu", "mu", "extra_potential",
            "r_min", "r_max", "tol",
        }
        unknown = set(d) - known
        if unknown:
            raise BadGrid(f"unknown config fields: {sorted(unknown)}")
        for req in ("p", "lam", "k"):
            if req not in d:
                name = "lambda" if req == "lam" else req
                raise BadGrid(f"missing required config field '{name}'")
        for key, value in d.items():
            if key != "extra_potential" and not _is_number(value):
                name = "lambda" if key == "lam" else key
                raise BadGrid(f"{name} must be a number, got {value!r}")
        return ProblemConfig(**d)  # only validate() makes a ValidatedConfig

    @classmethod
    def from_json(cls, path: str) -> "ProblemConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        ep = self.extra_potential.to_descriptor() if self.extra_potential else None
        return {
            "p": self.p,
            "lambda": self.lam,
            "k": self.k,
            "l_plus_nu": self.l_plus_nu,
            "mu": self.mu,
            "extra_potential": ep,
            "r_min": self.r_min,
            "r_max": self.r_max,
            "tol": self.tol,
        }


@dataclass(frozen=True, kw_only=True)
class ValidatedConfig(ProblemConfig):
    """A :class:`ProblemConfig` that passed :func:`validate`, with derived
    fields populated.

    ``theta`` is set for p = 2 (theta^2 = lam - 1/4) and ``n_exponent``
    for p > 2 (n = p - 2).  A changed copy must pass :func:`validate`
    again, as in :meth:`with_mu`, so that these stay derived.
    """

    theta: float | None
    n_exponent: float | None

    @property
    def is_conformal(self) -> bool:
        return self.theta is not None

    def with_mu(self, mu: float) -> "ValidatedConfig":
        return validate(replace(self, mu=mu))


def validate(config: ProblemConfig) -> ValidatedConfig:
    """Check a configuration and populate derived fields.

    Raises
    ------
    NonSingular
        lam <= 0 (no singular core).
    SubcriticalCoupling
        p = 2 with lam <= 1/4: the near-origin solutions stop
        oscillating, a regime outside this package's scope.
    BadGrid
        Non-finite or inconsistent radii, tolerances or parameters.
    """
    for name, value in (
        ("p", config.p), ("lambda", config.lam), ("k", config.k), ("tol", config.tol),
        ("mu", config.mu), ("l_plus_nu", config.l_plus_nu), ("r_min", config.r_min),
        ("r_max", config.r_max),
    ):
        if not math.isfinite(value):
            raise BadGrid(f"{name} must be finite, got {value}")
    if not (config.p >= 2.0):
        raise BadGrid(f"p must satisfy p >= 2, got {config.p}")
    if config.lam <= 0.0:
        raise NonSingular(f"lambda must be positive, got {config.lam}")
    if config.k <= 0.0:
        raise BadGrid(f"k must be positive, got {config.k}")
    if config.tol <= 0.0:
        raise BadGrid(f"tol must be positive, got {config.tol}")
    if not (0.0 < config.r_min < config.r_max):
        raise BadGrid(
            f"need 0 < r_min < r_max, got r_min={config.r_min}, r_max={config.r_max}"
        )

    theta = None
    n_exponent = None
    if config.p == 2.0:
        if config.lam <= 0.25:
            raise SubcriticalCoupling(
                f"p=2 requires lambda > 1/4 (oscillatory regime), got {config.lam}"
            )
        if config.mu <= 0.0:
            raise BadGrid(f"p=2 requires mu > 0, got {config.mu}")
        theta = math.sqrt(config.lam - 0.25)
        if config.extra_potential is not None and config.extra_potential.name == "inverse_power":
            raise BadGrid("inverse_power extra potential needs exponent < p, impossible at p=2")
    else:
        n_exponent = config.p - 2.0
        ep = config.extra_potential
        if ep is not None and ep.name == "inverse_power":
            # beyond p/2 + 1 the near-origin phase integral of W diverges
            # and the matching basis loses its meaning, even though W is
            # still subdominant in J itself
            if dict(ep.params)["exponent"] >= config.p / 2.0 + 1.0:
                raise BadGrid(
                    "inverse_power exponent must stay below p/2 + 1 "
                    "(convergent near-origin phase)"
                )

    given = {f.name: getattr(config, f.name) for f in fields(ProblemConfig)}
    return ValidatedConfig(**given, theta=theta, n_exponent=n_exponent)


def normal_invariant(config: ValidatedConfig, r: float) -> float:
    """Evaluate J(r) for a validated configuration.

    J(r) -> k^2 as r -> infinity and J(r) * r^p -> lambda as r -> 0.
    """
    if r <= 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    return invariant_callable(config)(r)


def invariant_callable(config: ValidatedConfig) -> Callable[[float], float]:
    """Return a fast closure r -> J(r), for use in integration hot loops."""
    k2 = config.k ** 2
    lam = config.lam
    p = config.p
    ep = config.extra_potential
    if config.theta is not None:
        if ep is None:
            def j(r: float) -> float:
                return k2 + lam / (r * r)
        else:
            w = ep.value

            def j(r: float) -> float:
                return k2 + lam / (r * r) - w(r)
    else:
        cf = config.l_plus_nu ** 2 - 0.25
        if ep is None:
            def j(r: float) -> float:
                return k2 + lam * r ** (-p) - cf / (r * r)
        else:
            w = ep.value

            def j(r: float) -> float:
                return k2 + lam * r ** (-p) - cf / (r * r) - w(r)
    return j


def asymptotic_tail_terms(config: ValidatedConfig) -> tuple[tuple[float, float], ...]:
    """Power-law terms (alpha, g) of J - k^2 ~ sum g r^(-alpha) at their real
    exponents, in increasing alpha: the core, the centrifugal term and an
    ``inverse_power`` W.  A Gaussian barrier is in :func:`asymptotic_tail_residual`."""
    if config.theta is not None:
        terms = [(2.0, config.lam)]  # theta^2 + 1/4
    else:
        terms = [(2.0, -(config.l_plus_nu ** 2 - 0.25)), (config.p, config.lam)]
    w = config.extra_potential.power_term() if config.extra_potential else None
    if w is not None:
        terms.append((w[1], w[0]))  # 2 < exponent < p: no exponent repeats
    return tuple(sorted((a, g) for a, g in terms if g != 0.0))


def asymptotic_tail_residual(config: ValidatedConfig, r: float) -> float:
    """Phase-error bound at radius r from a Gaussian barrier, the one part
    of J - k^2 that the far-field correction series does not represent;
    zero otherwise."""
    ep = config.extra_potential
    if ep is None or ep.power_term() is not None:
        return 0.0
    return ep.tail_integral(r) / (2.0 * config.k)


class OriginPerturbation(NamedTuple):
    """First-order correction of the p > 2 near-origin basis at one radius.

    The corrected basis is the Hankel solution of the core times
    ``amp * exp(-i delta)``; ``remainder`` bounds what it still misses.
    """

    delta: float
    ddelta: float
    amp: float
    damp: float
    remainder: float


def origin_power_terms(config: ValidatedConfig) -> tuple[tuple[float, float], ...]:
    """Power-law terms (c, q) of P(r) = sum c r^(-q), the part of J beyond
    the core that the near-origin basis does not solve exactly: k^2
    (q = 0) and an ``inverse_power`` W (c = -coefficient)."""
    w = config.extra_potential.power_term() if config.extra_potential else None
    return ((config.k ** 2, 0.0),) if w is None else ((config.k ** 2, 0.0), w)


def origin_perturbation(config: ValidatedConfig, r: float) -> OriginPerturbation:
    """Phase imprint, amplitude factor and remainder bound of the
    power-law terms P(r) on the p > 2 near-origin basis at r.

    The Hankel basis solves J_core = lambda r^(-p) - cf/r^2 exactly.  To
    first order in P the solution of the full equation is that basis times
    the WKB amplitude factor (1 + P r^p / lambda)^(-1/4) and the phase
    factor exp(-i delta), with

        delta = -sum c r^e / (2 sqrt(lambda) e),     e = p/2 - q + 1 > 0,

    the phase integral of P / (2 sqrt(J_core)) over (0, r).  The
    remainder bound adds, conservatively,

    * the amplitude-order term sum |c| r^(p-q) / (4 lambda);
    * the second-order phase: the integral of P^2 r^(3p/2) / (8 lambda^1.5);
    * the phase that the residual of the corrected basis in the full
      equation imprints: for each term x = c r^(p-q) / lambda that
      residual is about C x / r^2 with C = |(p-q)(p-q-1)| / 4 + p(p-q) / 8,
      from the curvature of the amplitude factor, and its effect grows
      like r^(p/2 - 1) times the amplitude-order term, so it dominates
      only at loose tol;
    * the error of taking |u_Hankel|^2 = r^(p/2) / sqrt(lambda) inside the
      phase integrals, twice the first term (4 eta^2 - 1) / (8 z^2) of the
      asymptotic expansion of the Hankel modulus (zero for p = 4,
      l+nu = 1/2).
    """
    lam, p = config.lam, config.p
    sl = math.sqrt(lam)
    n = p - 2.0
    eta = 2.0 * abs(config.l_plus_nu) / n
    hankel = abs(4.0 * eta * eta - 1.0) * n * n / (32.0 * lam)  # |4 eta^2 - 1| / (8 z^2 r^n)
    terms = origin_power_terms(config)
    delta = ddelta = x = dx = remainder = 0.0
    for c, q in terms:
        e = p / 2.0 - q + 1.0
        rate = c * r ** (e - 1.0) / (2.0 * sl)  # P-term / (2 sqrt(J_core))
        ddelta -= rate
        delta -= rate * r / e
        xi = c * r ** (p - q) / lam
        x += xi
        dx += (p - q) * xi / r
        remainder += abs(xi) / 4.0
        curvature = abs((p - q) * (p - q - 1.0)) / 4.0 + p * (p - q) / 8.0
        remainder += abs(c) * (hankel + curvature / (2.0 * lam)) * r ** (e + n) / (sl * (e + n))
        for c2, q2 in terms:
            e2 = 1.5 * p - q - q2 + 1.0
            remainder += abs(c * c2) * r ** e2 / (8.0 * lam * sl * e2)
    amp = (1.0 + x) ** -0.25
    damp = -0.25 * amp * dx / (1.0 + x)
    return OriginPerturbation(delta, ddelta, amp, damp, remainder)


def singularity_phase_error(config: ValidatedConfig, r: float) -> float:
    """Error bound for initializing with the near-origin basis at r.

    For p = 2 it collects the WKB phase contributions over (0, r) of the
    terms of J that the basis does not resolve, k^2 and W (the
    centrifugal term is absorbed into the effective coupling).  For
    p > 2 the basis carries the first-order imprint of k^2 and of a
    power-law W, so what enters is the remainder bound of
    :func:`origin_perturbation`; a Gaussian barrier, not a power law,
    still enters as its uncorrected phase.
    """
    if config.theta is not None:
        root = math.sqrt(config.lam)
        est = config.k ** 2 * r * r / (4.0 * root)
    else:
        est = origin_perturbation(config, r).remainder
    ep = config.extra_potential
    if ep is not None and ep.power_term() is None:
        est += ep.origin_phase(r, config.lam, config.p)
    return est
