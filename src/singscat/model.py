"""The scattering problem only: its config schema, the kinds of W, the
invariant coefficient J and its power-law terms.  The wave bases and the
bounds on what they leave out of J are in :mod:`singscat.bases`.

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
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Callable, ClassVar

from .errors import BadGrid, NonSingular, SubcriticalCoupling

__all__ = [
    "ExtraPotential",
    "GaussianBarrier",
    "InversePower",
    "ProblemConfig",
    "ValidatedConfig",
    "validate",
    "invariant_callable",
    "power_terms",
]

_SQRT_PI = math.sqrt(math.pi)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


class ExtraPotential:
    """Smooth additional potential term W(r): a :class:`GaussianBarrier` or
    an :class:`InversePower`.

    Each kind bounds what the bases leave out of W: ``tail_integral(r)``
    over (r, infinity) and ``origin_phase(r, lam, p)`` over (0, r).  A
    power law leaves nothing out; its ``power_term`` joins the terms of
    :func:`power_terms` instead.  Descriptors round-trip through the JSON
    config as ``{"name": ..., <field>: <value>, ...}``, with exactly the
    kind's fields.
    """

    name: ClassVar[str]

    @staticmethod
    def from_descriptor(desc: dict) -> "ExtraPotential":
        if not isinstance(desc, dict) or "name" not in desc:
            raise BadGrid("extra_potential descriptor must be a dict with a 'name'")
        name = desc["name"]
        kind = _KINDS.get(name) if isinstance(name, str) else None
        if kind is None:
            raise BadGrid(f"unknown extra_potential {name!r}")
        keys = [f.name for f in fields(kind)]
        if set(desc) != {"name", *keys}:
            raise BadGrid(f"{kind.name} needs exactly the keys {sorted(keys)}, got "
                          f"{sorted(set(desc) - {'name'})}")
        for key in keys:
            v = desc[key]
            if not _is_number(v) or not math.isfinite(v):
                raise BadGrid(f"extra_potential {key} must be a finite number, got {v!r}")
        return kind(**{key: float(desc[key]) for key in keys})

    def to_descriptor(self) -> dict:
        return {"name": self.name, **dict(sorted(asdict(self).items()))}


@dataclass(frozen=True)
class GaussianBarrier(ExtraPotential):
    """W(r) = height * exp(-((r - center)/width)^2).  Used e.g. to construct
    near-total-reflection configurations."""

    height: float
    center: float
    width: float
    name: ClassVar[str] = "gaussian_barrier"

    def __post_init__(self):
        if self.width <= 0:
            raise BadGrid("gaussian_barrier width must be positive")

    def value(self, r: float) -> float:
        return self.height * math.exp(-(((r - self.center) / self.width) ** 2))

    def power_term(self) -> None:
        return None

    def tail_integral(self, r: float) -> float:
        """Upper bound on the integral of |W| over (r, infinity)."""
        w = self.width
        return abs(self.height) * w * _SQRT_PI / 2.0 * math.erfc((r - self.center) / w)

    def origin_phase(self, r: float, lam: float, p: float) -> float:
        """Bound on the WKB phase integral of |W| / (2 sqrt(J)) over (0, r),
        with |W| there at most its value at the point of (0, r) nearest
        the center."""
        d = max(0.0, self.center - r, -self.center)
        peak = abs(self.height) * math.exp(-((d / self.width) ** 2))
        return peak * r ** (p / 2.0 + 1.0) / (2.0 * math.sqrt(lam) * (p / 2.0 + 1.0))


@dataclass(frozen=True)
class InversePower(ExtraPotential):
    """W(r) = coefficient * r^(-exponent) with 2 < exponent < p/2 + 1, so the
    term stays short-range at infinity and leaves a convergent phase
    imprint at the origin; both bases carry it, through its
    :meth:`power_term`."""

    coefficient: float
    exponent: float
    name: ClassVar[str] = "inverse_power"

    def __post_init__(self):
        if self.exponent <= 2:
            raise BadGrid("inverse_power exponent must exceed 2 (short range)")

    def value(self, r: float) -> float:
        return self.coefficient * r ** (-self.exponent)

    def power_term(self) -> tuple[float, float]:
        """(q, c) such that -W = c r^(-q)."""
        return (self.exponent, -self.coefficient)

    def tail_integral(self, r: float) -> float:
        return 0.0

    def origin_phase(self, r: float, lam: float, p: float) -> float:
        return 0.0


_KINDS = {kind.name: kind for kind in (GaussianBarrier, InversePower)}


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
        if not isinstance(d, dict):
            raise BadGrid(f"a config must be a JSON object, got {d!r}")
        unknown = set(d) - set(_SCHEMA)
        if unknown:
            raise BadGrid(f"unknown config fields: {sorted(unknown)}")
        given = {}
        for key, f in _SCHEMA.items():
            if key not in d:
                if f.default is MISSING:
                    raise BadGrid(f"missing required config field '{key}'")
                continue
            value = d[key]
            if f.name == "extra_potential":
                value = None if value is None else ExtraPotential.from_descriptor(value)
            elif not _is_number(value):
                raise BadGrid(f"{key} must be a number, got {value!r}")
            given[f.name] = value
        return ProblemConfig(**given)  # only validate() makes a ValidatedConfig

    @classmethod
    def from_json(cls, path: str) -> "ProblemConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        d = {key: getattr(self, f.name) for key, f in _SCHEMA.items()}
        if self.extra_potential:
            d["extra_potential"] = self.extra_potential.to_descriptor()
        return d


#: JSON key -> field of :class:`ProblemConfig`; only ``lam`` is renamed.
_SCHEMA = {{"lam": "lambda"}.get(f.name, f.name): f for f in fields(ProblemConfig)}


@dataclass(frozen=True, kw_only=True)
class ValidatedConfig(ProblemConfig):
    """A :class:`ProblemConfig` that passed :func:`validate`, with derived
    fields populated.

    ``theta`` is set for p = 2 (theta^2 = lam - 1/4) and ``n_exponent``
    for p > 2 (n = p - 2).  A changed copy must pass :func:`validate`
    again, as in :meth:`replaced`, so that these stay derived.
    """

    theta: float | None
    n_exponent: float | None

    @property
    def is_conformal(self) -> bool:
        return self.theta is not None

    def replaced(self, **changes) -> "ValidatedConfig":
        return validate(replace(self, **changes))


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
        Non-finite or inconsistent radii, tolerances or parameters, or a
        k whose square overflows float64 or underflows to 0.
    """
    for key, f in _SCHEMA.items():
        value = getattr(config, f.name)
        if f.name != "extra_potential" and not math.isfinite(value):
            raise BadGrid(f"{key} must be finite, got {value}")
    if not (config.p >= 2.0):
        raise BadGrid(f"p must satisfy p >= 2, got {config.p}")
    if config.lam <= 0.0:
        raise NonSingular(f"lambda must be positive, got {config.lam}")
    if config.k <= 0.0:
        raise BadGrid(f"k must be positive, got {config.k}")
    k2 = config.k * config.k  # J and both far series hold k^2
    if not math.isfinite(k2):
        raise BadGrid(f"k = {config.k:g} is too large: k^2 overflows float64")
    if k2 == 0.0:
        raise BadGrid(f"k = {config.k:g} is too small: k^2 underflows to 0")
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
    else:
        n_exponent = config.p - 2.0

    given = {f.name: getattr(config, f.name) for f in fields(ProblemConfig)}
    valid = ValidatedConfig(**given, theta=theta, n_exponent=n_exponent)
    # only the core may reach q >= p/2 + 1: for any other term the
    # near-origin phase integral then diverges and the matching basis
    # loses its meaning, even though the term is still subdominant in J
    # itself.  At p = 2 this leaves no room for a power-law W.
    if sum(q >= config.p / 2.0 + 1.0 for q, _ in power_terms(valid)) > 1:
        raise BadGrid(
            "inverse_power exponent must stay below p/2 + 1 "
            "(convergent near-origin phase)"
        )
    return valid


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


def power_terms(config: ValidatedConfig) -> tuple[tuple[float, float], ...]:
    """The power-law terms (q, c) of J = sum c r^(-q), nonzero c only, in
    increasing q: k^2 (q = 0), for p > 2 the centrifugal term (q = 2), a
    power-law W (2 < q < p/2 + 1) and the core (q = p).  At p = 2 the core
    holds the centrifugal term.  A Gaussian W is not a power law and
    enters through its own bounds instead."""
    terms = [(0.0, config.k ** 2), (config.p, config.lam)]
    if not config.is_conformal:
        terms.append((2.0, -(config.l_plus_nu ** 2 - 0.25)))
    w = config.extra_potential.power_term() if config.extra_potential else None
    if w is not None:
        terms.append(w)
    return tuple(sorted(t for t in terms if t[1] != 0.0))
