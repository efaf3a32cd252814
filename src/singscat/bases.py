"""Fundamental wave bases at the two singular endpoints.

Far field (r -> infinity), WKB-normalized so each member carries
conserved current +/-2:

    u1(r) ~ k^(-1/2) e^(-i pi/4) e^(+i k r) * f(r)       (outgoing)
    u2(r) = conj(u1(r))                                   (ingoing)

where f(r) = 1 + sum s_gamma r^(-gamma) corrects for the power-law terms
g r^(-alpha) of J - k^2, over the exponents generated from 0 by the steps
1 and alpha - 1.  The first unit band [n, n+1) of gamma whose moduli do
not decrease, plus a Gaussian barrier's tail, gives the truncation estimate.

Near the origin (r -> 0):

    p = 2:  u+(r) = sqrt(r/theta) (mu r)^(+i theta),  u- = conj(u+),
            exact for the pure conformal problem; contamination from k^2
            and W enters the truncation estimate.
    p > 2:  u+(r) = sqrt(pi/n) e^(-i(eta pi/2 + pi/4)) sqrt(r) H2_eta(z)
                    * A(r) e^(-i delta(r)),
            z = (2 sqrt(lambda)/n) r^(-n/2), n = p - 2, with the order
            eta = 2|l+nu|/n chosen so the Hankel solution solves the
            core *and* centrifugal parts of the equation exactly; the
            r -> 0 behavior is the order-independent leading form
            (r^(p/4)/lambda^(1/4)) exp(-2i sqrt(lambda) r^(-n/2)/n).  The
            factor A e^(-i delta) carries the first-order WKB amplitude and
            phase imprint of k^2 and of a power-law W
            (:func:`singscat.bases.origin_perturbation`); only the
            remainder of that expansion and a Gaussian barrier's phase
            enter the truncation estimate.

Powers (mu r)^(i theta) are evaluated as exp(i theta ln(mu r)) with the
real logarithm, which fixes the branch for all r > 0.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

from scipy.special import hankel2

from .errors import AsymptoticRegionTooClose, SingularRegionTooFar
from .integrate import StateVector
from .model import GaussianBarrier, ValidatedConfig, invariant_callable, power_terms

__all__ = [
    "BasisSample",
    "OriginPerturbation",
    "eval_asymptotic",
    "eval_singularity",
    "origin_perturbation",
    "singularity_phase_error",
    "choose_r_min",
    "r_min_cap",
    "choose_r_max_start",
]

_MAX_SERIES_ORDER = 8
#: Far-field exponents closer than this are one (rounding is far smaller).
_SAME_EXPONENT = 1e-9
_EXP_M_I_PI_4 = cmath.exp(-0.25j * math.pi)
#: Share of ``tol`` that the truncation of either basis may take at the
#: radii where the propagation starts and ends.
_TRUNC_SHARE = 0.1


class BasisSample(NamedTuple):
    """The outgoing basis member (u1 or u+) at one radius, and the
    truncation estimate there; the ingoing member is ``state.conjugate()``."""

    state: StateVector
    trunc_error: float


@functools.lru_cache(maxsize=64)
def _series_coefficients(config: ValidatedConfig) -> tuple[tuple[int, float, complex], ...]:
    """Nonzero terms (n, -gamma, s_gamma) of the far-field correction
    series in increasing gamma, n = int(gamma) <= M + 1, then a zero term
    in band M + 2.  The exponents are generated from 0 by the steps 1 and
    alpha - 1 >= 1 of the tail terms g r^(-alpha), and the equation gives
    2 i k gamma s_gamma = (gamma - 1) gamma s_(gamma-1) + sum g s_(gamma+1-alpha).
    """
    terms = [t for t in power_terms(config) if t[0] > 0.0]  # those of J - k^2
    steps = {1.0, *(a - 1.0 for a, _ in terms)}
    cap = _MAX_SERIES_ORDER + 2
    found = frontier = {0.0}
    while frontier:
        frontier = {x + d for x in frontier for d in steps if x + d < cap} - found
        found = found | frontier
    known = [(0.0, 1.0 + 0j)]
    out = []

    def at(x: float) -> complex:  # s_x, zero where x is not an exponent
        return next((c for y, c in known if abs(y - x) <= _SAME_EXPONENT), 0j)

    for gamma in sorted(found):
        if gamma - known[-1][0] <= _SAME_EXPONENT:
            continue  # 0, or a rounding twin of the exponent before
        acc = (gamma - 1.0) * gamma * at(gamma - 1.0)
        for a, g in terms:
            acc += g * at(gamma + 1.0 - a)
        sg = acc / (2j * config.k * gamma)
        known.append((gamma, sg))
        if sg != 0:
            out.append((int(gamma + _SAME_EXPONENT), -gamma, sg))
    return (*out, (cap, 0.0, 0j))


def eval_asymptotic(
    config: ValidatedConfig, r: float, *, raise_on_error: bool = True
) -> BasisSample:
    """Outgoing far-field member u1 with its derivative at r.

    The correction series is summed band by band while a band's sum of
    moduli decreases; that sum for the first band that does not, or past
    order M, plus a Gaussian barrier's tail is the truncation estimate.
    Raises :class:`AsymptoticRegionTooClose` when that estimate exceeds
    ``config.tol`` (unless ``raise_on_error=False``).
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    k = config.k

    f, df, omitted, used, prev_mag = 1.0 + 0j, 0j, 0.0, 0, math.inf
    coefficients = _series_coefficients(config)
    band, f_band, df_band, mag = coefficients[0][0], 0j, 0j, 0.0
    for n, e, c in coefficients:
        if n != band:  # band closed; the final zero term closes the last one
            if mag >= prev_mag or band > _MAX_SERIES_ORDER:
                omitted = mag
                break
            f += f_band
            df += df_band
            used, prev_mag = band, mag
            band, f_band, df_band, mag = n, 0j, 0j, 0.0
        t = c * r ** e
        f_band += t
        df_band += e * c * r ** (e - 1.0)
        mag += abs(t)

    est = omitted / max(abs(f), 1e-12)
    if config.extra_potential:  # a Gaussian barrier's tail; a power law leaves none
        est += config.extra_potential.tail_integral(r) / (2.0 * k)
    if raise_on_error and est > config.tol:
        raise AsymptoticRegionTooClose(
            f"far-field truncation estimate {est:.3e} > tol {config.tol:.1e} "
            f"at r={r} (series order {used})"
        )

    pref = _EXP_M_I_PI_4 / math.sqrt(k)
    phase = cmath.exp(1j * k * r)
    u1 = pref * phase * f
    du1 = pref * phase * (1j * k * f + df)
    return BasisSample(StateVector(r, u1, du1), est)


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


def _hankel_order(config: ValidatedConfig) -> float:
    """Order eta = 2|l+nu|/n of the p > 2 Hankel basis, which absorbs the
    centrifugal term."""
    return 2.0 * abs(config.l_plus_nu) / config.n_exponent


def origin_perturbation(config: ValidatedConfig, r: float) -> OriginPerturbation:
    """Phase imprint, amplitude factor and remainder bound of the
    power-law terms P(r) = sum c r^(-q) on the p > 2 near-origin basis at
    r: the terms of J but the core and the centrifugal term, that is k^2
    (q = 0) and a power-law W (c = -coefficient).

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
    n = config.n_exponent
    eta = _hankel_order(config)
    hankel = abs(4.0 * eta * eta - 1.0) * n * n / (32.0 * lam)  # |4 eta^2 - 1| / (8 z^2 r^n)
    terms = [t for t in power_terms(config) if t[0] not in (2.0, p)]
    delta = ddelta = x = dx = remainder = 0.0
    for q, c in terms:
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
        for q2, c2 in terms:
            e2 = 1.5 * p - q - q2 + 1.0
            remainder += abs(c * c2) * r ** e2 / (8.0 * lam * sl * e2)
    amp = (1.0 + x) ** -0.25
    damp = -0.25 * amp * dx / (1.0 + x)
    return OriginPerturbation(delta, ddelta, amp, damp, remainder)


def _near_origin(config: ValidatedConfig, r: float) -> tuple[OriginPerturbation | None, float]:
    """The p > 2 perturbation at r (None for p = 2) and the bound of
    :func:`singularity_phase_error` built from it."""
    if config.theta is not None:
        pert = None
        est = config.k ** 2 * r * r / (4.0 * math.sqrt(config.lam))
    else:
        pert = origin_perturbation(config, r)
        est = pert.remainder
    ep = config.extra_potential
    if ep is not None:
        est += ep.origin_phase(r, config.lam, config.p)
    return pert, est


def singularity_phase_error(config: ValidatedConfig, r: float) -> float:
    """Error bound for initializing with the near-origin basis at r.

    For p = 2 it collects the WKB phase contributions over (0, r) of the
    terms of J that the basis does not resolve, k^2 and W (the
    centrifugal term is absorbed into the effective coupling).  For
    p > 2 the basis carries the first-order imprint of k^2 and of a
    power-law W, so what enters is the remainder bound of
    :func:`origin_perturbation`; a Gaussian barrier, not a power law,
    still enters as its uncorrected phase (``origin_phase``).
    """
    return _near_origin(config, r)[1]


def eval_singularity(
    config: ValidatedConfig, r: float, *, raise_on_error: bool = True
) -> BasisSample:
    """Outgoing near-origin member u+ with its derivative at r.

    Raises :class:`SingularRegionTooFar` when the contamination estimate
    at r exceeds ``config.tol``.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    pert, est = _near_origin(config, r)
    if raise_on_error and est > config.tol:
        raise SingularRegionTooFar(
            f"near-origin truncation estimate {est:.3e} > tol {config.tol:.1e} at r={r}"
        )

    if config.theta is not None:
        th = config.theta
        amp = math.sqrt(r / th)
        phase = cmath.exp(1j * th * math.log(config.mu * r))
        u = amp * phase
        du = u * (0.5 / r + 1j * th / r)
    else:
        n = config.n_exponent
        lam = config.lam
        order = _hankel_order(config)
        z = (2.0 * math.sqrt(lam) / n) * r ** (-n / 2.0)
        dz = -math.sqrt(lam) * r ** (-config.p / 2.0)
        h = complex(hankel2(order, z))
        hm1 = complex(hankel2(order - 1.0, z))
        dh = hm1 - (order / z) * h
        pref = math.sqrt(math.pi / n) * cmath.exp(-1j * (order * math.pi / 2.0 + math.pi / 4.0))
        sqr = math.sqrt(r)
        u = pref * sqr * h
        du = pref * (h / (2.0 * sqr) + sqr * dh * dz)
        phase = cmath.exp(-1j * pert.delta)
        du = (du * pert.amp + u * (pert.damp - 1j * pert.ddelta * pert.amp)) * phase
        u = u * pert.amp * phase

    return BasisSample(StateVector(r, u, du), est)


def r_min_cap(config: ValidatedConfig) -> float:
    """Upper end of the inner-radius search: half of ``config.r_max``,
    and inside the core-dominated region, where each of the n other terms
    of J (k^2, a centrifugal term for p > 2, W bounded by its coefficient
    or height) stays below lambda r^(-p) / (2n).

    Raises :class:`SingularRegionTooFar` when that region is empty in
    floating point: for p just above 2 a centrifugal term that beats
    lambda / (2n) at r = 1 stays ahead of the core down to radii that
    underflow to 0; and when lambda is so small that lambda^1.5, by which
    the near-origin bounds divide, underflows to 0."""
    if config.lam * math.sqrt(config.lam) == 0.0:
        raise SingularRegionTooFar(
            f"lambda = {config.lam:g} is too small for float64: lambda^1.5, "
            "by which the near-origin bounds divide, underflows to 0"
        )
    terms = [(q, abs(c)) for q, c in power_terms(config) if q != config.p]
    ep = config.extra_potential
    if isinstance(ep, GaussianBarrier):
        terms.append((0.0, abs(ep.height)))
    share = 0.5 / len(terms)
    cap = 0.5 * config.r_max
    for q, c in terms:
        if c > 0.0:
            try:
                bound = (share * config.lam / c) ** (1.0 / (config.p - q))
            except OverflowError:  # p close to q: the term never competes
                continue
            if bound <= 0.0:
                term = "centrifugal term [(l+nu)^2 - 1/4]/r^2" if q == 2.0 else f"r^(-{q:g}) term"
                raise SingularRegionTooFar(
                    f"the core lambda r^(-p) of p = {config.p:g} outweighs the {term} "
                    "only at radii that underflow to 0"
                )
            cap = min(cap, bound)
    return cap


def _edge(ok, start: float, step: float, limit: float, tries: int) -> float | None:
    """Edge of the region of radii where ``ok`` holds, searched from ``start``.

    Where ``ok`` holds at ``start``, the radius is multiplied by ``step``
    while it keeps holding, up to ``limit``; otherwise it is divided by
    ``step`` until it holds, at most ``tries`` times (None if it never
    does).  The last bracket is then bisected geometrically, and its end
    where ``ok`` holds is returned.
    """
    clamp = min if step > 1.0 else max
    good = bad = start
    if ok(good):
        while good != limit:
            bad = clamp(good * step, limit)
            if not ok(bad):
                break
            good = bad
        else:
            return limit
    else:
        for _ in range(tries):
            bad = good
            good /= step
            if ok(good):
                break
        else:
            return None
    for _ in range(8):
        mid = math.sqrt(good * bad)
        if ok(mid):
            good = mid
        else:
            bad = mid
    return good


def choose_r_min(config: ValidatedConfig) -> float:
    """Largest radius up to :func:`r_min_cap` where the near-origin basis
    meets ``0.1 * tol``, searched from ``config.r_min``.

    ``config.r_min`` is a starting point: where the estimate holds there,
    the radius is doubled while it keeps holding; otherwise it is halved
    until it does.  The last bracket is then bisected geometrically.
    Keeping the radius as large as the estimate allows matters for
    p > 2, where the integration cost grows with the accumulated phase
    ~ r_min^(1 - p/2).  A radius where J(r) overflows float64, as a tiny
    lambda puts it, raises :class:`SingularRegionTooFar`.
    """
    target = _TRUNC_SHARE * config.tol
    cap = r_min_cap(config)
    start = min(config.r_min, cap)
    r = _edge(lambda x: singularity_phase_error(config, x) <= target, start, 2.0, cap, 400)
    if r is None:
        raise SingularRegionTooFar(
            f"could not reach truncation {target:.1e} by shrinking r_min "
            f"(reached r={start * 0.5 ** 400:.3e})"
        )
    try:
        j = invariant_callable(config)(r)
    except (OverflowError, ZeroDivisionError):
        j = math.inf
    if not math.isfinite(j):
        raise SingularRegionTooFar(
            f"J overflows float64 at the inner radius r = {r:.3e} "
            f"(lambda = {config.lam:g}, p = {config.p:g})"
        )
    return r


def choose_r_max_start(config: ValidatedConfig) -> float:
    """Smallest radius, down to twice :func:`r_min_cap`, where the
    far-field truncation estimate meets ``0.1 * tol``, searched from
    ``config.r_max``; the estimate includes a Gaussian barrier's tail.

    ``config.r_max`` is a starting point, as ``config.r_min`` is for
    :func:`choose_r_min`: where the estimate holds there, the radius is
    halved while it keeps holding; otherwise it is doubled until it does.
    The last bracket is then bisected geometrically.  Any radius past the
    one the basis needs is propagated at a cost and gives no accuracy
    back.  The floor keeps the far basis out of the core-dominated region
    and ``r_max`` above ``r_min``.
    """
    target = _TRUNC_SHARE * config.tol
    floor = 2.0 * r_min_cap(config)
    r = _edge(lambda x: eval_asymptotic(config, x, raise_on_error=False).trunc_error <= target,
              config.r_max, 0.5, floor, 15)
    if r is None:
        raise AsymptoticRegionTooClose(
            f"far-field truncation still above {target:.1e} at r={config.r_max * 2.0 ** 15:.3e}"
        )
    return r
