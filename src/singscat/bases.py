"""Fundamental wave bases at the two singular endpoints.

Each member carries conserved current +/-2, and each basis is closed
under conjugation, so only the outgoing member is evaluated, together
with the truncation estimate of the basis at that radius.

Far field (r -> infinity):

    u1(r) ~ k^(-1/2) e^(-i pi/4) e^(+i k r) * f(r)       (outgoing)
    u2(r) = conj(u1(r))                                   (ingoing)

where f(r) = 1 + sum s_gamma r^(-gamma) corrects for the power-law terms
g r^(-alpha) of J - k^2, over the exponents generated from 0 by the steps
1 and alpha - 1.  The series depends on k and those terms only, so it
serves the dual problem below as well.  It is asymptotic, and it is
summed by unit bands [n, n+1) of gamma up to optimal truncation
(DLMF 10.17(iii) for p = 2): the first band whose moduli do not
decrease, or the deepest band built, plus the first correction of a term
too steep to enter the series and a Gaussian barrier's tail, gives the
truncation estimate.  All bands below order _SERIES_CAP are built, and
further ones while the series holds at most _MAX_EXPONENTS exponents.

Near the origin (r -> 0) a problem takes one of three bases:

    conformal (p = 2):
        u+(r) = sqrt(r/theta) (mu r)^(+i theta) F(r),
        F = sum c_n (kr/2)^(2n),  c_0 = 1,  c_n = -c_(n-1) / (n (n + i theta)),
        that is sqrt(r/theta) (2 mu/k)^(i theta) Gamma(1 + i theta) J_(i theta)(kr),
        the exact solution of the pure conformal problem.  The series
        converges for every r; the tail after its last term and its
        rounding, which grows like e^(kr), are the estimate.  With no W
        the radius search therefore ends at the far matching radius,
        where the two series may overlap and the leg between them has
        no length.
    Hankel (p > 2):
        u+(r) = sqrt(pi/n) e^(-i(eta pi/2 + pi/4)) sqrt(r) H2_eta(z)
                * A(r) e^(-i delta(r)),
        z = (2 sqrt(lambda)/n) r^(-n/2), n = p - 2, with the order
        eta = 2|l+nu|/n chosen so the Hankel solution solves the core
        *and* centrifugal parts of the equation exactly.  The factor
        A e^(-i delta) carries the first-order WKB imprint of k^2 and of a
        power-law W (:func:`origin_perturbation`), whose remainder bound
        is the estimate.
    dual (p > 2):
        u+(r) = beta^(1/2) e^(-i pi/4) r^(p/4) u2'(r'),  r' = r^(-n/2),
        beta = 2/n, with u2' the ingoing far member of the dual problem
        P'; the far truncation of P' at r' is the estimate.

The dual problem comes from the power-law duality (p - 2)(p' - 2) = 4.
With r = e^z and u = r^(1/2) w the equation reads

    w_zz = (l^2 - k^2 e^(2z) - lambda e^(-nz) + r^2 W) w,     l = l+nu,

and z = -beta y, r' = e^y turns it into the same equation for P' with
p' = 2 + 4/n, lambda' = beta^2 k^2, k' = beta sqrt(lambda), l' = beta l,
and a power-law term (q, c) of J into (2 - beta (q - 2), beta^2 c).  The
core of P becomes the plane wave of P', so the far series of P' carries
k^2 and a power-law W to all orders, where the Hankel basis carries them
to first order.  A Gaussian W has no power-law image; both p > 2 bases
add its uncorrected phase over (0, r) (``origin_phase``) to their
estimate.  The map sends u+ to beta^(1/2) e^(-i pi/4) u2' and u- to
beta^(1/2) e^(-i pi/4) u1', so a(P') = a(P) and b(P') = -i b(P)*; at
p = 4 with no W, P' is P up to scale and arg b = -pi/4 (mod pi).

A p > 2 problem takes whichever of its two bases meets 0.1 tol at the
larger radius.  The basis and both matching radii are chosen once per
problem, in one cache (:func:`_plan`).  The dual basis reaches further
for p >= 3 at lambda = k = 1, l+nu = 1/2, and the Hankel basis for
p < 3, where r' = r^(-n/2) grows too slowly for the far series; near
p = 3 the choice also depends on lambda, k, l+nu and tol.  The dual
basis is not offered where a series step of P' leaves
[_MIN_DUAL_STEP, _SERIES_CAP).

Powers (mu r)^(i theta) are evaluated as exp(i theta ln(mu r)) with the
real logarithm, which fixes the branch for all r > 0.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import heapq
import math
from typing import Callable, NamedTuple

from .errors import AsymptoticRegionTooClose, SingularRegionTooFar
from .integrate import StateVector
from .model import GaussianBarrier, ValidatedConfig, invariant_callable, power_terms

__all__ = [
    "BasisSample",
    "OriginPerturbation",
    "eval_asymptotic",
    "eval_singularity",
    "origin_perturbation",
    "choose_r_min",
    "r_min_cap",
    "choose_r_max_start",
]

#: Far-series exponents are always generated below this; a term whose
#: step alpha - 1 reaches it never enters the series, and its first
#: correction goes into the estimate instead.
_SERIES_CAP = 10
#: Past _SERIES_CAP the far series grows by whole unit bands while it
#: holds at most this many exponents: a sparse lattice (integer steps
#: give one exponent per band) reaches optimal truncation, and a lattice
#: already denser below the cap keeps that depth and build cost.
_MAX_EXPONENTS = 64
#: Far-field exponents closer than this are one (rounding is far smaller).
_SAME_EXPONENT = 1e-9
#: A coefficient s_gamma lost to float64 ends the far series before its
#: band: one that overflows, and one that underflows to 0 where its term at
#: kr = 1, |s_gamma| k^gamma, would exceed e^_LOST_LOG (about 1e-30); solves
#: run at k = 1, so only a dual series (k' = beta sqrt(lambda)) has the latter.
_LOST_LOG = -69.0
_EXP_M_I_PI_4 = cmath.exp(-0.25j * math.pi)
#: float64 machine epsilon; the p = 2 series stops at a term below eps |F|.
_EPS = 2.0 ** -52
#: Share of ``tol`` that the truncation of either basis may take at the
#: radii where the propagation starts and ends.
_TRUNC_SHARE = 0.1
#: Smallest series step alpha' - 1 of the dual problem that the dual basis
#: takes.  A W exponent q near p/2 + 1 has the image q' = 2 - beta (q - 2)
#: near 1, and the exponents under the cap grow like 1/step: a step of
#: 0.0213 gives 2,277 of them, built in about 12 ms.  The build time grows
#: with the float sums below the cap, rounding twins included: 13,150
#: there, and 30,564 for the step 0.021 of W = 0.5 r^-2.979 at p = 4 (45 ms).
_MIN_DUAL_STEP = 0.02

#: Power-law terms (alpha, g) of J - k^2, alpha > 0, in increasing alpha.
_Terms = tuple[tuple[float, float], ...]
#: Far-series terms (band n, -gamma, s_gamma), see :func:`_series_coefficients`.
_Series = tuple[tuple[int, float, complex], ...]


class BasisSample(NamedTuple):
    """The outgoing basis member (u1 or u+) at one radius, and the
    truncation estimate there; the ingoing member is ``state.conjugate()``."""

    state: StateVector
    trunc_error: float


def _series_coefficients(k: float, terms: _Terms) -> _Series:
    """Nonzero terms (n, -gamma, s_gamma) of the far-field correction
    series of J = k^2 + sum g r^(-alpha) over ``terms``, in increasing
    gamma, n = int(gamma), then a zero term in the band after the deepest
    band built.  The exponents, generated from 0 by the steps 1 and
    alpha - 1 > 0, come off a heap in increasing order, each float once:
    all of them below _SERIES_CAP, then unit band after unit band while the
    series holds at most _MAX_EXPONENTS of them and no coefficient is lost
    (_LOST_LOG).  The equation gives
    2 i k gamma s_gamma = (gamma - 1) gamma s_(gamma-1) + sum g s_(gamma+1-alpha).
    """
    steps = {1.0, *(a - 1.0 for a, _ in terms)}
    heap, seen = [0.0], {0.0}
    known, out = [(0.0, 1.0 + 0j)], []  # the exponents kept so far, with their s_gamma
    cap, popped = _SERIES_CAP, 0

    def at(x: float) -> complex:  # s_x, zero where x is not an exponent
        i = bisect.bisect_left(known, x - _SAME_EXPONENT, key=lambda t: t[0])
        return known[i][1] if i < len(known) and abs(known[i][0] - x) <= _SAME_EXPONENT else 0j

    while True:
        gamma = heapq.heappop(heap)
        if gamma >= cap + 1 and popped <= _MAX_EXPONENTS:
            cap = int(gamma)  # the bands below gamma hold at most _MAX_EXPONENTS
        if gamma >= cap and popped >= _MAX_EXPONENTS:
            break  # keeping the band [cap, cap + 1) would pass the budget
        popped += 1
        for x in {gamma + d for d in steps} - seen:
            seen.add(x)
            heapq.heappush(heap, x)
        if gamma - known[-1][0] <= _SAME_EXPONENT:
            continue  # 0, or a rounding twin of the exponent before
        acc = (gamma - 1.0) * gamma * at(gamma - 1.0)
        for a, g in terms:
            acc += g * at(gamma + 1.0 - a)
        sg = acc / (2j * k * gamma)
        n = int(gamma + _SAME_EXPONENT)
        if not cmath.isfinite(sg) or (sg == 0 and acc != 0 and _LOST_LOG < (
                math.log(abs(acc)) - math.log(2.0 * k * gamma) + gamma * math.log(k))):
            cap = n
            break
        known.append((gamma, sg))
        if sg != 0:
            out.append((n, -gamma, sg))
    return (*(t for t in out if t[0] < cap), (cap, 0.0, 0j))


def _far_series(k: float, coefficients: _Series, r: float) -> tuple[complex, complex, float]:
    """u1 and du1/dr of the outgoing far member of J = k^2 + sum g r^(-alpha)
    at r, from the :func:`_series_coefficients` of its terms, with the
    truncation estimate of the series.

    The series is summed band by band while a band's weighted sum of
    moduli decreases, up to optimal truncation; that sum for the first
    band that does not, or for the deepest band built, relative to |f| is
    the estimate.  A term t = s_gamma r^(-gamma) weighs
    |t| (1 + gamma/(kr)), which bounds its share of u1 relative to |u1|
    and of du1/dr relative to k |u1|.
    """
    deepest = coefficients[-1][0] - 1
    inv_kr = 1.0 / (k * r)
    f, g, omitted, prev_mag = 1.0 + 0j, 0j, 0.0, math.inf  # g = r df/dr
    band, f_band, g_band, mag = coefficients[0][0], 0j, 0j, 0.0
    for n, e, c in coefficients:
        if n != band:  # band closed; the final zero term closes the last one
            if mag >= prev_mag or band >= deepest:
                omitted = mag
                break
            f += f_band
            g += g_band
            prev_mag = mag
            band, f_band, g_band, mag = n, 0j, 0j, 0.0
        t = c * r ** e
        f_band += t
        g_band += e * t
        mag += abs(t) * (1.0 - e * inv_kr)

    pref = _EXP_M_I_PI_4 / math.sqrt(k)
    phase = cmath.exp(1j * k * r)
    return pref * phase * f, pref * phase * (1j * k * f + g / r), omitted / max(abs(f), 1e-12)


@functools.lru_cache(maxsize=64)
def _series(k: float, terms: _Terms) -> tuple[_Series, tuple[tuple[float, float], ...]]:
    """The far series of J = k^2 + sum g r^(-alpha) over ``terms``, built
    once per (k, terms) and shared by a problem and its dual, and the
    first corrections (-gamma, |s_gamma|) of the terms left out of it: a
    term whose step gamma = alpha - 1 reaches the cap first enters as
    s_gamma = g / (2 i k gamma)."""
    beyond = tuple((1.0 - a, abs(g) / (2.0 * k * (a - 1.0)))
                   for a, g in terms if a - 1.0 >= _SERIES_CAP)
    admitted = tuple(t for t in terms if t[0] - 1.0 < _SERIES_CAP)
    return _series_coefficients(k, admitted), beyond


def _outgoing(k: float, terms: _Terms, r: float) -> tuple[complex, complex, float]:
    """u1, du1/dr and the truncation estimate at r of the outgoing far
    member of J = k^2 + sum g r^(-alpha) over ``terms``: the estimate of
    the series plus the first correction of each term too steep for it,
    weighed as the terms of the series are.  Where a power r^(-gamma) of
    the series passes float64, at a radius far inside kr ~ 1 that a
    radius search may try, u1 and du1/dr are nan and the estimate inf."""
    series, beyond = _series(k, terms)
    try:
        u1, du1, est = _far_series(k, series, r)
    except OverflowError:
        return cmath.nan, cmath.nan, math.inf
    return u1, du1, est + sum(s * r ** e * (1.0 - e / (k * r)) for e, s in beyond)


def _far_terms(config: ValidatedConfig) -> _Terms:
    """The power-law terms of J - k^2, which the far series corrects for."""
    return tuple(t for t in power_terms(config) if t[0] > 0.0)


def eval_asymptotic(config: ValidatedConfig, r: float) -> BasisSample:
    """Outgoing far-field member u1 with its derivative at r.

    The truncation estimate is that of the correction series, plus the
    first correction of each power-law term too steep for the series
    (alpha - 1 >= _SERIES_CAP, the core for p >= 11), plus a Gaussian
    barrier's tail.  It is reported, not enforced: :func:`_plan` picks the
    radius where it meets its share of ``config.tol``.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    u1, du1, est = _outgoing(config.k, _far_terms(config), r)
    if config.extra_potential:  # a Gaussian barrier's tail; a power law leaves none
        est += config.extra_potential.tail_integral(r) / (2.0 * config.k)
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


def _barrier_phase(config: ValidatedConfig, r: float) -> float:
    """A Gaussian barrier's uncorrected WKB phase over (0, r); 0.0 for a
    power-law W or none, which the p > 2 bases carry."""
    ep = config.extra_potential
    return ep.origin_phase(r, config.lam, config.p) if ep is not None else 0.0


class _Basis(NamedTuple):
    """A near-origin basis.  ``member(config, r)`` gives u+, du+/dr and
    the truncation estimate at r; ``estimate(config, r)`` gives the
    estimate alone, which the radius search evaluates.  Neither includes
    a Gaussian barrier's phase."""

    member: Callable[[ValidatedConfig, float], tuple[complex, complex, float]]
    estimate: Callable[[ValidatedConfig, float], float]


def _conformal_member(config: ValidatedConfig, r: float) -> tuple[complex, complex, float]:
    """The p = 2 basis (the centrifugal term is absorbed into the
    effective coupling) and its estimate: the series F of
    Gamma(1 + i theta) (kr/2)^(-i theta) J_(i theta)(kr) (DLMF 10.2.2),
    summed until a term falls below eps |F|.

    The term ratios x / (n (n + i theta)), x = (kr/2)^2, shrink with n,
    so the tail after the last term t is below |t| q / (1 - q) with q the
    next ratio.  The estimate is that tail plus a rounding bound
    n eps sum |t_n|, both relative to |F|."""
    th = config.theta
    x = 0.25 * (config.k * r) ** 2
    t = f = 1.0 + 0j
    g = 0j  # sum n t_n = (r/2) dF/dr
    mag, n = 1.0, 0
    while abs(t) > _EPS * abs(f):
        n += 1
        t *= -x / (n * (n + 1j * th))
        f += t
        g += n * t
        mag += abs(t)
    q = x / ((n + 1) * abs(n + 1 + 1j * th))
    est = (abs(t) * q / (1.0 - q) + n * _EPS * mag) / abs(f)
    pref = math.sqrt(r / th) * cmath.exp(1j * th * math.log(config.mu * r))
    u = pref * f
    return u, u * (0.5 + 1j * th) / r + pref * 2.0 * g / r, est


def _conformal_estimate(config: ValidatedConfig, r: float) -> float:
    """The truncation and rounding bound of the p = 2 series."""
    return _conformal_member(config, r)[2]


def _hankel_member(config: ValidatedConfig, r: float) -> tuple[complex, complex, float]:
    """The p > 2 Hankel basis with its first-order imprint of k^2 and of a
    power-law W, and the remainder bound of :func:`origin_perturbation`."""
    from scipy.special import hankel2  # only a solve on this basis loads scipy

    pert = origin_perturbation(config, r)
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
    return u, du, pert.remainder


def _hankel_estimate(config: ValidatedConfig, r: float) -> float:
    """The Hankel basis's bound, without evaluating Hankel functions."""
    return origin_perturbation(config, r).remainder


def _dual_problem(config: ValidatedConfig) -> tuple[float, _Terms] | None:
    """k' and the power-law terms of J' - k'^2 of the dual problem P', or
    None where the dual basis is not offered.

    With beta = 2/n, P' has k' = beta sqrt(lambda), the centrifugal term
    of l' = beta (l+nu), and the term (2 - beta (q - 2), beta^2 c) for
    every other power-law term (q, c) of J but the core: k^2 becomes the
    core beta^2 k^2 r'^(-p').  None for p = 2, and where a series step
    alpha' - 1 of P' leaves [_MIN_DUAL_STEP, _SERIES_CAP): below it, the
    exponents of a W near the limit q = p/2 + 1 crowd the series; at the
    cap, for p <= 2 + 4/9, the image of k^2 leaves the series and its
    estimate.
    """
    if config.is_conformal:
        return None
    beta = 2.0 / config.n_exponent
    terms = [(2.0 - beta * (q - 2.0), beta * beta * c)
             for q, c in power_terms(config) if q not in (2.0, config.p)]
    terms.append((2.0, 0.25 - (beta * config.l_plus_nu) ** 2))
    if not all(_MIN_DUAL_STEP <= a - 1.0 < _SERIES_CAP for a, _ in terms):
        return None
    return beta * math.sqrt(config.lam), tuple(sorted(t for t in terms if t[1] != 0.0))


def _dual_member(config: ValidatedConfig, r: float) -> tuple[complex, complex, float]:
    """The p > 2 dual basis: the image of the ingoing far member u2' of
    P' at r' = r^(-n/2), and the far truncation estimate of P' there."""
    k_dual, terms = _dual_problem(config)
    n, quarter_p = config.n_exponent, 0.25 * config.p
    r_dual = r ** (-0.5 * n)
    u1, du1, est = _outgoing(k_dual, terms, r_dual)
    pref = _EXP_M_I_PI_4 * math.sqrt(2.0 / n) * r ** quarter_p
    u = pref * u1.conjugate()
    du = pref * (quarter_p * u1.conjugate() - 0.5 * n * r_dual * du1.conjugate()) / r
    return u, du, est


def _dual_estimate(config: ValidatedConfig, r: float) -> float:
    """The far truncation of P' at r' = r^(-n/2)."""
    return _dual_member(config, r)[2]


_CONFORMAL = _Basis(_conformal_member, _conformal_estimate)
_HANKEL = _Basis(_hankel_member, _hankel_estimate)
_DUAL = _Basis(_dual_member, _dual_estimate)


class _Plan(NamedTuple):
    """The near-origin basis of one problem and its two matching radii,
    each None where its search finds none."""

    basis: _Basis
    r_min: float | None
    r_max: float | None


@functools.lru_cache(maxsize=64)
def _plan(config: ValidatedConfig) -> _Plan:
    """Choose, once per problem, the near-origin basis and the radii where
    each basis meets ``0.1 tol``; every solve of the problem reads them.

    The far radius ``r_max`` is the smallest, down to twice
    :func:`r_min_cap`, where :func:`eval_asymptotic`'s estimate holds.  The
    floor keeps the far basis out of the core-dominated region and
    ``r_max`` above ``r_min``; any radius past the one the basis needs is
    propagated at a cost and gives no accuracy back.

    The inner radius ``r_min`` is the largest where a near-origin
    estimate, plus a Gaussian barrier's phase, holds, up to
    :func:`r_min_cap`; for p = 2 with no W up to ``r_max`` instead (at
    most half ``config.r_max``), since the conformal member is the exact
    solution: where both series hold, the leg between them has no length.
    Of the bases offered, the one that holds at the larger radius is
    taken, the first offered (conformal or Hankel) where none does or
    where ``r_min_cap`` finds no core-dominated region (then neither
    radius is searched).  A large ``r_min`` matters for p > 2, where the
    integration cost grows with the accumulated phase ~ r_min^(1 - p/2).

    Each search starts from ``config.r_max`` or ``config.r_min``: where
    the estimate holds there, the radius moves inward (r_max) or outward
    (r_min) while it keeps holding; otherwise the other way until it does,
    at most 15 doublings or 400 halvings.  The last bracket is then
    bisected geometrically.  For the dual basis the outward search in r is
    the inward far search of P' in r'.
    """
    if config.is_conformal:
        offered: tuple[_Basis, ...] = (_CONFORMAL,)
    elif _dual_problem(config) is None:
        offered = (_HANKEL,)
    else:
        offered = (_HANKEL, _DUAL)
    try:
        cap = r_min_cap(config)
    except SingularRegionTooFar:  # the choosers raise it; point evaluations go on
        return _Plan(offered[0], None, None)
    target = _TRUNC_SHARE * config.tol
    r_max = _edge(lambda x: eval_asymptotic(config, x).trunc_error <= target,
                  config.r_max, 0.5, 2.0 * cap, 15)
    if config.is_conformal and config.extra_potential is None and r_max is not None:
        cap = min(0.5 * config.r_max, r_max)
    start = min(config.r_min, cap)
    best, r_min = offered[0], None
    for basis in offered:
        try:
            r = _edge(lambda x: basis.estimate(config, x) + _barrier_phase(config, x) <= target,
                      start, 2.0, cap, 400)
        except (OverflowError, ZeroDivisionError):  # r^(-n/2) past float64, or r = 0
            r = None
        if r is not None and (r_min is None or r > r_min):
            best, r_min = basis, r
    return _Plan(best, r_min, r_max)


def eval_singularity(config: ValidatedConfig, r: float) -> BasisSample:
    """Outgoing near-origin member u+ with its derivative at r, on the
    basis of the problem's plan (:func:`_plan`).

    The truncation estimate is that basis's (see the module docstring),
    plus a Gaussian barrier's uncorrected phase over (0, r).  It is
    reported, not enforced: :func:`choose_r_min` reads the radius where it
    meets its share of ``config.tol``.  The basis, and so the estimate at
    r, also depends on ``config.r_min``, ``r_max`` and ``tol``.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    u, du, est = _plan(config).basis.member(config, r)
    return BasisSample(StateVector(r, u, du), est + _barrier_phase(config, r))


def r_min_cap(config: ValidatedConfig) -> float:
    """Upper end of the inner-radius search: half of ``config.r_max``,
    and inside the core-dominated region, where each of the n other terms
    of J (k^2, a centrifugal term for p > 2, W bounded by its coefficient
    or height) stays below lambda r^(-p) / (2n).  For p = 2 with no W the
    search goes on past it to the far matching radius (see :func:`_plan`);
    twice this radius is the floor of that one.

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
        mid = math.sqrt(good) * math.sqrt(bad)  # the product underflows below 1e-154
        if ok(mid):
            good = mid
        else:
            bad = mid
    return good


def choose_r_min(config: ValidatedConfig) -> float:
    """Inner matching radius of the problem's plan (:func:`_plan`): the
    largest, up to its search limit, where its near-origin basis meets
    ``0.1 * tol``.  A radius where J(r) overflows float64, as a tiny
    lambda puts it, raises :class:`SingularRegionTooFar`, as does a
    problem with no such radius.
    """
    r = _plan(config).r_min
    if r is None:
        start = min(config.r_min, r_min_cap(config))
        raise SingularRegionTooFar(
            f"could not reach truncation {_TRUNC_SHARE * config.tol:.1e} by shrinking r_min "
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
    """Far matching radius of the problem's plan (:func:`_plan`): the
    smallest, down to twice :func:`r_min_cap`, where the far-field
    estimate, a Gaussian barrier's tail included, meets ``0.1 * tol``.
    Raises :class:`AsymptoticRegionTooClose` where there is none, and
    :class:`SingularRegionTooFar` where ``r_min_cap`` finds no
    core-dominated region.
    """
    r = _plan(config).r_max
    if r is None:
        r_min_cap(config)  # raises where the plan searched no radius
        raise AsymptoticRegionTooClose(
            f"far-field truncation still above {_TRUNC_SHARE * config.tol:.1e} "
            f"at r={config.r_max * 2.0 ** 15:.3e}"
        )
    return r
