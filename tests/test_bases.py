import cmath
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singscat import (
    ExtraPotential,
    GaussianBarrier,
    InversePower,
    ProblemConfig,
    current,
    eval_asymptotic,
    eval_singularity,
    invariant_callable,
    isp_exact,
    propagate,
    transfer_matrix,
    validate,
)
from singscat import bases
from singscat.bases import (
    _dual_member,
    _dual_problem,
    _far_terms,
    _hankel_member,
    _series_coefficients,
    choose_r_max_start,
    choose_r_min,
    origin_perturbation,
    r_min_cap,
)
from singscat.errors import SingularRegionTooFar
from tests.conftest import barrier_config, isp_config, quartic_config

QUARTIC = quartic_config()
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GENERIC = validate(ProblemConfig(p=3.0, lam=2.0, k=1.0, l_plus_nu=0.3, tol=1e-8))


def hankel_part(cfg, r):
    """(u, du) of the Hankel basis with amp * exp(-i delta) divided out."""
    got_u, got_du, _ = _hankel_member(cfg, r)
    pert = origin_perturbation(cfg, r)
    phase = cmath.exp(-1j * pert.delta)
    f = pert.amp * phase
    df = (pert.damp - 1j * pert.ddelta * pert.amp) * phase
    u = got_u / f
    return u, (got_du - u * df) / f


def reference_integer_coefficients(cfg, order):
    """s_0 .. s_order from the recursion over integer exponents only that
    the far series used before it took real exponents (integer p and W
    exponent)."""
    terms = {}
    if cfg.theta is not None:
        terms[2] = cfg.lam
    else:
        cf = cfg.l_plus_nu ** 2 - 0.25
        if cf != 0.0:
            terms[2] = -cf
        terms[int(cfg.p)] = terms.get(int(cfg.p), 0.0) + cfg.lam
    if cfg.extra_potential is not None:
        q, g = cfg.extra_potential.power_term()
        terms[int(q)] = terms.get(int(q), 0.0) + g
    terms = sorted((m, g) for m, g in terms.items() if g != 0.0)
    s = [1.0 + 0j]
    for m in range(order):
        acc = m * (m + 1) * s[m]
        for mj, g in terms:
            idx = m + 2 - mj
            if 0 <= idx <= m:
                acc += g * s[idx]
        s.append(acc / (2j * cfg.k * (m + 1)))
    return s


def three_pass_series_coefficients(k, terms):
    """The far-series builder that the heap-ordered one replaced, kept as
    its reference: a set closure regrown to a fixpoint for each unit band,
    a sort of the whole set, and a recurrence that finds each earlier
    coefficient by a linear scan."""
    steps = {1.0, *(a - 1.0 for a, _ in terms)}

    def closure(found, cap):  # + every exponent below cap
        frontier = found
        while frontier:
            frontier = {x + d for x in frontier for d in steps if x + d < cap} - found
            found = found | frontier
        return found

    cap = bases._SERIES_CAP
    found = closure({0.0}, cap)
    while len(found) <= bases._MAX_EXPONENTS:
        wider = closure(found, cap + 1)
        if len(wider) > bases._MAX_EXPONENTS:
            break
        found, cap = wider, cap + 1
    known = [(0.0, 1.0 + 0j)]
    out = []

    def at(x):  # s_x, zero where x is not an exponent
        return next((c for y, c in known if abs(y - x) <= bases._SAME_EXPONENT), 0j)

    for gamma in sorted(found):
        if gamma - known[-1][0] <= bases._SAME_EXPONENT:
            continue  # 0, or a rounding twin of the exponent before
        acc = (gamma - 1.0) * gamma * at(gamma - 1.0)
        for a, g in terms:
            acc += g * at(gamma + 1.0 - a)
        sg = acc / (2j * k * gamma)
        n = int(gamma + bases._SAME_EXPONENT)
        if not cmath.isfinite(sg):  # s_gamma grows like Gamma(gamma) / (2k)^gamma
            cap = n
            break
        known.append((gamma, sg))
        if sg != 0:
            out.append((n, -gamma, sg))
    return (*(t for t in out if t[0] < cap), (cap, 0.0, 0j))


#: Steps whose float sums reach one exponent along paths that differ in
#: the last bit: rounding twins.
TWIN_STEPS = [0.1, 0.2, 0.3, 0.7, 1.1, 1.3, 2.2]


@st.composite
def far_term_sets(draw):
    """k and the power-law terms (alpha, g) of a far series, with 1 to 4
    steps alpha - 1.  As in the problems the series serves, at most one
    step lies below 1: one from 0.1 up (a dual W near its limit) or a
    twin-making decimal; a step below 0.2 comes alone.  The reference's
    linear scan makes a lattice as dense as step 0.021 cost 0.5 s, so the
    test's examples hold those."""
    k = 10.0 ** draw(st.floats(-5.0, 5.0))
    first = draw(st.one_of(st.floats(0.1, 10.0), st.sampled_from(TWIN_STEPS)))
    rest = draw(st.lists(st.one_of(st.floats(1.0, 10.0), st.sampled_from(TWIN_STEPS[4:])),
                         max_size=0 if first < 0.2 else 3))
    coefficient = st.floats(1e-3, 100.0).flatmap(lambda g: st.sampled_from([g, -g]))
    return k, tuple(sorted((1.0 + d, draw(coefficient)) for d in [first, *rest]))


@st.composite
def integer_tail_configs(draw):
    p = draw(st.integers(2, 8))
    lam = draw(st.floats(0.3, 5.0)) if p == 2 else draw(st.floats(0.01, 5.0))
    ep = None
    # an inverse_power W needs an integer exponent 2 < q < p/2 + 1
    exponents = [q for q in range(3, 9) if q < p / 2.0 + 1.0]
    if exponents and draw(st.booleans()):
        ep = ExtraPotential.from_descriptor({
            "name": "inverse_power",
            "coefficient": draw(st.floats(-2.0, 2.0)),
            "exponent": float(draw(st.sampled_from(exponents))),
        })
    return validate(ProblemConfig(
        p=float(p), lam=lam, k=draw(st.floats(0.05, 5.0)),
        l_plus_nu=draw(st.floats(0.0, 3.0)), extra_potential=ep,
    ))


W25 = ExtraPotential.from_descriptor({"name": "inverse_power", "coefficient": 0.5, "exponent": 2.5})
W23 = ExtraPotential.from_descriptor({"name": "inverse_power", "coefficient": 0.7, "exponent": 2.3})
NONINTEGER = {
    "p2.5": validate(ProblemConfig(p=2.5, lam=1.25, k=1.0, tol=1e-8)),
    "p3.5": validate(ProblemConfig(p=3.5, lam=1.0, k=1.0, l_plus_nu=0.5, tol=1e-8)),
    "p4_W2.5": validate(ProblemConfig(p=4.0, lam=1.0, k=1.0, l_plus_nu=0.5, tol=1e-8,
                                      extra_potential=W25)),
    # steps 1, 1.3 and 2.2 reach many exponents along paths whose float
    # sums differ in the last bit; each such exponent must count once
    "p3.2_W2.3": validate(ProblemConfig(p=3.2, lam=1.0, k=1.0, tol=1e-8, extra_potential=W23)),
}


class TestFarSeries:
    @settings(deadline=None, max_examples=200)
    @given(cfg=integer_tail_configs())
    def test_integer_exponents_match_reference_exactly(self, cfg):
        # with integer exponents the series over real exponents is the old
        # integer recursion, float operation for float operation; one
        # exponent per unit band, so the bands run to the exponent budget
        series = _series_coefficients(cfg.k, _far_terms(cfg))
        deepest = bases._MAX_EXPONENTS - 1
        assert series[-1] == (deepest + 1, 0.0, 0j)
        got = {-e: c for _, e, c in series[:-1]}
        assert set(got) <= {float(m) for m in range(1, deepest + 1)}
        ref = reference_integer_coefficients(cfg, deepest)
        for m in range(1, deepest + 1):
            assert got.get(float(m), 0j) == ref[m]

    @settings(deadline=None, max_examples=60)
    @given(case=far_term_sets())
    @example(case=(1.0, ((1.021, -0.5), (4.0, 1.0))))  # the dual of p = 4, W = 0.5 r^-2.979
    @example(case=(1e-3, ((1.05, 0.7),)))  # a dense lattice whose coefficients overflow
    @example(case=(1.0, ((2.0, 0.25), (2.3, -0.7), (3.2, 1.0))))  # twins: p = 3.2, W = 0.7 r^-2.3
    @example(case=(1e-5, ((2.0, 1.25),)))  # coefficients overflow in band 52
    @example(case=(1.0, ((2.0, 0.25), (2.0000000015, 0.5))))  # kept exponents 1.5e-9 apart
    def test_one_ordered_pass_matches_the_three_passes(self, case):
        # the heap pops each float once in increasing order, so twins count
        # toward the budget and are skipped in the recurrence exactly as in
        # the set closure, and the series ends at the same band
        k, terms = case
        assert _series_coefficients(k, terms) == three_pass_series_coefficients(k, terms)

    def test_noninteger_exponents_are_terms(self):
        # p = 2.5, l+nu = 0: steps 1 and 1.5 give every multiple of 1/2
        # from 1 on, two per unit band: 0 and 62 more fill the budget of 64
        cfg = NONINTEGER["p2.5"]
        got = [-e for _, e, _ in _series_coefficients(cfg.k, _far_terms(cfg))[:-1]]
        assert got == [0.5 * j for j in range(2, 64)]

    def test_deepest_band_is_the_estimate_where_all_decrease(self):
        # far out every band the series holds decreases; the deepest one,
        # band 63 for p = 2, is then the estimate, not 0
        cfg = isp_config(1.0)
        r = 1e4
        series = _series_coefficients(cfg.k, _far_terms(cfg))
        deepest = sum(abs(c) * r ** e for n, e, c in series if n == 63)
        far = eval_asymptotic(cfg, r)
        assert far.trunc_error == pytest.approx(deepest * (1.0 + 63.0 / r), rel=1e-12)
        assert far.trunc_error > 0.0

    def test_series_ends_before_its_coefficients_overflow(self):
        # s_gamma grows like Gamma(gamma) / (2k)^gamma: at k = 1e-5 it
        # would overflow float64 in band 52, so the series ends at band 51,
        # and far out the estimate is a number, not inf * 0
        cfg = isp_config(1.0, k=1e-5)
        series = _series_coefficients(cfg.k, _far_terms(cfg))
        assert series[-1] == (52, 0.0, 0j)
        assert all(cmath.isfinite(c) for _, _, c in series)
        assert eval_asymptotic(cfg, 100.0 / cfg.k).trunc_error < cfg.tol

    @pytest.mark.parametrize("cfg", [
        validate(ProblemConfig.from_json(str(CONFIGS / "hankel_inverse_power.json"))),
        validate(ProblemConfig(p=2.0001, lam=1.25, k=1.0, tol=1e-8)),
        validate(ProblemConfig(p=2.01, lam=1.25, k=1.0, tol=1e-8)),
        validate(ProblemConfig(p=4.0, lam=1.0, k=1.0, l_plus_nu=0.5, tol=1e-6,
                               extra_potential=InversePower(0.5, 2.979))),
    ], ids=["hankel_inverse_power", "p2.0001", "p2.01", "p4_W2.979"])
    def test_dense_lattices_keep_their_depth(self, cfg):
        # the densest series each problem builds (its dual's, where one is
        # offered) holds so many exponents below the cap that one more
        # band would pass the budget, so it holds exactly those, as it
        # always did, and its build cost does not grow: the dual of
        # W = 0.5 r^-2.979 holds 2,297 exponents and takes about 45 ms
        k, terms = _dual_problem(cfg) or (cfg.k, _far_terms(cfg))
        series = _series_coefficients(k, terms)
        assert len(series) > bases._MAX_EXPONENTS - 10
        assert series[-1] == (bases._SERIES_CAP, 0.0, 0j)

    @pytest.mark.parametrize("name", sorted(NONINTEGER))
    def test_noninteger_tail_basis_solves_equation(self, name):
        # the far-field state at r, propagated to 2 r, is the far-field
        # state there: the series carries the non-integer tail
        cfg = NONINTEGER[name]
        r = choose_r_max_start(cfg)
        assert r < cfg.r_max
        moved = propagate(cfg, eval_asymptotic(cfg, r).state, 2.0 * r).final
        there = eval_asymptotic(cfg, 2.0 * r).state
        scale = abs(there.u)
        assert abs(moved.u - there.u) < cfg.tol * scale
        assert abs(moved.du - there.du) < cfg.tol * cfg.k * scale


class TestAsymptotic:
    def test_modulus_product_is_inverse_k(self):
        cfg = isp_config(1.0, k=2.0)
        one = eval_asymptotic(cfg, 1e7).state
        assert one.u * one.conjugate().u == pytest.approx(1.0 / 2.0, rel=1e-6)

    def test_unit_currents(self):
        for cfg in (isp_config(0.5), QUARTIC):
            one = eval_asymptotic(cfg, 1e5).state
            assert current(one).real == pytest.approx(2.0, abs=1e-9)
            assert current(one.conjugate()).real == pytest.approx(-2.0, abs=1e-9)

    def test_conjugation(self):
        # the ingoing member u2 = u1* carries exactly minus the current of
        # u1, bit for bit, so checking u1 alone covers both
        for r in (200.0, 1234.5):
            one = eval_asymptotic(isp_config(2.0), r).state
            assert current(one.conjugate()).real == -current(one).real

    def test_leading_form_error_against_exact_solution(self):
        # uncorrected plane-wave form vs the exact outgoing solution of the
        # conformal problem at k r = 50: deviation is at the 1/(k r) scale
        r = 50.0
        lead = cmath.exp(-0.25j * math.pi) * cmath.exp(1j * r)
        mp.mp.dps = 25
        exact = complex(
            mp.sqrt(mp.pi / 2) * mp.e ** (-mp.pi / 2) * mp.sqrt(r) * mp.hankel1(mp.mpc(0, 1), r)
        )
        dev = abs(lead - exact) / abs(exact)
        assert dev == pytest.approx(0.012498307, rel=1e-4)
        assert dev < 0.02

    def test_corrected_form_beats_leading(self):
        # with the correction series the same comparison drops by orders
        cfg = isp_config(1.0, tol=1e-2)
        r = 50.0
        one = eval_asymptotic(cfg, r).state
        mp.mp.dps = 25
        exact = complex(
            mp.sqrt(mp.pi / 2) * mp.e ** (-mp.pi / 2) * mp.sqrt(r) * mp.hankel1(mp.mpc(0, 1), r)
        )
        assert abs(one.u - exact) / abs(exact) < 1e-6

    @pytest.mark.parametrize("theta", [0.05, 0.5, 2.0, 10.0])
    @pytest.mark.parametrize("kr", [10.0, 12.5, 15.0])
    def test_estimate_bounds_the_error_of_both_components(self, theta, kr):
        # the p = 2 far member is sqrt(pi/2) e^(-pi theta/2) sqrt(r)
        # H1_(i theta)(kr) (DLMF 10.17(iii)); summed to optimal truncation
        # its estimate bounds the error of u1 and of du1 (there a term of
        # order gamma weighs 1 + gamma/(kr) for its derivative).  At
        # theta = 10 the series has not begun to converge, and the estimate
        # says so
        cfg = isp_config(theta, k=2.7)
        r = kr / cfg.k
        far = eval_asymptotic(cfg, r)
        with mp.workdps(30):
            nu, x = mp.mpc(0.0, cfg.theta), mp.mpf(kr)
            pref = mp.sqrt(mp.pi / 2) * mp.exp(-mp.pi * cfg.theta / 2) * mp.sqrt(mp.mpf(r))
            h = mp.hankel1(nu, x)
            dh = mp.diff(lambda z: mp.hankel1(nu, z), x)
            want_u = complex(pref * h)
            want_du = complex(pref * (h / (2 * mp.mpf(r)) + cfg.k * dh))
        assert abs(far.state.u - want_u) <= far.trunc_error * abs(far.state.u)
        assert abs(far.state.du - want_du) <= far.trunc_error * abs(far.state.du)
        assert (far.trunc_error > 1.0) == (theta == 10.0)

    def test_too_close_reports_estimate(self):
        # the evaluation reports an estimate past tol and leaves the
        # radius to choose_r_max_start, which finds one further out
        cfg = isp_config(1.0)
        close = eval_asymptotic(cfg, 2.0)
        assert close.trunc_error > cfg.tol
        assert close.state.r == 2.0
        assert choose_r_max_start(cfg) > 2.0


def conformal_reference(cfg, r):
    """u+ and du+/dr of the p = 2 basis from mpmath's Bessel function at
    30 digits: sqrt(r/theta) (2 mu/k)^(i theta) Gamma(1 + i theta) J_(i theta)(k r).
    It takes ``cfg.theta = sqrt(lambda - 1/4)``, not the nominal theta:
    at theta = 0.01 the two differ by 5.5e-14 relative."""
    with mp.workdps(30):
        nu = mp.mpc(0.0, cfg.theta)
        r = mp.mpf(r)
        pref = mp.sqrt(r / cfg.theta) * (2 * mp.mpf(cfg.mu) / cfg.k) ** nu * mp.gamma(1 + nu)
        j = mp.besselj(nu, cfg.k * r)
        dj = mp.besselj(nu, cfg.k * r, derivative=1)
        return complex(pref * j), complex(pref * (j / (2 * r) + cfg.k * dj))


class TestConformalBasis:
    @pytest.mark.parametrize("theta", [0.01, 0.5, 2.0])
    @pytest.mark.parametrize("kr", [0.1, 1.0, 1.46])
    @pytest.mark.parametrize("k,mu", [(1.0, 1.0), (2.7, 3.7)])
    def test_matches_bessel_function(self, theta, kr, k, mu):
        # the series carries k^2 to all orders: u+ and du+ are the Bessel
        # solution to rounding, and the estimate bounds the difference
        cfg = isp_config(theta, k=k, mu=mu)
        u, du, est = bases._conformal_member(cfg, kr / k)
        want_u, want_du = conformal_reference(cfg, kr / k)
        err_u = abs(u - want_u) / abs(want_u)
        assert err_u <= 1e-13
        assert abs(du - want_du) / abs(want_du) <= 1e-13
        assert err_u <= est < 1e-13

    @pytest.mark.parametrize("theta", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("kr", [4.0, 8.0, 12.0])
    def test_estimate_bounds_the_error_out_to_the_far_series(self, theta, kr):
        # past k r ~ 1 the terms grow to about e^(kr) / (2 pi kr) before
        # they fall, so the rounding bound n eps sum |t_n| takes over the
        # estimate; it still bounds the error of u+ and du+ out where the
        # far series holds, and where it sets r_min
        cfg = isp_config(theta)
        for r in (kr, choose_r_min(cfg)):
            u, du, est = bases._conformal_member(cfg, r)
            want_u, want_du = conformal_reference(cfg, r)
            assert abs(u - want_u) <= est * abs(want_u)
            assert abs(du - want_du) <= est * abs(want_du)
        assert est <= 0.1 * cfg.tol

    def test_inner_radius_passes_the_core_cap(self):
        # the conformal member is the exact solution, so the search for
        # r_min runs past the core-dominated cap sqrt(lambda/2)/k up to the
        # far radius; at tol 1e-10 the rounding bound of the series ends
        # it first, at k r = 7.9 to 10.2
        for theta in (0.05, 0.5, 2.0):
            for k in (0.5, 2.0):
                cfg = isp_config(theta, k=k)
                assert r_min_cap(cfg) == pytest.approx(math.sqrt(0.5 * cfg.lam) / k, rel=1e-15)
                r = choose_r_min(cfg)
                assert 5.0 * r_min_cap(cfg) < r < choose_r_max_start(cfg)
                assert 7.0 < k * r < 11.0

    @pytest.mark.parametrize("theta", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("k", [1.0, 4.0])
    def test_overlapping_series_leave_no_leg(self, theta, k):
        # at tol 1e-6 the near series holds out to the far radius, so the
        # leg between them has no length and the matrix is the projection
        # of one series on the other
        cfg = isp_config(theta, k=k, tol=1e-6)
        m = transfer_matrix(cfg)
        res = m.residuals
        assert res.r_min_used == res.r_max_used == choose_r_max_start(cfg)
        exact = isp_exact(cfg.theta, cfg.k, cfg.mu)
        assert max(abs(m.a - exact.a), abs(m.b - exact.b)) <= cfg.tol * max(1.0, abs(exact.a))

    def test_search_ends_at_half_r_max_or_the_cap(self):
        # the far radius bounds the search only up to half config.r_max;
        # with a W the conformal member is not exact, and the
        # core-dominated cap ends the search as before
        slow = isp_config(0.5, k=0.25)
        assert choose_r_max_start(slow) > 0.5 * slow.r_max
        assert choose_r_min(slow) == 0.5 * slow.r_max
        faint = slow.replaced(extra_potential=GaussianBarrier(height=1e-12, center=5.0, width=1.0))
        assert choose_r_min(faint) == r_min_cap(faint)


class TestSingularity:
    def test_conformal_unit_value(self):
        # at mu r = 1 and theta = 1 the prefactor is 1, so u+ is the
        # series F(k r) = Gamma(1 + i) (k r/2)^(-i) J_i(k r) alone; as
        # k r -> 0 it is the zero-order value 1, with du+ = 1/2 + i
        cfg = isp_config(1.0)
        plus = eval_singularity(cfg, 1.0).state
        assert plus.u == pytest.approx(conformal_reference(cfg, 1.0)[0], abs=1e-15)
        assert plus.u != pytest.approx(1.0 + 0j, abs=0.1)
        limit = eval_singularity(isp_config(1.0, k=1e-8), 1.0)
        assert limit.state.u == pytest.approx(1.0 + 0j, abs=1e-15)
        assert limit.state.du == pytest.approx(0.5 + 1j, abs=1e-15)
        assert limit.trunc_error < 1e-15

    def test_quartic_closed_form(self):
        # for p = 4 the half-integer Hankel solution is elementary,
        # u_core = r exp(-i/r); the Hankel basis is that core factor times
        # the first-order factor amp * exp(-i delta) of P = k^2, here
        # delta = -k^2 r^3 / 6 and amp = (1 + k^2 r^4)^(-1/4)
        for r in (0.05, 0.3, 1.0):
            got_u, got_du, _ = _hankel_member(QUARTIC, r)
            pert = origin_perturbation(QUARTIC, r)
            assert pert.delta == pytest.approx(-(r ** 3) / 6.0, rel=1e-14)
            assert pert.ddelta == pytest.approx(-(r ** 2) / 2.0, rel=1e-14)
            assert pert.amp == pytest.approx((1.0 + r ** 4) ** -0.25, rel=1e-14)
            assert pert.damp == pytest.approx(-(r ** 3) * (1.0 + r ** 4) ** -1.25, rel=1e-14)
            phase = cmath.exp(-1j * pert.delta)
            f = pert.amp * phase
            df = (pert.damp - 1j * pert.ddelta * pert.amp) * phase
            core = r * cmath.exp(-1j / r)
            dcore = (1.0 + 1j / r) * cmath.exp(-1j / r)
            assert got_u / f == pytest.approx(core, rel=1e-12)
            assert got_du == pytest.approx(dcore * f + core * df, rel=1e-12)

    def test_conjugation(self):
        # as for the far field: u- = u+* carries exactly minus the current
        for cfg, r in ((isp_config(0.5), 1e-4), (QUARTIC, 0.01)):
            plus = eval_singularity(cfg, r).state
            assert current(plus.conjugate()).real == -current(plus).real

    @pytest.mark.parametrize("cfg,r", [(isp_config(1.0), 1e-5), (QUARTIC, 1e-3)])
    def test_unit_currents(self, cfg, r):
        plus = eval_singularity(cfg, r).state
        assert current(plus).real == pytest.approx(2.0, abs=1e-10)
        assert current(plus.conjugate()).real == pytest.approx(-2.0, abs=1e-10)

    def test_generic_order_satisfies_core_equation(self):
        # p = 3 with a generic angular parameter: the Hankel order absorbs
        # the centrifugal term, so the Hankel part u / (amp exp(-i delta))
        # solves u'' + (lam r^-p - cf/r^2) u = 0 exactly; verified by
        # finite-differencing its derivative
        r, h = 0.5, 0.5e-5
        upp = (hankel_part(GENERIC, r + h)[1] - hankel_part(GENERIC, r - h)[1]) / (2.0 * h)
        cf = 0.3 ** 2 - 0.25
        want = -(2.0 * r ** -3.0 - cf / r ** 2) * hankel_part(GENERIC, r)[0]
        assert upp == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("r", [0.02, 0.1, 0.5])
    def test_corrected_basis_beats_core_in_full_equation(self, r):
        # relative residual |u'' + J u| / |J u| of the full equation: P / J
        # for the Hankel part alone, smaller for the corrected basis
        h = 1e-6 * r

        def residual(part):
            upp = (part(r + h)[1] - part(r - h)[1]) / (2.0 * h)
            ju = invariant_callable(GENERIC)(r) * part(r)[0]
            return abs(upp + ju) / abs(ju)

        def corrected_basis(x):
            got = eval_singularity(GENERIC, x).state
            return got.u, got.du

        core = residual(lambda x: hankel_part(GENERIC, x))
        corrected = residual(corrected_basis)
        assert core == pytest.approx(1.0 / invariant_callable(GENERIC)(r), rel=1e-3)
        # the leftover is the amplitude factor's curvature, of relative
        # order r^(p-2) = r against P / J
        assert corrected < 2.0 * r * core

    def test_generic_order_currents(self):
        cfg = validate(ProblemConfig(p=3.0, lam=2.0, k=1.0, l_plus_nu=0.3, tol=1e-8))
        plus = eval_singularity(cfg, 1e-3).state
        assert current(plus).real == pytest.approx(2.0, abs=1e-10)
        assert current(plus.conjugate()).real == pytest.approx(-2.0, abs=1e-10)

    def test_scale_rescaling_is_pure_phase(self):
        th = 1.3
        cfg1 = isp_config(th, mu=1.0)
        cfg2 = isp_config(th, mu=3.7)
        for r in (1e-5, 1e-3):
            a = eval_singularity(cfg1, r).state
            b = eval_singularity(cfg2, r).state
            factor = cmath.exp(1j * cfg1.theta * math.log(3.7))
            assert b.u == pytest.approx(a.u * factor, rel=1e-13)
            assert b.du == pytest.approx(a.du * factor, rel=1e-13)

    def test_perturbation_evaluated_once_per_call(self, monkeypatch):
        # GENERIC keeps the Hankel basis; choosing it evaluates the bound
        # at every trial radius, once per problem, before the spy
        assert choose_r_min(GENERIC) and bases._plan(GENERIC).basis is bases._HANKEL
        calls = []

        def spy(config, r):
            calls.append(r)
            return origin_perturbation(config, r)

        monkeypatch.setattr(bases, "origin_perturbation", spy)
        eval_singularity(GENERIC, 0.01)
        assert calls == [0.01]
        calls.clear()
        eval_singularity(isp_config(1.0), 0.01)  # p = 2: none
        assert calls == []

    def test_too_far_reports_estimate(self):
        # as for the far field: past tol the estimate is reported, and
        # choose_r_min finds a radius further in (on the Hankel basis; the
        # p = 2 series holds up to its cap)
        cfg = NONINTEGER["p2.5"]
        far = eval_singularity(cfg, 0.1)
        assert bases._plan(cfg).basis is bases._HANKEL
        assert far.trunc_error > cfg.tol
        assert far.state.r == 0.1
        assert choose_r_min(cfg) < 0.1

    def test_point_evaluation_needs_no_core_dominated_region(self):
        # p just above 2 with a centrifugal term that beats the core at
        # r = 1: r_min_cap finds no core-dominated region, so both
        # choosers raise it, while a point evaluation takes the Hankel basis
        cfg = validate(ProblemConfig(p=2.0001, lam=1.25, k=1.0, l_plus_nu=1.0, tol=1e-8))
        with pytest.raises(SingularRegionTooFar, match="centrifugal"):
            r_min_cap(cfg)
        plus = eval_singularity(cfg, 0.01)
        assert bases._plan(cfg).basis is bases._HANKEL
        assert plus.trunc_error == origin_perturbation(cfg, 0.01).remainder
        assert plus.state.u == _hankel_member(cfg, 0.01)[0]
        with pytest.raises(SingularRegionTooFar, match="centrifugal"):
            choose_r_min(cfg)
        with pytest.raises(SingularRegionTooFar, match="centrifugal"):
            choose_r_max_start(cfg)


class TestDualBasis:
    # (lambda, k, l+nu) of the bare cores; radii where both bases hold,
    # between the float64 floor of the Hankel functions and 1e-3
    CORES = [(1.0, 1.0, 0.5), (2.0, 0.7, 1.3)]

    def test_self_dual_quartic_builds_one_series(self):
        # at p = 4, lambda = k^2, l+nu = 1/2 the dual problem is the problem
        # itself, so both ends sum the one far series
        cfg = quartic_config(tol=1e-8)
        assert _dual_problem(cfg) == (cfg.k, _far_terms(cfg))
        bases._series.cache_clear()
        bases._plan.cache_clear()
        transfer_matrix(cfg)
        assert bases._plan(cfg).basis is bases._DUAL
        info = bases._series.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    @pytest.mark.parametrize("p, radii", [
        (3.0, (0.003, 0.01, 0.03)), (4.0, (0.01, 0.03, 0.1)),
        (6.0, (0.03, 0.1, 0.3)), (8.0, (0.1, 0.3)),
    ])
    def test_agrees_with_hankel_within_estimates(self, p, radii):
        # two independent bases of one solution: the all-orders dual far
        # series and the first-order Hankel form; a prefactor off by
        # i n/2 fails this at every radius
        for lam, k, lpn in self.CORES:
            cfg = validate(ProblemConfig(p=p, lam=lam, k=k, l_plus_nu=lpn))
            for r in radii:
                hu, hdu, h_est = _hankel_member(cfg, r)
                du_, ddu, d_est = _dual_member(cfg, r)
                assert abs(du_ - hu) <= (h_est + d_est) * abs(hu)
                assert abs(ddu - hdu) <= (h_est + d_est) * abs(hdu)

    @pytest.mark.parametrize("p, w, radii", [
        (4.0, (0.5, 2.5), (0.01, 0.03, 0.1)), (6.0, (0.5, 3.0), (0.03, 0.1, 0.3)),
        (8.0, (0.3, 3.0), (0.1,)), (3.0, (-0.4, 2.2), (0.003, 0.01, 0.03)),
    ])
    def test_power_law_w_agrees_with_hankel(self, p, w, radii):
        # the dual of W = c r^-q has the exponent q' = 2 - beta (q - 2) in
        # (1, 2), which InversePower itself rejects
        cfg = validate(ProblemConfig(p=p, lam=1.0, k=1.0, l_plus_nu=0.5,
                                     extra_potential=InversePower(*w)))
        q_dual = 2.0 - 2.0 * (w[1] - 2.0) / (p - 2.0)
        assert any(a == pytest.approx(q_dual) for a, _ in _dual_problem(cfg)[1])
        for r in radii:
            hu, hdu, h_est = _hankel_member(cfg, r)
            du_, ddu, d_est = _dual_member(cfg, r)
            assert abs(du_ - hu) <= (h_est + d_est) * abs(hu)
            assert abs(ddu - hdu) <= (h_est + d_est) * abs(hdu)

    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0, 8.0])
    def test_strong_cores_take_the_dual_basis_further_out(self, p):
        cfg = validate(ProblemConfig(p=p, lam=1.0, k=1.0, l_plus_nu=0.5))
        r = choose_r_min(cfg)
        assert bases._plan(cfg).basis is bases._DUAL
        assert eval_singularity(cfg, r).trunc_error <= 0.1 * cfg.tol
        # the Hankel bound misses the target there
        assert origin_perturbation(cfg, r).remainder > 0.1 * cfg.tol

    @pytest.mark.parametrize("p", [2.0001, 2.01, 2.5])
    def test_near_two_solves_on_the_hankel_basis(self, p):
        # below p = 2 + 4/9 the image of k^2 leaves the dual series; at
        # p = 2.5 the dual basis is offered, but Hankel reaches further
        cfg = validate(ProblemConfig(p=p, lam=1.25, k=1.0, tol=1e-8))
        assert (_dual_problem(cfg) is None) == (p < 2.4)
        m = transfer_matrix(cfg)
        assert bases._plan(cfg).basis is bases._HANKEL
        assert abs(abs(m.a) ** 2 - abs(m.b) ** 2 - 1.0) < 100.0 * cfg.tol

    def test_dual_step_floor_falls_back_to_hankel_before_the_series(self, monkeypatch):
        # q -> p/2 + 1 sends the dual step q' - 1 to 0 and the number of
        # series exponents to infinity; below the floor no dual series is
        # built, only the far series of the problem itself
        built = []
        honest = bases._series_coefficients

        def spy(k, terms):
            built.append((k, terms))
            return honest(k, terms)

        bases._series.cache_clear()
        monkeypatch.setattr(bases, "_series_coefficients", spy)
        w = InversePower(coefficient=0.5, exponent=2.9999999999)
        cfg = validate(ProblemConfig(p=4.0, lam=1.0, k=1.0, l_plus_nu=0.5, tol=1e-6,
                                     extra_potential=w))
        t0 = time.perf_counter()
        assert _dual_problem(cfg) is None
        assert bases._plan(cfg).basis is bases._HANKEL
        assert time.perf_counter() - t0 < 5.0
        assert built == [(cfg.k, _far_terms(cfg))]
        # a step of 0.05 is above the floor: the dual basis is offered
        steep = cfg.replaced(extra_potential=InversePower(coefficient=0.5, exponent=2.95))
        assert _dual_problem(steep) is not None

    def test_quartic_solve_does_not_load_scipy(self):
        # scipy.special serves only the Hankel basis; a p = 2.5 solve, on
        # the Hankel basis, shows that the probe sees it
        code = (
            "import sys, singscat\n"
            "def solve(p):\n"
            "    singscat.transfer_matrix(singscat.validate(singscat.ProblemConfig(\n"
            "        p=p, lam=1.25, k=1.0, l_plus_nu=0.5, tol=1e-8)))\n"
            "    return 'scipy.special' in sys.modules\n"
            "print('scipy' in sys.modules, solve(4.0), solve(2.5))\n"
        )
        src = os.path.dirname(os.path.dirname(bases.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.split() == ["False", "False", "True"]


class TestRegionSelection:
    # p = 3 with a large centrifugal term at loose tol: the core-dominated
    # cap, not the estimate, ends the outward search
    CAPPED = validate(ProblemConfig(p=3.0, lam=1.0, k=0.5, l_plus_nu=5.0, tol=1e-2))
    # p = 2 at small k: the far series is too coarse at config.r_max
    OUTWARD = validate(ProblemConfig(p=2.0, lam=4.25, k=0.1, tol=1e-10))
    # a weak, steep core at loose tol and large k: the far series holds
    # down to the floor
    FLOORED = validate(ProblemConfig(p=10.0, lam=1e-2, k=20.0, l_plus_nu=0.5, tol=1e-3))

    def test_choose_r_min_meets_target(self):
        # the estimate holds at r and fails just above it, unless the cap
        # is reached; bisecting the last one-octave bracket resolves the
        # crossing to a factor 2^(1/256) ~ 1.0027
        for cfg in (isp_config(2.0), QUARTIC, self.CAPPED):
            r = choose_r_min(cfg)
            target = 0.1 * cfg.tol
            assert eval_singularity(cfg, r).trunc_error <= target
            if r < r_min_cap(cfg):
                assert eval_singularity(cfg, 1.003 * r).trunc_error > target

    def test_r_min_is_searched_outward(self):
        # the estimate holds at config.r_min = 1e-3 for QUARTIC, and the
        # search moves past it; CAPPED stops at its core-dominated cap
        assert choose_r_min(QUARTIC) > QUARTIC.r_min
        assert choose_r_min(self.CAPPED) == r_min_cap(self.CAPPED) < 0.5 * self.CAPPED.r_max

    def test_choose_r_max_meets_target(self):
        # the far-field estimate (which includes the Gaussian barrier's
        # tail) holds at r and fails just below it, unless the floor
        # 2 r_min_cap is reached; the bisection resolves the crossing as
        # finely as choose_r_min's.  FLOORED stops at that floor.
        for cfg in (isp_config(2.0), QUARTIC, barrier_config(), self.OUTWARD, self.FLOORED):
            r = choose_r_max_start(cfg)
            target = 0.1 * cfg.tol
            assert eval_asymptotic(cfg, r).trunc_error <= target
            if r > 2.0 * r_min_cap(cfg):
                assert eval_asymptotic(cfg, r / 1.003).trunc_error > target
        assert choose_r_max_start(self.FLOORED) == 2.0 * r_min_cap(self.FLOORED)

    def test_barrier_far_from_origin_keeps_r_min(self):
        # a Gaussian barrier 6 widths out of r_min weighs only its value
        # there in the near-origin bound, not its height of 20, which
        # would put r_min near 1.4e-4
        bare = dict(p=4.0, lam=1.0, k=1.0, l_plus_nu=0.5, tol=1e-10)
        barrier = GaussianBarrier(height=20.0, center=3.0, width=0.5)
        r_bare = choose_r_min(validate(ProblemConfig(**bare)))
        assert choose_r_min(validate(ProblemConfig(**bare, extra_potential=barrier))) >= 0.5 * r_bare

    def test_bisection_stays_above_zero(self):
        # a bracket below 1e-154, where the product of its ends underflows
        # to 0.0: the bisection evaluates nothing at r = 0.0 and ends
        # inside the bracket
        radii = []
        r = bases._edge(lambda x: radii.append(x) or x <= 1e-170, 1e-100, 2.0, 1.0, 400)
        assert 1e-170 / 1.003 < r <= 1e-170
        assert 0.0 not in radii
        # at lambda = 1e-200 the inner radius is so small that J overflows
        # there: the solve ends in a named error
        with pytest.raises(SingularRegionTooFar, match="overflows"):
            transfer_matrix(validate(ProblemConfig(p=4.0, lam=1e-200, k=1.0)))

    def test_one_plan_reads_the_far_estimate_for_both_radii(self, monkeypatch):
        # p = 2 with no W at tol 1e-6: the conformal series holds out to
        # the far radius, so the two radii are one, and a far estimate
        # 1000 times too small moves both; at p = 4 it moves r_max only
        loose = isp_config(1.0, tol=1e-6)
        honest = {cfg: (choose_r_min(cfg), choose_r_max_start(cfg)) for cfg in (loose, QUARTIC)}
        assert honest[loose][0] == honest[loose][1]
        far = bases.eval_asymptotic

        def under_reported(config, r):
            sample = far(config, r)
            return bases.BasisSample(sample.state, 1e-3 * sample.trunc_error)

        monkeypatch.setattr(bases, "eval_asymptotic", under_reported)
        bases._plan.cache_clear()
        try:
            assert choose_r_min(loose) == choose_r_max_start(loose) < 0.9 * honest[loose][1]
            assert choose_r_min(QUARTIC) == honest[QUARTIC][0]
            assert choose_r_max_start(QUARTIC) < 0.9 * honest[QUARTIC][1]
        finally:
            bases._plan.cache_clear()  # the next solve of these problems takes the honest radii

    def test_r_max_is_searched_inward(self):
        # config.r_max = 60 is a starting point: where the far series is
        # accurate there, the search moves inward; where it is not (at
        # k = 0.1 the series reaches 0.1 tol only at k r ~ 15), it still
        # moves outward
        for cfg in (QUARTIC, isp_config(1.0)):
            assert choose_r_max_start(cfg) < cfg.r_max
        assert choose_r_max_start(self.OUTWARD) > self.OUTWARD.r_max
