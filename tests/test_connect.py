import cmath
import dataclasses
import math
import sys
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singscat import (
    OMEGA_INFINITY,
    GaussianBarrier,
    InversePower,
    ProblemConfig,
    TransferMatrix,
    blaschke_params,
    eval_asymptotic,
    eval_singularity,
    isp_exact,
    s_matrix,
    s_matrix_inverse,
    scattering_coefficients,
    transfer_matrix,
    validate,
)
from singscat import bases, connect, integrate
from singscat.connect import TransferResiduals, _global_error, _is_inf, _project
from singscat.errors import DegenerateTransmission, PoleProximity
from tests.conftest import isp_config, quartic_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EPS = sys.float_info.epsilon
ANGLES = st.floats(-math.pi, math.pi)

_DUMMY_RES = TransferResiduals(
    su11_defect=0.0,
    wronskian_drift=0.0,
    basis_trunc=0.0,
    r_min_used=1e-4,
    r_max_used=100.0,
    local_tol=1e-13,
)


def fake_matrix(a: complex, b: complex) -> TransferMatrix:
    return TransferMatrix(a=a, b=b, residuals=_DUMMY_RES)


def disk_chart_s_matrix(m: TransferMatrix, omega: complex, *, tol: float = 1e-13) -> complex:
    """Reference: S(Omega) evaluated in Omega on the whole sphere, with the
    pole tested in Omega; its products overflow once |Omega| max(|a|, |b|)
    passes float64."""
    if _is_inf(omega):
        if m.b == 0:
            raise PoleProximity("map evaluates to infinity at Omega=infinity (b=0)")
        return m.a / m.b.conjugate()
    denom = m.b.conjugate() * omega + m.a.conjugate()
    if m.b != 0:
        pole = m.a.conjugate() / (-m.b.conjugate())
        if abs(omega - pole) < tol * max(abs(pole), 1.0):
            raise PoleProximity(f"Omega={omega} within {tol:.1e} of pole {pole}")
    elif denom == 0:
        raise PoleProximity("vanishing denominator")
    return (m.a * omega + m.b) / denom


def exact_s_matrix(m: TransferMatrix, omega: complex) -> tuple[mp.mpc, mp.mpf]:
    """S(Omega) at 50 digits, and the relative condition number
    (|a||Omega| + |b|) (1/|a Omega + b| + 1/|b* Omega + a*|) of its
    numerator and denominator, which bounds the rounding of any float64
    evaluation in units of eps."""
    with mp.workdps(50):
        a, b = mp.mpc(m.a), mp.mpc(m.b)
        if _is_inf(omega):
            return a / mp.conj(b), mp.mpf(1)
        om = mp.mpc(omega)
        num, den = a * om + b, mp.conj(b) * om + mp.conj(a)
        cond = (abs(a) * abs(om) + abs(b)) * (1 / abs(num) + 1 / abs(den))
        return num / den, cond


# |Omega| in four regions: the closed disk, where S is evaluated in Omega;
# outside it, where S is evaluated in 1/Omega, with |Omega| max(|a|, |b|)
# inside and past float64; and the projective point at infinity
OMEGAS = st.one_of(
    st.builds(cmath.rect, st.floats(0.0, 1.0), ANGLES),
    st.builds(cmath.rect, st.floats(1.0, 1e300, exclude_min=True, exclude_max=True), ANGLES),
    st.builds(cmath.rect, st.floats(1e300, 1e308), ANGLES),
    st.just(OMEGA_INFINITY),
)


class TestProjection:
    def test_basis_members_project_to_unit_vectors(self):
        cfg = isp_config(1.0)
        r = 150.0
        one = eval_asymptotic(cfg, r).state
        two = one.conjugate()
        c1, c2, _ = _project(cfg, one)
        assert c1 == pytest.approx(1.0, abs=1e-12)
        assert c2 == pytest.approx(0.0, abs=1e-12)
        c1, c2, _ = _project(cfg, two)
        assert c1 == pytest.approx(0.0, abs=1e-12)
        assert c2 == pytest.approx(1.0, abs=1e-12)


class TestScatteringCoefficients:
    def test_identity_matrix(self):
        c = scattering_coefficients(fake_matrix(1.0, 0.0))
        assert (c.R, c.T, c.Rp, c.Tp) == (0.0, 1.0, 0.0, 1.0)

    def test_hyperbolic_rotation(self):
        t = 0.8
        c = scattering_coefficients(fake_matrix(math.cosh(t), math.sinh(t)))
        assert c.R == pytest.approx(-math.tanh(t), rel=1e-14)
        assert c.T == pytest.approx(1.0 / math.cosh(t), rel=1e-14)
        assert c.Rp == pytest.approx(math.tanh(t), rel=1e-14)

    def test_degenerate_transmission_guard(self):
        m = fake_matrix(1e12, math.sqrt(1e24 - 1.0))
        with pytest.raises(DegenerateTransmission):
            scattering_coefficients(m, tol=1e-10)

    def test_conformal_reflection_vs_oracle(self, solved):
        sol = solved("isp1")
        ex = isp_exact(1.0, 1.0, 1.0)
        assert abs(sol.coeffs.R - ex.R) / abs(ex.R) < 1e-8
        assert abs(sol.matrix.b / sol.matrix.a) == pytest.approx(math.exp(-math.pi), rel=1e-8)

    @pytest.mark.parametrize("theta", [0.01, 0.05])
    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("k", [0.5, 2.0])
    def test_weak_conformal_core_within_tol(self, theta, tol, k):
        # at small theta the 1/sqrt(theta) scale of the basis magnifies
        # any unresolved k^2 phase near the origin; the solve must still
        # land within tol * max(1, |a|) of the closed form
        cfg = isp_config(theta, k=k, tol=tol)
        m = transfer_matrix(cfg)
        ex = isp_exact(cfg.theta, k, 1.0)
        scale = tol * max(1.0, abs(ex.a))
        assert abs(m.a - ex.a) <= scale
        assert abs(m.b - ex.b) <= scale


class TestSMatrix:
    def test_at_zero_gives_left_reflection(self, solved):
        sol = solved("isp1")
        assert s_matrix(sol.matrix, 0j) == pytest.approx(sol.coeffs.Rp, abs=1e-14)

    def test_vanishes_at_conjugate_reflection(self, solved):
        sol = solved("isp1")
        zero = sol.coeffs.R.conjugate()
        assert abs(s_matrix(sol.matrix, zero)) < 1e-14

    def test_unimodular_on_circle(self, solved):
        sol = solved("isp2")
        for j in range(32):
            om = cmath.exp(2j * math.pi * j / 32)
            assert abs(abs(s_matrix(sol.matrix, om)) - 1.0) < 1e-13

    def test_projective_infinity(self, solved):
        sol = solved("isp1")
        m = sol.matrix
        assert s_matrix(m, OMEGA_INFINITY) == pytest.approx(m.a / m.b.conjugate(), rel=1e-14)

    def test_pole_proximity_raises(self, solved):
        sol = solved("isp1")
        pole = 1.0 / sol.coeffs.R
        with pytest.raises(PoleProximity):
            s_matrix(sol.matrix, pole * (1.0 + 1e-15), tol=1e-12)

    def test_inverse_round_trip(self, solved):
        sol = solved("quartic")
        for om in (0.2 + 0.1j, -0.6j, 0.85, 1.9 - 0.4j):
            w = s_matrix(sol.matrix, om)
            assert s_matrix_inverse(sol.matrix, w) == pytest.approx(om, rel=1e-11)

    @settings(deadline=None, max_examples=300)
    @given(r=st.floats(0.0, 1.0 - 1e-6), arg_a=ANGLES, arg_b=ANGLES,
           mod=st.floats(0.0, 0.95, exclude_max=True), arg_om=ANGLES)
    @example(r=1.0 - 1e-6, arg_a=0.3, arg_b=-2.0, mod=0.94, arg_om=1.0)
    def test_inverse_undoes_s_matrix(self, r, arg_a, arg_b, mod, arg_om):
        # S^-1 is the Moebius map of the adjugate of [[a, b], [b*, a*]], so
        # the round trip is an identity; its rounding, of order eps |a|
        # in each map, is scaled by 1/|S'| = |b* Omega + a*|^2 <= 4 |a|^2
        a = cmath.rect(1.0 / math.sqrt((1.0 - r) * (1.0 + r)), arg_a)
        m = fake_matrix(a, cmath.rect(r * abs(a), arg_b))
        om = cmath.rect(mod, arg_om)
        assert abs(s_matrix_inverse(m, s_matrix(m, om)) - om) <= 40.0 * EPS * abs(a) ** 2

    @settings(deadline=None, max_examples=500)
    @given(mod_b=st.floats(0.0, 1e4), arg_a=ANGLES, arg_b=ANGLES, om=OMEGAS)
    @example(mod_b=1e4, arg_a=0.3, arg_b=-2.0, om=1e306 + 0j)
    @example(mod_b=0.0, arg_a=0.3, arg_b=-2.0, om=1e308 + 0j)
    @example(mod_b=0.0, arg_a=0.3, arg_b=-2.0, om=OMEGA_INFINITY)
    def test_chart_matches_the_disk_chart_and_50_digits(self, mod_b, arg_a, arg_b, om):
        m = fake_matrix(cmath.rect(math.hypot(1.0, mod_b), arg_a), cmath.rect(mod_b, arg_b))
        try:
            ref = disk_chart_s_matrix(m, om)
        except PoleProximity:
            with pytest.raises(PoleProximity):
                s_matrix(m, om)
            return
        s = s_matrix(m, om)
        if abs(om) <= 1.0 or _is_inf(om):
            # the disk chart and the point at infinity take the same steps
            assert s == ref
            return
        exact, cond = exact_s_matrix(m, om)
        # both evaluations round their numerator and denominator; only next
        # to the pole does the condition number lift this past a few eps
        bound = 4.0 * EPS * abs(s) * max(1.0, float(cond))
        assert cmath.isfinite(s)
        assert float(abs(s - exact)) <= bound
        # past 1e300 the reference's products overflow: its quotient is nan,
        # inf or a wrong finite value such as 0 for |Omega| near 1e308
        if abs(om) * abs(m.a) < 1e300:
            assert abs(s - ref) <= bound
        # |S|^2 - 1 = (|a|^2 - |b|^2)(|Omega|^2 - 1) / |b* Omega + a*|^2 has
        # the sign of |Omega| - 1 wherever it is past 1e-12 and |S| - 1 is
        # past its rounding
        gap = abs(s) - 1.0
        if abs(gap) * (abs(s) + 1.0) > 1e-12 and abs(gap) > 4.0 * EPS * float(cond) * abs(s):
            assert (abs(s) > 1.0) == (abs(om) > 1.0)

    @pytest.mark.parametrize("a, b", [(1.0, 2.0 - 1.0j), (3.0 + 1.0j, 2.0j)],
                             ids=["pole_inside", "pole_outside"])
    def test_pole_proximity_on_either_side_of_the_circle(self, a, b):
        m = fake_matrix(a, b)
        pole = -m.a.conjugate() / m.b.conjugate()
        assert (abs(pole) < 1.0) == (abs(m.a) < abs(m.b))
        for om in (pole, pole * (1.0 + 1e-15), pole + 1e-14j):
            with pytest.raises(PoleProximity):
                s_matrix(m, om)
        assert cmath.isfinite(s_matrix(m, pole * (1.0 + 1e-9)))

    def test_sign_correspondence(self, solved):
        sol = solved("quartic")
        for mod in (0.5, 2.0):
            for j in range(8):
                om = mod * cmath.exp(2j * math.pi * (j + 0.21) / 8)
                lhs = abs(s_matrix(sol.matrix, om)) ** 2 - 1.0
                assert math.copysign(1.0, lhs) == math.copysign(1.0, mod - 1.0)


class TestBlaschkeParams:
    def test_identity_matrix_map(self):
        smap = blaschke_params(fake_matrix(1.0, 0.0))
        assert not smap.degenerate
        assert smap.zero == 0.0
        assert math.isinf(abs(smap.pole))
        assert smap.delta == pytest.approx(-1.0)
        # resulting map is the identity on the disk
        m = fake_matrix(1.0, 0.0)
        for om in (0.3, -0.2 + 0.7j):
            assert s_matrix(m, om) == pytest.approx(om, rel=1e-15)

    def test_zero_and_pole_locations(self, solved):
        sol = solved("isp1")
        smap = sol.smap
        assert smap.zero == pytest.approx(sol.coeffs.R.conjugate(), rel=1e-12)
        assert smap.pole == pytest.approx(1.0 / sol.coeffs.R, rel=1e-12)
        assert abs(smap.zero) == pytest.approx(math.exp(-math.pi), rel=1e-8)
        assert abs(smap.pole) == pytest.approx(math.exp(math.pi), rel=1e-8)
        assert abs(smap.zero) < 1.0 < abs(smap.pole)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda c: c.stem)
    def test_zero_is_the_preimage_of_zero(self, path):
        # the zero comes from s_matrix_inverse, bit for bit R*; the
        # degenerate branch withholds it
        cfg = validate(ProblemConfig.from_json(str(path)))
        m = transfer_matrix(cfg)
        zero = s_matrix_inverse(m, 0j)
        assert zero == scattering_coefficients(m).R.conjugate()
        assert abs(s_matrix(m, zero)) <= 4.0 * EPS * abs(m.a) ** 2
        smap = blaschke_params(m, tol=cfg.tol)
        assert smap.zero == (None if smap.degenerate else zero)

    def test_phase_identities(self, solved):
        for name in ("isp05", "isp1", "isp2", "quartic"):
            sol = solved(name)
            d = sol.smap.delta
            c = sol.coeffs
            assert abs(abs(d) - 1.0) < 1e-14
            assert abs(d + c.T / c.T.conjugate()) < 1e-14
            assert abs(d - c.Rp / c.R.conjugate()) < 1e-14

    def test_blaschke_and_rational_forms_agree(self, solved):
        import numpy as np

        sol = solved("isp2")
        m, c, smap = sol.matrix, sol.coeffs, sol.smap
        rng = np.random.default_rng(7)
        for _ in range(100):
            om = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            direct = s_matrix(m, om)
            blaschke = smap.delta * (om - smap.zero) / (c.R * om - 1.0)
            assert direct == pytest.approx(blaschke, abs=1e-12)

    def test_degenerate_branch(self, solved):
        sol = solved("barrier")
        assert sol.smap.degenerate
        assert sol.smap.zero is None and sol.smap.pole is None
        assert sol.smap.constant == pytest.approx(sol.coeffs.Rp, abs=1e-14)
        assert abs(abs(sol.smap.constant) - 1.0) < 1e-6


class TestScaleCovariance:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_reflection_picks_up_exact_phase(self, theta, solved):
        base = solved(f"isp{'05' if theta == 0.5 else str(int(theta))}")
        scaled = solved(f"isp{'05' if theta == 0.5 else str(int(theta))}_mu2")
        r1, r2 = base.coeffs.R, scaled.coeffs.R
        # mu -> 2 mu multiplies R by (2)^(2 i theta)
        expected = r1 * cmath.exp(2j * theta * math.log(2.0))
        assert r2 == pytest.approx(expected, rel=1e-8)
        assert abs(abs(r2) - abs(r1)) < 1e-11
        assert abs(abs(scaled.coeffs.T) - abs(base.coeffs.T)) < 1e-11

    def test_smatrix_covariance(self, solved):
        base = solved("isp1")
        scaled = solved("isp1_mu2")
        rot = cmath.exp(-2j * 1.0 * math.log(2.0))
        for om in (0.3, 0.2 - 0.5j, 0.9j):
            lhs = s_matrix(scaled.matrix, om * rot)
            rhs = s_matrix(base.matrix, om)
            assert lhs == pytest.approx(rhs, abs=1e-9)


    @pytest.mark.parametrize("mu", [0.5, 2.0, 7.0, 1e-150, 1e150, 1e300])
    def test_mu_is_an_exact_phase(self, mu):
        # the solve takes mu' = 1 and turns a by (mu/k)^(i theta), b by its
        # conjugate: the closed form's (2 mu/k)^(+-i theta) catches a turn
        # the wrong way round, and a near basis with any other constant in
        # its logarithm
        cfg = isp_config(1.0, mu=mu)
        m = transfer_matrix(cfg)
        ex = isp_exact(1.0, 1.0, mu)
        assert abs(m.a - ex.a) <= cfg.tol * abs(ex.a)
        assert abs(m.b - ex.b) <= cfg.tol * abs(ex.a)

    @settings(deadline=None, max_examples=40)
    @given(log_k=st.floats(-300.0, 300.0), log_mu=st.floats(-300.0, 300.0))
    @example(log_k=150.0, log_mu=0.0)
    @example(log_k=-10.0, log_mu=0.0)
    @example(log_k=0.0, log_mu=308.0)
    def test_conformal_core_at_any_scale(self, log_k, log_mu):
        # p = 2 depends on k/mu alone, and only through a phase
        k, mu = 10.0 ** log_k, 10.0 ** log_mu
        cfg = isp_config(1.0, k=k, mu=mu)
        m = transfer_matrix(cfg)
        ex = isp_exact(1.0, k, mu)
        assert abs(m.a - ex.a) <= cfg.tol * abs(ex.a)
        assert abs(m.b - ex.b) <= cfg.tol * abs(ex.a)

    @settings(deadline=None, max_examples=30)
    @given(p=st.sampled_from([3.0, 4.0, 6.0]), x=st.floats(-1.0, 1.0))
    @example(p=4.0, x=80.0 / 150.0)
    def test_core_at_any_scale(self, p, x):
        # (k, lambda) = (s, s^-(p-2)) is the s = 1 problem in units of 1/s;
        # |log10 s| <= 300 / (p - 2) keeps lambda a normal float
        e = 300.0 / (p - 2.0) * x
        cfg = validate(ProblemConfig(p=p, lam=10.0 ** (-(p - 2.0) * e), k=10.0 ** e,
                                     l_plus_nu=0.5, tol=1e-8))
        m = transfer_matrix(cfg)
        ref = transfer_matrix(cfg.replaced(lam=1.0, k=1.0))
        assert abs(m.a - ref.a) <= cfg.tol * abs(ref.a)
        assert abs(m.b - ref.b) <= cfg.tol * abs(ref.a)


    @pytest.mark.parametrize("s", [1e-3, 1e3])
    @pytest.mark.parametrize("unit_w", [GaussianBarrier(2.0, 2.0, 0.5), InversePower(0.5, 2.5)],
                             ids=["gaussian", "inverse_power"])
    def test_extra_potential_at_any_scale(self, s, unit_w):
        # r -> r/s turns the unit problem into k = s, lambda = s^-2 and W
        # (h s^2, c/s, w/s) or (c s^-(q-2), q), with the same (a, b)
        if isinstance(unit_w, GaussianBarrier):
            w = GaussianBarrier(unit_w.height * s * s, unit_w.center / s, unit_w.width / s)
        else:
            w = InversePower(unit_w.coefficient * s ** (2.0 - unit_w.exponent), unit_w.exponent)
        unit = validate(ProblemConfig(p=4.0, lam=1.0, k=1.0, l_plus_nu=0.5, tol=1e-8,
                                      extra_potential=unit_w))
        ref = transfer_matrix(unit)
        m = transfer_matrix(unit.replaced(lam=s ** -2.0, k=s, extra_potential=w))
        assert abs(m.a - ref.a) <= unit.tol * abs(ref.a)
        assert abs(m.b - ref.b) <= unit.tol * abs(ref.a)


class TestStabilization:
    def test_levels_converged(self, solved):
        # the far basis meets its 0.1 tol share at the one projection radius
        for name in ("isp05", "isp1", "isp2", "quartic"):
            res = solved(name).matrix.residuals
            assert res.basis_trunc <= 0.1 * solved(name).config.tol

    def test_one_leg_and_one_projection(self, monkeypatch):
        # transfer_matrix propagates once, to the far matching radius, and
        # projects once there; the global error projects a re-extraction
        # at least twice as far out, so that it sees the far truncation
        legs, radii = [], []

        def leg_spy(config, state, r_target, **kwargs):
            legs.append((state.r, r_target))
            return integrate.propagate(config, state, r_target, **kwargs)

        def project_spy(config, state):
            radii.append(state.r)
            return _project(config, state)

        monkeypatch.setattr(connect, "propagate", leg_spy)
        monkeypatch.setattr(connect, "_project", project_spy)
        cfg = isp_config(1.0)
        m = transfer_matrix(cfg)
        res = m.residuals
        assert legs == [(res.r_min_used, res.r_max_used)]
        assert radii == [res.r_max_used] == [bases.choose_r_max_start(cfg)]
        legs.clear()
        radii.clear()
        assert _global_error(cfg, m) < cfg.tol
        assert len(legs) == 1 and radii == [legs[0][1]]
        assert radii[0] >= 2.0 * res.r_max_used

    @pytest.mark.parametrize("cfg", [isp_config(1.0), quartic_config(tol=1e-8)],
                             ids=["isp1", "p4-tol1e-8"])
    def test_warm_solve_evaluates_the_far_basis_once(self, monkeypatch, cfg):
        # both radius searches are cached per problem, so a repeated solve
        # evaluates the far series only for its one projection
        transfer_matrix(cfg)
        radii = []
        honest = bases.eval_asymptotic

        def spy(config, r):
            radii.append(r)
            return honest(config, r)

        monkeypatch.setattr(bases, "eval_asymptotic", spy)
        m = transfer_matrix(cfg)
        assert radii == [m.residuals.r_max_used]

    @pytest.mark.parametrize("cfg", [isp_config(1.0, k=1.0625),
                                     quartic_config(tol=1e-8).replaced(k=1.0625)],
                             ids=["isp1", "p4-tol1e-8"])
    def test_one_choice_per_problem(self, monkeypatch, cfg):
        # the basis and both radii are chosen in one place, for the problem
        # at unit k: a new problem finds its core-dominated region once, a
        # repeated solve not again.  isp1's unit problem is isp_config(1.0),
        # which other tests may have planned already
        bases._plan.cache_clear()
        unit = connect._unit_k(cfg)[1]
        assert unit.k == 1.0
        calls = []
        honest = bases.r_min_cap

        def spy(config):
            calls.append(config)
            return honest(config)

        monkeypatch.setattr(bases, "r_min_cap", spy)
        transfer_matrix(cfg)
        assert calls == [unit]
        transfer_matrix(cfg)
        assert calls == [unit]

    def test_global_error_sees_a_phase_error(self, solved):
        sol = solved("isp1")
        m, tol = sol.matrix, sol.config.tol
        assert _global_error(sol.config, m) < tol
        # a common phase leaves |a|^2 - |b|^2 and every modulus unchanged
        turn = cmath.exp(1e-6j)
        rotated = dataclasses.replace(m, a=m.a * turn, b=m.b * turn)
        assert _global_error(sol.config, rotated) > 100.0 * tol



class TestGenericExponent:
    def test_cubic_core_with_generic_angular_parameter(self):
        from singscat import ProblemConfig, transfer_matrix, validate

        cfg = validate(ProblemConfig(p=3.0, lam=2.0, k=1.0, l_plus_nu=0.3, tol=1e-8))
        m = transfer_matrix(cfg)
        c = scattering_coefficients(m)
        res = m.residuals
        assert res.wronskian_drift < 10.0 * cfg.tol
        assert res.su11_defect < 100.0 * cfg.tol
        assert abs(abs(c.R) ** 2 + abs(c.T) ** 2 - 1.0) < 100.0 * cfg.tol
        assert abs(c.R.conjugate() * c.Tp + c.T.conjugate() * c.Rp) < 100.0 * cfg.tol
        for j in range(8):
            om = cmath.exp(2j * math.pi * j / 8)
            assert abs(abs(s_matrix(m, om)) - 1.0) < 1e-10

    def test_quartic_with_inverse_power_term(self):
        # non-integer tail exponent: the far series cannot represent it,
        # so this regime runs at moderate tolerance (see README notes)
        from singscat import ExtraPotential, ProblemConfig, transfer_matrix, validate

        ep = ExtraPotential.from_descriptor(
            {"name": "inverse_power", "coefficient": 0.1, "exponent": 2.5}
        )
        cfg = validate(
            ProblemConfig(p=4.0, lam=1.0, k=1.0, l_plus_nu=0.5, tol=1e-5, extra_potential=ep)
        )
        m = transfer_matrix(cfg)
        c = scattering_coefficients(m)
        assert m.residuals.su11_defect < 100.0 * cfg.tol
        assert abs(abs(c.R) ** 2 + abs(c.T) ** 2 - 1.0) < 100.0 * cfg.tol
        # the attractive short-range tail must change the amplitudes
        bare = transfer_matrix(validate(ProblemConfig(p=4.0, lam=1.0, k=1.0, l_plus_nu=0.5, tol=1e-5)))
        assert abs(scattering_coefficients(bare).R - c.R) > 1e-3

    @pytest.mark.parametrize(
        "p, lam, l_plus_nu, tol, ref_tol",
        [(3.0, 2.0, 0.3, 1e-8, 1e-10), (3.0, 2.0, 0.3, 1e-6, 1e-9), (2.5, 1.0, 0.5, 1e-8, 1e-10)],
        ids=["p3-lam2", "p3-lam2-loose", "p2.5"],
    )
    def test_hankel_core_against_tight_extraction(self, p, lam, l_plus_nu, tol, ref_tol):
        # the Hankel basis carries the first-order imprint of k^2, so
        # r_min is searched outward past config.r_min; the result still
        # agrees with a tighter extraction within tol, and the remainder
        # bound at r_min_used covers the measured difference (at loose tol
        # only with the amplitude factor's curvature term in the bound)
        base = ProblemConfig(p=p, lam=lam, k=1.0, l_plus_nu=l_plus_nu, tol=tol, r_min=1e-4)
        cfg = validate(base)
        m = transfer_matrix(cfg)
        assert bases._plan(cfg).basis is bases._HANKEL
        ref = transfer_matrix(validate(dataclasses.replace(base, tol=ref_tol)))
        da, db = abs(m.a - ref.a), abs(m.b - ref.b)
        assert max(da, db) <= cfg.tol
        assert m.residuals.r_min_used > cfg.r_min
        # the error budget holds both truncation shares: the near-origin
        # bound at r_min_used and the far estimate at r_max_used
        near = eval_singularity(cfg, m.residuals.r_min_used).trunc_error
        assert near + m.residuals.basis_trunc >= da

    @pytest.mark.parametrize(
        "p, k, tol, ref_tol",
        [(3.0, 1.0, 1e-8, 1e-10), (4.0, 1.0, 1e-8, 1e-10), (6.0, 1.0, 1e-8, 1e-10),
         (8.0, 1.0, 1e-8, 1e-10), (4.0, 0.2, 1e-3, 1e-8)],
        ids=["p3", "p4", "p6", "p8", "p4-loose"],
    )
    def test_strong_core_against_tight_extraction(self, p, k, tol, ref_tol):
        # at lambda = 1, l+nu = 1/2 these take the dual basis, which
        # carries k^2 to all orders, so r_min is searched outward past
        # config.r_min and the result agrees with a tighter extraction
        # within tol.  The dual estimate bounds the true near-origin error
        # and is within a factor 5 of it: restarting the same legs (at
        # 1/30 of the per-step tolerance, so that integration error stays
        # out) at r_min / 4, where the estimate is far smaller, moves the
        # matrix by 0.2-1 times the estimate at r_min.  At p = 3 the dual
        # series runs to band 63 at r_min, and its estimate, about 3e-36,
        # lies below integration noise, which alone moves the matrix
        base = ProblemConfig(p=p, lam=1.0, k=k, l_plus_nu=0.5, tol=tol)
        cfg = validate(base)
        m = transfer_matrix(cfg)
        assert bases._plan(cfg).basis is bases._DUAL
        ref = transfer_matrix(validate(dataclasses.replace(base, tol=ref_tol)))
        assert max(abs(m.a - ref.a), abs(m.b - ref.b)) <= cfg.tol
        r_min = m.residuals.r_min_used
        assert r_min > cfg.r_min
        near = eval_singularity(cfg, r_min).trunc_error
        fine_tol = m.residuals.local_tol / 30.0
        at_r_min = connect._extract(cfg, fine_tol)
        inside = connect._extract(cfg, fine_tol, r_min / 4.0)
        assert eval_singularity(cfg, r_min / 4.0).trunc_error < 0.1 * near
        shift = max(abs(inside.a - at_r_min.a), abs(inside.b - at_r_min.b)) / max(1.0, abs(m.a))
        if near > 1e-3 * cfg.tol:
            assert 0.2 * near <= shift <= near
        else:
            assert shift <= 1e-3 * cfg.tol

    @pytest.mark.parametrize("p", [12.0, 14.0], ids=["p12", "p14"])
    def test_core_too_steep_for_the_far_series(self, p):
        # the core's step p - 1 reaches the series cap, so the core never
        # enters the far series, even where the series runs past the cap;
        # its first correction, in the estimate, moves r_max out to where
        # the one projection is within tol
        base = ProblemConfig(p=p, lam=1.0, k=1.0, l_plus_nu=0.5, tol=1e-10)
        cfg = validate(base)
        assert p - 1.0 >= bases._SERIES_CAP
        series, beyond = bases._series(cfg.k, bases._far_terms(cfg))
        assert [c for _, _, c in series] == [0j]
        assert beyond == ((1.0 - p, 1.0 / (2.0 * (p - 1.0))),)
        m = transfer_matrix(cfg)
        assert m.residuals.basis_trunc > 0.0
        assert m.residuals.r_max_used > 2.0 * bases.r_min_cap(cfg)
        ref = transfer_matrix(validate(dataclasses.replace(base, tol=1e-12)))
        assert max(abs(m.a - ref.a), abs(m.b - ref.b)) <= cfg.tol * max(1.0, abs(ref.a))

    @pytest.mark.parametrize(
        "p, lam, k", [(4.0, 1.0, 10.0), (6.0, 0.01, 20.0)], ids=["p4-k10", "p6-k20"]
    )
    def test_loose_tol_large_k_matches_close_in(self, p, lam, k):
        # at tol 1e-3 and large k the far series is accurate well inside
        # r = 1, so both matching radii sit close to the core; the far one
        # stays outside the near one, and the result agrees with a
        # tighter extraction within tol
        base = ProblemConfig(p=p, lam=lam, k=k, l_plus_nu=0.5, tol=1e-3)
        m = transfer_matrix(validate(base))
        ref = transfer_matrix(validate(dataclasses.replace(base, tol=1e-8)))
        assert m.residuals.r_min_used < m.residuals.r_max_used < 2.0
        assert max(abs(m.a - ref.a), abs(m.b - ref.b)) <= base.tol
