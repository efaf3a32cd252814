import cmath
import math
import statistics

import pytest

from singscat import (
    ProblemConfig,
    StateVector,
    eval_singularity,
    integrate,
    propagate,
    transfer_matrix,
    validate,
    wronskian,
)
from singscat.errors import DriftExceeded
from tests.conftest import isp_config

# free propagation: vanishing coupling with l+nu = 1/2 leaves J = k^2
FREE = validate(ProblemConfig(p=4.0, lam=1e-30, k=1.0, l_plus_nu=0.5, tol=1e-10))

# exact value of the outgoing-at-origin conformal solution at r = 1
# (theta = k = mu = 1), from the imaginary-order Bessel closed form
# A sqrt(r) J_i(k r) with A = Gamma(1+i) 2^i, evaluated at 30 digits
U_EXACT_R1 = complex(0.87812405900596494, 0.11588162177551628)


def test_free_wave_is_exact():
    init = StateVector(1.0, 1.0 + 0j, 1j)
    traj = propagate(FREE, init, 11.0)
    got = traj.final
    assert got.r == pytest.approx(11.0, abs=0)
    assert got.u == pytest.approx(cmath.exp(1j * 10.0), abs=1e-10)
    assert got.du == pytest.approx(1j * cmath.exp(1j * 10.0), abs=1e-10)


def test_conformal_matches_bessel_oracle():
    cfg = isp_config(1.0, tol=1e-8)
    init = eval_singularity(cfg, 1e-4).state
    traj = propagate(cfg, init, 1.0)
    assert abs(traj.final.u - U_EXACT_R1) < 10.0 * cfg.tol


def test_wronskian_drift_small_at_tight_tol():
    cfg = isp_config(1.0)
    r0 = 1e-5
    plus = eval_singularity(cfg, r0).state
    traj = propagate(cfg, plus, 60.0)
    assert traj.wronskian_drift < 1e-9
    # W[u, u*] is -2i up to truncation of the initial basis
    w_end = wronskian(traj.final, traj.final.conjugate())
    assert w_end == pytest.approx(-2j, abs=1e-7)


def test_linearity_of_propagation():
    cfg = isp_config(0.5)
    a = eval_singularity(cfg, 1e-5).state
    b = a.conjugate()
    al, be = 0.3 - 1.1j, 0.8 + 0.25j
    mix = StateVector(1e-5, al * a.u + be * b.u, al * a.du + be * b.du)
    fa = propagate(cfg, a, 5.0).final
    fb = propagate(cfg, b, 5.0).final
    fm = propagate(cfg, mix, 5.0).final
    scale = max(abs(fm.u), 1.0)
    assert abs(fm.u - (al * fa.u + be * fb.u)) / scale < 10.0 * cfg.tol
    assert abs(fm.du - (al * fa.du + be * fb.du)) / scale < 10.0 * cfg.tol


def test_time_reversal_symmetry():
    cfg = isp_config(1.0)
    init = eval_singularity(cfg, 1e-5).state
    conj_init = StateVector(1e-5, init.u.conjugate(), init.du.conjugate())
    f = propagate(cfg, init, 3.0).final
    g = propagate(cfg, conj_init, 3.0).final
    assert g.u == pytest.approx(f.u.conjugate(), rel=1e-13)
    assert g.du == pytest.approx(f.du.conjugate(), rel=1e-13)


def test_inward_propagation_supported():
    init = StateVector(5.0, cmath.exp(5j), 1j * cmath.exp(5j))
    traj = propagate(FREE, init, 2.0)
    assert traj.final.u == pytest.approx(cmath.exp(2j), abs=1e-10)


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        propagate(FREE, StateVector(1.0, complex("nan"), 0j), 2.0)
    with pytest.raises(ValueError):
        propagate(FREE, StateVector(-1.0, 1.0 + 0j, 0j), 2.0)
    with pytest.raises(ValueError):
        propagate(FREE, StateVector(1.0, 1.0 + 0j, 0j), -2.0)


def test_pair_wronskian_constant_along_route():
    # conservation along the route: legs from one start to several radii;
    # W[u, u*] at each end stays within 10 tol of its start, and within
    # the leg's own drift monitor, the maximum over its accepted steps
    cfg = isp_config(2.0)
    plus = eval_singularity(cfg, 2e-6).state
    w0 = wronskian(plus, plus.conjugate())
    for r_end in (1e-3, 0.1, 1.0, 10.0, 30.0):
        traj = propagate(cfg, plus, r_end)
        end = traj.final
        assert end.r == r_end
        d = abs(wronskian(end, end.conjugate()) - w0) / abs(w0)
        assert d < 10.0 * cfg.tol
        assert d <= traj.wronskian_drift * (1.0 + 1e-12)


def test_tiny_drift_budget_raises():
    # the drift budget is tol itself; at tol 1e-18 even the local_tol
    # floor 4e-15 cannot meet it
    cfg = isp_config(1.0, tol=1e-18)
    init = eval_singularity(cfg, 1e-4).state
    with pytest.raises(DriftExceeded):
        propagate(cfg, init, 5.0)


def test_drift_over_budget_raises_on_the_only_run(monkeypatch):
    # local_tol 1e-8 drifts about 6e-9, past tol 1e-10: one run, no retry
    cfg = isp_config(1.0)
    init = eval_singularity(cfg, 1e-4).state
    runs = []
    run = integrate._run

    def counted(*args):
        runs.append(args[-1])
        return run(*args)

    monkeypatch.setattr(integrate, "_run", counted)
    with pytest.raises(DriftExceeded, match="local_tol=1.0e-08"):
        propagate(cfg, init, 5.0, local_tol=1e-8)
    assert runs == [1e-8]


@pytest.mark.parametrize("local_tol", [1e-12, 1e-20])
def test_local_tol_used_is_the_floored_request(local_tol):
    cfg = isp_config(1.0)
    init = eval_singularity(cfg, 1e-4).state
    traj = propagate(cfg, init, 5.0, local_tol=local_tol)
    assert traj.local_tol == max(local_tol, 4e-15)
    assert traj.wronskian_drift <= cfg.tol


def test_tableau_is_scipys_dop853():
    dop853 = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    n = dop853.N_STAGES
    assert integrate._C == tuple(dop853.C[:n])
    assert integrate._A == tuple(tuple(dop853.A[i, :i]) for i in range(n))
    assert integrate._B == tuple(dop853.B)
    assert integrate._E5 == tuple(dop853.E5[:n]) and dop853.E5[n] == 0.0
    assert integrate._E3 == tuple(dop853.E3[:n]) and dop853.E3[n] == 0.0


def test_eighth_order_convergence_on_harmonic_oscillator():
    # u'' + u = 0 over 50 rad: log(error) against log(steps) across a
    # sweep of rtol has slope -8 (a 6th-order pair gives -6)
    log_steps, log_errors = [], []
    for e in range(5, 13):
        (_, u, _), stats, _ = integrate._run(lambda r: 1.0, 1.0 + 0j, 1j, 0.0, 50.0, 10.0 ** -e)
        log_steps.append(math.log(stats.n_steps))
        log_errors.append(math.log(abs(u - cmath.exp(50j))))
    slope = statistics.linear_regression(log_steps, log_errors).slope
    assert -8.5 < slope < -7.5


def _max_accepted_wavelength_fraction(cfg):
    """Largest accepted step of a solve, over every leg, in units of the
    shortest local wavelength 2 pi / sqrt(J) among its stage radii.

    Each step attempt calls J at r + c_i h for the eleven stages
    i = 1..11 (c_11 = 1); the attempt was accepted when the next one
    starts at its r + h, and the last attempt of a leg always is."""
    c1 = integrate._C[1]
    worst = 0.0
    run = integrate._run

    def spy(jfun, *args):
        calls = []

        def recorded(r):
            calls.append((r, jfun(r)))
            return calls[-1][1]

        out = run(recorded, *args)
        attempts = [calls[i:i + 11] for i in range(1, len(calls), 11)]
        starts = [a[-1][0] - (a[-1][0] - a[0][0]) / (1.0 - c1) for a in attempts]
        nonlocal worst
        for i, attempt in enumerate(attempts):
            h = attempt[-1][0] - starts[i]
            if i + 1 < len(attempts) and abs(starts[i + 1] - attempt[-1][0]) > 0.5 * abs(h):
                continue  # rejected: the next attempt starts where this one did
            j_max = max(j for _, j in attempt)
            worst = max(worst, abs(h) * math.sqrt(j_max) / (2.0 * math.pi))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrate, "_run", spy)
        transfer_matrix(cfg)
    return worst


@pytest.mark.parametrize("tol", [1e-3, 1e-4])
def test_accepted_steps_resolve_the_local_wavelength(tol):
    # an 8th-order pair at loose tol takes long steps; none spans more than
    # 0.4 of a wavelength on any leg (the largest seen is about 0.16)
    cfgs = [validate(ProblemConfig(p=p, lam=1.0, k=k, l_plus_nu=0.5, tol=tol))
            for p in (3.0, 4.0, 6.0, 8.0) for k in (0.1, 1.0, 10.0)]
    cfgs += [isp_config(theta, tol=tol) for theta in (0.5, 2.0)]
    for cfg in cfgs:
        assert _max_accepted_wavelength_fraction(cfg) < 0.4, cfg
