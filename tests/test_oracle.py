import math
import os
import subprocess
import sys

import mpmath as mp
import pytest

from singscat import isp_exact, oracle

# closed-form reflection amplitudes, frozen from a 30-digit evaluation of
# -e^(-pi t) 2^(2it) Gamma(1+it)/Gamma(1-it) at k = mu = 1
R_FROZEN = {
    0.5: complex(-0.20352548840418786, -0.042323679348670088),
    1.0: complex(-0.030629628795053235, -0.030483906763819406),
    2.0: complex(0.0018562151985256731, -0.00020446880684175615),
}


class TestIspExact:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_moduli(self, theta):
        ex = isp_exact(theta, 1.0, 1.0)
        assert abs(ex.R) == pytest.approx(math.exp(-math.pi * theta), rel=1e-13)
        assert abs(ex.T) ** 2 == pytest.approx(1.0 - math.exp(-2.0 * math.pi * theta), rel=1e-13)

    def test_theta_one_reference_value(self):
        assert abs(isp_exact(1.0, 1.0, 1.0).R) == pytest.approx(0.0432139, abs=5e-8)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_frozen_complex_reflection(self, theta):
        ex = isp_exact(theta, 1.0, 1.0)
        assert abs(ex.R - R_FROZEN[theta]) / abs(R_FROZEN[theta]) < 1e-13

    @pytest.mark.parametrize("theta", [0.3, 0.5, 1.0, 2.0, 4.0])
    def test_wronskian_network(self, theta):
        ex = isp_exact(theta, 1.3, 0.7)
        assert abs(ex.R) ** 2 + abs(ex.T) ** 2 == pytest.approx(1.0, abs=1e-13)
        assert abs(ex.Rp) ** 2 + abs(ex.Tp) ** 2 == pytest.approx(1.0, abs=1e-13)
        assert abs(ex.R.conjugate() * ex.Tp + ex.T.conjugate() * ex.Rp) < 1e-13
        assert ex.T == ex.Tp
        assert abs(abs(ex.a) ** 2 - abs(ex.b) ** 2 - 1.0) < 1e-13

    def test_global_phase_identities(self):
        ex = isp_exact(1.0, 1.0, 1.0)
        delta = -ex.a / ex.a.conjugate()
        assert delta == pytest.approx(-ex.T / ex.T.conjugate(), abs=1e-14)
        assert delta == pytest.approx(ex.Rp / ex.R.conjugate(), abs=1e-14)

    def test_strong_coupling_limit(self):
        ex = isp_exact(5.0, 1.0, 1.0)
        assert abs(ex.R) < 1e-6
        assert abs(ex.T) == pytest.approx(1.0, abs=1e-6)

    def test_parameters_must_be_positive(self):
        for bad in ((0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)):
            with pytest.raises(ValueError):
                isp_exact(*bad)

    @pytest.mark.parametrize("theta,k,mu", [(0.5, 1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 0.8, 1.7)])
    def test_high_precision_projection_confirms_closed_form(self, theta, k, mu):
        # oracle of record: resolve the exact imaginary-order Bessel
        # solution in the exact outgoing/ingoing Hankel pair by Wronskian
        # projection at arbitrary radius, at 30-digit precision
        mp.mp.dps = 30
        i = mp.mpc(0, 1)
        nu = i * theta
        A = mp.gamma(1 + nu) * (mp.mpf(2) * mu / k) ** nu / mp.sqrt(mp.mpf(theta))

        def u_plus(r):
            return A * mp.sqrt(r) * mp.besselj(nu, k * r)

        def u_one(r):
            return mp.sqrt(mp.pi / 2) * mp.e ** (-mp.pi * theta / 2) * mp.sqrt(r) * mp.hankel1(nu, k * r)

        def u_two(r):
            return mp.sqrt(mp.pi / 2) * mp.e ** (mp.pi * theta / 2) * mp.sqrt(r) * mp.hankel2(nu, k * r)

        def w(f, g, r):
            return f(r) * mp.diff(g, r) - mp.diff(f, r) * g(r)

        r0 = mp.mpf(5)
        a_hp = complex(w(u_two, u_plus, r0) / w(u_two, u_one, r0))
        b_conj_hp = complex(w(u_one, u_plus, r0) / w(u_one, u_two, r0))
        ex = isp_exact(theta, k, mu)
        assert abs(a_hp - ex.a) / abs(ex.a) < 1e-12
        assert abs(b_conj_hp.conjugate() - ex.b) / abs(ex.b) < 1e-12

    @pytest.mark.parametrize("theta", [0.001, 0.01, 0.5, 1.0, 2.0, 10.0, 30.0, 100.0, 300.0])
    def test_gamma_matches_mpmath(self, theta):
        # a = |a| e^(i arg Gamma(1 + i theta)) at 2 mu = k, with the phase
        # from Stirling's series and |a| = |Gamma(1 + i theta)|
        # e^(pi theta / 2) / sqrt(2 pi theta) in closed form; the phase
        # grows like theta ln theta, and so does its rounding
        with mp.workdps(30):
            gamma = mp.gamma(mp.mpc(1.0, theta))
            want_turn = complex(gamma / abs(gamma))
            want_modulus = float(abs(gamma) * mp.exp(mp.pi * theta / 2) / mp.sqrt(2 * mp.pi * theta))
        a = isp_exact(theta, 2.0, 1.0).a
        assert abs(a / abs(a) - want_turn) <= 1e-14 * max(1.0, theta)
        assert abs(abs(a) - want_modulus) <= 1e-15 * want_modulus

    @pytest.mark.parametrize("theta", [300.0, 450.0, 1000.0])
    def test_strong_coupling_does_not_overflow(self, theta):
        # e^(pi theta / 2) overflows float64 past theta ~ 452; |a| and |b|
        # are formed without it
        ex = isp_exact(theta, 1.0, 1.0)
        assert abs(ex.a) == pytest.approx(1.0, rel=1e-15)
        assert ex.b == 0.0
        assert abs(ex.T) == pytest.approx(1.0, rel=1e-15)

    def test_does_not_load_scipy(self):
        # the oracle gates p = 2 benchmark ops; scipy.special, which also
        # loads numpy.random, would add about 24 MB to such a process
        code = (
            "import sys\n"
            "from singscat import isp_exact\n"
            "isp_exact(1.0, 1.0, 1.0)\n"
            "print('scipy' in sys.modules, 'numpy.random' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.split() == ["False", "False"]
