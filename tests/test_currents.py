import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singscat import (
    StateVector,
    current,
    eval_asymptotic,
    wronskian,
)
from singscat.errors import RadiusMismatch
from tests.conftest import isp_config

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
cplx = st.builds(complex, finite, finite)


def plane_wave(k: float, r: float, sign: int) -> StateVector:
    u = cmath.exp(sign * 1j * k * r)
    return StateVector(r, u, sign * 1j * k * u)


def test_wronskian_antisymmetry_and_self():
    s = StateVector(2.0, 1.3 - 0.2j, 0.4 + 1.1j)
    t = StateVector(2.0, -0.7j, 2.0 + 0.1j)
    assert wronskian(s, s) == 0
    assert wronskian(s, t) == -wronskian(t, s)


@pytest.mark.parametrize("r", [0.5, 1.0, 7.3])
def test_wronskian_of_plane_waves(r):
    k = 1.7
    w = wronskian(plane_wave(k, r, +1), plane_wave(k, r, -1))
    assert w == pytest.approx(-2j * k, rel=1e-14)


def test_radius_mismatch_rejected():
    s = StateVector(1.0, 1.0, 1.0)
    t = StateVector(2.0, 1.0, 1.0)
    with pytest.raises(RadiusMismatch):
        wronskian(s, t)
    with pytest.raises(RadiusMismatch):
        current(s, t)


def test_currents_of_far_basis():
    cfg = isp_config(1.0)
    one = eval_asymptotic(cfg, 1e6).state
    two = one.conjugate()
    assert current(one).real == pytest.approx(2.0, abs=1e-10)
    assert current(two).real == pytest.approx(-2.0, abs=1e-10)
    assert abs(current(one).imag) < 1e-12


@settings(deadline=None, max_examples=60)
@given(u=cplx, du=cplx, v1=cplx, dv1=cplx, v2=cplx, dv2=cplx, l1=cplx, l2=cplx)
def test_sesquilinearity_in_second_argument(u, du, v1, dv1, v2, dv2, l1, l2):
    a = StateVector(1.0, u, du)
    b1 = StateVector(1.0, v1, dv1)
    b2 = StateVector(1.0, v2, dv2)
    combo = StateVector(1.0, l1 * v1 + l2 * v2, l1 * dv1 + l2 * dv2)
    lhs = current(a, combo)
    rhs = l1 * current(a, b1) + l2 * current(a, b2)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(deadline=None, max_examples=60)
@given(u=cplx, du=cplx, v=cplx, dv=cplx)
def test_conjugate_symmetry(u, du, v, dv):
    a = StateVector(1.0, u, du)
    b = StateVector(1.0, v, dv)
    astar = StateVector(1.0, u.conjugate(), du.conjugate())
    bstar = StateVector(1.0, v.conjugate(), dv.conjugate())
    assert current(a, b).conjugate() == pytest.approx(current(b, a), abs=1e-12)
    assert current(a, b).conjugate() == pytest.approx(-current(astar, bstar), abs=1e-12)
    # self-current is real and flips sign under conjugation
    assert abs(current(a).imag) < 1e-12
    assert current(astar).real == pytest.approx(-current(a).real, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(u=cplx, du=cplx, l1=cplx, l2=cplx)
def test_hyperbolic_combination_rule(u, du, l1, l2):
    a = StateVector(1.0, u, du)
    combo = StateVector(
        1.0,
        l1 * u + l2 * u.conjugate(),
        l1 * du + l2 * du.conjugate(),
    )
    expected = (abs(l1) ** 2 - abs(l2) ** 2) * current(a)
    assert current(combo) == pytest.approx(expected, abs=1e-9)


class TestCoefficientBalance:
    def test_perfect_absorption_ordering(self, solved):
        # Omega = 0 solution resolves as (C1, C2) = (b, a*) in the far field
        # and (C+, C-) = (0, 1) at the origin: both balances |C1|^2 - |C2|^2
        # and |C+|^2 - |C-|^2 read -1 (net current -2), consistent with
        # |S(0)| = |R'| < 1
        sol = solved("isp1")
        a, b = sol.matrix.a, sol.matrix.b
        assert abs(b) ** 2 - abs(a) ** 2 == pytest.approx(-1.0, abs=1e-10)
        assert abs(sol.coeffs.Rp) < 1.0
