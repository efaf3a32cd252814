import math
import re

import pytest

from scipy.integrate import quad

from singscat import (
    ExtraPotential,
    GaussianBarrier,
    InversePower,
    ProblemConfig,
    ValidatedConfig,
    validate,
)
from singscat.errors import BadGrid, NonSingular, SubcriticalCoupling
from singscat.model import invariant_callable


class TestValidate:
    def test_conformal_theta_derived(self):
        cfg = validate(ProblemConfig(p=2.0, lam=1.25, k=1.0, mu=1.0))
        assert cfg.theta == pytest.approx(1.0, abs=1e-15)
        assert cfg.n_exponent is None
        assert cfg.is_conformal

    def test_subcritical_boundary_rejected(self):
        with pytest.raises(SubcriticalCoupling):
            validate(ProblemConfig(p=2.0, lam=0.25, k=1.0))

    def test_quartic_exponent_derived(self):
        cfg = validate(ProblemConfig(p=4.0, lam=1.0, k=1.0))
        assert cfg.n_exponent == pytest.approx(2.0)
        assert cfg.theta is None

    def test_nonsingular_rejected(self):
        with pytest.raises(NonSingular):
            validate(ProblemConfig(p=4.0, lam=0.0, k=1.0))
        with pytest.raises(NonSingular):
            validate(ProblemConfig(p=4.0, lam=-1.0, k=1.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=4.0, lam=1.0, k=1.0, r_min=2.0, r_max=1.0),
            dict(p=4.0, lam=1.0, k=1.0, r_min=-1.0, r_max=1.0),
            dict(p=4.0, lam=1.0, k=-1.0),
            dict(p=4.0, lam=1.0, k=1.0, tol=0.0),
            dict(p=1.5, lam=1.0, k=1.0),
            dict(p=2.0, lam=1.25, k=1.0, mu=0.0),
        ],
    )
    def test_bad_grid_rejected(self, kwargs):
        with pytest.raises(BadGrid):
            validate(ProblemConfig(**kwargs))

    def test_inverse_power_needs_convergent_origin_phase(self):
        ep = ExtraPotential.from_descriptor(
            {"name": "inverse_power", "coefficient": 0.1, "exponent": 2.5}
        )
        validate(ProblemConfig(p=4.0, lam=1.0, k=1.0, extra_potential=ep))
        with pytest.raises(BadGrid):
            validate(ProblemConfig(p=2.0, lam=1.25, k=1.0, extra_potential=ep))
        ep3 = ExtraPotential.from_descriptor(
            {"name": "inverse_power", "coefficient": 0.1, "exponent": 3.0}
        )
        with pytest.raises(BadGrid):
            # q = p/2 + 1: marginally divergent near-origin phase
            validate(ProblemConfig(p=4.0, lam=1.0, k=1.0, extra_potential=ep3))
        with pytest.raises(BadGrid):
            validate(ProblemConfig(p=3.0, lam=1.0, k=1.0, extra_potential=ep3))

    def test_extra_potential_descriptor_errors(self):
        with pytest.raises(BadGrid):
            ExtraPotential.from_descriptor({"name": "gaussian_barrier", "height": 1.0})
        with pytest.raises(BadGrid):
            ExtraPotential.from_descriptor({"name": "inverse_power", "coefficient": 1.0, "exponent": 1.5})
        with pytest.raises(BadGrid):
            ExtraPotential.from_descriptor({"name": "no_such_potential"})
        with pytest.raises(BadGrid):
            ExtraPotential.from_descriptor({"name": ["inverse_power"]})


class TestNormalInvariant:
    def test_free_limit_only_k_squared_survives(self):
        # vanishing coupling and l+nu = 1/2: J reduces to k^2
        cfg = validate(ProblemConfig(p=4.0, lam=1e-30, k=2.0, l_plus_nu=0.5))
        assert invariant_callable(cfg)(1.0) == pytest.approx(4.0, rel=1e-15)

    def test_pure_conformal_value(self):
        cfg = validate(ProblemConfig(p=2.0, lam=1.25, k=1.0, mu=1.0))
        assert invariant_callable(cfg)(0.5) == pytest.approx(6.0, rel=1e-15)

    def test_quartic_core_dominates(self):
        cfg = validate(ProblemConfig(p=4.0, lam=1.0, k=1.0, l_plus_nu=0.5))
        assert invariant_callable(cfg)(1e-2) == pytest.approx(1e8, rel=1e-6)

    @pytest.mark.parametrize(
        "cfg",
        [
            ProblemConfig(p=2.0, lam=1.25, k=1.0),
            ProblemConfig(p=4.0, lam=1.0, k=1.0, l_plus_nu=0.5),
            ProblemConfig(p=3.0, lam=2.0, k=0.7, l_plus_nu=1.0),
        ],
    )
    def test_origin_limit(self, cfg):
        # J(r) * r^p -> lambda, with the relative deviation shrinking
        v = validate(cfg)
        r1 = 1e-3 * cfg.r_min
        r2 = 1e-4 * cfg.r_min
        d1 = abs(invariant_callable(v)(r1) * r1 ** cfg.p / cfg.lam - 1.0)
        d2 = abs(invariant_callable(v)(r2) * r2 ** cfg.p / cfg.lam - 1.0)
        assert d1 < 1e-5
        assert d2 < d1 or d1 < 1e-14

    def test_far_limit(self):
        cfg = validate(ProblemConfig(p=4.0, lam=1.0, k=1.3, l_plus_nu=1.0))
        for r in (1e4, 1e6):
            assert abs(invariant_callable(cfg)(r) - 1.3 ** 2) < 2.0 / r ** 2

    def test_callable_matches_function(self):
        ep = ExtraPotential.from_descriptor(
            {"name": "gaussian_barrier", "height": 3.0, "center": 2.0, "width": 0.5}
        )
        for base in (
            ProblemConfig(p=2.0, lam=1.25, k=1.0, extra_potential=ep),
            ProblemConfig(p=4.0, lam=1.0, k=1.0, l_plus_nu=0.7, extra_potential=ep),
            ProblemConfig(p=4.0, lam=1.0, k=1.0, l_plus_nu=0.5),
        ):
            cfg = validate(base)
            j = invariant_callable(cfg)
            # the conformal coupling lambda already holds the centrifugal term
            cf = 0.0 if cfg.is_conformal else cfg.l_plus_nu ** 2 - 0.25
            for r in (1e-3, 0.3, 2.0, 17.0):
                w = ep.value(r) if cfg.extra_potential else 0.0
                expected = cfg.k ** 2 + cfg.lam * r ** (-cfg.p) - cf / r ** 2 - w
                assert j(r) == pytest.approx(expected, rel=1e-14)

    def test_barrier_carves_into_invariant(self):
        ep = ExtraPotential.from_descriptor(
            {"name": "gaussian_barrier", "height": 14.0, "center": 3.0, "width": 1.1}
        )
        cfg = validate(ProblemConfig(p=4.0, lam=1.0, k=1.0, l_plus_nu=0.5, extra_potential=ep))
        assert invariant_callable(cfg)(3.0) < 0.0  # classically forbidden at the top


class TestConfigSerialization:
    def test_round_trip(self):
        ep = {"name": "inverse_power", "coefficient": 0.2, "exponent": 2.5}
        d = {
            "p": 4.0,
            "lambda": 1.5,
            "k": 0.9,
            "l_plus_nu": 0.5,
            "mu": 1.0,
            "extra_potential": ep,
            "r_min": 1e-3,
            "r_max": 40.0,
            "tol": 1e-9,
        }
        cfg = ProblemConfig.from_dict(d)
        assert cfg.lam == 1.5
        assert cfg.to_dict() == d

    def test_only_validate_makes_a_validated_config(self):
        d = {"p": 4.0, "lambda": 1.5, "k": 0.9, "l_plus_nu": 0.5}
        assert type(ValidatedConfig.from_dict(d)) is ProblemConfig
        cfg = validate(ProblemConfig.from_dict(d))
        assert isinstance(cfg, ProblemConfig)
        assert (cfg.lam, cfg.n_exponent, cfg.theta) == (1.5, 2.0, None)
        assert cfg.to_dict() == ProblemConfig.from_dict(d).to_dict()
        moved = cfg.replaced(mu=2.0)
        assert type(moved) is ValidatedConfig
        assert (moved.mu, moved.n_exponent) == (2.0, 2.0)

    def test_unknown_and_missing_fields(self):
        with pytest.raises(BadGrid):
            ProblemConfig.from_dict({"p": 2.0, "lambda": 1.25, "k": 1.0, "bogus": 1})
        with pytest.raises(BadGrid):
            ProblemConfig.from_dict({"p": 2.0, "lambda": 1.25})

    @pytest.mark.parametrize(
        "d",
        [{"p": 2.0, "k": 1.0}, {"p": 2.0, "lambda": "1.25", "k": 1.0},
         {"p": 2.0, "lambda": math.nan, "k": 1.0}],
        ids=["missing", "not-a-number", "not-finite"],
    )
    def test_messages_name_lambda(self, d):
        with pytest.raises(BadGrid) as err:
            validate(ProblemConfig.from_dict(d))
        assert "lambda" in str(err.value)
        assert not re.search(r"\blam\b", str(err.value))


class TestExtraPotential:
    def test_gaussian_value_and_tail(self):
        ep = ExtraPotential.from_descriptor(
            {"name": "gaussian_barrier", "height": 2.0, "center": 1.0, "width": 0.5}
        )
        assert ep.value(1.0) == pytest.approx(2.0)
        assert ep.value(2.0) == pytest.approx(2.0 * math.exp(-4.0))
        # tail integral bounds the true integral and decreases
        assert ep.tail_integral(2.0) < ep.tail_integral(1.0)
        assert ep.tail_integral(20.0) < 1e-200

    def test_inverse_power_value(self):
        ep = ExtraPotential.from_descriptor(
            {"name": "inverse_power", "coefficient": 0.3, "exponent": 3.0}
        )
        assert ep.value(2.0) == pytest.approx(0.3 / 8.0)
        assert ep == InversePower(coefficient=0.3, exponent=3.0)
        assert (ep.tail_integral(1.0), ep.origin_phase(1.0, 1.0, 4.0)) == (0.0, 0.0)

    def test_descriptor_needs_exactly_the_kind_fields(self):
        desc = {"name": "gaussian_barrier", "height": 1, "center": 2, "width": 0.5}
        ep = ExtraPotential.from_descriptor(desc)
        assert ep == GaussianBarrier(height=1.0, center=2.0, width=0.5)
        assert list(ep.to_descriptor()) == ["name", "center", "height", "width"]
        for stray in ({"exponent": 3}, {"heigth": 9}):
            with pytest.raises(BadGrid, match="exactly the keys"):
                ExtraPotential.from_descriptor({**desc, **stray})

    @pytest.mark.parametrize("center", [-1.0, 0.3, 2.0])
    def test_gaussian_origin_phase_bounds_its_integral(self, center):
        # the WKB phase of |W| / (2 sqrt(lambda r^-p)) over (0, r)
        ep = GaussianBarrier(height=-20.0, center=center, width=0.5)
        lam, p = 2.0, 3.0
        for r in (0.1, 0.5, 1.5):
            exact = quad(lambda s: abs(ep.value(s)) * s ** (p / 2) / (2.0 * math.sqrt(lam)), 0.0, r)[0]
            assert exact <= ep.origin_phase(r, lam, p)
