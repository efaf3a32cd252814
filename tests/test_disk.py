import cmath
import math
import tracemalloc

import numpy as np
import pytest

from singscat import (
    UnitaryFamilySample,
    absorption_average,
    cauchy_reconstruct,
    fit_mobius,
    reconstruction_error_estimate,
)
from singscat.errors import OutsideDisk, RankDeficient


def mobius(a: complex, b: complex):
    return lambda om: (a * om + b) / (b.conjugate() * om + a.conjugate())


def normalized_pair(rho: float, phase_a: float, phase_b: float) -> tuple[complex, complex]:
    """|a|^2 - |b|^2 = 1 with |b| = rho."""
    a = math.sqrt(1.0 + rho * rho) * cmath.exp(1j * phase_a)
    b = rho * cmath.exp(1j * phase_b)
    return a, b


class TestFitMobius:
    def test_exact_recovery_from_boundary(self):
        a, b = normalized_pair(0.6, 0.4, -0.2)
        f = mobius(a, b)
        samples = [(cmath.exp(2j * math.pi * j / 4), f(cmath.exp(2j * math.pi * j / 4))) for j in range(4)]
        fit = fit_mobius(samples)
        sign = 1.0 if abs(fit.a - a) < abs(fit.a + a) else -1.0
        assert fit.a == pytest.approx(sign * a, abs=1e-12)
        assert fit.b == pytest.approx(sign * b, abs=1e-12)
        assert fit.residual < 1e-12

    def test_interior_samples_accepted(self):
        a, b = normalized_pair(0.3, -0.7, 1.2)
        f = mobius(a, b)
        pts = [0.1, 0.5j, -0.4 + 0.2j, 0.8, -0.6j]
        fit = fit_mobius([(p, f(p)) for p in pts])
        for z in (0.33 + 0.21j, -0.5):
            assert fit.evaluate(z) == pytest.approx(f(z), abs=1e-11)

    def test_idempotence(self):
        a, b = normalized_pair(0.45, 0.9, 0.1)
        f = mobius(a, b)
        samples = [(cmath.exp(2j * math.pi * j / 6), f(cmath.exp(2j * math.pi * j / 6))) for j in range(6)]
        fit1 = fit_mobius(samples)
        samples2 = [(om, fit1.evaluate(om)) for om, _ in samples]
        fit2 = fit_mobius(samples2)
        assert fit2.a == pytest.approx(fit1.a, abs=1e-12)
        assert fit2.b == pytest.approx(fit1.b, abs=1e-12)

    def test_noisy_boundary_samples(self):
        a, b = normalized_pair(0.6, 0.4, -0.2)
        f = mobius(a, b)
        rng = np.random.default_rng(11)
        samples = []
        for j in range(4):
            om = cmath.exp(2j * math.pi * j / 4)
            noise = complex(rng.normal(0, 1e-8), rng.normal(0, 1e-8))
            samples.append((om, f(om) + noise))
        fit = fit_mobius(samples)
        sign = 1.0 if abs(fit.a - a) < abs(fit.a + a) else -1.0
        assert abs(fit.a - sign * a) < 1e-6
        assert abs(fit.b - sign * b) < 1e-6

    def test_constant_samples_rank_deficient(self):
        const = cmath.exp(0.9j)
        samples = [(cmath.exp(2j * math.pi * j / 8), const) for j in range(8)]
        with pytest.raises(RankDeficient) as exc:
            fit_mobius(samples)
        assert exc.value.constant_value == pytest.approx(const, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_mobius([(0.1, 0.2), (0.3, 0.4)])

    def test_three_samples_in_general_position(self):
        a, b = normalized_pair(0.8, 1.1, 2.5)
        f = mobius(a, b)
        fit = fit_mobius([(p, f(p)) for p in (cmath.exp(0.3j), 0.4 - 0.2j, cmath.exp(4.1j))])
        assert abs(fit.a - a) < 1e-12 and abs(fit.b - b) < 1e-12
        assert fit.residual < 1e-12

    def test_sample_container_and_pair_list_agree(self):
        samples = UnitaryFamilySample.uniform_grid(64, mobius(*normalized_pair(0.45, 0.9, 0.1)))
        pairs = [(cmath.exp(1j * chi), v) for chi, v in zip(samples.chis, samples.values)]
        assert fit_mobius(samples) == fit_mobius(pairs)

    def test_large_n_recovery_in_linear_memory(self):
        # a full SVD of the 2N x 4 system would allocate a 2N x 2N left
        # factor: 512 MB at N = 4096
        a, b = normalized_pair(0.7, 0.3, -1.9)
        samples = UnitaryFamilySample.uniform_grid(4096, mobius(a, b))
        tracemalloc.start()
        try:
            fit = fit_mobius(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(fit.a - a) < 1e-12 and abs(fit.b - b) < 1e-12
        assert fit.residual < 1e-12
        assert peak < 4 * 2**20

    def test_large_n_constant_family_rank_deficient(self):
        const = cmath.exp(-2.2j)
        samples = UnitaryFamilySample.uniform_grid(4096, lambda om: const)
        with pytest.raises(RankDeficient) as exc:
            fit_mobius(samples)
        assert abs(exc.value.constant_value - const) < 1e-12


class TestCauchyReconstruct:
    def setup_method(self):
        self.a, self.b = normalized_pair(0.5, 0.3, -1.0)
        self.f = mobius(self.a, self.b)
        self.samples = UnitaryFamilySample.uniform_grid(128, self.f)

    def test_boundary_samples_unimodular(self):
        assert max(abs(abs(v) - 1.0) for v in self.samples.values) < 1e-13

    def test_interior_point_matches_direct(self):
        om = 0.5 + 0.2j
        assert abs(cauchy_reconstruct(self.samples, om) - self.f(om)) < 1e-10

    def test_zero_reduces_to_uniform_average(self):
        avg = absorption_average(self.samples)
        assert cauchy_reconstruct(self.samples, 0j) == pytest.approx(avg, abs=1e-14)
        assert avg == pytest.approx(self.f(0j), abs=1e-12)

    def test_outside_disk_rejected(self):
        for om in (1.0 + 0j, 1.5j):
            with pytest.raises(OutsideDisk):
                cauchy_reconstruct(self.samples, om)

    def test_geometric_convergence(self):
        om = 0.3 + 0.4j
        errs = []
        for n in (8, 16, 32):
            s = UnitaryFamilySample.uniform_grid(n, self.f)
            errs.append(abs(cauchy_reconstruct(s, om) - self.f(om)))
        assert errs[1] < 0.5 * errs[0]
        assert errs[2] < 0.5 * errs[1]

    def test_error_estimate_brackets_truth(self):
        om = 0.4 + 0.1j
        s = UnitaryFamilySample.uniform_grid(32, self.f)
        est = reconstruction_error_estimate(s, om)
        true = abs(cauchy_reconstruct(s, om) - self.f(om))
        assert est >= true * 0.1 or est < 1e-13

    def test_nonuniform_grid_rejected(self):
        s = UnitaryFamilySample((0.0, 0.5, 1.7, 3.0), (1, 1, 1, 1))
        with pytest.raises(ValueError):
            cauchy_reconstruct(s, 0.2 + 0j)


class TestAbsorptionAverage:
    def test_constant(self):
        s = UnitaryFamilySample.uniform_grid(16, lambda om: 0.3 - 0.4j)
        assert absorption_average(s) == pytest.approx(0.3 - 0.4j)

    def test_identity_map_averages_to_zero(self):
        s = UnitaryFamilySample.uniform_grid(16, lambda om: om)
        assert abs(absorption_average(s)) < 1e-15


class TestSampleContainer:
    def test_validation(self):
        with pytest.raises(ValueError):
            UnitaryFamilySample((0.0, 1.0), (1.0,))
        with pytest.raises(ValueError):
            UnitaryFamilySample((0.0,), (1.0,))
