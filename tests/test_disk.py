import cmath
import math
import random
import sys
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
from singscat.disk import _grid
from singscat.errors import OutsideDisk, RankDeficient

EPS = sys.float_info.epsilon


def mobius(a: complex, b: complex):
    return lambda om: (a * om + b) / (b.conjugate() * om + a.conjugate())


def normalized_pair(rho: float, phase_a: float, phase_b: float) -> tuple[complex, complex]:
    """|a|^2 - |b|^2 = 1 with |b| = rho."""
    a = math.sqrt(1.0 + rho * rho) * cmath.exp(1j * phase_a)
    b = rho * cmath.exp(1j * phase_b)
    return a, b


def fit_error(a: complex, b: complex, fit_a: complex, fit_b: complex) -> float:
    """Relative error of a fitted (a, b), either sign."""
    return min(abs(fit_a - s * a) + abs(fit_b - s * b) for s in (1.0, -1.0)) / abs(a)


def svd_fit(samples: UnitaryFamilySample) -> tuple[complex, complex]:
    """Reference fit: null vector of the 2N x 4 real system from a thin SVD."""
    omegas = np.exp(1j * np.asarray(samples.chis))
    values = np.asarray(samples.values, dtype=complex)
    prod = values * omegas
    rows = np.stack(
        [omegas - values, 1j * (omegas + values), 1.0 - prod, 1j * (1.0 + prod)], axis=1
    )
    x = np.linalg.svd(np.vstack((rows.real, rows.imag)), full_matrices=False)[2][-1]
    a, b = complex(x[0], x[1]), complex(x[2], x[3])
    scale = 1.0 / math.sqrt(abs(a) ** 2 - abs(b) ** 2)
    return a * scale, b * scale


def taylor_reference(samples: UnitaryFamilySample, omega: complex) -> complex:
    """Truncated Taylor sum: sample FFT, then Horner over m < N."""
    coeffs = np.fft.fft(np.asarray(samples.values, dtype=complex)) / len(samples)
    acc = 0j
    for c in coeffs[::-1]:
        acc = acc * omega + c
    return complex(acc)


FIT_CASES = [(rho, n) for rho in (0.0, 0.1, 1.0, 10.0, 100.0, 300.0) for n in (8, 64, 1024)]


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

    @pytest.mark.parametrize("rho, n", FIT_CASES)
    def test_exact_data_error_within_eps_a4(self, rho, n):
        # the Gram matrix squares the condition number |a|^2 of the
        # system; the measured worst is about 4 eps |a|^4 (|b| <= 1), and
        # the SVD's about 3 eps |a|^4 there and far less for large |b|
        rng = random.Random(f"exact {rho} {n}")
        for _ in range(4):
            a, b = normalized_pair(rho, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            samples = UnitaryFamilySample.uniform_grid(n, mobius(a, b))
            fit = fit_mobius(samples)
            bound = 16 * EPS * abs(a) ** 4
            assert fit_error(a, b, fit.a, fit.b) <= bound
            assert fit_error(a, b, *svd_fit(samples)) <= bound

    @pytest.mark.parametrize("rho, n", FIT_CASES)
    def test_noisy_data_error_near_the_svd(self, rho, n):
        # with noise of 1e-10 the data error 1e-10 |a|^2 outweighs the
        # Gram's rounding eps |a|^4 here; one draw can leave the SVD far
        # below its typical error, so the errors of three draws are summed
        rng = random.Random(f"noisy {rho} {n}")
        a, b = normalized_pair(rho, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        exact = UnitaryFamilySample.uniform_grid(n, mobius(a, b))
        gram_err = svd_err = 0.0
        for _ in range(3):
            samples = UnitaryFamilySample(tuple(
                v + complex(rng.gauss(0, 1e-10), rng.gauss(0, 1e-10)) for v in exact.values
            ))
            fit = fit_mobius(samples)
            gram_err += fit_error(a, b, fit.a, fit.b)
            svd_err += fit_error(a, b, *svd_fit(samples))
        assert gram_err <= 4 * svd_err

    def test_non_finite_samples_rejected(self):
        samples = [(cmath.exp(2j * math.pi * j / 4), 1.0) for j in range(4)]
        samples[2] = (samples[2][0], complex(math.nan, 0.0))
        with pytest.raises(ValueError):
            fit_mobius(samples)


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

    @pytest.mark.parametrize("n", [8, 128, 2048])
    def test_matches_taylor_sum_of_the_fft(self, n):
        # the kernel sum times (1 - Omega^N) is the truncated Taylor sum
        # algebraically; in floats they agree to rounding for |Omega| <= 0.9
        rng = random.Random(n)
        samples = UnitaryFamilySample.uniform_grid(n, mobius(*normalized_pair(3.0, 0.4, -1.1)))
        points = [0.9 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(10)]
        points += [0.9 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                   for _ in range(10)]
        for om in points + [0j, 0.9, -0.9j]:
            assert abs(cauchy_reconstruct(samples, om) - taylor_reference(samples, om)) <= 2e-15

    @pytest.mark.parametrize("n", [8, 64, 2048])
    def test_error_estimate_is_the_halving_difference(self, n):
        samples = UnitaryFamilySample.uniform_grid(n, self.f)
        half = UnitaryFamilySample(samples.values[::2])
        for om in (0.4 + 0.1j, -0.85j, 0j):
            full_rec = cauchy_reconstruct(samples, om)
            half_rec = cauchy_reconstruct(half, om)
            est = reconstruction_error_estimate(samples, om)
            assert abs(est - abs(full_rec - half_rec)) <= 1e-15

    def test_half_grid_is_the_even_nodes(self):
        # the estimate takes the N/2 sum from the even terms of the N grid
        for n in [*range(4, 258, 2), 512, 1024, 2048, 4096]:
            chis, nodes = _grid(n)
            assert (chis[::2], nodes[::2]) == _grid(n // 2)


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
            UnitaryFamilySample((1.0,))

    @pytest.mark.parametrize("n", [2, 7, 64])
    def test_phases_are_the_cached_grid(self, n):
        samples = UnitaryFamilySample.uniform_grid(n, lambda om: om)
        assert samples.chis == _grid(n)[0]
        assert samples.values == _grid(n)[1]
        assert UnitaryFamilySample(samples.values) == samples
