"""Special functions against independent references: analytic identities,
an extended-precision oracle (mpmath), finite differences, and Monte
Carlo integration."""

import math

import numpy as np
import pytest

import mpmath

from softds.mathutils import (
    digamma,
    dirichlet_log_density,
    log_gamma,
    sorted_sum,
)

mpmath.mp.dps = 50

EULER_GAMMA = 0.5772156649015329

# frozen from the 50-digit mpmath oracle above
LGAMMA_3_7 = 1.4280723266653879


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_at_half(self):
        # ln Gamma(1/2) = ln sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(0.5723649429247001, abs=1e-12)

    def test_against_extended_precision_oracle(self):
        assert log_gamma(3.7) == pytest.approx(LGAMMA_3_7, abs=1e-12)
        assert LGAMMA_3_7 == float(mpmath.loggamma(mpmath.mpf("3.7")))

    def test_absolute_error_small_arguments(self):
        # value magnitudes up to ~8e4 here, so 1e-10 absolute is meaningful
        for x in np.logspace(-6, 4, 300):
            ref = float(mpmath.loggamma(mpmath.mpf(repr(float(x)))))
            assert abs(log_gamma(float(x)) - ref) <= 1e-10, x

    def test_relative_error_large_arguments(self):
        # above ~1e4 the value outgrows 1e-10 absolute resolution of a
        # float64; the error stays at a few ulp relative
        for x in np.logspace(4, 6, 60):
            ref = float(mpmath.loggamma(mpmath.mpf(repr(float(x)))))
            assert abs(log_gamma(float(x)) - ref) <= 5e-14 * abs(ref), x

    def test_recurrence(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(1e-9, 100.0, size=1000)
        lhs = log_gamma(x + 1.0) - log_gamma(x) - np.log(x)
        assert np.max(np.abs(lhs)) <= 1e-9

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)

    def test_array_input(self):
        out = log_gamma(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [0.0, 0.0, math.log(2.0)], atol=1e-12)


def masked_digamma(x):
    """``digamma`` with its argument shifts gathered and scattered through
    boolean masks, the form its masked-add shifts must equal bit for bit."""
    z = np.array(x, dtype=np.float64)
    shift = np.zeros_like(z)
    for _ in range(8):
        mask = z < 8.0
        shift[mask] -= 1.0 / z[mask]
        z[mask] += 1.0
    with np.errstate(over="ignore"):
        u = 1.0 / (z * z)
    tail = u * (1.0 / 12.0 - u * (1.0 / 120.0 - u * (1.0 / 252.0 - u * (
        1.0 / 240.0 - u * (1.0 / 132.0 - u * (691.0 / 32760.0 - u / 12.0))))))
    return shift + np.log(z) - 0.5 / z - tail


class TestDigamma:
    def test_equals_masked_shifts_bitwise(self):
        rng = np.random.default_rng(12)
        x = np.concatenate([rng.uniform(1e-3, 20.0, 20_000),
                            np.exp(rng.uniform(-20.0, 20.0, 20_000)),
                            [1e-300, 7.999999999999999, 8.0, 1e150, 1.4e154,
                             1e200, 1e300, np.finfo(float).max]])
        assert np.array_equal(digamma(x), masked_digamma(x))

    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_at_two(self):
        # psi(2) = 1 - gamma via the recurrence psi(x+1) = psi(x) + 1/x
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)

    def test_against_finite_difference_oracle(self):
        h = 1e-6
        fd = (log_gamma(0.3 + h) - log_gamma(0.3 - h)) / (2.0 * h)
        assert digamma(0.3) == pytest.approx(fd, abs=1e-6)

    def test_against_extended_precision(self):
        for x in np.logspace(-4, 6, 200):
            ref = float(mpmath.digamma(mpmath.mpf(repr(float(x)))))
            assert abs(digamma(float(x)) - ref) <= 1e-10, x
        # below 1e-4 the -1/x pole dominates; relative error stays tiny
        for x in np.logspace(-6, -4, 40):
            ref = float(mpmath.digamma(mpmath.mpf(repr(float(x)))))
            assert abs(digamma(float(x)) - ref) <= 1e-12 * abs(ref), x

    def test_recurrence(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(1e-9, 100.0, size=1000)
        lhs = digamma(x + 1.0) - digamma(x) - 1.0 / x
        assert np.max(np.abs(lhs)) <= 1e-9

    def test_is_derivative_of_log_gamma(self):
        h = 1e-6
        for x in np.linspace(0.1, 100.0, 200):
            fd = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
            assert abs(digamma(x) - fd) <= 1e-5 * max(1.0, abs(fd))

    @pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            digamma(bad)


class TestDirichletLogDensity:
    def test_uniform_parameters(self):
        assert dirichlet_log_density([0.5, 0.5], [1.0, 1.0]) == pytest.approx(
            0.0, abs=1e-14)

    def test_linear_density(self):
        # pdf = c_0 / B(2, 1) = 0.5 / 0.5 = 1
        assert dirichlet_log_density([0.5, 0.5], [2.0, 1.0]) == pytest.approx(
            0.0, abs=1e-12)

    def test_symmetric_beta(self):
        # B(2, 2) = 1/6, pdf at the center = 0.25 * 6 = 1.5
        assert dirichlet_log_density([0.5, 0.5], [2.0, 2.0]) == pytest.approx(
            0.4054651081081644, abs=1e-12)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            dirichlet_log_density([0.5, 0.5], [1.0, 0.0])
        with pytest.raises(ValueError):
            dirichlet_log_density([0.5, 0.5], [-1.0, 2.0])

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(6)
        c = rng.dirichlet(np.ones(4), size=(5, 3))
        params = rng.uniform(0.5, 3.0, size=(3, 4))
        batched = dirichlet_log_density(c, params)
        assert batched.shape == (5, 3)
        for i in range(5):
            for k in range(3):
                assert batched[i, k] == pytest.approx(
                    dirichlet_log_density(c[i, k], params[k]), abs=1e-12)

    def test_integrates_to_one(self):
        # Monte Carlo over the 2-simplex: uniform samples have density 2,
        # so the integral of the pdf is E_uniform[pdf] / 2.
        rng = np.random.default_rng(5)
        params = np.array([2.0, 3.0, 1.5])
        samples = np.maximum(rng.dirichlet(np.ones(3), size=100_000), 1e-300)
        pdf = np.exp(dirichlet_log_density(samples, params))
        mass = float(pdf.mean() / 2.0)
        assert abs(mass - 1.0) <= 0.02


class TestSortedSum:
    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((50, 7, 4))
        perm = rng.permutation(7)
        assert np.array_equal(sorted_sum(a, axis=1),
                              sorted_sum(a[:, perm, :], axis=1))

    @staticmethod
    def with_ties_and_zeros(k, axis):
        """A (6, 5, 4) array, ``k`` long on ``axis``, holding repeated
        values and both signed zeros, including columns of zeros only."""
        shape = [6, 5, 4]
        shape[axis] = k
        rng = np.random.default_rng(k * 3 + axis)
        a = rng.choice([0.0, -0.0, 1.5, -1.5, 2.0 ** -30, 1e300], size=shape)
        a = np.where(rng.random(shape) < 0.3, rng.standard_normal(shape), a)
        zero_col = [slice(None)] * 3
        zero_col[(axis + 1) % 3] = 0
        a[tuple(zero_col)] = rng.choice([0.0, -0.0], size=a[tuple(zero_col)].shape)
        return a

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_permutation_invariant_with_ties_and_signed_zeros(self, k, axis):
        a = self.with_ties_and_zeros(k, axis)
        ref = sorted_sum(a, axis).view(np.int64)
        rng = np.random.default_rng(k)
        for _ in range(10):
            perm = rng.permutation(k)
            assert np.array_equal(sorted_sum(np.take(a, perm, axis=axis), axis)
                                  .view(np.int64), ref)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("k", range(1, 8))
    def test_equals_sort_then_sum_below_eight(self, k, axis):
        a = self.with_ties_and_zeros(k, axis)
        assert np.array_equal(sorted_sum(a, axis).view(np.int64),
                              np.sort(a, axis).sum(axis).view(np.int64))

    def test_leaves_input_unchanged(self):
        a = np.array([[3.0, -1.0], [2.0, 0.5], [-4.0, 7.0]])
        before = a.copy()
        sorted_sum(a, 0)
        assert np.array_equal(a, before)
