import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savwave import noise
from savwave.model import spectral_discretization
from savwave.noise import (
    CovarianceSpec,
    RngStream,
    coupled_increments,
    covariance_tail,
    increments,
    power_covariance,
    trace,
    trace_operator,
)


def drawn(cov, tau, n_steps, stream):
    """(n_steps, K) increments of one stream; each yielded step is copied before the next."""
    return np.array([dw[0].copy() for dw in increments(cov, tau, n_steps, [stream])])


def coupled(cov, tau, n_steps, stream, multiples):
    """(fine, {m: coarse}) of one stream: every fine step and the coarse increments per multiple."""
    fine, coarse = [], {m: [] for m in multiples}
    for dw, done in coupled_increments(cov, tau, n_steps, [stream], multiples):
        fine.append(dw[0].copy())
        for level, acc in done:
            coarse[multiples[level]].append(acc[0].copy())
    return np.array(fine), {m: np.array(c) for m, c in coarse.items()}


class TestCovariance:
    def test_geometric_trace(self):
        cov = CovarianceSpec(0.5 ** np.arange(1, 11))
        assert trace(cov) == 1.0 - 2.0**-10

    def test_single_mode(self):
        assert trace(CovarianceSpec(np.array([0.5]))) == 0.5

    def test_power_trace_against_direct_summation(self):
        cov = power_covariance(64, 2.0)
        oracle = math.fsum(1.0 / k**2 for k in range(1, 65))
        assert trace(cov) == pytest.approx(oracle, rel=1e-15)

    def test_tail_bracket(self):
        # sum_{k>K} k^-2 lies strictly between 1/(K+1) and 1/K
        tail = covariance_tail(power_covariance(64, 2.0))
        assert 1.0 / 65 < tail < 1.0 / 64

    @pytest.mark.parametrize("decay", [1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0])
    def test_tail_matches_the_hurwitz_zeta(self, decay):
        # sum_{k>K} k^-s = zeta(s, K + 1), which scipy evaluates without
        # the cancellation of zeta(s) - sum(q) (1.2e-6 relative at s = 4,
        # K = 1024).
        from scipy.special import zeta

        for modes in (1, 2, 7, 32, 33, 64, 100, 1024, 4096):
            tail = covariance_tail(power_covariance(modes, decay))
            assert tail == pytest.approx(zeta(decay, modes + 1), rel=1e-11, abs=0)

    def test_no_tail_without_a_summable_power_law(self):
        assert covariance_tail(CovarianceSpec(np.array([1.0, 0.5]))) is None
        assert covariance_tail(power_covariance(8, 1.0)) is None

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            CovarianceSpec(np.array([1.0, 0.0]))


class TestSampling:
    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            drawn(power_covariance(4), 0.0, 3, RngStream(1))

    def test_replay_is_bit_identical(self):
        cov = power_covariance(16)
        a = drawn(cov, 0.01, 50, RngStream(7, 3))
        b = drawn(cov, 0.01, 50, RngStream(7, 3))
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        cov = power_covariance(16)
        a = drawn(cov, 0.01, 50, RngStream(7, 0))
        b = drawn(cov, 0.01, 50, RngStream(7, 1))
        assert not np.array_equal(a, b)

    def test_block_equals_sequential_draws(self):
        cov = power_covariance(8)
        block = drawn(cov, 0.25, 20, RngStream(5, 2))
        rng = RngStream(5, 2)
        rows = np.stack([np.sqrt(cov.q * 0.25) * rng.normals(8) for _ in range(20)])
        assert np.array_equal(block, rows)
        assert rng.counter == 20 * 8

    def test_variance_within_confidence_band(self):
        # chi-square: sd of the sample variance is q*tau*sqrt(2/(n-1))
        n = 100_000
        tau = 0.01
        block = drawn(CovarianceSpec(np.array([1.0, 0.25])), tau, n, RngStream(42, 0))
        var = np.var(block[:, 0], ddof=1)
        assert abs(var - tau) <= 5 * tau * np.sqrt(2.0 / (n - 1))

    def test_small_tau_shrinks_variance(self):
        cov = CovarianceSpec(np.array([1.0]))
        big = np.var(drawn(cov, 1e-2, 4000, RngStream(3, 0)))
        small = np.var(drawn(cov, 1e-6, 4000, RngStream(3, 1)))
        assert small < big / 100

    def test_lag_one_autocorrelation_is_noise(self):
        n = 100_000
        draws = drawn(CovarianceSpec(np.array([1.0])), 1.0, n, RngStream(9, 0))[:, 0]
        x = draws - draws.mean()
        r = np.sum(x[1:] * x[:-1]) / np.sum(x**2)
        assert abs(r) < 5.0 / np.sqrt(n)


class TestCoupling:
    def test_multiple_one_is_the_fine_stream(self):
        cov = power_covariance(4)
        fine, coarse = coupled(cov, 0.01, 8, RngStream(1, 0), [1])
        ref = drawn(cov, 0.01, 8, RngStream(1, 0))
        assert np.array_equal(fine, ref)
        assert np.array_equal(coarse[1], ref)

    def test_two_level_telescoping_exact(self):
        cov = power_covariance(8)
        fine, coarse = coupled(cov, 0.01, 32, RngStream(2, 0), [2])
        sums = fine[0::2] + fine[1::2]
        assert np.array_equal(coarse[2], sums)

    @given(m=st.sampled_from([2, 3, 4, 8, 16]), seed=st.integers(0, 2**20))
    @settings(max_examples=20, deadline=None)
    def test_aggregation_is_in_order_left_fold(self, m, seed):
        # any multiple that divides the 48 steps, dyadic or not
        cov = power_covariance(4)
        fine, coarse = coupled(cov, 0.5, 48, RngStream(seed, 0), [1, m])
        assert np.array_equal(coarse[1], fine)
        manual = np.zeros((48 // m, 4))
        for window in range(48 // m):
            acc = np.zeros(4)
            for i in range(m):
                acc += fine[window * m + i]
            manual[window] = acc
        assert np.array_equal(coarse[m], manual)

    def test_aggregated_variance_matches_coarse_step(self):
        cov = CovarianceSpec(np.array([1.0, 0.5]))
        tau_fine = 0.005
        _, paths = coupled(cov, tau_fine, 200_000, RngStream(11, 0), [4])
        coarse = paths[4]
        n = coarse.shape[0]
        for k in (0, 1):
            target = cov.q[k] * 4 * tau_fine
            sd = target * np.sqrt(2.0 / (n - 1))
            assert abs(np.var(coarse[:, k], ddof=1) - target) <= 5 * sd

    def test_non_dividing_rejected(self):
        with pytest.raises(ValueError):
            next(coupled_increments(power_covariance(4), 0.01, 10, [RngStream(0)], [4]))


class TestIncrements:
    @pytest.mark.parametrize("window", [1, 4, 5, 20])  # one step, divisor, non-divisor, > n_steps
    def test_rows_match_per_stream_blocks_bitwise(self, monkeypatch, window):
        cov = power_covariance(3)
        n_steps = 12
        monkeypatch.setattr(noise, "_NORMALS_PER_DRAW", window * cov.modes)
        streams = [RngStream(17, b) for b in range(4)]
        # the yielded array is overwritten by the next window: keep copies
        steps = [dw.copy() for dw in increments(cov, 0.03, n_steps, streams)]
        assert len(steps) == n_steps
        for b, stream in enumerate(streams):
            oracle = RngStream(17, b)
            block = oracle.normals((n_steps, cov.modes)) * np.sqrt(cov.q * 0.03)
            rows = np.array([dw[b] for dw in steps])
            assert np.array_equal(rows, block)
            assert stream.counter == oracle.counter

    def test_yields_nothing_for_zero_steps(self):
        stream = RngStream(1, 0)
        assert list(increments(power_covariance(4), 0.1, 0, [stream])) == []
        assert stream.counter == 0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            next(increments(power_covariance(4), 0.0, 3, [RngStream(1)]))


class TestHilbertSchmidt:
    # trace_operator(cov, ops) maps nodal g-values to the quadrature of
    # sum_k q_k * int g^2 e_k^2 dx, the squared Hilbert-Schmidt norm of
    # g * Q^(1/2).

    def test_constant_g_gives_trace(self):
        cov = power_covariance(12)
        ops = spectral_discretization(12, grid_points=256)
        val = trace_operator(cov, ops)(np.ones_like(ops.x))
        assert val == pytest.approx(trace(cov), abs=1e-10)

    def test_zero_g(self):
        cov = power_covariance(6)
        ops = spectral_discretization(6, grid_points=64)
        assert trace_operator(cov, ops)(np.zeros_like(ops.x)) == 0.0

    def test_against_fine_quadrature_oracle(self):
        # g = sin, u = sin(pi x), q_k = k^-2, K = 8, vs a 10^4-point grid
        cov = power_covariance(8, 2.0)
        coarse = spectral_discretization(8, grid_points=128)
        fine = spectral_discretization(8, grid_points=10_000)
        val = trace_operator(cov, coarse)(np.sin(np.sin(np.pi * coarse.x)))
        oracle = trace_operator(cov, fine)(np.sin(np.sin(np.pi * fine.x)))
        assert val == pytest.approx(oracle, abs=1e-6)
