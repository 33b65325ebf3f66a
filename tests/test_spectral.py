import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savwave.spectral import (
    PairState,
    SpectralField,
    eigenvalue,
    eigenvalues,
    group_step,
    sobolev_norm_sq,
    spectral_group_table,
    to_nodal,
    to_spectral,
    wave_group_table,
)


def smooth_field(seed, modes, decay=2.0):
    rng = np.random.default_rng(seed)
    k = np.arange(1, modes + 1, dtype=float)
    return SpectralField(rng.standard_normal(modes) / k**decay)


class TestEigenvalues:
    def test_first(self):
        assert eigenvalue(1) == pytest.approx(np.pi**2, rel=1e-15)

    def test_third(self):
        assert eigenvalue(3) == pytest.approx(9 * np.pi**2, rel=1e-15)

    def test_ratio_exact(self):
        assert eigenvalue(2) / eigenvalue(1) == 4.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            eigenvalue(0)

    def test_increasing(self):
        lam = eigenvalues(32)
        assert np.all(np.diff(lam) > 0)


class TestSobolevNorm:
    def test_single_mode_h1(self):
        assert sobolev_norm_sq(SpectralField.basis(1, 8), 1.0) == pytest.approx(
            np.pi**2, rel=1e-15
        )

    def test_zero_field(self):
        assert sobolev_norm_sq(SpectralField.zeros(8), -1.3) == 0.0

    def test_orthonormality(self):
        f = SpectralField(np.array([1.0, 1.0, 0.0]))
        assert sobolev_norm_sq(f, 0.0) == 2.0


class TestWaveGroup:
    def test_quarter_period_single_mode(self):
        # sqrt(lam_1)*tau = pi/2 rotates (u, v) = (e1, 0) onto (0, -pi*e1)
        table = spectral_group_table(1, 0.5)
        out = group_step(PairState(SpectralField([1.0]), SpectralField([0.0])), table)
        assert out.u.coeffs[0] == pytest.approx(0.0, abs=1e-15)
        assert out.v.coeffs[0] == pytest.approx(-np.pi, rel=1e-14)

    def test_zero_time_is_identity(self):
        table = spectral_group_table(8, 0.0)
        x = PairState(smooth_field(2, 8), smooth_field(3, 8))
        out = group_step(x, table)
        assert np.array_equal(out.u.coeffs, x.u.coeffs)
        assert np.array_equal(out.v.coeffs, x.v.coeffs)

    def test_composition_matches_double_step_table(self):
        tau = 0.173
        one = spectral_group_table(24, tau)
        two = spectral_group_table(24, 2 * tau)
        x = PairState(smooth_field(4, 24), smooth_field(5, 24))
        twice = group_step(group_step(x, one), one)
        direct = group_step(x, two)
        scale = max(np.max(np.abs(direct.u.coeffs)), np.max(np.abs(direct.v.coeffs)))
        assert np.max(np.abs(twice.u.coeffs - direct.u.coeffs)) <= 1e-12 * scale
        assert np.max(np.abs(twice.v.coeffs - direct.v.coeffs)) <= 1e-12 * scale

    def test_mode_mismatch_rejected(self):
        table = spectral_group_table(4, 0.1)
        x = PairState(smooth_field(0, 8), smooth_field(1, 8))
        with pytest.raises(ValueError):
            group_step(x, table)

    def test_energy_conservation_long_run(self):
        table = spectral_group_table(64, 2.0**-6)
        lam = eigenvalues(64)
        x = PairState(smooth_field(6, 64, 1.0), smooth_field(7, 64, 0.0))
        e0 = sobolev_norm_sq(x.u, 1.0) + sobolev_norm_sq(x.v, 0.0)
        for _ in range(10_000):
            x = group_step(x, table)
        e1 = sobolev_norm_sq(x.u, 1.0) + sobolev_norm_sq(x.v, 0.0)
        assert abs(e1 - e0) / e0 <= 1e-12

    @given(tau=st.floats(0.0, 8.0), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_trig_identity_property(self, tau, seed):
        # |S(tau)x|^2 + |C(tau)x|^2 = |x|^2 for every tau and field
        table = spectral_group_table(16, tau)
        x = np.random.default_rng(seed).standard_normal(16)
        lhs = np.sum((table.sin * x) ** 2) + np.sum((table.cos * x) ** 2)
        assert lhs == pytest.approx(np.sum(x**2), rel=1e-12)

    def test_hoelder_bound_on_cosine_difference(self):
        # |(C(t)-C(s))(-Lap)^(-1/2) x| <= 1.01 |t-s| |x| over a (t, s) grid
        lam = eigenvalues(48)
        x = np.random.default_rng(11).standard_normal(48)
        x /= np.sqrt(np.sum(x**2))
        times = np.linspace(0.0, 3.0, 13)
        for i, t in enumerate(times):
            for s in times[:i]:
                diff = (np.cos(t * np.sqrt(lam)) - np.cos(s * np.sqrt(lam))) / np.sqrt(lam)
                assert np.sqrt(np.sum((diff * x) ** 2)) <= 1.01 * (t - s)

    def test_table_invariants(self):
        for tau in (0.0, 1e-4, 0.3, 2.7, 40.0):
            table = spectral_group_table(64, tau)
            assert np.all(table.a1 >= 0)
            assert np.max(np.abs(table.cos**2 + table.sin**2 - 1)) <= 4 * np.finfo(float).eps


class TestNodalTransforms:
    def test_basis_mode_on_coarse_grid(self):
        vals = to_nodal(SpectralField.basis(1, 1), 4)
        expected = np.sqrt(2.0) * np.sin(np.pi * np.arange(5) / 4)
        expected[[0, -1]] = 0.0
        assert np.max(np.abs(vals - expected)) <= 1e-15

    def test_zero_field(self):
        assert np.all(to_nodal(SpectralField.zeros(8), 16) == 0)

    def test_endpoints_exactly_zero(self):
        vals = to_nodal(smooth_field(8, 32), 64)
        assert vals[0] == 0.0 and vals[-1] == 0.0

    def test_aliasing_warning(self):
        with pytest.warns(UserWarning):
            to_nodal(smooth_field(9, 8), 4)

    def test_band_limited_exactness(self):
        x = np.linspace(0.0, 1.0, 9)
        vals = np.sqrt(2.0) * np.sin(2 * np.pi * x)
        vals[[0, -1]] = 0.0
        f = to_spectral(vals)
        assert f.coeffs[1] == pytest.approx(1.0, abs=1e-12)
        others = np.delete(f.coeffs, 1)
        assert np.max(np.abs(others)) <= 1e-12

    def test_zero_values(self):
        assert np.all(to_spectral(np.zeros(17)).coeffs == 0)

    def test_nonzero_endpoint_rejected(self):
        vals = np.zeros(9)
        vals[0] = 1e-6
        with pytest.raises(ValueError):
            to_spectral(vals)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_on_dealiased_grid(self, seed):
        modes = 24
        f = SpectralField(np.random.default_rng(seed).standard_normal(modes))
        back = to_spectral(to_nodal(f, 2 * modes), modes=modes)
        scale = np.max(np.abs(f.coeffs))
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * scale

    def test_sine_cubed_expansion(self):
        # sin^3(pi x) = (3 sin(pi x) - sin(3 pi x))/4, i.e. coefficients
        # 3/(4 sqrt 2) and -1/(4 sqrt 2) on modes 1 and 3.
        x = np.linspace(0.0, 1.0, 65)
        f = to_spectral(np.sin(np.pi * x) ** 3)
        expected = np.zeros(63)
        expected[0] = 0.5303300858899106
        expected[2] = -0.17677669529663687
        assert np.max(np.abs(f.coeffs - expected)) <= 1e-10

    def test_parseval_against_trapezoid(self):
        f = smooth_field(10, 8)
        m = 256
        vals = to_nodal(f, m)
        w = np.full(m + 1, 1.0 / m)
        w[[0, -1]] *= 0.5
        quad = float(np.sum(w * vals**2))
        assert abs(quad - sobolev_norm_sq(f, 0.0)) <= 5.0 / m**2


class TestFieldValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SpectralField(np.array([1.0, np.nan]))

    def test_pair_state_mode_mismatch(self):
        with pytest.raises(ValueError):
            PairState(SpectralField.zeros(4), SpectralField.zeros(5))

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            wave_group_table(eigenvalues(4), -0.1)
