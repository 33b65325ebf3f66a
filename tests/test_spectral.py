from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savwave.model import spectral_discretization, uniform_grid
from savwave.schemes import modified_energy
from savwave.spectral import (
    SpectralField,
    _synthesis_matrix,
    cayley_group_table,
    eigenvalues,
    sine_values,
    spectral_group_table,
    wave_group_table,
)


def _check_same_modes(a, b):
    if a.modes != b.modes:
        raise ValueError(f"mode counts differ: {a.modes} vs {b.modes}")


@dataclass(frozen=True)
class PairState:
    """Displacement/velocity pair (u, v) sharing one truncation level.

    With group_step, an independent oracle of the linear propagator that the
    exponential stepper must reduce to when f = g = 0.
    """

    u: SpectralField
    v: SpectralField

    def __post_init__(self):
        _check_same_modes(self.u, self.v)

    @property
    def modes(self):
        return self.u.modes


def group_step(x, table):
    """Advance a pair state by one application of the wave group (oracle, see PairState).

    Per mode: u' = cos*u + (sin/sqrt(lam))*v, v' = -sqrt(lam)*sin*u + cos*v;
    preserves the energy 1/2|u|_{H1}^2 + 1/2|v|_{L2}^2 exactly.
    """
    if x.modes != table.modes:
        raise ValueError(f"mode counts differ: state {x.modes} vs table {table.modes}")
    u = x.u.coeffs
    v = x.v.coeffs
    u_new = table.cos * u + table.a2 * v
    v_new = -table.sqrt_lam * table.sin * u + table.cos * v
    return PairState(SpectralField(u_new), SpectralField(v_new))


def smooth_field(seed, modes, decay=2.0):
    rng = np.random.default_rng(seed)
    k = np.arange(1, modes + 1, dtype=float)
    return SpectralField(rng.standard_normal(modes) / k**decay)


class TestEigenvalues:
    def test_first(self):
        assert eigenvalues(1)[0] == pytest.approx(np.pi**2, rel=1e-15)

    def test_third(self):
        assert eigenvalues(3)[2] == pytest.approx(9 * np.pi**2, rel=1e-15)

    def test_ratio_exact(self):
        lam = eigenvalues(2)
        assert lam[1] / lam[0] == 4.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            eigenvalues(0)

    def test_increasing(self):
        lam = eigenvalues(32)
        assert np.all(np.diff(lam) > 0)


class TestSobolevNorm:
    # modified_energy is 1/2 |u|_H1^2 + 1/2 |v|^2 + q^2 in coefficient space

    def test_single_mode_h1(self):
        u = np.eye(8)[0]
        assert 2.0 * modified_energy(u, np.zeros(8), 0.0, eigenvalues(8)) == pytest.approx(
            np.pi**2, rel=1e-15
        )

    def test_zero_field(self):
        zero = np.zeros(8)
        assert modified_energy(zero, zero, 0.0, eigenvalues(8)) == 0.0

    def test_orthonormality(self):
        v = np.array([1.0, 1.0, 0.0])
        assert 2.0 * modified_energy(np.zeros(3), v, 0.0, eigenvalues(3)) == 2.0


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
        e0 = modified_energy(x.u.coeffs, x.v.coeffs, 0.0, lam)
        for _ in range(10_000):
            x = group_step(x, table)
        e1 = modified_energy(x.u.coeffs, x.v.coeffs, 0.0, lam)
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

    @given(log_lam=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=16),
           log_tau=st.floats(-6.0, 0.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_cayley_table_property(self, log_lam, log_tau):
        # lam in [1, 1e8], tau in [1e-6, 1]: the table guards pass (the
        # constructor raises otherwise) and a1, a2 meet the energy law's
        # relations to the rotation within 4 ulp
        lam = 10.0 ** np.array(log_lam)
        table = cayley_group_table(lam, 10.0**log_tau)
        ulp = np.finfo(float).eps
        assert np.all(np.abs(lam * table.a1 + table.cos - 1.0) <= 4 * ulp)
        assert np.all(np.abs(table.a2 * np.sqrt(lam) - table.sin) <= 4 * ulp)


class TestNodalTransforms:
    # Discretization.nodal / project / quad, the transforms every study runs

    def test_basis_mode_on_coarse_grid(self):
        vals = spectral_discretization(1, grid_points=4).nodal(np.array([1.0]))
        expected = np.sqrt(2.0) * np.sin(np.pi * np.arange(5) / 4)
        expected[[0, -1]] = 0.0
        assert np.max(np.abs(vals - expected)) <= 1e-15

    def test_zero_field(self):
        assert np.all(spectral_discretization(8, grid_points=16).nodal(np.zeros(8)) == 0)

    def test_endpoints_exactly_zero(self):
        ops = spectral_discretization(32)
        for coeffs in (smooth_field(8, 32).coeffs,
                       np.stack([smooth_field(8, 32).coeffs, smooth_field(9, 32).coeffs])):
            vals = ops.nodal(coeffs)
            assert np.all(vals[..., 0] == 0.0) and np.all(vals[..., -1] == 0.0)

    def test_band_limited_exactness(self):
        ops = spectral_discretization(7, grid_points=8)
        vals = np.sqrt(2.0) * np.sin(2 * np.pi * ops.x)
        vals[[0, -1]] = 0.0
        coeffs = ops.project(vals)
        assert coeffs[1] == pytest.approx(1.0, abs=1e-12)
        others = np.delete(coeffs, 1)
        assert np.max(np.abs(others)) <= 1e-12

    def test_zero_values(self):
        assert np.all(spectral_discretization(15, grid_points=16).project(np.zeros(17)) == 0)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_on_dealiased_grid(self, seed):
        modes = 24
        ops = spectral_discretization(modes)
        c = np.random.default_rng(seed).standard_normal(modes)
        back = ops.project(ops.nodal(c))
        scale = np.max(np.abs(c))
        assert np.max(np.abs(back - c)) <= 1e-12 * scale

    def test_sine_cubed_expansion(self):
        # sin^3(pi x) = (3 sin(pi x) - sin(3 pi x))/4, i.e. coefficients
        # 3/(4 sqrt 2) and -1/(4 sqrt 2) on modes 1 and 3.
        ops = spectral_discretization(63, grid_points=64)
        coeffs = ops.project(np.sin(np.pi * ops.x) ** 3)
        expected = np.zeros(63)
        expected[0] = 0.5303300858899106
        expected[2] = -0.17677669529663687
        assert np.max(np.abs(coeffs - expected)) <= 1e-10

    def test_parseval_against_trapezoid(self):
        c = smooth_field(10, 8).coeffs
        m = 256
        ops = spectral_discretization(8, grid_points=m)
        vals = ops.nodal(c)
        w = np.full(m + 1, 1.0 / m)
        w[[0, -1]] *= 0.5
        assert abs(float(np.sum(w * vals**2)) - c @ c) <= 5.0 / m**2
        assert ops.quad(vals**2) == pytest.approx(np.sum(w * vals**2), rel=1e-14)


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

    @pytest.mark.parametrize("build", [wave_group_table, cayley_group_table])
    def test_table_off_the_trig_identity_rejected(self, build):
        # sin off by 1e-14 relative moves cos^2 + sin^2 by about 2e-14 sin^2,
        # past the 8-eps guard on the modes where sin^2 is of order one
        table = build(eigenvalues(8), 0.3)
        with pytest.raises(ValueError, match="trigonometric identity"):
            replace(table, sin=table.sin * (1.0 + 1e-14))


def test_sine_values_take_the_bits_of_the_expression():
    # Evaluated in place; the spatial reference, the trace weights and the
    # FEM loads must keep the bits of the expression they each wrote out.
    for modes in (7, 64, 256):
        for x in (uniform_grid(2048).x[256:512], spectral_discretization(modes).x):
            expected = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, np.arange(1, modes + 1)))
            assert sine_values(x, modes).tobytes() == expected.tobytes()


@pytest.mark.parametrize("modes, grid_points", [
    (3, 6), (3, 4), (16, 32), (100, 200), (100, 257), (255, 510), (256, 512), (1024, 2048)])
def test_synthesis_matrix_takes_the_bits_of_the_expression(modes, grid_points):
    # Built in place in the (K, M + 1) layout that spectral synthesis
    # multiplies into; the FEM noise map reads its transpose.
    j, k = np.arange(grid_points + 1), np.arange(1, modes + 1)
    expected = np.sqrt(2.0) * np.sin(np.pi * np.outer(j, k) / grid_points)
    expected[[0, -1]] = 0.0
    mat = _synthesis_matrix(modes, grid_points)
    assert mat.flags.c_contiguous and mat.shape == (modes, grid_points + 1)
    assert np.array_equal(mat, expected.T)
    if grid_points == 2 * modes:
        assert np.array_equal(spectral_discretization(modes).synth_t, mat)
