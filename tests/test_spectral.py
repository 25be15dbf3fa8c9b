import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psifno.errors import (
    BadParameters,
    BadTruncation,
    DimensionMismatch,
    HermitianViolation,
)
from psifno.spectral import (
    IMAG_RESIDUE_RTOL,
    Grid,
    GridField,
    SobolevIndex,
    SpectralCoeffs,
    constant_field,
    dealiased_product,
    derivative,
    dft,
    divergence,
    evaluate,
    field_from_function,
    gradient,
    helmholtz_inverse,
    hermitian_defect,
    idft,
    inverse_laplacian,
    l2_norm,
    leray_project,
    mean,
    project,
    random_field,
    random_hermitian_coeffs,
    resample,
    sobolev_norm,
)

from helpers import (
    convolution_truncated,
    derivative_oracle,
    divergence_oracle,
    helmholtz_inverse_oracle,
    inverse_laplacian_oracle,
    naive_dft,
    naive_idft,
    rel_err,
    resample_add_at,
)


def centered_index(grid, *k):
    return tuple(grid.N + ki for ki in k)


class TestGrid:
    def test_odd_points(self):
        g = Grid(2, 4)
        assert g.npoints == 9
        assert g.shape == (9, 9)
        assert g.size == 81

    @pytest.mark.parametrize("d,N", [(0, 3), (1, 0), (2, -1)])
    def test_rejects_bad_parameters(self, d, N):
        with pytest.raises(BadParameters):
            Grid(d, N)

    def test_integral_floats_are_stored_as_ints(self):
        g = Grid(2, 4.0)
        assert g == Grid(2, 4) and type(g.d) is int and type(g.N) is int
        assert random_field(g, np.random.default_rng(0)).values.shape == (9, 9, 1)

    @pytest.mark.parametrize("size", [2.5, np.nan, np.inf])
    def test_rejects_non_integral_sizes(self, size):
        f = random_field(Grid(1, 2), np.random.default_rng(0))
        for make in (lambda: Grid(size, 2), lambda: Grid(2, size), lambda: resample(f, size)):
            with pytest.raises(BadParameters):
                make()

    def test_integral_float_channel_count_draws_the_same_field(self):
        g = Grid(2, 3)
        want = random_field(g, np.random.default_rng(5), channels=2)
        got = random_field(g, np.random.default_rng(5), channels=2.0)
        assert got.values.shape == (7, 7, 2) and np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("channels", [0, 2.5, np.nan])
    def test_rejects_non_integral_channel_counts(self, channels):
        for draw in (random_field, random_hermitian_coeffs):
            with pytest.raises(BadParameters):
                draw(Grid(1, 2), np.random.default_rng(0), channels)

    def test_coordinates(self):
        g = Grid(1, 2)
        x = g.axis_coordinates()
        assert np.allclose(x, 2 * np.pi * np.arange(5) / 5)


class TestDft:
    def test_constant_field(self):
        g = Grid(2, 3)
        c = dft(constant_field(g, 2.5))
        expected = np.zeros(g.shape + (1,), dtype=complex)
        expected[centered_index(g, 0, 0) + (0,)] = 2.5
        assert np.max(np.abs(c.coeffs - expected)) < 1e-14

    def test_cosine_coefficients(self):
        g = Grid(1, 3)
        f = field_from_function(g, np.cos)
        c = dft(f)
        assert abs(c.coeffs[centered_index(g, 1) + (0,)] - 0.5) < 1e-14
        assert abs(c.coeffs[centered_index(g, -1) + (0,)] - 0.5) < 1e-14
        other = c.coeffs.copy()
        other[centered_index(g, 1)] = 0
        other[centered_index(g, -1)] = 0
        assert np.max(np.abs(other)) < 1e-14

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(0)
        for d, N in [(1, 5), (2, 3), (3, 2)]:
            f = random_field(Grid(d, N), rng, channels=2)
            assert rel_err(dft(f).coeffs, naive_dft(f)) < 1e-12

    @pytest.mark.parametrize("d,N", [(1, 1), (1, 7), (2, 4), (3, 2)])
    def test_round_trip(self, d, N):
        rng = np.random.default_rng(d * 100 + N)
        f = random_field(Grid(d, N), rng, channels=3)
        back = idft(dft(f))
        assert rel_err(back.values, f.values) < 1e-12

    def test_coefficient_round_trip(self):
        rng = np.random.default_rng(7)
        g = Grid(2, 5)
        from psifno.spectral import random_hermitian_coeffs

        c = random_hermitian_coeffs(g, rng)
        again = dft(idft(c))
        assert rel_err(again.coeffs, c.coeffs) < 1e-12

    def test_hermitian_symmetry_of_real_dft(self):
        rng = np.random.default_rng(1)
        f = random_field(Grid(2, 6), rng)
        c = dft(f)
        assert hermitian_defect(c.coeffs, 2) <= 1e-12 * np.max(np.abs(c.coeffs))

    def test_idft_rejects_asymmetric_coeffs(self):
        g = Grid(1, 2)
        bad = np.zeros(g.shape + (1,), dtype=complex)
        bad[centered_index(g, 1) + (0,)] = 1.0  # no conjugate partner
        with pytest.raises(HermitianViolation):
            SpectralCoeffs(g, bad, real_field=True)
        c = SpectralCoeffs(g, bad, real_field=False)
        with pytest.raises(HermitianViolation):
            idft(c)

    def test_idft_rejects_imaginary_residue(self):
        # c(1) = c(-1) = 2e-10i: per-mode symmetry defect |c(-1) - conj(c(1))| = 4e-10,
        # above the bound 2 * IMAG_RESIDUE_RTOL * max|c| = 2e-10
        g = Grid(1, 4)
        coeffs = np.zeros(g.shape + (1,), dtype=complex)
        coeffs[centered_index(g, 0) + (0,)] = 1.0
        coeffs[centered_index(g, 1) + (0,)] = 2e-10j
        coeffs[centered_index(g, -1) + (0,)] = 2e-10j
        with pytest.raises(HermitianViolation):
            idft(SpectralCoeffs(g, coeffs, real_field=False))

    def test_idft_reads_a_defect_below_the_per_mode_bound_from_the_half(self):
        # the coherent antisymmetric part i*delta on all 81 modes has per-mode defect
        # 2*delta, inside the bound; the field moves by at most the summed defects
        g = Grid(2, 4)
        s = random_hermitian_coeffs(g, np.random.default_rng(7)).coeffs
        delta = 0.75 * IMAG_RESIDUE_RTOL * np.max(np.abs(s))
        f = idft(SpectralCoeffs(g, s + 1j * delta, real_field=False)).values
        move = np.max(np.abs(f - idft(SpectralCoeffs(g, s)).values))
        assert 0 < move <= s.size * 2 * delta

    def test_symmetry_guard_survives_optimize_flag(self):
        code = (
            "import numpy as np\n"
            "from psifno.errors import HermitianViolation\n"
            "from psifno.spectral import Grid, SpectralCoeffs, idft\n"
            "c = np.zeros((9, 1), dtype=complex); c[4] = 1.0; c[3] = c[5] = 2e-10j\n"
            "try:\n"
            "    idft(SpectralCoeffs(Grid(1, 4), c, real_field=False))\n"
            "except HermitianViolation:\n"
            "    print('raised')\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.stdout.strip() == "raised", proc.stderr

    @pytest.mark.parametrize("d,N", [(d, N) for d in (1, 2, 3) for N in (1, 2, 3, 4)])
    def test_idft_matches_naive_idft(self, d, N):
        # the conjugate extension's edges: N = 1, and the k_{d-1} = 0 plane in d = 3
        g = Grid(d, N)
        rng = np.random.default_rng(10 * d + N)
        for channels in (1, 2, 3):
            c = random_hermitian_coeffs(g, rng, channels)
            assert rel_err(idft(c).values, naive_idft(c.coeffs, g).real) < 1e-12

    def test_idft_of_single_mode_pair(self):
        g = Grid(1, 3)
        coeffs = np.zeros(g.shape + (1,), dtype=complex)
        coeffs[centered_index(g, 1) + (0,)] = 0.5
        coeffs[centered_index(g, -1) + (0,)] = 0.5
        f = idft(SpectralCoeffs(g, coeffs))
        expected = np.cos(g.axis_coordinates())[:, None]
        assert rel_err(f.values, expected) < 1e-13


class TestModeLattice:
    def test_arrays_match_modes_and_are_read_only(self):
        from psifno.spectral import _lattice

        g = Grid(2, 3)
        lat = _lattice(g.d, g.N)
        for axis, kk in enumerate(g.modes()):
            assert np.array_equal(lat.k[..., axis], np.broadcast_to(kk, g.shape))
        k2 = sum(kk.astype(float) ** 2 for kk in g.modes())
        assert lat.inv_k2[centered_index(g, 0, 0)] == 0.0
        assert np.allclose(lat.inv_k2 * k2, np.where(k2 > 0, 1.0, 0.0), rtol=0, atol=1e-15)
        for arr in (lat.ik, lat.k, lat.inv_k2):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0


class TestProject:
    def test_identity_at_full_radius(self):
        rng = np.random.default_rng(2)
        f = random_field(Grid(2, 4), rng)
        c = dft(f)
        assert np.array_equal(project(c, 4).coeffs, c.coeffs)

    def test_truncates_modes(self):
        g = Grid(1, 2)
        f = field_from_function(g, lambda x: 1.0 + np.cos(x) + np.cos(2 * x))
        kept = project(dft(f), 1)
        vals = idft(kept).values
        expected = field_from_function(g, lambda x: 1.0 + np.cos(x)).values
        assert rel_err(vals, expected) < 1e-13

    def test_zero_mean_variant_kills_constants(self):
        g = Grid(2, 3)
        c = project(dft(constant_field(g, 4.0)), 3, zero_mean=True)
        assert np.max(np.abs(c.coeffs)) < 1e-14

    def test_rejects_overlarge_radius(self):
        g = Grid(1, 2)
        with pytest.raises(BadTruncation):
            project(dft(constant_field(g, 1.0)), 3)


class TestResample:
    def test_noop_at_same_radius(self):
        rng = np.random.default_rng(3)
        f = random_field(Grid(2, 3), rng)
        assert rel_err(resample(f, 3).values, f.values) < 1e-14

    def test_integral_float_radius(self):
        f = random_field(Grid(2, 3), np.random.default_rng(4))
        for M in (2.0, 3.0, 6.0):
            assert np.array_equal(resample(f, M).values, resample(f, int(M)).values)

    def test_band_limited_upsampling_exact(self):
        g = Grid(1, 2)
        f = field_from_function(g, np.cos)
        up = resample(f, 4)
        expected = np.cos(Grid(1, 4).axis_coordinates())[:, None]
        assert rel_err(up.values, expected) < 1e-12

    def test_downsample_is_pointwise_sampling(self):
        # I_M of the interpolant == evaluating it at the coarse points.
        rng = np.random.default_rng(4)
        f = random_field(Grid(1, 6), rng)
        down = resample(f, 2)
        coarse = Grid(1, 2)
        pts = coarse.axis_coordinates()[:, None]
        assert rel_err(down.values[:, 0], evaluate(f, pts)[:, 0]) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_coarser_grid_is_evaluation_at_its_points(self, data):
        d = data.draw(st.integers(min_value=1, max_value=3), label="d")
        N = data.draw(st.integers(min_value=2, max_value=(12, 6, 3)[d - 1]), label="N")
        M = data.draw(st.integers(min_value=1, max_value=N - 1), label="M")
        channels = data.draw(st.integers(min_value=1, max_value=2), label="channels")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        f = random_field(Grid(d, N), rng, channels=channels)
        coarse = Grid(d, M)
        pts = np.stack([x.ravel() for x in np.meshgrid(
            *[coarse.axis_coordinates()] * d, indexing="ij")], axis=-1)
        want = evaluate(f, pts).reshape(coarse.shape + (channels,))
        assert rel_err(resample(f, M).values, want) < 1e-12

    @pytest.mark.parametrize("N,M,wraps", [
        (64, 52, False), (64, 32, False), (8, 4, False), (64, 10, True), (64, 3, True),
        (13, 2, True), (5, 1, True), (100, 49, True)])
    def test_fold_matches_add_at_oracle(self, N, M, wraps):
        # when N >= 2M + 1 the modes wrap more than once, so residues repeat in np.add.at
        assert (N >= 2 * M + 1) == wraps
        rng = np.random.default_rng(N + M)
        for d in (1, 2):
            f = random_field(Grid(d, N), rng, channels=2)
            assert np.array_equal(resample(f, M).values, resample_add_at(f, M))

    def test_projection_error_decays_spectrally(self):
        # ||(1-P_M) f||_L2 <= C M^-s for |coeffs| = (1+|k|)^-(s+d/2+0.5)
        s = 1.5
        rng = np.random.default_rng(55)
        fine = Grid(1, 256)
        from psifno.spectral import random_hermitian_coeffs

        c = random_hermitian_coeffs(
            fine, rng, decay=lambda kk: (1.0 + kk) ** -(s + 0.5 + 0.5)
        )
        f = idft(c)
        errs = []
        Ms = [8, 16, 32, 64]
        for M in Ms:
            tail = dft(f).coeffs.copy()
            kept = project(dft(f), M).coeffs
            errs.append(
                l2_norm(idft(SpectralCoeffs(fine, tail - kept, real_field=True)))
            )
        slope = -np.polyfit(np.log(Ms), np.log(errs), 1)[0]
        assert slope >= s - 0.1

    def test_interpolation_error_decays_spectrally(self):
        # |coeffs| ~ (1+|k|)^-(s+d/2+1/2) has H^s-type decay: L2 interpolation
        # error should fall at least like M^-s (slope fitted over a dyad).
        s = 2.0
        rng = np.random.default_rng(5)
        fine = Grid(1, 256)
        from psifno.spectral import random_hermitian_coeffs

        c = random_hermitian_coeffs(
            fine, rng, decay=lambda kk: (1.0 + kk) ** -(s + 0.5 + 0.5)
        )
        f = idft(c)
        errs = []
        Ms = [8, 16, 32, 64]
        for M in Ms:
            back = resample(resample(f, M), 256)
            errs.append(l2_norm(GridField(fine, back.values - f.values)))
        slopes = np.diff(np.log(errs)) / np.diff(np.log(Ms))
        assert -np.mean(slopes) >= s - 0.1


class TestDerivative:
    def test_sin_to_cos(self):
        g = Grid(1, 5)
        f = field_from_function(g, np.sin)
        df = derivative(f, 0)
        assert rel_err(df.values, np.cos(g.axis_coordinates())[:, None]) < 1e-12

    def test_constant_derivative_zero(self):
        g = Grid(2, 3)
        df = derivative(constant_field(g, 3.3), 0)
        assert np.max(np.abs(df.values)) < 1e-13

    def test_2d_mixed_mode(self):
        g = Grid(2, 3)
        f = field_from_function(g, lambda x, y: np.cos(x + y))
        df = derivative(f, 0)
        expected = field_from_function(g, lambda x, y: -np.sin(x + y))
        assert rel_err(df.values, expected.values) < 1e-12

    def test_axis_out_of_range(self):
        g = Grid(2, 2)
        with pytest.raises(DimensionMismatch):
            derivative(constant_field(g, 1.0), 2)


class TestDealiasedProduct:
    def test_cosine_squared_truncates(self):
        g = Grid(1, 1)
        f = field_from_function(g, np.cos)
        p = dealiased_product(f, f)
        # cos^2 = 1/2 + cos(2x)/2; the 2x term leaves K_1.
        assert rel_err(p.values, np.full(g.shape + (1,), 0.5)) < 1e-13

    def test_identity_factor(self):
        rng = np.random.default_rng(6)
        g = Grid(2, 4)
        v = random_field(g, rng)
        p = dealiased_product(constant_field(g, 1.0), v)
        assert rel_err(p.values, v.values) < 1e-13

    @pytest.mark.parametrize("d,N", [(1, 3), (1, 16), (2, 3), (2, 16), (3, 2)])
    def test_matches_direct_convolution(self, d, N):
        rng = np.random.default_rng(10 * d + N)
        g = Grid(d, N)
        u = random_field(g, rng)
        v = random_field(g, rng)
        got = dft(dealiased_product(u, v)).coeffs[..., 0]
        want = convolution_truncated(dft(u).coeffs[..., 0], dft(v).coeffs[..., 0], N)
        assert rel_err(got, want) < 1e-10


class TestLerayProjection:
    def test_gradient_fields_annihilated(self):
        g = Grid(2, 4)
        phi = field_from_function(g, lambda x, y: np.cos(x))
        u = GridField(g, np.concatenate([d.values for d in gradient(phi)], axis=-1))
        proj = leray_project(u)
        assert np.max(np.abs(proj.values)) < 1e-12

    def test_divergence_free_field_fixed(self):
        g = Grid(2, 4)
        u = field_from_function(g, lambda x, y: (np.sin(y), np.zeros_like(x + y)))
        proj = leray_project(u)
        assert rel_err(proj.values, u.values) < 1e-12

    def test_idempotent_and_divergence_free(self):
        rng = np.random.default_rng(8)
        g = Grid(2, 5)
        u = random_field(g, rng, channels=2)
        p1 = leray_project(u)
        p2 = leray_project(p1)
        assert rel_err(p2.values, p1.values) < 1e-12
        div = divergence(p1)
        assert np.max(np.abs(div.values)) <= 1e-10 * max(l2_norm(u), 1e-30)

    def test_3d_idempotent(self):
        rng = np.random.default_rng(9)
        g = Grid(3, 2)
        u = random_field(g, rng, channels=3)
        p1 = leray_project(u)
        assert rel_err(leray_project(p1).values, p1.values) < 1e-12
        assert np.max(np.abs(divergence(p1).values)) <= 1e-10 * l2_norm(u)


class TestSobolevNorm:
    def test_two_cos_has_norm_two_sqrt_pi_all_orders(self):
        # Oracle: coefficients +-1 at |k|=1; ((2pi)/2 * 2*(1+1))^(1/2) = 2 sqrt(pi).
        g = Grid(1, 4)
        f = field_from_function(g, lambda x: 2.0 * np.cos(x))
        for s in [0.0, 0.5, 1.0, 2.0, 3.7]:
            assert abs(sobolev_norm(f, s) - 2.0 * np.sqrt(np.pi)) < 1e-12

    def test_zero_field(self):
        assert sobolev_norm(constant_field(Grid(2, 2), 0.0), 1.0) == 0.0

    def test_parseval_matches_grid_quadrature(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            g = Grid(d, 3)
            f = random_field(g, rng)
            quad = np.sqrt((2 * np.pi) ** d / g.size * np.sum(f.values**2))
            assert abs(sobolev_norm(f, 0.0) - quad) <= 1e-10 * quad

    def test_homogeneous_ignores_mean(self):
        g = Grid(1, 3)
        f = field_from_function(g, lambda x: 5.0 + np.sin(x))
        f0 = field_from_function(g, np.sin)
        a = sobolev_norm(f, SobolevIndex(1.0, homogeneous=True))
        b = sobolev_norm(f0, SobolevIndex(1.0, homogeneous=True))
        assert abs(a - b) < 1e-12

    def test_index_or_flag_selects_the_seminorm(self):
        # |5 + sin|_{Hdot^1}^2 = 2pi * (|c_1|^2 + |c_-1|^2) = pi; the mean adds nothing
        f = field_from_function(Grid(1, 3), lambda x: 5.0 + np.sin(x))
        for idx, flag in [(SobolevIndex(1.0, homogeneous=True), False),
                          (SobolevIndex(1.0), True), (1.0, True)]:
            assert abs(sobolev_norm(f, idx, homogeneous=flag) - np.sqrt(np.pi)) < 1e-12

    def test_rejects_negative_order(self):
        with pytest.raises(BadParameters):
            SobolevIndex(-1.0)


class TestInverseLaplacian:
    def test_single_modes(self):
        g = Grid(2, 3)
        f = field_from_function(g, lambda x, y: np.cos(x))
        assert rel_err(inverse_laplacian(f).values, f.values) < 1e-12
        f2 = field_from_function(g, lambda x, y: np.cos(2 * x))
        assert rel_err(inverse_laplacian(f2).values, 0.25 * f2.values) < 1e-12

    def test_inverse_pair_on_zero_mean(self):
        rng = np.random.default_rng(12)
        g = Grid(2, 4)
        f = random_field(g, rng)
        u = inverse_laplacian(f)
        lap = sum(derivative(derivative(u, ax), ax).values for ax in range(2))
        centered = f.values - mean(f)
        assert rel_err(-lap, centered) < 1e-12


class TestHelmholtzInverse:
    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(13)
        f = random_field(Grid(2, 4), rng)
        assert rel_err(helmholtz_inverse(f, 0.0).values, f.values) < 1e-13

    def test_single_mode(self):
        g = Grid(1, 2)
        f = field_from_function(g, np.cos)
        assert rel_err(helmholtz_inverse(f, 1.0).values, 0.5 * f.values) < 1e-13

    def test_contraction(self):
        rng = np.random.default_rng(14)
        f = random_field(Grid(2, 5), rng)
        assert l2_norm(helmholtz_inverse(f, 0.7)) <= l2_norm(f) + 1e-12

    def test_rejects_negative_alpha(self):
        with pytest.raises(BadParameters):
            helmholtz_inverse(constant_field(Grid(1, 1), 1.0), -0.1)


class TestOperatorsAgainstCenteredOracles:
    """The half-spectrum operators against explicit sums over the centered spectrum."""

    CASES = [(1, 9, 2), (2, 5, 1), (2, 6, 2), (3, 3, 1)]

    @pytest.mark.parametrize("d,N,channels", CASES)
    def test_derivative(self, d, N, channels):
        f = random_field(Grid(d, N), np.random.default_rng(N), channels=channels)
        for axis in range(d):
            assert rel_err(derivative(f, axis).values, derivative_oracle(f, axis)) < 1e-12

    @pytest.mark.parametrize("d,N", [(d, N) for d, N, _ in CASES])
    def test_divergence(self, d, N):
        u = random_field(Grid(d, N), np.random.default_rng(N + 1), channels=d)
        assert rel_err(divergence(u).values, divergence_oracle(u)) < 1e-12

    @pytest.mark.parametrize("d,N,channels", CASES)
    def test_inverse_laplacian(self, d, N, channels):
        f = random_field(Grid(d, N), np.random.default_rng(N + 2), channels=channels)
        assert rel_err(inverse_laplacian(f).values, inverse_laplacian_oracle(f)) < 1e-12

    @pytest.mark.parametrize("d,N,channels", CASES)
    @pytest.mark.parametrize("alpha", [0.0, 0.05, 3.0])
    def test_helmholtz_inverse(self, d, N, channels, alpha):
        f = random_field(Grid(d, N), np.random.default_rng(N + 3), channels=channels)
        got = helmholtz_inverse(f, alpha).values
        assert rel_err(got, helmholtz_inverse_oracle(f, alpha)) < 1e-12


class TestEvaluate:
    def test_off_grid_cosine(self):
        g = Grid(1, 3)
        f = field_from_function(g, np.cos)
        pts = np.array([[0.3], [1.1], [4.5]])
        assert rel_err(evaluate(f, pts)[:, 0], np.cos(pts[:, 0])) < 1e-12

    def test_on_grid_matches_values(self):
        rng = np.random.default_rng(15)
        g = Grid(2, 3)
        f = random_field(g, rng)
        x = g.axis_coordinates()
        pts = np.array([[x[1], x[2]], [x[0], x[4]]])
        got = evaluate(f, pts)[:, 0]
        assert rel_err(got, [f.values[1, 2, 0], f.values[0, 4, 0]]) < 1e-12


class TestRoundTripSweep:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_all_resolutions(self, d):
        rng = np.random.default_rng(16)
        for N in range(1, 17):
            if (2 * N + 1) ** d > 40_000:
                continue
            f = random_field(Grid(d, N), rng)
            assert rel_err(idft(dft(f)).values, f.values) < 1e-12
