import numpy as np
import pytest

from psifno.darcy import (
    DarcyProblem,
    PicardOperator,
    coercivity_advisory,
    empirical_lipschitz,
    galerkin_residual_norm,
    h1_error_against,
    hminus1_norm,
    iteration_count,
    manufactured_problem,
    picard_step,
    prepare_coefficients,
    random_decay_coefficient,
    solve,
    trig_coefficient,
)
from psifno.errors import (
    BadParameters,
    CoercivityViolation,
    InsufficientResolution,
    NonFiniteIterate,
)
from psifno.spectral import (
    Grid,
    GridField,
    _irfft_values,
    constant_field,
    field_from_function,
    idft,
    mean,
    random_field,
    random_hermitian_coeffs,
    resample,
    sobolev_norm,
)

from helpers import lipschitz_two_apply, rel_err


def zero_mean_source(d, resolution, fn):
    return field_from_function(Grid(d, resolution), fn)


class TestPrepareCoefficients:
    def test_constant_coefficient_gives_zero_fluctuation(self):
        g = Grid(2, 8)
        a = constant_field(g, 1.0)
        f = field_from_function(g, lambda x, y: np.cos(x))
        atilde, f_N = prepare_coefficients(a, f, 4)
        assert np.max(np.abs(atilde.values)) < 1e-13
        assert atilde.grid.N == 4

    def test_band_limited_exactness(self):
        a = trig_coefficient(2, 8, amplitude=0.3)
        f = zero_mean_source(2, 8, lambda x, y: np.cos(x))
        atilde, f_N = prepare_coefficients(a, f, 4)
        want = field_from_function(Grid(2, 4), lambda x, y: 0.3 * np.sin(x + y))
        assert rel_err(atilde.values, want.values) < 1e-12
        assert rel_err(f_N.values, field_from_function(Grid(2, 4), lambda x, y: np.cos(x)).values) < 1e-12

    def test_rough_coefficient_converges_in_sup_norm(self):
        # oracle: compare against the fluctuation sampled at high resolution
        rng = np.random.default_rng(0)
        fine = Grid(1, 128)
        c = random_hermitian_coeffs(fine, rng, decay=lambda kk: (1 + kk) ** -2.5, zero_mean=True)
        atilde_true = idft(c)
        a = GridField(fine, 1.0 + atilde_true.values)
        f = zero_mean_source(1, 128, np.cos)
        sups = []
        for N in (8, 16, 32):
            atilde_N, _ = prepare_coefficients(a, f, N)
            diff = resample(atilde_N, 128).values - atilde_true.values
            sups.append(np.max(np.abs(diff)))
        assert sups[0] > sups[1] > sups[2]

    def test_insufficient_resolution(self):
        a = trig_coefficient(2, 4)
        f = zero_mean_source(2, 4, lambda x, y: np.cos(x))
        with pytest.raises(InsufficientResolution):
            prepare_coefficients(a, f, 4)


class TestPicardStep:
    def test_pure_laplace_fixed_point(self):
        g8 = Grid(2, 8)
        a = constant_field(g8, 1.0)
        f = field_from_function(g8, lambda x, y: np.cos(x))
        atilde, f_N = prepare_coefficients(a, f, 4)
        u = field_from_function(Grid(2, 4), lambda x, y: np.cos(x))
        out = picard_step(u, atilde, f_N)
        assert rel_err(out.values, u.values) < 1e-12

    def test_zero_start_gives_inverse_laplacian_of_source(self):
        g8 = Grid(2, 8)
        a = trig_coefficient(2, 8)
        f = field_from_function(g8, lambda x, y: np.cos(2 * x))
        atilde, f_N = prepare_coefficients(a, f, 4)
        zero = GridField(Grid(2, 4), np.zeros((9, 9, 1)))
        out = picard_step(zero, atilde, f_N)
        want = field_from_function(Grid(2, 4), lambda x, y: np.cos(2 * x) / 4.0)
        assert rel_err(out.values, want.values) < 1e-12

    def test_zero_field_maps_to_the_source_lift_exactly(self):
        # solve takes the lift as its first iterate without applying F
        rng = np.random.default_rng(9)
        a = random_decay_coefficient(2, 8, 0.5, rng)
        f = field_from_function(Grid(2, 8), lambda x, y: np.sin(x) + np.cos(2 * y))
        atilde, f_N = prepare_coefficients(a, f, 4)
        op = PicardOperator(atilde, f_N)
        out = op.apply(GridField(Grid(2, 4), np.zeros((9, 9, 1))))
        assert np.array_equal(out.values, _irfft_values(op.lift_half, 2))

    def test_zero_mean_output(self):
        rng = np.random.default_rng(1)
        a = random_decay_coefficient(2, 8, 0.5, rng)
        f = field_from_function(Grid(2, 8), lambda x, y: np.sin(x) + np.cos(2 * y))
        atilde, f_N = prepare_coefficients(a, f, 4)
        u = idft(random_hermitian_coeffs(Grid(2, 4), rng, zero_mean=True))
        out = picard_step(u, atilde, f_N)
        assert abs(mean(out)[0]) < 1e-12 * max(np.max(np.abs(out.values)), 1e-30)

    def test_contraction_bound(self):
        # Lip(F) <= sup|atilde_N| over random pairs (documented invariant)
        rng = np.random.default_rng(2)
        g8 = Grid(2, 8)
        a = GridField(g8, 1.0 + 0.5 * field_from_function(g8, lambda x, y: np.sin(x + y)).values)
        f = field_from_function(g8, lambda x, y: np.cos(x))
        atilde, f_N = prepare_coefficients(a, f, 4)
        sup_true = 0.5  # sup |0.5 sin| on the continuum
        ratio = empirical_lipschitz(atilde, f_N, rng, pairs=100)
        assert ratio <= sup_true + 1e-8


class TestEmpiricalLipschitz:
    @pytest.mark.parametrize("d,N", [(1, 7), (2, 8), (2, 13), (3, 3)])
    def test_matches_the_two_apply_estimate(self, d, N):
        rng = np.random.default_rng(30 + N)
        a = random_decay_coefficient(d, 2 * N, 0.5, rng)
        f = random_field(Grid(d, 2 * N), rng, zero_mean=True)
        atilde, f_N = prepare_coefficients(a, f, N)
        got_rng, want_rng = np.random.default_rng(N), np.random.default_rng(N)
        got = empirical_lipschitz(atilde, f_N, got_rng, pairs=10)
        want = lipschitz_two_apply(atilde, f_N, want_rng, pairs=10)
        assert abs(got - want) <= 1e-12 * want
        # callers keep drawing from the rng after the estimate
        assert got_rng.standard_normal() == want_rng.standard_normal()


class TestIterationCount:
    def test_documented_value(self):
        # ceil(log(1/8)/log(3/4)) = ceil(7.2288) = 8
        assert iteration_count(0.5, 16, 1) == 8

    def test_nondecreasing_in_N(self):
        Ks = [iteration_count(0.5, N, 2) for N in (2, 4, 8, 16, 32)]
        assert all(k2 >= k1 for k1, k2 in zip(Ks, Ks[1:]))

    def test_minimum_one(self):
        # tiny N with lam close to 1 would give a non-positive count
        assert iteration_count(0.9, 1, 1) >= 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(BadParameters):
            iteration_count(1.5, 4, 1)
        with pytest.raises(BadParameters):
            iteration_count(0.5, 4, 0)

    def test_integral_floats_count_as_the_ints(self):
        assert iteration_count(0.5, 16.0, 1.0) == iteration_count(0.5, 16, 1) == 8

    @pytest.mark.parametrize("N,k", [(2.5, 1), (float("nan"), 1), (float("inf"), 1),
                                     (4, 1.5), (4, float("nan"))])
    def test_rejects_non_integral_resolution_or_rate(self, N, k):
        with pytest.raises(BadParameters, match="positive integer"):
            iteration_count(0.5, N, k)


class TestSolve:
    def test_pure_laplace_exact(self):
        g = Grid(2, 16)
        a = constant_field(g, 1.0)
        f = field_from_function(g, lambda x, y: np.cos(x))
        sol = solve(DarcyProblem(a, f, lam=0.5, k=1, N=8))
        want = field_from_function(Grid(2, 8), lambda x, y: np.cos(x))
        assert rel_err(sol.u.values, want.values) < 1e-12

    def test_band_limited_problem_solved_exactly(self):
        # With analytic band-limited data the Galerkin solution equals the
        # continuum solution once N covers the data (error at float noise).
        rng = np.random.default_rng(3)
        a, f, u_star = manufactured_problem(2, 0.5, 1, 8, rng)
        # band-limit the manufactured solution by hand instead:
        g = Grid(2, 32)
        a2 = trig_coefficient(2, 32)
        u_true = field_from_function(Grid(2, 32), lambda x, y: np.cos(x) + np.sin(y))
        # f = -div(a grad u_true) for this analytic pair, degree <= 2
        from psifno.spectral import derivative

        f_vals = np.zeros(g.shape + (1,))
        for ax in range(2):
            gax = derivative(u_true, ax)
            prod = GridField(g, a2.values * gax.values)
            f_vals -= derivative(prod, ax).values
        f2 = GridField(g, f_vals)
        # k=4 drives the a-priori iteration count high enough that the
        # Picard truncation (0.3^K here) sits at float noise.
        sol = solve(DarcyProblem(a2, f2, lam=0.5, k=4, N=8))
        err = h1_error_against(sol.u, resample(u_true, 8))
        assert err < 1e-10

    def test_residual_history_decays_geometrically(self):
        rng = np.random.default_rng(4)
        a, f, _ = manufactured_problem(2, 0.5, 2, 8, rng)
        sol = solve(DarcyProblem(a, f, lam=0.5, k=2, N=8))
        hist = np.array(sol.residual_history)
        ratios = hist[2:] / hist[1:-1]
        assert np.all(ratios <= (1 - 0.25) + 1e-8)

    def test_observer_sees_every_iterate(self):
        rng = np.random.default_rng(8)
        a = random_decay_coefficient(2, 16, 0.5, rng)
        f = field_from_function(Grid(2, 16), lambda x, y: np.cos(x) + np.sin(2 * y))
        seen = []
        sol = solve(DarcyProblem(a, f, lam=0.5, k=1, N=8), seen.append)
        assert len(seen) == sol.iterations
        assert np.array_equal(_irfft_values(seen[-1], 2), sol.u.values)
        op = PicardOperator(sol.atilde_N, sol.f_N)
        u = GridField(sol.u.grid, np.zeros_like(sol.u.values))
        for half in seen:
            u = op.apply(u)
            assert rel_err(_irfft_values(half, 2), u.values) < 1e-12

    def test_overflowing_iterate_raises(self):
        # a source near the largest one prepare_coefficients transforms: the
        # increments' squared coefficients overflow on the first iterate
        g = Grid(2, 8)
        f = field_from_function(g, lambda x, y: 1e305 * np.cos(x))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteIterate):
            solve(DarcyProblem(trig_coefficient(2, 8), f, lam=0.5, k=1, N=4))

    def test_coercivity_violation_raised(self):
        g = Grid(2, 8)
        a = GridField(g, 1.0 + 0.95 * field_from_function(g, lambda x, y: np.sin(x)).values)
        f = field_from_function(g, lambda x, y: np.cos(x))
        with pytest.raises(CoercivityViolation):
            solve(DarcyProblem(a, f, lam=0.5, k=1, N=4))

    def test_source_mean_validated(self):
        g = Grid(2, 8)
        a = constant_field(g, 1.0)
        f = constant_field(g, 1.0)
        with pytest.raises(BadParameters):
            DarcyProblem(a, f, lam=0.5, k=1, N=4)

    def test_integral_float_resolution_solves_as_the_int(self):
        # N = 4.0 and k = 1.0 are stored as ints, so the solve can size its arrays
        a = random_decay_coefficient(2, 8, 0.5, np.random.default_rng(6))
        f = field_from_function(Grid(2, 8), lambda x, y: np.cos(x) + np.sin(2 * y))
        want = solve(DarcyProblem(a, f, 0.5, 1, 4))
        got = solve(DarcyProblem(a, f, 0.5, 1.0, 4.0))
        assert got.u.grid == want.u.grid and got.iterations == want.iterations
        assert np.array_equal(got.u.values, want.u.values)

    @pytest.mark.parametrize("k,N", [(1, 4.5), (1, 0), (1, float("nan")), (1, float("inf")),
                                     (1.5, 4), (0, 4), (float("nan"), 4)])
    def test_non_integral_rate_or_resolution_rejected(self, k, N):
        g = Grid(2, 8)
        with pytest.raises(BadParameters):
            DarcyProblem(constant_field(g, 1.0), field_from_function(g, lambda x, y: np.cos(x)),
                         lam=0.5, k=k, N=N)

    def test_fixed_point_residual_bound(self):
        rng = np.random.default_rng(5)
        a = random_decay_coefficient(2, 16, 0.5, rng)
        f = field_from_function(Grid(2, 16), lambda x, y: np.cos(x) + np.sin(2 * y))
        lam = 0.5
        N = 8
        atilde, f_N = prepare_coefficients(a, f, N)
        sol = solve(DarcyProblem(a, f, lam=lam, k=1, N=N))
        op = PicardOperator(atilde, f_N)
        res = GridField(sol.u.grid, sol.u.values - op.apply(sol.u).values)
        lhs = sobolev_norm(res, 1.0, homogeneous=True)
        from psifno.spectral import inverse_laplacian

        b = sobolev_norm(inverse_laplacian(f_N), 1.0, homogeneous=True)
        assert lhs <= 2.0 * (1 - lam / 2) ** sol.iterations * b

    def test_galerkin_consistency(self):
        rng = np.random.default_rng(6)
        a = random_decay_coefficient(2, 16, 0.5, rng)
        f = field_from_function(Grid(2, 16), lambda x, y: np.sin(x + y))
        N, lam = 8, 0.5
        atilde, f_N = prepare_coefficients(a, f, N)
        sol = solve(DarcyProblem(a, f, lam=lam, k=1, N=N))
        res = galerkin_residual_norm(sol.u, atilde, f_N)
        assert res <= 10.0 * (1 - lam / 2) ** sol.iterations * hminus1_norm(f_N)


class TestManufacturedRate:
    @pytest.mark.parametrize("k", [1, 2])
    def test_h1_slope(self, k):
        rng = np.random.default_rng(100 + k)
        a, f, u_star = manufactured_problem(2, 0.5, k, N_max=32, rng=rng)
        Ns = [4, 8, 16, 32]
        errs = []
        for N in Ns:
            sol = solve(DarcyProblem(a, f, lam=0.5, k=k, N=N))
            errs.append(h1_error_against(sol.u, u_star))
        slope = -np.polyfit(np.log(Ns), np.log(errs), 1)[0]
        assert slope >= k - 0.3

    def test_self_convergence(self):
        rng = np.random.default_rng(7)
        a = random_decay_coefficient(2, 64, 0.5, rng, length_scale=0.35)
        f = field_from_function(Grid(2, 64), lambda x, y: np.sin(x) * np.cos(y))
        ref = solve(DarcyProblem(a, f, lam=0.5, k=2, N=32)).u
        errs = []
        for N in (4, 8, 16):
            u = solve(DarcyProblem(a, f, lam=0.5, k=2, N=N)).u
            errs.append(h1_error_against(u, ref))
        assert errs[0] > errs[1] > errs[2]


class TestAdvisory:
    def test_small_fluctuation_passes(self):
        g = Grid(2, 8)
        atilde = GridField(g, 0.01 * field_from_function(g, lambda x, y: np.sin(x)).values)
        out = coercivity_advisory(atilde, lam=0.5, s=2.0)
        assert out["satisfied"]
        assert out["bound"] >= np.max(np.abs(atilde.values)) - 1e-12

    def test_requires_supercritical_order(self):
        g = Grid(2, 4)
        atilde = constant_field(g, 0.0)
        with pytest.raises(BadParameters):
            coercivity_advisory(atilde, lam=0.5, s=1.0)
