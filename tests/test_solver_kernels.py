"""The solvers' half-spectrum kernels against oracles built from public functions.

The oracles use only the checked public operations (dealiased_product on
the doubled grid, derivative, divergence, inverse_laplacian,
helmholtz_inverse, leray_project), so they share none of the solvers'
product-grid code.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psifno import darcy, emulation, navier_stokes as ns
from psifno.darcy import PicardOperator, prepare_coefficients, random_decay_coefficient
from psifno.navier_stokes import (
    NsConfig,
    NsState,
    random_divergence_free,
    step_first_order,
    step_second_order,
)
from psifno.spectral import (
    Grid,
    GridField,
    _half_resize,
    _irfft_values,
    _on_grid,
    _product_radius,
    _rfft_half,
    dealiased_product,
    derivative,
    divergence,
    helmholtz_inverse,
    inverse_laplacian,
    l2_norm,
    leray_project,
    random_field,
    resample,
)

from helpers import rel_err


def _stack(fields) -> GridField:
    return GridField(fields[0].grid, np.concatenate([f.values for f in fields], axis=-1))


def picard_oracle(u, atilde, f_N):
    """(-Lap)^-1 div P_N(atilde grad u) + (-Lap)^-1 f_N."""
    d = u.grid.d
    flux = _stack([dealiased_product(atilde, derivative(u, i)) for i in range(d)])
    return GridField(u.grid, inverse_laplacian(divergence(flux)).values
                     + inverse_laplacian(f_N).values)


def advection_oracle(v, w):
    """PL_N(v . grad w)."""
    d = v.grid.d
    adv = []
    for m in range(d):
        terms = [dealiased_product(v.channel(i), derivative(w.channel(m), i)) for i in range(d)]
        adv.append(GridField(v.grid, sum(t.values for t in terms)))
    return leray_project(_stack(adv))


def laplacian(u):
    d = u.grid.d
    return GridField(u.grid, sum(derivative(derivative(u, i), i).values for i in range(d)))


def first_order_oracle(u, nu, tau, sweeps):
    base = helmholtz_inverse(u, nu * tau)
    w = GridField(u.grid, np.zeros_like(u.values))
    for _ in range(sweeps):
        adv = helmholtz_inverse(advection_oracle(u, w), nu * tau)
        w = GridField(u.grid, base.values - tau * adv.values)
    return w


def second_order_oracle(u_prev, u, nu, tau, sweeps):
    ubar = GridField(u.grid, 1.5 * u.values - 0.5 * u_prev.values)
    rhs0 = (u.values + 0.5 * nu * tau * laplacian(u).values
            - 0.5 * tau * advection_oracle(ubar, u).values)
    w = GridField(u.grid, np.zeros_like(u.values))
    for _ in range(sweeps):
        rhs = GridField(u.grid, rhs0 - 0.5 * tau * advection_oracle(ubar, w).values)
        w = helmholtz_inverse(rhs, 0.5 * nu * tau)
    return w


def ns_config(d, N, u0, tau=0.01, nu=0.05):
    return NsConfig(d=d, N=N, nu=nu, T=10 * tau, tau=tau, U=2.0 * l2_norm(u0), u0=u0,
                    enforce_cfl=False)


class TestHalfSpectrumSolvers:
    @pytest.mark.parametrize("d,N", [(1, 7), (2, 8), (2, 13), (3, 3)])
    def test_picard_apply_matches_oracle(self, d, N):
        rng = np.random.default_rng(40 + N)
        a = random_decay_coefficient(d, 2 * N, 0.5, rng)
        f = random_field(Grid(d, 2 * N), rng, zero_mean=True)
        atilde, f_N = prepare_coefficients(a, f, N)
        op = PicardOperator(atilde, f_N)
        for _ in range(3):
            u = random_field(Grid(d, N), rng)
            want = picard_oracle(u, atilde, f_N)
            assert rel_err(op.apply(u).values, want.values) < 1e-12

    @pytest.mark.parametrize("d,N", [(2, 6), (2, 11), (3, 3)])
    def test_advection_matches_oracle(self, d, N):
        rng = np.random.default_rng(50 + N)
        v = random_divergence_free(Grid(d, N), rng, norm=1.0)
        w = random_field(Grid(d, N), rng, channels=d)
        got = _irfft_values(ns._Advection(v).apply_hat(_rfft_half(w.values, d)), d)
        assert rel_err(got, advection_oracle(v, w).values) < 1e-12

    @pytest.mark.parametrize("d,N", [(2, 8), (3, 3)])
    def test_first_order_step_matches_oracle(self, d, N):
        rng = np.random.default_rng(60 + d)
        u0 = random_divergence_free(Grid(d, N), rng, norm=0.5)
        cfg = ns_config(d, N, u0)
        got = step_first_order(NsState(0, u0, l2_norm(u0)), cfg, kappa=4)
        want = first_order_oracle(u0, cfg.nu, cfg.tau, 4)
        assert rel_err(got.u.values, want.values) < 1e-12
        assert abs(got.energy - l2_norm(want)) <= 1e-12 * l2_norm(want)

    @pytest.mark.parametrize("d,N", [(2, 8), (3, 3)])
    def test_second_order_step_matches_oracle(self, d, N):
        rng = np.random.default_rng(70 + d)
        u_prev = random_divergence_free(Grid(d, N), rng, norm=0.5)
        u_cur = random_divergence_free(Grid(d, N), rng, norm=0.5)
        cfg = ns_config(d, N, u_prev)
        got = step_second_order(NsState(0, u_prev, l2_norm(u_prev)),
                                NsState(1, u_cur, l2_norm(u_cur)), cfg, kappa=4)
        want = second_order_oracle(u_prev, u_cur, cfg.nu, cfg.tau, 4)
        assert rel_err(got.u.values, want.values) < 1e-12

    def test_manufactured_source_matches_oracle(self):
        a, f, u_fine = darcy.manufactured_problem(2, 0.5, 1, N_max=4, rng=np.random.default_rng(3))
        flux = _stack([dealiased_product(a, derivative(u_fine, i)) for i in range(2)])
        assert rel_err(f.values, -divergence(flux).values) < 1e-12

    def test_nonlinearity_oracles_match_public_oracles(self):
        N = 5
        rng = np.random.default_rng(8)
        a, u = (random_field(Grid(2, N), rng) for _ in range(2))
        got = emulation.darcy_nonlinearity_oracle(resample(a, 2 * N), resample(u, 2 * N))
        want = _stack([dealiased_product(a, derivative(u, i)) for i in range(2)])
        assert rel_err(got.values, resample(want, 2 * N).values) < 1e-12
        v, w = (random_divergence_free(Grid(2, N), rng, norm=1.0) for _ in range(2))
        got = emulation.ns_nonlinearity_oracle(resample(v, 2 * N), resample(w, 2 * N))
        assert rel_err(got.values, resample(advection_oracle(v, w), 2 * N).values) < 1e-12


def _seven_smooth(n: int) -> bool:
    for p in (3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


class TestProductGrid:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=200))
    def test_length_is_the_smallest_odd_seven_smooth_one(self, N):
        n = 2 * _product_radius(N) + 1
        assert n % 2 == 1 and n >= 3 * N + 1 and _seven_smooth(n)
        assert not any(_seven_smooth(m) for m in range(3 * N + 1, n) if m % 2 == 1)

    def test_lengths_at_the_study_resolutions(self):
        assert [2 * _product_radius(N) + 1 for N in (8, 16, 32, 64)] == [25, 49, 105, 225]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=14),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_product_on_that_length_is_the_dealiased_product(self, d, N, seed):
        rng = np.random.default_rng(seed)
        g = Grid(d, N)
        u, v = random_field(g, rng), random_field(g, rng)
        M = _product_radius(N)
        uu, vv = (_on_grid(_rfft_half(f.values, d), d, M, g.npoints) for f in (u, v))
        prod = _half_resize(_rfft_half(uu * vv, d), d, N)
        got = _on_grid(prod, d, N, 2 * M + 1)
        assert rel_err(got, dealiased_product(u, v).values) < 1e-12


class TestNoComplexSolverPath:
    """The solvers run on the real pair only; a complex kernel in them is a second path."""

    COMPLEX_KERNELS = ("_fft_coeffs", "_ifft_values", "_fold")

    @pytest.mark.parametrize("module", [darcy, ns, emulation], ids=lambda m: m.__name__)
    def test_module_binds_no_complex_kernel(self, module):
        assert not [k for k in self.COMPLEX_KERNELS if k in vars(module)]

    @pytest.mark.parametrize("fn", [emulation.darcy_nonlinearity_oracle,
                                    emulation.ns_nonlinearity_oracle,
                                    emulation._truncated])
    def test_oracles_name_no_complex_kernel(self, fn):
        assert not [k for k in self.COMPLEX_KERNELS if k in fn.__code__.co_names]
