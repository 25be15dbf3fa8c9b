import math

import numpy as np
import pytest

from psifno.errors import BadParameters, CflViolation
from psifno.navier_stokes import (
    NsConfig,
    NsState,
    energy,
    initial_state,
    inner_iterate_errors,
    kappa0,
    max_cfl_timestep,
    picard_map_first,
    random_divergence_free,
    simulate,
    taylor_green,
)
from psifno.spectral import (
    Grid,
    GridField,
    divergence,
    field_from_function,
    l2_norm,
    mean,
)

from helpers import rel_err


def shear_mode(N):
    """u = (sin x2, 0): single-mode, divergence-free, self-advection-free."""
    return field_from_function(Grid(2, N), lambda x, y: (np.sin(y), np.zeros_like(x + y)))


def cfl_config(N=8, nu=0.05, U=0.5, steps=4, d=2, u0=None, rng_seed=0):
    tau = 0.9 * max_cfl_timestep(U, N, d)
    T = steps * tau
    if u0 is None:
        u0 = random_divergence_free(Grid(d, N), np.random.default_rng(rng_seed), norm=0.9 * U)
    return NsConfig(d=d, N=N, nu=nu, T=T, tau=tau, U=U, u0=u0)


class TestKappa0:
    def test_first_order_documented(self):
        assert kappa0(1.0, 0.01) == 14  # ceil(13.2877)

    def test_boundary_clamped(self):
        assert kappa0(1.0, 1.0) == 1

    def test_second_order_documented(self):
        assert kappa0(1.0, 0.1, order=2) == 10  # ceil(9.9658)

    def test_rejects_bad_parameters(self):
        with pytest.raises(BadParameters):
            kappa0(1.0, 2.0)
        with pytest.raises(BadParameters):
            kappa0(1.0, -0.1)

    @pytest.mark.parametrize("T,tau", [(float("inf"), 1.0), (1.0, float("inf")),
                                       (float("inf"), float("inf")), (float("nan"), 1.0),
                                       (1.0, float("nan"))])
    def test_rejects_non_finite_horizon_or_step(self, T, tau):
        with pytest.raises(BadParameters):
            kappa0(T, tau)


class TestMaxCflTimestep:
    def test_direct_evaluation(self):
        # 1/(2e * 1 * 8^2) for U=1, N=8, d=2
        want = 1.0 / (2.0 * math.e * 64.0)
        assert abs(max_cfl_timestep(1.0, 8, 2) - want) < 1e-15

    def test_linear_in_U(self):
        assert abs(max_cfl_timestep(2.0, 8, 2) - 0.5 * max_cfl_timestep(1.0, 8, 2)) < 1e-18

    def test_dimension_power(self):
        r = max_cfl_timestep(1.0, 8, 2) / max_cfl_timestep(1.0, 8, 3)
        assert abs(r - math.sqrt(8.0)) < 1e-12

    @pytest.mark.parametrize("U", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_U(self, U):
        with pytest.raises(BadParameters, match="finite and positive"):
            max_cfl_timestep(U, 8, 2)

    def test_integral_float_resolution_accepted(self):
        assert max_cfl_timestep(1.0, 8.0, 2) == max_cfl_timestep(1.0, 8, 2)

    @pytest.mark.parametrize("N", [float("nan"), 2.5, 0, -1])
    def test_rejects_resolution_no_grid_has(self, N):
        with pytest.raises(BadParameters, match="positive integer"):
            max_cfl_timestep(1.0, N, 2)


class TestConfigValidation:
    def test_cfl_enforced(self):
        u0 = shear_mode(8)
        with pytest.raises(CflViolation):
            NsConfig(d=2, N=8, nu=0.1, T=1.0, tau=0.1, U=l2_norm(u0), u0=u0)

    def test_cfl_opt_out(self):
        u0 = shear_mode(8)
        cfg = NsConfig(d=2, N=8, nu=0.1, T=1.0, tau=0.1, U=l2_norm(u0), u0=u0,
                       enforce_cfl=False)
        assert cfg.n_steps == 10

    def test_nonintegral_step_count_rejected(self):
        u0 = shear_mode(4)
        with pytest.raises(BadParameters):
            NsConfig(d=2, N=4, nu=0.1, T=1.0, tau=0.3, U=10.0, u0=u0, enforce_cfl=False)

    @pytest.mark.parametrize("field", ["nu", "T", "tau", "U"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_parameters_rejected(self, field, value):
        u0 = shear_mode(4)
        params = dict(d=2, N=4, nu=0.1, T=0.02, tau=0.01, U=10.0, u0=u0, enforce_cfl=False)
        NsConfig(**params)  # valid as given
        params[field] = value
        with pytest.raises(BadParameters, match="finite"):
            NsConfig(**params)

    def test_energy_bound_validated(self):
        u0 = shear_mode(4)
        with pytest.raises(BadParameters):
            NsConfig(d=2, N=4, nu=0.1, T=0.01, tau=0.001, U=0.1, u0=u0)

    def test_divergence_validated(self):
        g = Grid(2, 4)
        bad = field_from_function(g, lambda x, y: (np.sin(x), np.zeros_like(x + y)))
        with pytest.raises(BadParameters):
            NsConfig(d=2, N=4, nu=0.1, T=0.01, tau=0.001, U=10.0, u0=bad)


class TestPicardMap:
    def test_zero_velocity_maps_everything_to_zero(self):
        g = Grid(2, 4)
        zero = GridField(g, np.zeros(g.shape + (2,)))
        w = shear_mode(4)
        out = picard_map_first(w, zero, nu=0.1, tau=0.01)
        assert np.max(np.abs(out.values)) < 1e-14

    def test_zero_iterate_gives_helmholtz_inverse(self):
        from psifno.spectral import helmholtz_inverse

        u = shear_mode(4)
        g = u.grid
        zero = GridField(g, np.zeros(g.shape + (2,)))
        out = picard_map_first(zero, u, nu=0.2, tau=0.05)
        want = helmholtz_inverse(u, 0.2 * 0.05)
        assert rel_err(out.values, want.values) < 1e-12

    def test_iterate_error_bound(self):
        # ||w* - w^k|| <= 2^-k ||u^n|| against a converged reference
        cfg = cfl_config(N=8, steps=4, rng_seed=1)
        state = initial_state(cfg)
        errs, u_norm = inner_iterate_errors(state, cfg, kappa_ref=60)
        for k, e in enumerate(errs[:-1]):
            assert e <= 2.0**-k * u_norm * (1 + 1e-6)


class TestStepFirstOrder:
    def test_zero_initial_data_stays_zero(self):
        g = Grid(2, 4)
        zero = GridField(g, np.zeros(g.shape + (2,)))
        cfg = NsConfig(d=2, N=4, nu=0.1, T=0.02, tau=0.01, U=1.0, u0=zero)
        out = simulate(cfg, "first")
        assert np.max(np.abs(out.final.u.values)) < 1e-14

    def test_single_mode_implicit_decay(self):
        # advection vanishes for a shear mode; exact factor 1/(1+nu*tau) per step
        nu, tau = 0.5, 0.01
        u0 = shear_mode(4)
        cfg = NsConfig(d=2, N=4, nu=nu, T=10 * tau, tau=tau, U=2.0 * l2_norm(u0), u0=u0,
                       enforce_cfl=False)
        run = simulate(cfg, "first")
        factor = (1.0 / (1.0 + nu * tau)) ** 10
        assert rel_err(run.final.u.values, factor * u0.values) < 1e-10

    def test_divergence_free_and_zero_mean_maintained(self):
        cfg = cfl_config(N=8, steps=5, rng_seed=2)
        run = simulate(cfg, "first", record_states=True)
        for st in run.states:
            scale = max(sobolev_scale(st.u), 1e-30)
            assert l2_norm(divergence(st.u)) <= 1e-9 * scale
            assert np.max(np.abs(mean(st.u))) < 1e-12 * max(np.max(np.abs(st.u.values)), 1e-30)

    def test_energy_never_exceeds_e_times_initial(self):
        cfg = cfl_config(N=8, steps=6, rng_seed=3)
        run = simulate(cfg, "first")
        assert max(run.energies) <= math.e * run.energies[0] * (1 + 1e-9)

    def test_energy_nonincreasing_with_converged_iterations(self):
        cfg = cfl_config(N=8, steps=6, rng_seed=4)
        run = simulate(cfg, "first", kappa=60)
        e = run.energies
        assert all(b <= a * (1 + 1e-11) for a, b in zip(e, e[1:]))


def sobolev_scale(u):
    from psifno.spectral import sobolev_norm

    return sobolev_norm(u, 1.0, homogeneous=True)


class TestStepSecondOrder:
    def test_zero_data(self):
        g = Grid(2, 4)
        zero = GridField(g, np.zeros(g.shape + (2,)))
        cfg = NsConfig(d=2, N=4, nu=0.1, T=0.03, tau=0.01, U=1.0, u0=zero)
        run = simulate(cfg, "second")
        assert np.max(np.abs(run.final.u.values)) < 1e-14

    def test_single_mode_crank_nicolson_decay(self):
        nu, tau = 0.4, 0.01
        u0 = shear_mode(4)
        cfg = NsConfig(d=2, N=4, nu=nu, T=8 * tau, tau=tau, U=2.0 * l2_norm(u0), u0=u0,
                       enforce_cfl=False)
        run = simulate(cfg, "second")
        # startup step uses the first-order scheme with tau' = tau/8
        startup = (1.0 / (1.0 + nu * tau / 8.0)) ** 8
        cn = ((1.0 - 0.5 * nu * tau) / (1.0 + 0.5 * nu * tau)) ** 7
        assert rel_err(run.final.u.values, startup * cn * u0.values) < 1e-9

    def test_divergence_free_maintained(self):
        cfg = cfl_config(N=8, steps=4, rng_seed=5)
        run = simulate(cfg, "second", record_states=True)
        for st in run.states:
            assert l2_norm(divergence(st.u)) <= 1e-9 * max(sobolev_scale(st.u), 1e-30)


class TestTaylorGreen:
    def test_initial_energy_closed_form(self):
        # ||u||^2 = 2 * pi^2 (two components, each integrating to pi^2)
        u = taylor_green(0.1, 0.0, 8)
        assert abs(l2_norm(u) - math.pi * math.sqrt(2.0)) < 1e-12

    def test_inviscid_time_independence(self):
        a = taylor_green(0.0, 0.0, 6)
        b = taylor_green(0.0, 5.0, 6)
        assert np.array_equal(a.values, b.values)

    def test_divergence_free(self):
        u = taylor_green(0.05, 0.3, 8)
        assert np.max(np.abs(divergence(u).values)) < 1e-12

    def test_rejects_other_dimensions(self):
        with pytest.raises(BadParameters):
            taylor_green(0.1, 0.0, 4, d=3)


class TestTemporalConvergence:
    def test_first_order_slope(self):
        nu, N, T = 0.05, 16, 0.4
        u0 = taylor_green(nu, 0.0, N)
        errs, taus = [], [0.04, 0.02, 0.01]
        for tau in taus:
            cfg = NsConfig(d=2, N=N, nu=nu, T=T, tau=tau, U=l2_norm(u0), u0=u0,
                           enforce_cfl=False)
            run = simulate(cfg, "first")
            exact = taylor_green(nu, T, N)
            errs.append(l2_norm(GridField(u0.grid, run.final.u.values - exact.values)))
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_second_order_slope(self):
        # T long enough that the genuine tau^2 Crank-Nicolson term dominates
        # the O(tau^3) startup contribution on this tau range
        nu, N, T = 0.05, 16, 4.0
        u0 = taylor_green(nu, 0.0, N)
        errs, taus = [], [0.04, 0.02, 0.01]
        for tau in taus:
            cfg = NsConfig(d=2, N=N, nu=nu, T=T, tau=tau, U=l2_norm(u0), u0=u0,
                           enforce_cfl=False)
            run = simulate(cfg, "second")
            exact = taylor_green(nu, T, N)
            errs.append(l2_norm(GridField(u0.grid, run.final.u.values - exact.values)))
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert 1.7 <= slope <= 2.3

    def test_spatial_error_floor_for_single_mode_data(self):
        # data resolved exactly at N=1: spatial error vanishes, the temporal
        # error is identical across N
        nu, tau, T = 0.2, 0.01, 0.1
        errs = []
        for N in (1, 4):
            u0 = shear_mode(N) if N > 1 else field_from_function(
                Grid(2, 1), lambda x, y: (np.sin(y), np.zeros_like(x + y))
            )
            cfg = NsConfig(d=2, N=N, nu=nu, T=T, tau=tau, U=2 * l2_norm(u0), u0=u0,
                           enforce_cfl=False)
            run = simulate(cfg, "first")
            exact_vals = u0.values * math.exp(-nu * T)
            errs.append(l2_norm(GridField(u0.grid, run.final.u.values - exact_vals)))
        assert abs(errs[0] - errs[1]) < 1e-9 * max(errs)


class TestEnergyOp:
    def test_zero_state(self):
        g = Grid(2, 4)
        st = NsState(0, GridField(g, np.zeros(g.shape + (2,))), 0.0)
        assert energy(st) == 0.0

    def test_matches_parseval(self):
        cfg = cfl_config(N=8, steps=2, rng_seed=6)
        run = simulate(cfg, "first")
        assert abs(energy(run.final) - run.energies[-1]) < 1e-12
